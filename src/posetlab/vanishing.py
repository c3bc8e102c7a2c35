"""Polynomial-time positivity tests for gap statistics.

F(k, l) > 0 is decided by six linear inequalities in (k, l) built from
ideal and interval sizes; the support is therefore a (possibly degenerate)
hexagon with sides parallel to the axes and to k + l = const.  The bounds
come from the positional existence criterion: a linear extension with
prescribed positions a_1 < ... < a_r for chain-ordered marks
z_1 < ... < z_r exists iff

    b(z_i) <= a_i,   b*(z_i) <= n - a_i + 1,   a_j - a_i >= b(z_i, z_j) - 1.

The tests check ``support`` against a direct implementation of that
criterion, and it against enumeration.
"""

from __future__ import annotations

from .errors import BadChain, HypothesesNotMet
from .extensions import FTable, f_table
from .inequalities import FAILS, HOLDS, CheckReport, ab_products
from .posets import MarkedTriple, Poset, _FrozenRecord, is_normalized


class SupportRegion(_FrozenRecord):
    """Six exact integer bounds cutting out {(k, l) : F(k, l) > 0}."""

    __slots__ = ("k_lo", "k_hi", "l_lo", "l_hi", "s_lo", "s_hi")

    def membership(self, k: int, l: int) -> bool:
        return (
            self.k_lo <= k <= self.k_hi
            and self.l_lo <= l <= self.l_hi
            and self.s_lo <= k + l <= self.s_hi
        )

    def points(self) -> set[tuple[int, int]]:
        """The members among the integer points of [k_lo, k_hi] x [l_lo, l_hi]."""
        return {
            (k, l)
            for k in range(self.k_lo, self.k_hi + 1)
            for l in range(self.l_lo, self.l_hi + 1)
            if self.membership(k, l)
        }

    def bounds_dict(self) -> dict[str, int]:
        return dict(zip(self._fields, self._values(self)))


def support(p: Poset, z: MarkedTriple) -> SupportRegion:
    """Support region of F for a normalized triple; membership is O(1)."""
    if not is_normalized(p, z):
        raise BadChain("support requires z1 < z2 < z3")
    n = p.n
    z1, z2, z3 = z.as_tuple()
    return SupportRegion(
        k_lo=p.interval(z1, z2) - 1,
        k_hi=n + 1 - p.b[z1] - p.b_star[z2],
        l_lo=p.interval(z2, z3) - 1,
        l_hi=n + 1 - p.b_star[z3] - p.b[z2],
        s_lo=p.interval(z1, z3) - 1,
        s_hi=n + 1 - p.b_star[z3] - p.b[z1],
    )


def equality_case_check(
    p: Poset, z: MarkedTriple, k: int, l: int, F: FTable | None = None
) -> CheckReport:
    """Exact product equality in the doubly-vanishing case.

    Requires F(k,l+2) = F(k+2,l) = 0 and F(k,l) F(k+1,l+1) > 0; raises
    HypothesesNotMet otherwise.  Checks F(k,l+1) F(k+1,l) = F(k+1,l+1) F(k,l)
    and the structural consequence that every element is comparable to z2.
    """
    F = F if F is not None else f_table(p, z)
    if F.get(k, l + 2) != 0 or F.get(k + 2, l) != 0:
        raise HypothesesNotMet("F(k,l+2) and F(k+2,l) must both vanish")
    A, B, cells = ab_products(F, k, l)
    if B == 0:
        raise HypothesesNotMet("F(k,l) F(k+1,l+1) must be positive")
    all_comparable = p.b[z.z2] + p.b_star[z.z2] == p.n + 1
    verdict = HOLDS if (A == B and all_comparable) else FAILS
    return CheckReport(
        "vanishing-equality", k, l, B, A, verdict, cells,
        extra={"z2_comparable_to_all": all_comparable},
    )
