"""Polynomial-time positivity tests for gap statistics.

F(k, l) > 0 is decided by six linear inequalities in (k, l) built from
ideal and interval sizes; the support is therefore a (possibly degenerate)
hexagon with sides parallel to the axes and to k + l = const.  The
underlying primitive is the positional existence test: a linear extension
with prescribed positions a_1 < ... < a_r for chain-ordered marks
z_1 < ... < z_r exists iff

    b(z_i) <= a_i,   b*(z_i) <= n - a_i + 1,   a_j - a_i >= b(z_i, z_j) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadChain, HypothesesNotMet, IndexOutOfRange
from .extensions import FTable, f_table
from .inequalities import FAILS, HOLDS, CheckReport, ab_products
from .posets import MarkedTriple, Poset, is_normalized


@dataclass(frozen=True)
class SupportRegion:
    """Six exact integer bounds cutting out {(k, l) : F(k, l) > 0}."""

    k_lo: int
    k_hi: int
    l_lo: int
    l_hi: int
    s_lo: int
    s_hi: int

    def membership(self, k: int, l: int) -> bool:
        return (
            self.k_lo <= k <= self.k_hi
            and self.l_lo <= l <= self.l_hi
            and self.s_lo <= k + l <= self.s_hi
        )

    def box(self):
        """Integer points of the bounding box [k_lo, k_hi] x [l_lo, l_hi]."""
        for k in range(self.k_lo, self.k_hi + 1):
            for l in range(self.l_lo, self.l_hi + 1):
                yield (k, l)

    def points(self) -> set[tuple[int, int]]:
        return {kl for kl in self.box() if self.membership(*kl)}

    def bounds_dict(self) -> dict[str, int]:
        return {
            "k_lo": self.k_lo, "k_hi": self.k_hi,
            "l_lo": self.l_lo, "l_hi": self.l_hi,
            "s_lo": self.s_lo, "s_hi": self.s_hi,
        }


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


def exists_extension_at(p: Poset, zs, positions) -> bool:
    """Is there an extension with the chain zs[i] at position positions[i]?

    ``zs`` must be strictly chain-ordered, ``positions`` strictly increasing
    within 1..n.
    """
    zs, positions = list(zs), list(positions)
    if len(zs) != len(positions) or not zs:
        raise BadChain("need one position per chain element")
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            if not p.less(zs[i], zs[j]):
                raise BadChain(f"marks not chain-ordered: {zs[i]} !< {zs[j]}")
    for a in positions:
        if not 1 <= a <= p.n:
            raise IndexOutOfRange(f"position {a} outside 1..{p.n}")
    if any(positions[i] >= positions[i + 1] for i in range(len(positions) - 1)):
        raise BadChain("positions must be strictly increasing")
    n = p.n
    for z, a in zip(zs, positions):
        if p.b[z] > a or p.b_star[z] > n - a + 1:
            return False
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            if positions[j] - positions[i] < p.interval(zs[i], zs[j]) - 1:
                return False
    return True


def hexagon_closure_check(region_or_points) -> bool:
    """Diagonal closure: (k,l) and (k+1,l+1) in S forces (k+1,l), (k,l+1) in S.

    Accepts a SupportRegion or any iterable of integer points.
    """
    if isinstance(region_or_points, SupportRegion):
        pts = region_or_points.points()
    else:
        pts = set(region_or_points)
    return all(
        (k + 1, l) in pts and (k, l + 1) in pts
        for (k, l) in pts
        if (k + 1, l + 1) in pts
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
