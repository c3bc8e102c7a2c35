"""Deterministic generators for the explicit marked-poset families.

Element ids are laid out stably (marked elements first, then chains, then
pendants) so serialized fixtures do not move between versions.  Every
generator returns the poset together with closed-form expected counts; the
test suite checks those against the exact DP on a parameter grid.

Families:

* ``antichain``       z1 < (antichain containing z2) < z3.  The support of
  F lives on one anti-diagonal, so F(k,l) = F(k+1,l+1) = F(k,l+2) =
  F(k+2,l) = 0 while F(k,l+1) = F(k+1,l) = (k+l-1)! > 0: the product
  equality of the doubly-vanishing case genuinely needs its positivity
  hypothesis.
* ``cpc2-witness``    width-3 family on which F(k,l+2) F(k+1,l) exceeds
  F(k,l+1) F(k+1,l+1) by the exact factor (l+1)/l.
* ``stanley-tight``   width-2 family whose position counts make the
  single-element ratio bound an equality, for 3 <= k <= n-1.
* ``converse-tight``  family whose cross-product ratio grows linearly
  in n, matching the converse bound up to a bounded factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import BadParams
from .posets import MAX_ELEMENTS, SCHEMA, MarkedTriple, _Record, build


class FamilyInstance(_Record):
    __slots__ = (
        "family", "params", "poset", "z", "a", "expected_cells", "expected_positions", "extras",
    )
    _defaults = {
        "z": None, "a": None, "expected_cells": dict, "expected_positions": dict, "extras": dict,
    }

    def to_json_obj(self) -> dict:
        out = {
            "schema": SCHEMA,
            "type": "family",
            "family": self.family,
            "params": self.params,
            "n": self.poset.n,
            "covers": [list(c) for c in self.poset.covers],
        }
        if self.z is not None:
            out["z"] = list(self.z.as_tuple())
        if self.a is not None:
            out["a"] = self.a
        expected: dict = {}
        if self.expected_cells:
            expected["F"] = [[k, l, str(v)] for (k, l), v in sorted(self.expected_cells.items())]
        if self.expected_positions:
            expected["N"] = [[k, str(v)] for k, v in sorted(self.expected_positions.items())]
        expected.update({key: str(v) for key, v in self.extras.items()})
        out["expected"] = expected
        return out


def family_antichain(k: int, l: int) -> FamilyInstance:
    """z1 below an antichain of k+l-1 free elements plus z2, all below z3."""
    if k < 1 or l < 1:
        raise BadParams("antichain family needs k, l >= 1")
    m = k + l - 1
    z1, z2, z3 = 0, 1, 2
    xs = list(range(3, 3 + m))
    n = m + 3
    pairs = [(z1, z2), (z2, z3)]
    pairs += [(z1, x) for x in xs] + [(x, z3) for x in xs]
    cells = {
        (k, l): 0,
        (k + 1, l + 1): 0,
        (k, l + 2): 0,
        (k + 2, l): 0,
        (k, l + 1): factorial(k + l - 1),
        (k + 1, l): factorial(k + l - 1),
    }
    return FamilyInstance(
        "antichain", {"k": k, "l": l}, build(n, pairs), z=MarkedTriple(z1, z2, z3),
        expected_cells=cells,
    )


def family_cpc2_witness(k: int, l: int) -> FamilyInstance:
    """Width-3 family violating the cpc2 product comparison.

    Chain z1 < x_1 < ... < x_{k-1} < z2 < y_1 < ... < y_{l-2} < z3 with a
    pendant u squeezed between the neighbours of z2 and two pendants v, w
    above z2.  Empty chains collapse onto the adjacent marked element.
    """
    if k < 1 or l < 2:
        raise BadParams("cpc2-witness family needs k >= 1 and l >= 2")
    z1, z2, z3 = 0, 1, 2
    nx, ny = k - 1, l - 2
    xs = list(range(3, 3 + nx))
    ys = list(range(3 + nx, 3 + nx + ny))
    u, v, w = 3 + nx + ny, 4 + nx + ny, 5 + nx + ny
    n = 6 + nx + ny
    spine = [z1] + xs + [z2] + ys + [z3]
    pairs = list(zip(spine, spine[1:]))
    pairs += [(xs[-1] if xs else z1, u), (u, ys[0] if ys else z3), (z2, v), (z2, w)]
    cells = {
        (k, l + 2): (l + 1) * l,
        (k + 1, l): 2 * (l - 1),
        (k, l + 1): 2 * l,
        (k + 1, l + 1): l * (l - 1),
    }
    return FamilyInstance(
        "cpc2-witness", {"k": k, "l": l}, build(n, pairs), z=MarkedTriple(z1, z2, z3),
        expected_cells=cells, extras={"cpc2_ratio": Fraction(l, l + 1)},
    )


def family_stanley_tight(n: int, k: int) -> FamilyInstance:
    """Width-2 family with N_{k-1} = n-k, N_k = (k-1)(n-k), N_{k+1} = k-1.

    Chain x_1 < ... < x_{k-2} < a < y_1 < ... < y_{n-k-1} with pendants
    v < y_1 (when there is a y) and w above x_{k-2}, v < w.  The w-pendant
    must hang off the top of the x-chain: anchoring it lower admits extra
    words into N_{k+1} and breaks the closed form, so k >= 3.
    """
    if not 3 <= k <= n - 1:
        raise BadParams("stanley-tight family needs 3 <= k <= n-1")
    a, v, w = 0, 1, 2
    nx, ny = k - 2, n - k - 1
    xs = list(range(3, 3 + nx))
    ys = list(range(3 + nx, 3 + nx + ny))
    spine = xs + [a] + ys
    pairs = list(zip(spine, spine[1:]))
    if ys:
        pairs.append((v, ys[0]))
    pairs += [(xs[-1], w), (v, w)]
    positions = {k - 1: n - k, k: (k - 1) * (n - k), k + 1: k - 1}
    return FamilyInstance(
        "stanley-tight", {"n": n, "k": k}, build(n, pairs), a=a,
        expected_positions=positions,
        extras={"ratio_rhs": (k - 1) * (n - k)},
    )


def family_converse_tight(n: int, k: int, l: int) -> FamilyInstance:
    """Family whose cross-product ratio equals 1 + (k-1) l (n-k-l-2).

    Chain z1 < a_1 < ... < a_{k-2} < z2 < b_1 < ... < b_{l-1} < z3 <
    c_1 < ... < c_m with pendants u < z2, (a adjacent to z2) < v < z3,
    w above the b adjacent to z3, and u < v < w; m = n - k - l - 3 >= 1.
    """
    m = n - k - l - 3
    if k < 2 or l < 1 or m < 1:
        raise BadParams("converse-tight family needs k >= 2, l >= 1, n >= k + l + 4")
    z1, z2, z3, u, v, w = 0, 1, 2, 3, 4, 5
    na, nb = k - 2, l - 1
    As = list(range(6, 6 + na))
    Bs = list(range(6 + na, 6 + na + nb))
    Cs = list(range(6 + na + nb, 6 + na + nb + m))
    spine = [z1] + As + [z2] + Bs + [z3] + Cs
    pairs = list(zip(spine, spine[1:]))
    pairs += [
        (u, z2),
        (As[-1] if As else z1, v),
        (v, z3),
        (Bs[-1] if Bs else z2, w),
        (u, v),
        (v, w),
    ]
    c = n - k - l - 2
    cells = {
        (k, l): c,
        (k + 1, l): (k - 1) * c,
        (k, l + 1): 1 + (k - 1) * l * c,
        (k + 1, l + 1): k - 1,
    }
    return FamilyInstance(
        "converse-tight", {"n": n, "k": k, "l": l}, build(n, pairs),
        z=MarkedTriple(z1, z2, z3), expected_cells=cells,
        extras={"cross_ratio": 1 + (k - 1) * l * c},
    )


FAMILIES = {
    "antichain": (family_antichain, ("k", "l")),
    "cpc2-witness": (family_cpc2_witness, ("k", "l")),
    "stanley-tight": (family_stanley_tight, ("n", "k")),
    "converse-tight": (family_converse_tight, ("n", "k", "l")),
}
FAMILY_IDS = tuple(FAMILIES)


def build_family(family: str, **params) -> FamilyInstance:
    """The instance of ``family``; BadParams unless ``params`` are exactly
    the family's parameters, none above MAX_ELEMENTS."""
    if family not in FAMILIES:
        raise BadParams(f"unknown family {family!r}; choose from {FAMILY_IDS}")
    builder, names = FAMILIES[family]
    if sorted(params) != sorted(names) or max(params.values()) > MAX_ELEMENTS:
        given = " ".join(f"--{name} {value}" for name, value in params.items()) or "none"
        flags = " ".join(f"--{name}" for name in names)
        raise BadParams(f"family {family} takes {flags}, each at most {MAX_ELEMENTS}; got {given}")
    return builder(*(params[name] for name in names))
