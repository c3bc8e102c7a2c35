"""Exact verdicts for every cross-product-type inequality on F-tables.

Each checker returns a CheckReport whose lhs/rhs are exact: an int, or a
Fraction where the bound has a rational factor (``main``'s two vanishing
branches and ``thin``).  The verdict is derived from the sign of
``slack = rhs - lhs`` (inequality oriented as lhs <= rhs), and ``ratio``
is always a Fraction.  Comparisons involving square roots are decided by
isolating the root and squaring, with explicit sign analysis, so no
floating point ever enters a verdict.  "vacuous" is a first-class verdict:
it means a required positivity hypothesis fails (or every participating
cell is zero), and is counted separately from "holds".

The pure product comparisons (cpc, cpc1, cpc2, half*, logc1-3,
logc-product, converse) are rows of one table: ``_product_check`` turns
each row (lhs and rhs cells as (dk, dl) offsets, report cell order, rhs
scale 1, 2 or c(k,l,n) = 2kl(min(k,l)+1)n, vacuity rule) into its check_*
function, and check_gcpc compares its four corner cells with the same
core.  sqrt-lower, vanish-lower, main, thin, two-of-three and stanley are
bespoke; the first four read A = F(k+1,l) F(k,l+1), B = F(k,l) F(k+1,l+1)
and their cells from ``ab_products``.  The first three (``main`` when
F(k,l+2) F(k+2,l) > 0) decide their square root by one sign-guarded
comparison, ``_sqrt_compare``.

Abbreviations used in the cell dictionaries: ``F_kl`` is F(k, l),
``F_k1l`` is F(k+1, l), ``F_kl2`` is F(k, l+2), and so on.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import itemgetter

from .errors import BadParams
from .extensions import FTable, NVector
from .posets import SCHEMA, Poset, _Record, is_flat, is_thin

HOLDS, FAILS, VACUOUS = "holds", "fails", "vacuous"


class CheckReport(_Record):
    __slots__ = ("ineq", "k", "l", "lhs", "rhs", "verdict", "cells", "extra", "note")

    # its own: ~600 per certify operation, where _Record's would add ~1.6 ms (8%)
    def __init__(
        self,
        ineq: str,
        k: int | None,
        l: int | None,
        lhs: int | Fraction,
        rhs: int | Fraction,
        verdict: str,
        cells: dict[str, int] | None = None,
        extra: dict | None = None,
        note: str = "",
    ) -> None:
        self.ineq = ineq
        self.k = k
        self.l = l
        self.lhs = lhs
        self.rhs = rhs
        self.verdict = verdict
        self.cells = {} if cells is None else cells
        self.extra = {} if extra is None else extra
        self.note = note

    @property
    def slack(self) -> int | Fraction:
        return self.rhs - self.lhs

    @property
    def ratio(self) -> Fraction | None:
        """Normalized rhs/lhs when lhs > 0; for human inspection."""
        return Fraction(self.rhs, self.lhs) if self.lhs > 0 else None

    def to_json_obj(self) -> dict:
        out = {
            "schema": SCHEMA,
            "type": "check",
            "ineq": self.ineq,
            "k": self.k,
            "l": self.l,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "slack": str(self.slack),
            "verdict": self.verdict,
            "cells": {name: str(v) for name, v in self.cells.items()},
        }
        if self.extra:
            out["extra"] = {key: str(v) for key, v in self.extra.items()}
        r = self.ratio
        out["ratio"] = str(r) if r is not None else None
        if self.note:
            out["note"] = self.note
        return out


def _report(ineq, k, l, lhs, rhs, cells, vacuous=False, extra=None, note="") -> CheckReport:
    if vacuous:
        verdict = VACUOUS
    else:
        verdict = HOLDS if lhs <= rhs else FAILS
    return CheckReport(ineq, k, l, lhs, rhs, verdict, cells, extra or {}, note)


# -- the product-comparison table ---------------------------------------------


def _spec(offsets) -> tuple:
    """(cell name, dk, dl) for each (dk, dl) offset from (k, l)."""
    return tuple((f"F_k{dk or ''}l{dl or ''}", dk, dl) for dk, dl in offsets)


def _read(F: FTable, k: int, l: int, spec: tuple) -> dict[str, int]:
    get = F.entries.get
    return {name: get((k + dk, l + dl), 0) for name, dk, dl in spec}


def _compare(ineq, k, l, cells, lhs, rhs, scale=1, needs_b=False, extra=None) -> CheckReport:
    """Report prod(lhs(cells)) <= scale * prod(rhs(cells)); ``lhs`` and ``rhs``
    pick cell values by name.  Vacuous, with lhs = rhs = 0, when ``needs_b``
    and F(k,l) F(k+1,l+1) = 0; otherwise vacuous when every cell is zero."""
    if needs_b and not cells["F_kl"] * cells["F_k1l1"]:
        return _report(ineq, k, l, 0, 0, cells, vacuous=True, extra=extra)
    return _report(
        ineq, k, l, prod(lhs(cells)), scale * prod(rhs(cells)), cells,
        vacuous=not (needs_b or any(cells.values())), extra=extra,
    )


def _product_check(ineq, lhs, rhs, cells=None, scale=1, needs_b=False):
    """One table row as a checker (F, k, l) -> CheckReport for
    prod(lhs) <= scale * prod(rhs), where ``lhs`` and ``rhs`` are (dk, dl)
    offsets from (k, l) and ``scale`` is an int or a function of (k, l, n).
    ``cells`` is the report's cell order (default: lhs cells, then rhs
    cells); ``needs_b`` makes the row vacuous when F(k,l) F(k+1,l+1) = 0."""
    spec = _spec(cells or dict.fromkeys(lhs + rhs))
    pick_lhs = itemgetter(*(name for name, _, _ in _spec(lhs)))
    pick_rhs = itemgetter(*(name for name, _, _ in _spec(rhs)))

    def check(F: FTable, k: int, l: int) -> CheckReport:
        c = scale(k, l, F.n) if callable(scale) else scale
        return _compare(ineq, k, l, _read(F, k, l, spec), pick_lhs, pick_rhs, c, needs_b)

    factor = {1: "", 2: "2 "}.get(scale, "c(k,l,n) ")
    vacuity = "F(k,l) F(k+1,l+1) = 0" if needs_b else "every cell is zero"
    check.__doc__ = f"{_formula(lhs)} <= {factor}{_formula(rhs)}; vacuous when {vacuity}."
    return check


def _formula(offsets) -> str:
    return " ".join(
        f"F(k{f'+{dk}' if dk else ''},l{f'+{dl}' if dl else ''})" for dk, dl in offsets
    )


_A = ((1, 0), (0, 1))  # A = F(k+1,l) F(k,l+1)
_B = ((0, 0), (1, 1))  # B = F(k,l) F(k+1,l+1)
_CPC1 = ((2, 0), (0, 1)), ((1, 0), (1, 1))  # F(k+2,l) F(k,l+1) <= F(k+1,l) F(k+1,l+1)
_CPC2 = ((0, 2), (1, 0)), ((0, 1), (1, 1))  # F(k,l+2) F(k+1,l) <= F(k,l+1) F(k+1,l+1)

check_cpc = _product_check("cpc", _B, _A)
check_cpc1 = _product_check("cpc1", *_CPC1)
check_cpc2 = _product_check("cpc2", *_CPC2)
check_half_cpc = _product_check("half", _B, _A, scale=2)
check_half_cpc1 = _product_check("half1", *_CPC1, scale=2)
check_half_cpc2 = _product_check("half2", *_CPC2, scale=2)
check_logc1 = _product_check("logc1", ((2, 0), (0, 2)), ((1, 1), (1, 1)))
check_logc2 = _product_check("logc2", ((0, 0), (0, 2)), ((0, 1), (0, 1)))
check_logc3 = _product_check("logc3", ((0, 0), (2, 0)), ((1, 0), (1, 0)))
# F(k+2,l) F(k,l+2) / F(k+1,l+1)^2 <= A / B, cross-multiplied
check_logconcave_product = _product_check(
    "logc-product", _B + ((2, 0), (0, 2)), _A + ((1, 1), (1, 1)),
    cells=_B + _A + ((2, 0), (0, 2)), needs_b=True,
)
check_converse = _product_check(
    "converse", _A, _B, cells=_B + _A, needs_b=True,
    scale=lambda k, l, n: 2 * k * l * (min(k, l) + 1) * n,  # c(k,l,n)
)


_AB_SPEC = _spec(_B + _A)
_AB_WIDE_SPEC = _spec(_B + _A + ((0, 2), (2, 0)))


def ab_products(F: FTable, k: int, l: int, wide: bool = False) -> tuple[int, int, dict]:
    """(A, B, cells) with A = F(k+1,l) F(k,l+1), B = F(k,l) F(k+1,l+1) and
    their four cells in report order; with ``wide`` also F(k,l+2), F(k+2,l)."""
    cells = _read(F, k, l, _AB_WIDE_SPEC if wide else _AB_SPEC)
    return cells["F_k1l"] * cells["F_kl1"], cells["F_kl"] * cells["F_k1l1"], cells


def check_two_of_three(F: FTable, k: int, l: int) -> CheckReport:
    """At least two of {cpc, cpc1, cpc2} hold (vacuous counts as holding)."""
    reports = [check_cpc(F, k, l), check_cpc1(F, k, l), check_cpc2(F, k, l)]
    failures = sum(1 for r in reports if r.verdict == FAILS)
    cells: dict[str, int] = {}
    for r in reports:
        cells.update(r.cells)
    vac = all(r.verdict == VACUOUS for r in reports)
    return _report(
        "two-of-three", k, l, failures, 1, cells, vacuous=vac,
        extra={"verdicts": ",".join(r.verdict for r in reports)},
    )


# -- ratio lower bounds -------------------------------------------------------


def _sqrt_compare(ineq, k, l, cells, left, scale, lhs, note="squared") -> CheckReport:
    """Report left sqrt(scale) >= sqrt(lhs), lhs, scale >= 0: lhs <= left^2 scale,
    or, when left < 0, lhs + 1 against 0 with the note "2A < B" (which a
    negative left implies in every caller, on a table of counts)."""
    if left < 0:
        return _report(ineq, k, l, lhs + 1, 0, cells, note="2A < B")
    return _report(ineq, k, l, lhs, left * left * scale, cells, note=note)


def check_sqrt_lower(F: FTable, k: int, l: int) -> CheckReport:
    """A/B >= 1/2 + sqrt(F(k,l+2) F(k+2,l)) / (2 F(k+1,l+1)), B > 0 required;
    A = F(k+1,l) F(k,l+1), B = F(k,l) F(k+1,l+1).

    Decided exactly: (2A - B) F(k+1,l+1) >= sqrt(B^2 CD), sign-guarded.
    """
    A, B, cells = ab_products(F, k, l, wide=True)
    if B == 0:
        return _report("sqrt-lower", k, l, 0, 0, cells, vacuous=True)
    left, lhs = (2 * A - B) * cells["F_k1l1"], B * B * cells["F_kl2"] * cells["F_k2l"]
    return _sqrt_compare("sqrt-lower", k, l, cells, left, 1, lhs)


def check_vanish_lower(F: FTable, k: int, l: int) -> CheckReport:
    """A/B >= 1 / (1 + sqrt(1 - F(k,l) F(k+2,l) / F(k+1,l)^2)), requiring
    B > 0 and F(k,l+2) = 0.

    Equivalent to A sqrt(F(k+1,l)^2 - F(k,l) F(k+2,l)) >= (B - A) F(k+1,l);
    immediate when A >= B, otherwise sign-guarded and squared.
    """
    A, B, cells = ab_products(F, k, l, wide=True)
    if B == 0 or cells["F_kl2"] != 0:
        return _report("vanish-lower", k, l, 0, 0, cells, vacuous=True)
    if A >= B:
        return _report("vanish-lower", k, l, B, A, cells, note="A >= B")
    f_k1l = cells["F_k1l"]
    disc = f_k1l ** 2 - cells["F_kl"] * cells["F_k2l"]
    return _sqrt_compare("vanish-lower", k, l, cells, A, disc, (B - A) ** 2 * f_k1l ** 2)


def check_main(F: FTable, k: int, l: int) -> CheckReport:
    """Branch on the vanishing pattern of F(k,l+2), F(k+2,l):

    * both positive:  A >= (1/2 + 1/(4 n sqrt(k l))) B   (squared form)
    * F(k,l+2) = 0 < F(k+2,l):  A >= (1/2 + 1/(16 n k l^2)) B
    * F(k+2,l) = 0 < F(k,l+2):  A >= (1/2 + 1/(16 n k^2 l)) B
    * both zero, B > 0:  A = B exactly

    Vacuous when B = F(k,l) F(k+1,l+1) = 0.
    """
    n = F.n
    A, B, cells = ab_products(F, k, l, wide=True)
    C, D = cells["F_kl2"], cells["F_k2l"]
    if B == 0:
        return _report("main", k, l, 0, 0, cells, vacuous=True)
    if C > 0 and D > 0:
        # (2A - B) sqrt(4 n^2 k l) >= sqrt(B^2)
        return _sqrt_compare(
            "main", k, l, cells, 2 * A - B, 4 * n * n * k * l, B * B,
            note="branch=nonvanishing(squared)",
        )
    if C == 0 and D > 0:
        factor = Fraction(1, 2) + Fraction(1, 16 * n * k * l * l)
        return _report("main", k, l, factor * B, A, cells, note="branch=first-vanishing")
    if D == 0 and C > 0:
        factor = Fraction(1, 2) + Fraction(1, 16 * n * k * k * l)
        return _report("main", k, l, factor * B, A, cells, note="branch=second-vanishing")
    # both vanish: exact equality
    verdict = HOLDS if A == B else FAILS
    return CheckReport("main", k, l, B, A, verdict, cells, note="branch=equality")


def check_thin_flat(F: FTable, p: Poset, t: int, k: int, l: int) -> CheckReport:
    """A >= (1/2 + 1/(16 t (t+1)^3)) B for posets that are t-thin or t-flat
    with respect to the marked triple.  Vacuous when neither holds or B = 0.
    BadParams for t < 1: the bound is stated for t >= 1 only.
    """
    if t < 1:
        raise BadParams(f"thin check needs t >= 1, got {t}")
    A, B, cells = ab_products(F, k, l)
    if not (is_thin(p, F.z, t) or is_flat(p, F.z, t)) or B == 0:
        return _report("thin", k, l, 0, 0, cells, vacuous=True, extra={"t": t})
    factor = Fraction(1, 2) + Fraction(1, 16 * t * (t + 1) ** 3)
    return _report("thin", k, l, factor * B, A, cells, extra={"t": t})


_GCPC_LHS, _GCPC_RHS = itemgetter("F_kl", "F_pq"), itemgetter("F_pl", "F_kq")


def check_gcpc(table, k: int, l: int, p: int, q: int) -> CheckReport:
    """F(k,l) F(p,q) <= F(p,l) F(k,q) for k <= p, l <= q.

    ``table`` may be an FTable or a raw {(a, b): count} map (signed gaps)."""
    if k > p or l > q:
        raise BadParams("gcpc requires k <= p and l <= q")
    get = table.get if isinstance(table, dict) else table.entries.get
    cells = {
        "F_kl": get((k, l), 0),
        "F_pq": get((p, q), 0),
        "F_pl": get((p, l), 0),
        "F_kq": get((k, q), 0),
    }
    return _compare("gcpc", k, l, cells, _GCPC_LHS, _GCPC_RHS, extra={"p": p, "q": q})


def check_stanley(N: NVector, k: int) -> CheckReport:
    """Position-count bounds for one marked element:

    N_k <= (k-1) N_{k-1}  when N_{k-1} > 0,
    N_k <= (n-k) N_{k+1}  when N_{k+1} > 0,
    N_k^2 <= (k-1)(n-k) N_{k-1} N_{k+1}  when both are positive.

    The report's lhs/rhs carry the squared ratio bound; the verdict fails
    if any applicable bound fails, and is vacuous when none applies.
    """
    n = N.n
    nk, lo, hi = N.get(k), N.get(k - 1), N.get(k + 1)
    cells = {"N_km1": lo, "N_k": nk, "N_kp1": hi}
    failures = []
    applicable = False
    if lo > 0:
        applicable = True
        if nk > (k - 1) * lo:
            failures.append("up")
    if hi > 0:
        applicable = True
        if nk > (n - k) * hi:
            failures.append("down")
    if lo > 0 and hi > 0:
        lhs, rhs = nk * nk, (k - 1) * (n - k) * lo * hi
        if lhs > rhs:
            failures.append("ratio")
    else:
        lhs, rhs = 0, 0
    if not applicable:
        return _report("stanley", k, None, 0, 0, cells, vacuous=True)
    verdict = FAILS if failures else HOLDS
    return CheckReport("stanley", k, None, lhs, rhs, verdict, cells,
                       extra={"failed": ",".join(failures)} if failures else {})


# -- registry for the CLI -----------------------------------------------------

TABLE_CHECKS = {
    "cpc": check_cpc,
    "cpc1": check_cpc1,
    "cpc2": check_cpc2,
    "half": check_half_cpc,
    "half1": check_half_cpc1,
    "half2": check_half_cpc2,
    "logc1": check_logc1,
    "logc2": check_logc2,
    "logc3": check_logc3,
    "logc-product": check_logconcave_product,
    "sqrt-lower": check_sqrt_lower,
    "vanish-lower": check_vanish_lower,
    "main": check_main,
    "converse": check_converse,
    "two-of-three": check_two_of_three,
}

ALL_CHECK_IDS = sorted(TABLE_CHECKS) + ["thin", "stanley", "gcpc"]
