"""Checker verdicts on the named families and on the random corpus."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from conftest import chain_triples, corpus
from posetlab.errors import BadParams, HypothesesNotMet
from posetlab.extensions import FTable, NVector, f_table, f_table_signed, n_vector
from posetlab.families import (
    family_converse_tight,
    family_cpc2_witness,
    family_stanley_tight,
)
from posetlab.inequalities import (
    FAILS,
    HOLDS,
    TABLE_CHECKS,
    VACUOUS,
    check_converse,
    check_cpc,
    check_cpc1,
    check_cpc2,
    check_gcpc,
    check_half_cpc,
    check_half_cpc1,
    check_half_cpc2,
    check_logc1,
    check_logc2,
    check_logc3,
    check_logconcave_product,
    check_main,
    check_sqrt_lower,
    check_stanley,
    check_thin_flat,
    check_two_of_three,
    check_vanish_lower,
)
from posetlab.posets import MarkedTriple, build, chain, normalize, params, thin_threshold
from posetlab.vanishing import equality_case_check


@pytest.fixture(scope="module")
def witness():
    inst = family_cpc2_witness(1, 2)
    return inst, f_table(inst.poset, inst.z)


def test_cpc_on_witness_and_zero_window(witness):
    inst, F = witness
    rep = check_cpc(F, 1, 2)
    assert rep.verdict == HOLDS and rep.lhs == 2 * 2 and rep.rhs == 2 * 4
    rep0 = check_cpc(F, 5, 5)
    assert rep0.verdict == VACUOUS and rep0.slack == 0


def test_cpc2_fails_on_witness_with_exact_ratio(witness):
    inst, F = witness
    rep = check_cpc2(F, 1, 2)
    assert rep.verdict == FAILS
    assert rep.lhs == 6 * 2 and rep.rhs == 4 * 2
    assert rep.ratio == Fraction(2, 3)


def test_cpc1_fails_on_dual_of_witness(witness):
    inst, _ = witness
    Fd = f_table(inst.poset.dual(), inst.z.reversed())
    assert any(
        check_cpc1(Fd, k, l).verdict == FAILS
        for k in range(1, 7)
        for l in range(1, 7)
    )


def test_two_of_three(witness):
    inst, F = witness
    rep = check_two_of_three(F, 1, 2)
    assert rep.verdict == HOLDS and rep.extra["verdicts"] == "holds,holds,fails"
    assert check_two_of_three(F, 6, 6).verdict == VACUOUS


def test_logc_on_witness(witness):
    inst, F = witness
    rep = check_logc1(F, 1, 2)
    assert rep.verdict == HOLDS
    assert rep.rhs == F.get(2, 3) ** 2 == 4
    assert rep.lhs == F.get(3, 2) * F.get(1, 4) == 0
    assert check_logc2(F, 6, 6).verdict == VACUOUS


def test_half_variants(witness):
    inst, F = witness
    for checker in (check_half_cpc, check_half_cpc1, check_half_cpc2):
        for k in range(1, 6):
            for l in range(1, 6):
                assert checker(F, k, l).verdict != FAILS
    Fc = f_table(chain(3), MarkedTriple(0, 1, 2))
    assert check_half_cpc(Fc, 2, 2).verdict == VACUOUS


def test_sqrt_lower_reduces_to_half_when_root_vanishes(witness):
    inst, F = witness
    k, l = 1, 2
    assert F.get(k, l + 2) * F.get(k + 2, l) == 0  # the root term drops out
    rep = check_sqrt_lower(F, k, l)
    assert rep.lhs == 0
    A = F.get(k + 1, l) * F.get(k, l + 1)
    B = F.get(k, l) * F.get(k + 1, l + 1)
    assert (rep.verdict == HOLDS) == (2 * A >= B)


def test_main_equality_branch():
    p, z = normalize(
        build(7, [(0, 1), (1, 2), (3, 2), (2, 4), (4, 5), (4, 6)]),
        MarkedTriple(1, 2, 5),
    )
    F = f_table(p, z)
    found = False
    for k in range(1, 7):
        for l in range(1, 7):
            rep = check_main(F, k, l)
            if rep.note == "branch=equality" and rep.verdict != VACUOUS:
                assert rep.verdict == HOLDS and rep.slack == 0
                found = True
                # cross-check with the dedicated equality-case verdict
                assert equality_case_check(p, z, k, l, F).verdict == HOLDS
    assert found


def _ab_table(f_kl, f_k1l1, f_k1l, f_kl1, f_kl2, f_k2l) -> FTable:
    """A hand-made table at (k, l) = (1, 1): B = F(1,1) F(2,2), A = F(2,1) F(1,2),
    with F(1,3) and F(3,1) beside them."""
    cells = {(1, 1): f_kl, (2, 2): f_k1l1, (2, 1): f_k1l, (1, 2): f_kl1,
             (1, 3): f_kl2, (3, 1): f_k2l}
    return FTable(5, MarkedTriple(0, 1, 2), {kl: v for kl, v in cells.items() if v})


def test_sqrt_lower_and_main_fail_outright_when_2a_below_b():
    # B = 3 * 2 = 6, A = 1 * 2 = 2: 2A - B = -2 < 0, so A/B < 1/2 already
    F = _ab_table(3, 2, 1, 2, 5, 7)
    rep = check_sqrt_lower(F, 1, 1)
    assert (rep.lhs, rep.rhs) == (6 * 6 * 5 * 7 + 1, 0)  # B^2 C D + 1 > 0
    assert rep.verdict == FAILS and rep.note == "2A < B"
    rep = check_main(F, 1, 1)  # both F(1,3) and F(3,1) positive
    assert (rep.lhs, rep.rhs) == (6 * 6 + 1, 0)  # B^2 + 1 > 0
    assert rep.verdict == FAILS and rep.note == "2A < B"
    # B = 2 * 2 = 4, A = 1 * 2 = 2: 2A = B is not "2A < B"; the squared
    # forms compare B^2 C D and B^2 with a zero left side
    F = _ab_table(2, 2, 1, 2, 5, 7)
    rep = check_sqrt_lower(F, 1, 1)
    assert (rep.lhs, rep.rhs) == (4 * 4 * 5 * 7, 0)
    assert rep.verdict == FAILS and rep.note == "squared"
    rep = check_main(F, 1, 1)
    assert (rep.lhs, rep.rhs) == (4 * 4, 0)
    assert rep.verdict == FAILS and rep.note == "branch=nonvanishing(squared)"


def test_vanish_lower_squared_branch():
    # F(1,3) = 0, B = 1 * 5 = 5 > A = 2 * 2 = 4; the bound squared reads
    # (B - A)^2 F(2,1)^2 <= A^2 (F(2,1)^2 - F(1,1) F(3,1))
    rep = check_vanish_lower(_ab_table(1, 5, 2, 2, 0, 1), 1, 1)
    assert (rep.lhs, rep.rhs) == (1 * 4, 16 * (4 - 1))
    assert rep.verdict == HOLDS and rep.note == "squared"
    rep = check_vanish_lower(_ab_table(1, 5, 2, 2, 0, 4), 1, 1)  # disc = 4 - 4 = 0
    assert (rep.lhs, rep.rhs) == (4, 0)
    assert rep.verdict == FAILS and rep.note == "squared"
    # B - A = 7 - 4 = 3, so the square shows: 3^2 * 2^2 <= 4^2 (2^2 - 1 * 1)
    rep = check_vanish_lower(_ab_table(1, 7, 2, 2, 0, 1), 1, 1)
    assert (rep.lhs, rep.rhs) == (9 * 4, 16 * 3)
    assert rep.verdict == HOLDS and rep.note == "squared"


@pytest.mark.parametrize(
    "counts, lhs, rhs, failed",
    [
        ({1: 1, 2: 2}, 0, 0, "up"),  # N_2 = 2 > (2-1) N_1 = 1; no N_3
        ({2: 4, 3: 1}, 0, 0, "down"),  # N_2 = 4 > (5-2) N_3 = 3; no N_1
        ({1: 1, 2: 5, 3: 1}, 25, 3, "up,down,ratio"),  # 5^2 > (2-1)(5-2) 1 1
    ],
)
def test_stanley_failures(counts, lhs, rhs, failed):
    rep = check_stanley(NVector(5, 0, counts), 2)
    assert (rep.lhs, rep.rhs) == (lhs, rhs)
    assert rep.verdict == FAILS and rep.note == ""
    assert rep.extra == {"failed": failed}


def test_main_vacuous_when_diagonal_vanishes(witness):
    inst, F = witness
    assert check_main(F, 6, 6).verdict == VACUOUS


def test_thin_factor_and_verdicts():
    # width-2 instance: t-thin bound applies with the minimal threshold
    inst = family_stanley_tight(6, 3)
    p, z = normalize(inst.poset, MarkedTriple(3, 0, 4))
    F = f_table(p, z)
    prm = params(p)
    t = thin_threshold(p, z)
    factor = Fraction(1, 2) + Fraction(1, 16 * t * (t + 1) ** 3)
    hit = False
    for k in range(1, p.n):
        for l in range(1, p.n):
            rep = check_thin_flat(F, prm, t, k, l)
            assert rep.verdict != FAILS
            if rep.verdict == HOLDS and rep.cells["F_kl"] * rep.cells["F_k1l1"] > 0:
                assert rep.lhs == factor * rep.cells["F_kl"] * rep.cells["F_k1l1"]
                hit = True
    assert hit
    assert Fraction(1, 2) + Fraction(1, 16 * 1 * 2 ** 3) == Fraction(1, 2) + Fraction(1, 128)


def test_thin_vacuous_when_threshold_too_small():
    inst = family_cpc2_witness(1, 3)
    F = f_table(inst.poset, inst.z)
    prm = params(inst.poset)
    t = thin_threshold(inst.poset, inst.z)
    if t > 1:
        assert check_thin_flat(F, prm, t - 1, 1, 3).verdict == VACUOUS


def test_thin_refuses_t_below_one():
    # the bound 1/2 + 1/(16 t (t+1)^3) is stated for t >= 1; at t = 0 or -1 it divides by 0
    inst = family_cpc2_witness(1, 3)
    F = f_table(inst.poset, inst.z)
    for t in (0, -1, -5):
        with pytest.raises(BadParams, match=f"thin check needs t >= 1, got {t}"):
            check_thin_flat(F, inst.poset, t, 1, 3)
    assert check_thin_flat(F, inst.poset, 1, 1, 3).extra == {"t": 1}


def test_converse_on_tight_family():
    inst = family_converse_tight(8, 2, 1)
    F = f_table(inst.poset, inst.z)
    rep = check_converse(F, 2, 1)
    assert rep.verdict == HOLDS
    A = F.get(3, 1) * F.get(2, 2)
    B = F.get(2, 1) * F.get(3, 2)
    assert rep.lhs == A and rep.rhs == 2 * 2 * 1 * 2 * 8 * B
    assert Fraction(A, B) == 1 + (2 - 1) * 1 * (8 - 2 - 1 - 2)
    assert check_converse(F, 5, 5).verdict == VACUOUS


def test_gcpc_equality_and_violation_via_signed_reduction(witness):
    inst, F = witness
    rep = check_gcpc(F, 1, 2, 1, 2)
    assert rep.verdict == HOLDS and rep.slack == 0  # p=k, q=l
    with pytest.raises(BadParams):
        check_gcpc(F, 2, 2, 1, 3)
    signed = f_table_signed(inst.poset, inst.z.swapped12())
    a, b = -2, 4  # transform of the (k, l) = (1, 2) violation
    rep2 = check_gcpc(signed, a, b, a + 1, b + 1)
    assert rep2.verdict == FAILS


def test_gcpc_holds_on_width_two(medium_corpus):
    # positive-index generalized comparison: no width-2 violation known
    for p, z in medium_corpus:
        if params(p).width != 2:
            continue
        F = f_table(p, z)
        cells = sorted(F.support())
        for (k, l) in cells:
            for (pp, qq) in cells:
                if k <= pp and l <= qq:
                    assert check_gcpc(F, k, l, pp, qq).verdict != FAILS


def test_width_two_cpc2_violation_witness():
    """Width two does not rescue cpc1/cpc2.

    On this 7-element width-2 poset, F = {(2,1): 2, (2,2): 3, (2,3): 2,
    (3,1): 4, (3,2): 2} and cpc2 fails at (k,l) = (2,1): 2*4 = 8 > 3*2 = 6.
    The chain z1 < z2 < z3 is genuine, cpc itself and the positive-index
    generalized comparison still hold here, and two-of-three is satisfied.
    (Extending positive-index width-2 safety to cpc1/cpc2 would need the
    signed-index comparison at a swapped triple, which width does not
    control.)
    """
    from posetlab.posets import build, width

    p = build(7, [(0, 4), (1, 5), (4, 6), (5, 3), (6, 2), (6, 5)])
    z = MarkedTriple(0, 6, 5)
    assert width(p) == 2
    assert p.less(z.z1, z.z2) and p.less(z.z2, z.z3)
    F = f_table(p, z)
    assert F.entries == {(2, 1): 2, (2, 2): 3, (2, 3): 2, (3, 1): 4, (3, 2): 2}
    rep = check_cpc2(F, 2, 1)
    assert rep.verdict == FAILS and rep.lhs == 8 and rep.rhs == 6
    dual_rep = check_cpc1(f_table(p.dual(), z.reversed()), 1, 2)
    assert dual_rep.verdict == FAILS
    for k in range(1, 7):
        for l in range(1, 7):
            assert check_cpc(F, k, l).verdict != FAILS
            assert check_two_of_three(F, k, l).verdict == HOLDS or (
                check_two_of_three(F, k, l).verdict == VACUOUS
            )
    cells = sorted(F.support())
    for (k, l) in cells:
        for (pp, qq) in cells:
            if k <= pp and l <= qq:
                assert check_gcpc(F, k, l, pp, qq).verdict != FAILS


def test_width_two_cpc1_six_element_witness():
    """A 6-element width-2 poset that breaks cpc1.

    With z = (5, 0, 4) and (k, l) = (1, 1): F(3,1) F(1,2) = 3 > 2 =
    F(2,1) F(2,2).  The table is checked against the brute-force gap-class
    oracle; cpc1 fails only at this cell, cpc and cpc2 hold everywhere, and
    two-of-three is satisfied.  The smallest size is 5: see the witnesses
    below and ``test_cpc1_cpc2_fail_once_up_to_five_elements``.
    """
    from posetlab.extensions import word_classes
    from posetlab.posets import width

    p = build(6, [(0, 4), (1, 0), (1, 3), (2, 3), (2, 4), (5, 0), (5, 2)])
    z = MarkedTriple(5, 0, 4)
    assert width(p) == 2
    assert p.less(z.z1, z.z2) and p.less(z.z2, z.z3)
    F = f_table(p, z)
    assert F.entries == {kl: len(words) for kl, words in word_classes(p, z)[0].items()}
    rep = check_cpc1(F, 1, 1)
    assert rep.verdict == FAILS and rep.lhs == 3 and rep.rhs == 2
    for k in range(1, 6):
        for l in range(1, 6):
            assert check_cpc1(F, k, l).verdict != FAILS or (k, l) == (1, 1)
            assert check_cpc(F, k, l).verdict != FAILS
            assert check_cpc2(F, k, l).verdict != FAILS
            assert check_two_of_three(F, k, l).verdict != FAILS


# the two smallest width-2 failures of cpc1 and cpc2, dual to each other:
# (check, covers, z, F) with the failure at (k, l) = (1, 1), 2 > 1
FIVE_ELEMENT_WITNESSES = [
    (check_cpc1, [(0, 2), (0, 3), (1, 3), (2, 4), (3, 4)], (0, 3, 4),
     {(1, 2): 1, (2, 1): 1, (2, 2): 1, (3, 1): 2}),
    (check_cpc2, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4)], (0, 1, 4),
     {(1, 2): 1, (1, 3): 2, (2, 1): 1, (2, 2): 1}),
]


def test_width_two_five_element_witnesses():
    """cpc1: F(3,1) F(1,2) = 2 > 1 = F(2,1) F(2,2); cpc2 on the dual poset:
    F(1,3) F(2,1) = 2 > 1 = F(1,2) F(2,2).  Tables match the word oracle."""
    from posetlab.extensions import word_classes
    from posetlab.posets import width

    (_, covers1, z1, _), (_, covers2, z2, _) = FIVE_ELEMENT_WITNESSES
    # the second is the dual of the first, relabelled by x -> 4 - x
    assert build(5, [(4 - b, 4 - a) for a, b in covers1]) == build(5, covers2)
    assert tuple(4 - x for x in reversed(z1)) == z2
    for check, covers, marks, entries in FIVE_ELEMENT_WITNESSES:
        p, z = build(5, covers), MarkedTriple(*marks)
        assert width(p) == 2
        assert p.less(z.z1, z.z2) and p.less(z.z2, z.z3)
        F = f_table(p, z)
        assert F.entries == entries
        assert entries == {kl: len(words) for kl, words in word_classes(p, z)[0].items()}
        rep = check(F, 1, 1)
        assert rep.verdict == FAILS and rep.lhs == 2 and rep.rhs == 1


def test_cpc1_cpc2_fail_once_up_to_five_elements(small_poset_classes):
    """Over every poset class with n <= 5, every chain triple and every
    (k, l), cpc1 and cpc2 each fail at exactly one point: the 5-element
    witnesses above.  So no smaller poset, of any width, breaks either."""
    failures = []
    for n, reps in small_poset_classes.items():
        for p in reps:
            for z in chain_triples(p):
                F = f_table(p, z)
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        for check in (check_cpc1, check_cpc2):
                            rep = check(F, k, l)
                            if rep.verdict == FAILS:
                                failures.append((rep.ineq, n, k, l, F.entries))
    assert sorted(failures, key=str) == [
        ("cpc1", 5, 1, 1, FIVE_ELEMENT_WITNESSES[0][3]),
        ("cpc2", 5, 1, 1, FIVE_ELEMENT_WITNESSES[1][3]),
    ]


def test_stanley_equality_on_tight_family():
    inst = family_stanley_tight(5, 3)
    nv = n_vector(inst.poset, inst.a)
    rep = check_stanley(nv, 3)
    assert rep.verdict == HOLDS and rep.slack == 0
    assert rep.lhs == 16 and rep.rhs == (3 - 1) * (5 - 3) * 2 * 2
    vac = check_stanley(n_vector(chain(4), 2), 1)
    assert vac.verdict == VACUOUS


def test_corpus_wide_positive_results(medium_corpus):
    checkers = [
        check_cpc,
        check_half_cpc,
        check_half_cpc1,
        check_half_cpc2,
        check_logc1,
        check_logc2,
        check_logc3,
        check_logconcave_product,
        check_sqrt_lower,
        check_vanish_lower,
        check_main,
        check_converse,
        check_two_of_three,
    ]
    for p, z in medium_corpus:
        F = f_table(p, z)
        for k in range(1, p.n):
            for l in range(1, p.n):
                for checker in checkers:
                    assert checker(F, k, l).verdict != FAILS


def test_report_json_shape(witness):
    inst, F = witness
    obj = check_cpc2(F, 1, 2).to_json_obj()
    assert obj["schema"] == "posetlab/1"
    assert obj["verdict"] == "fails"
    assert obj["lhs"] == "12" and obj["rhs"] == "8" and obj["slack"] == "-4"
    assert set(obj["cells"]) == {"F_kl2", "F_k1l", "F_kl1", "F_k1l1"}


def test_registry_values_are_the_module_checkers():
    """Each TABLE_CHECKS value is a module-level check_* function, so code
    that looks checkers up by either route finds the same object."""
    import posetlab.inequalities as ineq

    checkers = {fn for name, fn in vars(ineq).items() if name.startswith("check_")}
    assert all(fn in checkers for fn in ineq.TABLE_CHECKS.values())
    assert list(ineq.TABLE_CHECKS) == [
        "cpc", "cpc1", "cpc2", "half", "half1", "half2", "logc1", "logc2", "logc3",
        "logc-product", "sqrt-lower", "vanish-lower", "main", "converse", "two-of-three",
    ]
    assert ineq.ALL_CHECK_IDS == sorted(ineq.TABLE_CHECKS) + ["thin", "stanley", "gcpc"]


# SHA-256 of every report line below, recorded before the product
# comparisons became table rows; any change to a verdict, a number, a field
# or the order of the cells changes it.
REPORT_BYTES_SHA256 = "b4f06037fb062c30d844f118f78529bd185f0e31bcb797716efa626aa2ab3f58"


def _report_corpus():
    marked = [
        (family_cpc2_witness(1, 2).poset, family_cpc2_witness(1, 2).z),
        (family_converse_tight(8, 2, 1).poset, family_converse_tight(8, 2, 1).z),
        (build(7, [(0, 4), (1, 5), (4, 6), (5, 3), (6, 2), (6, 5)]), MarkedTriple(0, 6, 5)),
        (build(6, [(0, 4), (1, 0), (1, 3), (2, 3), (2, 4), (5, 0), (5, 2)]), MarkedTriple(5, 0, 4)),
        normalize(
            build(7, [(0, 1), (1, 2), (3, 2), (2, 4), (4, 5), (4, 6)]), MarkedTriple(1, 2, 5)
        ),
    ]
    marked += [(p.dual(), z.reversed()) for p, z in marked[:2]]
    return marked + corpus(24, 3, 8, seed=4242)


def _every_report(p, z):
    """Every report the CLI's check command can print for (p, z), plus the
    signed gcpc windows and the equality-case reports."""
    F = f_table(p, z)
    grid = list(F.grid())
    for checker in TABLE_CHECKS.values():
        for k, l in grid:
            yield checker(F, k, l)
    cells = sorted(F.support())
    for k, l in cells:
        for pp, qq in cells:
            if k <= pp and l <= qq:
                yield check_gcpc(F, k, l, pp, qq)
    signed = f_table_signed(p, z.swapped12())
    for a, b in sorted(signed):
        yield check_gcpc(signed, a, b, a + 1, b + 1)
    prm = params(p)
    t = thin_threshold(p, z)
    for tt in sorted({t, max(1, t - 1)}):
        for k, l in grid:
            yield check_thin_flat(F, prm, tt, k, l)
    nv = n_vector(p, z.z2)
    for k in sorted(set(nv.counts) | {k + 1 for k in nv.counts}):
        yield check_stanley(nv, k)
    for k, l in grid:
        try:
            yield equality_case_check(p, z, k, l, F)
        except HypothesesNotMet:
            pass


def test_report_bytes_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for p, z in _report_corpus():
        for rep in _every_report(p, z):
            digest.update(json.dumps(rep.to_json_obj()).encode() + b"\n")
            count += 1
    assert count > 10_000
    assert digest.hexdigest() == REPORT_BYTES_SHA256


def test_report_field_types():
    # lhs/rhs stay ints unless the bound has a rational factor; ratio is
    # always a Fraction, never a float
    rational = {"main": ("branch=first-vanishing", "branch=second-vanishing"), "thin": ("",)}
    seen = Counter()
    for p, z in _report_corpus():
        for rep in _every_report(p, z):
            if rep.verdict != VACUOUS and rep.note in rational.get(rep.ineq, ()):
                assert (type(rep.lhs), type(rep.rhs)) == (Fraction, int), rep
                seen[rep.ineq, rep.note] += 1
            else:
                assert (type(rep.lhs), type(rep.rhs)) == (int, int), rep
                seen["int"] += 1
            if rep.lhs > 0:
                assert type(rep.ratio) is Fraction, rep
                seen["ratio"] += 1
    assert len(seen) == 5 and min(seen.values()) > 0, seen
