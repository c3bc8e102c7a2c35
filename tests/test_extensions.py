"""Counting engines: enumeration oracle, gap-phase DP, positional DP."""

from __future__ import annotations

import random
import sys
from collections import Counter
from itertools import combinations_with_replacement, permutations
from math import comb, factorial, prod
from struct import calcsize

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    chain_triples, dense_rows, is_extension, marked_sample, oracle_f_entries, oracle_n_counts,
    width_five_poset,
)
from posetlab.errors import (
    BadChain,
    BadParams,
    CycleDetected,
    IndexOutOfRange,
    MalformedInput,
    TooLarge,
)
from posetlab.extensions import (
    ENUMERATION_MAX,
    _WORD_BYTES,
    _WORD_CODES,
    _f_rows,
    _gap_axis,
    _slot_counts,
    count_extensions,
    enumerate_extensions,
    f_table,
    f_table_signed,
    lattice,
    n_vector,
    pair_gap_table,
    word_classes,
    FTable,
)
from posetlab.families import family_cpc2_witness, family_stanley_tight
from posetlab.injections import verify_injections
from posetlab.posets import (
    MarkedTriple, Poset, antichain, build, chain, is_normalized, normalize,
)
from posetlab.search import random_instance


def test_enumerate_trivial_cases():
    assert list(enumerate_extensions(chain(3))) == [(0, 1, 2)]
    words = list(enumerate_extensions(antichain(3)))
    assert len(words) == 6 and words == sorted(words) and len(set(words)) == 6


def test_enumerate_guard():
    with pytest.raises(TooLarge):
        next(enumerate_extensions(antichain(15)))
    n = ENUMERATION_MAX  # the largest n the guard lets through
    assert list(enumerate_extensions(chain(n))) == [tuple(range(n))]


def test_enumerate_contract(medium_corpus):
    # distinct words in strictly increasing lexicographic order, each an
    # extension, as many as the lattice count
    posets = [p for p, _ in medium_corpus]
    posets += [random_instance(4242, idx, 1, 8)[0] for idx in range(200)]
    for p in posets:
        words = list(enumerate_extensions(p))
        assert all(a < b for a, b in zip(words, words[1:]))
        assert all(is_extension(p, w) for w in words)
        assert len(words) == count_extensions(p)


def test_count_trivial():
    assert count_extensions(chain(6)) == 1
    assert count_extensions(antichain(6)) == factorial(6)


def test_count_matches_oracle_on_random_sample():
    for idx in range(200):
        p, _ = random_instance(999, idx, 2, 7)
        assert count_extensions(p) == sum(1 for _ in enumerate_extensions(p))


def test_f_table_requires_normalized_triple():
    with pytest.raises(BadChain):
        f_table(antichain(4), MarkedTriple(0, 1, 2))


def test_word_classes_requires_normalized_triple():
    # refused before any lattice is built or any word enumerated
    for p, z in ((antichain(4), MarkedTriple(0, 1, 2)), (chain(4), MarkedTriple(2, 1, 0))):
        with pytest.raises(BadChain):
            word_classes(p, z)
        assert "_lattice" not in p.__dict__


def test_f_table_chain():
    assert f_table(chain(3), MarkedTriple(0, 1, 2)).entries == {(1, 1): 1}


def test_f_table_witness_family_cells():
    inst = family_cpc2_witness(1, 2)
    F = f_table(inst.poset, inst.z)
    assert F.get(1, 4) == 6 and F.get(2, 2) == 2
    assert F.get(1, 3) == 4 and F.get(2, 3) == 2
    # oracle route agrees cell by cell
    assert F.entries == oracle_f_entries(inst.poset, inst.z)


def test_f_table_matches_oracle_and_positional_dp(medium_corpus):
    for p, z in medium_corpus:
        F = f_table(p, z)
        assert F.entries == oracle_f_entries(p, z)
        signed = f_table_signed(p, z)
        assert {kl: v for kl, v in signed.items() if v} == F.entries
        assert F.total() == sum(
            1
            for w in enumerate_extensions(p)
            if w.index(z.z1) < w.index(z.z2) < w.index(z.z3)
        )


def test_f_table_state_budget(monkeypatch):
    # the budget is the widest layer's ideals times the folded slots: F fits
    # at exactly that budget and not at one less; each call gets a fresh
    # poset, so no kept fold answers
    inst = family_cpc2_witness(1, 2)
    q, z = inst.poset, inst.z
    slots = prod(_gap_axis(q.up, q.down, u, v) for u, v in ((z.z1, z.z2), (z.z2, z.z3)))
    budget = lattice(q).widest * slots
    monkeypatch.setattr("posetlab.extensions.STATE_BUDGET", budget)
    assert f_table(Poset(q.n, q.up), z).entries == f_table(q, z).entries
    monkeypatch.setattr("posetlab.extensions.STATE_BUDGET", budget - 1)
    p = Poset(q.n, q.up)
    with pytest.raises(TooLarge, match=f"exceeds state budget {budget - 1}"):
        f_table(p, z)
    assert "_fold" not in p.__dict__


def test_f_rows_raise_where_f_table_does_and_keep_nothing(monkeypatch):
    # the search's lattice-free pass meets both budgets on exactly the
    # posets where f_table does, and keeps neither a lattice nor a fold
    inst, wide = family_cpc2_witness(1, 2), width_five_poset()
    for q, z in ((inst.poset, inst.z), (wide, chain_triples(wide)[0])):
        lat = lattice(q)
        slots = prod(_gap_axis(q.up, q.down, u, v) for u, v in ((z.z1, z.z2), (z.z2, z.z3)))
        for name, fits in (("STATE_BUDGET", lat.widest * slots), ("IDEAL_BUDGET", len(lat.ideals))):
            with monkeypatch.context() as m:
                m.setattr(f"posetlab.extensions.{name}", fits)
                p = Poset(q.n, q.up)
                rows = _f_rows(p.up, p.down, p.cover_up, p.width, z.as_tuple())
                assert rows == dense_rows(f_table(Poset(q.n, q.up), z))
                assert "_lattice" not in p.__dict__ and "_fold" not in p.__dict__
                m.setattr(f"posetlab.extensions.{name}", fits - 1)
                with pytest.raises(TooLarge, match=f"exceeds .*{fits - 1}"):
                    f_table(Poset(q.n, q.up), z)
                p = Poset(q.n, q.up)
                with pytest.raises(TooLarge, match=f"exceeds .*{fits - 1}"):
                    _f_rows(p.up, p.down, p.cover_up, p.width, z.as_tuple())
                assert "_lattice" not in p.__dict__ and "_fold" not in p.__dict__


def test_f_rows_match_enumeration_on_every_small_class(small_poset_classes):
    for reps in small_poset_classes.values():
        for p in reps:
            for z in chain_triples(p):
                expected = dense_rows(FTable(p.n, z, oracle_f_entries(p, z)))
                rows = _f_rows(p.up, p.down, p.cover_up, p.width, z.as_tuple())
                assert rows == expected, (p.covers, z)


def test_support_inside_valid_window(medium_corpus):
    for p, z in medium_corpus:
        for (k, l), v in f_table(p, z).entries.items():
            if v:
                assert k >= 1 and l >= 1 and k + l <= p.n - 1


def test_duality_identity(medium_corpus):
    for p, z in medium_corpus:
        F = f_table(p, z)
        Fd = f_table(p.dual(), z.reversed())
        assert {(l, k): v for (k, l), v in F.entries.items() if v} == {
            kl: v for kl, v in Fd.entries.items() if v
        }


def _width_five_instances():
    """The n = 28 width-five poset, e(P) of 54 bits (seven bytes per slot),
    with a chain triple from each of two of its five chains."""
    p = width_five_poset()
    return [(p, MarkedTriple(4, 9, 27)), (p, MarkedTriple(22, 16, 7))]


def test_translation_identity_via_signed_table(medium_corpus):
    # swapping the first two marks sends (k, l) to (-k, l + k); the swapped
    # triple is still a chain, so its signed table is F relabelled, here
    # also in the big-int regime
    for p, z in medium_corpus[:25] + _width_five_instances():
        assert is_normalized(p, z)
        F = f_table(p, z)
        signed = f_table_signed(p, z.swapped12())
        assert {(-a, a + b): v for (a, b), v in signed.items()} == F.entries
        assert F.total() == sum(signed.values()) == count_extensions(p)
    # so the relabelling is checked by more than itself: every order of each
    # big chain triple against F from the lattice-free pass, which reads no
    # kept fold, moved cell by cell to the positions of the marks
    for p, z in _width_five_instances():
        rows = _f_rows(p.up, p.down, p.cover_up, p.width, z.as_tuple())
        for a, b, c in permutations(z.as_tuple()):
            expected = {}
            for k, row in enumerate(rows):
                for l, v in enumerate(row):
                    if v:
                        at = {z.z1: 0, z.z2: k, z.z3: k + l}
                        expected[at[b] - at[a], at[c] - at[b]] = v
            assert f_table_signed(p, MarkedTriple(a, b, c)) == expected, (a, b, c)


def test_signed_and_pair_tables_match_oracle_on_any_marks(medium_corpus):
    # marks in any order, comparable or not, against plain enumeration: a
    # sample of all ordered triples, and every order of the chain triple,
    # whose signed table is F relabelled
    for p, z in medium_corpus[:30]:
        words = list(enumerate_extensions(p))
        triples = list(permutations(range(p.n), 3))[::17] + list(permutations(z.as_tuple()))
        for a, b, c in triples:
            signed, pair, positions = Counter(), Counter(), {m: Counter() for m in (a, b, c)}
            for w in words:
                pa, pb, pc = w.index(a), w.index(b), w.index(c)
                signed[(pb - pa, pc - pb)] += 1
                pair[pc - pa] += 1
                for m, pos in ((a, pa), (b, pb), (c, pc)):
                    positions[m][pos + 1] += 1
            assert f_table_signed(p, MarkedTriple(a, b, c)) == signed
            assert pair_gap_table(p, a, c) == pair
            assert pair_gap_table(p, c, a) == {-g: v for g, v in pair.items()}
            for m in (a, b, c):
                assert n_vector(p, m).counts == positions[m]


def _gap_sums(F, gap) -> dict[int, int]:
    """F summed over the cells with one gap(k, l), zeros dropped."""
    sums = Counter()
    for (k, l), v in F.entries.items():
        sums[gap(k, l)] += v
    return {g: v for g, v in sums.items() if v}


def test_pair_gap_consistency(medium_corpus, poset_classes):
    # F's row, column and anti-diagonal sums are the Kahn-Saks sequences of
    # (z1, z2), (z2, z3) and (z1, z3): the two-mark counts of pair_gap_table
    marked = [(p, z) for p in poset_classes for z in chain_triples(p)]
    assert len(marked) == 1380
    for p, z in medium_corpus + marked:
        F = f_table(p, z)
        for gap, (x, y) in (
            (lambda k, l: k, (z.z1, z.z2)),
            (lambda k, l: l, (z.z2, z.z3)),
            (lambda k, l: k + l, (z.z1, z.z3)),
        ):
            assert _gap_sums(F, gap) == {g: v for g, v in pair_gap_table(p, x, y).items() if v}


def test_n_vectors_are_log_concave(poset_classes):
    # Stanley (1981): N_k^2 >= N_{k-1} N_{k+1} for every element
    points = 0
    for p in poset_classes:
        for a in range(p.n):
            nv = n_vector(p, a)
            for k in range(2, p.n):
                assert nv.get(k) ** 2 >= nv.get(k - 1) * nv.get(k + 1), (p, a, k)
                points += 1
    assert points == 8720


def test_mixed_volume_determinants_are_nonnegative(poset_classes):
    # the slice-volume polynomial is Lorentzian (Alexandrov-Fenchel), so the
    # symmetric matrix M(k, l) = [[a, e, f], [e, b, g], [f, g, c]] of the
    # cells below has at most one positive eigenvalue, hence det M >= 0
    points = 0
    for p in poset_classes:
        for z in chain_triples(p):
            F = f_table(p, z)
            for k, l in F.grid(margin=0):
                a, e, f = F.get(k + 2, l), F.get(k + 1, l + 1), F.get(k + 1, l)
                b, g, c = F.get(k, l + 2), F.get(k, l + 1), F.get(k, l)
                det = a * (b * c - g * g) - e * (e * c - g * f) + f * (e * g - b * f)
                assert det >= 0, (p, z, k, l)
                points += 1
    assert points == 13188


def test_n_vector_examples_and_sum(medium_corpus):
    inst = family_stanley_tight(5, 3)
    nv = n_vector(inst.poset, inst.a)
    assert (nv.get(2), nv.get(3), nv.get(4)) == (2, 4, 2)
    assert nv.to_json_obj() == {
        "schema": "posetlab/1", "n": 5, "a": 0, "N": [[2, "2"], [3, "4"], [4, "2"]],
    }
    d = 3
    assert n_vector(chain(6), d).counts == {d + 1: 1}
    for p, z in medium_corpus[:20]:
        # z2, then a minimal and a maximal element: the mark placed first
        # or last in some extension, next to the fold's empty or full ideal
        low = min(x for x in range(p.n) if not p.down[x])
        high = max(x for x in range(p.n) if not p.up[x])
        for a in (z.z2, low, high):
            nv = n_vector(p, a)
            assert nv.total() == count_extensions(p)
            assert nv.counts == oracle_n_counts(p, a)


@st.composite
def marked_posets(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if bits[i * n + j]]
    p = build(n, pairs)
    ids = draw(st.permutations(range(n)))
    try:
        return normalize(p, MarkedTriple(ids[0], ids[1], ids[2]))
    except CycleDetected:
        assume(False)


@settings(max_examples=50, deadline=None)
@given(marked_posets())
def test_f_table_total_and_entries_property(pz):
    p, z = pz
    F = f_table(p, z)
    assert F.total() == count_extensions(p)  # normalized: marks always in order
    assert F.entries == oracle_f_entries(p, z)


def test_ftable_json_round_trip(medium_corpus):
    inst = family_cpc2_witness(2, 3)
    for p, z in [(inst.poset, inst.z), *medium_corpus]:
        F = f_table(p, z)
        back = FTable.from_json_obj(F.to_json_obj())
        assert back.n == F.n and back.z == F.z
        assert back.entries == {kl: v for kl, v in F.entries.items() if v}
        assert back.to_json_obj() == F.to_json_obj()
    with pytest.raises(IndexOutOfRange):
        FTable.from_json_obj({"n": 3, "z": [0, 1, 7], "F": []})
    # n is bounded as for a poset: grid() on n = 10**9 would walk ~5e17 points
    for n in (65, 10**9):
        with pytest.raises(IndexOutOfRange, match=f"n={n} outside 1..64"):
            FTable.from_json_obj({"n": n, "z": [0, 1, 2], "F": []})
    # a zero count is read as written and dropped again on output
    zero = FTable.from_json_obj({"n": 3, "z": [0, 1, 2], "F": [[1, 1, "0"]]})
    assert zero.entries == {(1, 1): 0} and zero.to_json_obj()["F"] == []


@pytest.mark.parametrize(
    "obj",
    [
        {},  # every key missing
        {"n": 3, "z": [0, 1, 2], "F": [[1, 1, "x"]]},  # count not a number
        {"n": 3, "z": [0, 1, 2], "F": 5},  # cells not a list
        {"n": 3, "z": [0, 1, 2], "F": [[1, 1]]},  # cell not a triple
        {"n": 3, "z": [0, 1, 2], "F": [[1, 1.5, "1"]]},  # non-integer l
        {"n": "3", "z": [0, 1, 2], "F": []},
        {"n": 3, "z": [0, 1], "F": []},
        [],
        {"n": 3, "z": [0, 1, 2], "F": [[0, 9, "1"], [-2, 1, "4"]]},  # cells off the triangle
        {"n": 3, "z": [0, 1, 2], "F": [[1, 2, "1"]]},  # k + l = n
        {"n": 3, "z": [0, 1, 2], "F": [[1, 1, -1]]},  # negative count
        {"n": 4, "z": [0, 1, 2], "F": [[1, 1, "2"], [1, 1, "3"]]},  # a repeated cell
    ],
)
def test_ftable_from_json_obj_rejects_malformed_input(obj):
    with pytest.raises(MalformedInput):
        FTable.from_json_obj(obj)


def test_n_vector_of_every_element_matches_enumeration(medium_corpus):
    # the position of every element, minimal, maximal or neither, read off
    # the words; each N sums to e(P) and comes in ascending k
    for p, _ in medium_corpus:
        expected = [Counter() for _ in range(p.n)]
        for w in enumerate_extensions(p):
            for i, x in enumerate(w):
                expected[x][i + 1] += 1
        for a in range(p.n):
            counts = n_vector(p, a).counts
            assert counts == expected[a], (p.covers, a)
            assert list(counts) == sorted(counts)
            assert sum(counts.values()) == count_extensions(p)


def test_n_vector_matches_the_oracle_on_every_small_class(small_poset_classes):
    for reps in small_poset_classes.values():
        for p in reps:
            for a in range(p.n):
                assert n_vector(p, a).counts == oracle_n_counts(p, a), (p.covers, a)


def test_n_vector_answers_under_any_state_budget(monkeypatch):
    # N folds nothing, so STATE_BUDGET never applies to it, while F of the
    # same poset is refused; nor does N keep or replace a fold
    inst = family_cpc2_witness(1, 2)
    p, z = inst.poset, inst.z
    expected = {a: oracle_n_counts(p, a) for a in range(p.n)}
    monkeypatch.setattr("posetlab.extensions.STATE_BUDGET", 1)
    for a in range(p.n):
        assert n_vector(p, a).counts == expected[a]
    assert "_fold" not in p.__dict__
    with pytest.raises(TooLarge, match="exceeds state budget 1"):
        f_table(p, z)


def test_n_vector_raises_too_large_from_the_lattice(monkeypatch):
    q = width_five_poset()
    monkeypatch.setattr("posetlab.extensions.IDEAL_BUDGET", 64)
    p = Poset(q.n, q.up)
    with pytest.raises(TooLarge, match="ideal lattice exceeds 64 ideals"):
        n_vector(p, 0)
    assert "_lattice" not in p.__dict__


def test_certify_call_order_folds_f_once(medium_corpus):
    # certify asks for F, then N, then verify_injections' own F and N: the
    # fold F kept is the one every later call finds
    for q, z in medium_corpus[:20]:
        p = Poset(q.n, q.up)
        f_table(p, z)
        kept = p.__dict__["_fold"]
        for a in range(p.n):
            n_vector(p, a)
            assert p.__dict__["_fold"] is kept
        verify_injections(p, z)
        assert p.__dict__["_fold"] is kept


def test_bad_marks_are_rejected():
    p = chain(3)
    for call in (
        lambda: n_vector(p, 7),
        lambda: n_vector(p, -1),
        lambda: pair_gap_table(p, 0, 3),
        lambda: f_table(chain(6), MarkedTriple(9, 1, 2)),
        lambda: f_table(chain(6), MarkedTriple(0, 1, -1)),
        lambda: f_table_signed(chain(6), MarkedTriple(9, 1, 2)),
        lambda: f_table_signed(chain(6), MarkedTriple(0, 1, -1)),
        lambda: word_classes(chain(6), MarkedTriple(9, 1, 2)),
        lambda: word_classes(chain(6), MarkedTriple(0, 1, -1)),
    ):
        with pytest.raises(IndexOutOfRange):
            call()
    with pytest.raises(BadParams):
        pair_gap_table(p, 0, 0)


def _ordinal_sum(levels: int):
    """z1 < (``levels`` two-element antichains, one above the other) < z2 < z3.

    Every extension puts z1 first and z2, z3 last, so all e(P) = 2**levels
    extensions share one cell.  With 7 levels, n = 17 and e(P) = 128 fills
    a one-byte slot exactly; with 8, e(P) = 256 needs the second byte.
    """
    n = 2 * levels + 3
    layers = [[0]] + [[2 * i + 1, 2 * i + 2] for i in range(levels)] + [[n - 2], [n - 1]]
    pairs = [(a, b) for lo, hi in zip(layers, layers[1:]) for a in lo for b in hi]
    return build(n, pairs), MarkedTriple(0, n - 2, n - 1)


@pytest.mark.parametrize("levels", [7, 8])
def test_packed_slot_holding_a_power_of_two(levels):
    p, z = _ordinal_sum(levels)
    e, n = 2**levels, p.n
    assert count_extensions(p) == e
    assert f_table(p, z).entries == {(n - 2, 1): e}
    # the swapped triple reaches the most negative first gap of the signed table
    assert f_table_signed(p, z.swapped12()) == {(2 - n, n - 1): e}
    assert pair_gap_table(p, n - 1, 0) == {1 - n: e}
    assert n_vector(p, n - 2).counts == {n - 1: e}


def _incomparable_pair(p: Poset) -> tuple[int, int]:
    pairs = ((x, y) for x in range(p.n) for y in range(x + 1, p.n))
    return next((x, y) for x, y in pairs if not p.comparable[x] >> y & 1)


def test_positional_state_budget(medium_corpus, monkeypatch):
    # an incomparable pair's table folds p with each order of the pair added;
    # the first such fold is already over a budget of three states
    q = next(q for q, _ in medium_corpus if q.width > 1)
    monkeypatch.setattr("posetlab.extensions.STATE_BUDGET", 3)
    with pytest.raises(TooLarge):
        pair_gap_table(Poset(q.n, q.up), *_incomparable_pair(q))


def test_signed_table_reuses_the_kept_fold(medium_corpus):
    # every order of a chain triple is F of the chain, relabelled, so the
    # signed table of the swapped triple only decodes F's kept fold
    for q, z in medium_corpus[:20] + _width_five_instances():
        p = Poset(q.n, q.up)
        F = f_table(p, z)
        kept = p.__dict__["_fold"]
        assert kept[0] == ((z.z1, z.z2), (z.z2, z.z3))
        signed = f_table_signed(p, z.swapped12())
        assert p.__dict__["_fold"] is kept
        assert {(-a, a + b): v for (a, b), v in signed.items()} == F.entries


def test_kept_fold_is_not_changed_through_results(medium_corpus):
    for q, z in medium_corpus[:20]:
        p, fresh = Poset(q.n, q.up), Poset(q.n, q.up)
        F, signed, nv = f_table(p, z), f_table_signed(p, z.swapped12()), n_vector(p, z.z2)
        F.entries[1, 1] = F.entries.get((1, 1), 0) + 5
        signed.clear()
        nv.counts[0] = 1
        assert f_table(p, z).entries == f_table(fresh, z).entries
        assert f_table_signed(p, z.swapped12()) == f_table_signed(fresh, z.swapped12())
        assert n_vector(p, z.z2).counts == n_vector(fresh, z.z2).counts


def test_over_budget_fold_leaves_the_kept_fold(monkeypatch):
    # a fold that raises TooLarge replaces nothing; the kept fold passed the
    # budget when it was made, so F is still read off it
    inst = family_cpc2_witness(1, 2)
    p, z = inst.poset, inst.z
    F = f_table(p, z)
    kept = p.__dict__["_fold"]
    monkeypatch.setattr("posetlab.extensions.STATE_BUDGET", 3)
    with pytest.raises(TooLarge):
        pair_gap_table(p, *_incomparable_pair(p))
    assert p.__dict__["_fold"] is kept
    assert f_table(p, z) == F


def test_tables_of_marks_off_a_chain_leave_the_kept_fold(medium_corpus):
    # marks that form no chain of p are counted on p with each order they
    # can take added, never on p itself, so F's kept fold stays
    checked = 0
    for q, z in medium_corpus[:20]:
        if q.width == 1:
            continue
        p, fresh = Poset(q.n, q.up), Poset(q.n, q.up)
        f_table(p, z)
        kept = p.__dict__["_fold"]
        x, y = _incomparable_pair(p)
        third = next(m for m in z.as_tuple() if m not in (x, y))
        assert f_table_signed(p, MarkedTriple(x, third, y)) == f_table_signed(
            fresh, MarkedTriple(x, third, y)
        )
        assert pair_gap_table(p, x, y) == pair_gap_table(fresh, x, y)
        assert p.__dict__["_fold"] is kept
        checked += 1
    assert checked


def test_only_the_latest_fold_is_kept():
    # one kept fold per poset, replaced on a miss: folding many mark tuples
    # on a large poset keeps the last one only, and asking for it again is a
    # hit; the pairs are comparable, so each is folded on p itself
    p = width_five_poset()
    pairs = [(a, b) for a in range(p.n) for b in range(p.n) if p.less(a, b) or p.less(b, a)][:40]
    for a, b in pairs:
        counts = pair_gap_table(p, a, b)
        ((u, v),), _ = kept = p.__dict__["_fold"]
        assert {u, v} == {a, b}
    assert [key for key in p.__dict__ if "fold" in key] == ["_fold"]
    assert pair_gap_table(p, a, b) == counts
    assert p.__dict__["_fold"] is kept
    pair_gap_table(p, *pairs[0])
    assert p.__dict__["_fold"] is not kept


def test_kept_folds_leave_equality_and_hash_alone(medium_corpus):
    for q, z in medium_corpus[:10]:
        p, bare = Poset(q.n, q.up), Poset(q.n, q.up)
        before = hash(p)
        f_table(p, z)
        f_table_signed(p, z.swapped12())
        n_vector(p, z.z1)
        assert "_fold" in p.__dict__ and "_fold" not in bare.__dict__
        assert p == bare and hash(p) == hash(bare) == before
        assert len({p, bare}) == 1 and repr(p) == repr(bare)


@st.composite
def marked_relations(draw, max_n: int = 8):
    """(n, pairs, z): a random relation on 3 <= n <= max_n elements, acyclic
    along a random labelling, with a chain triple z added to it."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    label = draw(st.permutations(range(n)))
    pairs = [
        (label[i], label[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    i, j, k = sorted(draw(st.permutations(range(n)))[:3])
    pairs += [(label[i], label[j]), (label[j], label[k])]
    return n, pairs, MarkedTriple(label[i], label[j], label[k])


@settings(max_examples=40, deadline=None)
@given(marked_relations(), st.data())
def test_kept_folds_match_fresh_posets_and_enumeration(instance, data):
    # calls in a random order on one poset, so each may find the folds the
    # others kept; each must equal the same call on a fresh poset and the words
    n, pairs, z = instance
    p = build(n, pairs)
    places = [{None: 0, **{x: i + 1 for i, x in enumerate(w)}} for w in enumerate_extensions(p)]

    def oracle(marks, gaps):
        return dict(Counter(tuple(at[v] - at[u] for u, v in gaps(marks)) for at in places))

    def signed_gaps(m):
        return ((m[0], m[1]), (m[1], m[2]))

    def positions(m):
        return tuple((None, x) for x in m)

    calls = [("f_table", z.as_tuple()), ("_f_rows", z.as_tuple())]
    calls += [("f_table_signed", marks) for marks in permutations(z.as_tuple())]
    calls += [("n_vector", (a,)) for a in z.as_tuple()]
    for name, marks in data.draw(st.permutations(calls)):
        results = []
        for q in (p, build(n, pairs)):
            if name == "f_table":
                results.append(f_table(q, MarkedTriple(*marks)).entries)
            elif name == "_f_rows":
                rows = _f_rows(q.up, q.down, q.cover_up, q.width, marks)
                cells = {(k, l): v for k, row in enumerate(rows) for l, v in enumerate(row) if v}
                results.append(cells)
            elif name == "f_table_signed":
                results.append(f_table_signed(q, MarkedTriple(*marks)))
            else:
                results.append({(k,): v for k, v in n_vector(q, marks[0]).counts.items()})
        gaps = positions if name == "n_vector" else signed_gaps
        assert results[0] == results[1] == oracle(marks, gaps), (name, marks)


# -- composition identities: exact checks of the fold above ENUMERATION_MAX ----
#
# P holds the marks and is counted by enumeration, never by the fold; the
# rest is a disjoint union of chains, whose e is a multinomial.  An
# extension of P + Q is a shuffle of one of P with one of Q, so summing over
# where the first mark lands (Vandermonde) leaves, with p = |P|, N = p + |Q|,
#   F_{P+Q}(k, l) = e(Q) sum F_P(k', l') C(k-1, k'-1) C(l-1, l'-1) C(N-k-l, p-k'-l')
#   N_{P+Q}(k)    = e(Q) sum N_P(k') C(k-1, k'-1) C(N-k, p-k').
# In an ordinal sum A + P + B (all of A below P, all of B above) every
# extension is one of A, then one of P, then one of B: F = e(A) e(B) F_P.
# Tier-1 runs four cases of each (N = 36-47 for the unions); ``pytest -m
# slow`` runs forty more.

UNION_SEED = 1


def _chains_from(first: int, lengths) -> list[tuple[int, int]]:
    """Cover pairs of disjoint chains of the given lengths on first, first + 1, ..."""
    starts = [first + sum(lengths[:i]) for i in range(len(lengths))]
    return [(x, x + 1) for s, c in zip(starts, lengths) for x in range(s, s + c - 1)]


def _multinomial(lengths) -> int:
    """e of a disjoint union of chains of the given lengths."""
    return factorial(sum(lengths)) // prod(map(factorial, lengths))


def _shuffled(gaps: dict, p: int, size: int) -> dict:
    """Gaps (k', l') between three marks of P, in position order, taken to
    P's elements spread over ``size`` positions, without the factor e(Q)."""
    out: dict[tuple[int, int], int] = {}
    for (k1, l1), v in gaps.items():
        for k in range(k1, size):
            for l in range(l1, size - k):
                w = comb(k - 1, k1 - 1) * comb(l - 1, l1 - 1) * comb(size - k - l, p - k1 - l1)
                if w:
                    out[k, l] = out.get((k, l), 0) + v * w
    return out


def _signed_oracle(p: Poset, marks, size: int) -> dict[tuple[int, int], int]:
    """The signed table of ``marks`` of p spread over ``size`` positions, as
    ``_shuffled``: each extension of p is bucketed by the order in which the
    marks come and the two gaps between them in that order."""
    by_order: dict[tuple[int, ...], Counter] = {}
    for w in enumerate_extensions(p):
        at = [w.index(m) for m in marks]
        order = tuple(sorted(range(3), key=at.__getitem__))
        lo, mid, hi = sorted(at)
        by_order.setdefault(order, Counter())[mid - lo, hi - mid] += 1
    out = {}
    for order, gaps in by_order.items():
        for (g1, g2), v in _shuffled(gaps, p.n, size).items():
            at = [0, 0, 0]
            for i, s in zip(order, (0, g1, g1 + g2)):
                at[i] = s
            out[at[1] - at[0], at[2] - at[1]] = v
    return out


def _pair_oracle(signed: dict, factor: int) -> dict[int, int]:
    """The pair table of the first and last marks, factor times the signed
    table summed over a + b."""
    out = Counter()
    for (a, b), v in signed.items():
        out[a + b] += factor * v
    return dict(out)


def _marked_cases(seed: int, count: int):
    """``count`` (P, z, other marks, rng): a ``random_instance`` with 5-8
    elements and a chain triple, three distinct elements of P in random
    order, and a generator seeded for the case."""
    rng = random.Random(seed)
    out, index = [], 0
    while len(out) < count:
        p, z = random_instance(seed, index, 5, 8)
        index += 1
        if z is not None:
            out.append((p, z, MarkedTriple(*rng.sample(range(p.n), 3)), random.Random(rng.random())))
    return out


def _check_disjoint_union(p: Poset, z: MarkedTriple, marks: MarkedTriple, lengths, signed: bool):
    """F, N and (with ``signed``) the signed table of P + chains of the
    given lengths against the shuffle transform; returns the union and the
    bits of F's largest cell."""
    size = p.n + sum(lengths)
    u = build(size, [*p.covers, *_chains_from(p.n, lengths)])
    e_q = _multinomial(lengths)
    F = f_table(u, z).entries
    assert F == {kl: e_q * v for kl, v in _shuffled(oracle_f_entries(p, z), p.n, size).items()}
    n_p = oracle_n_counts(p, z.z2)
    expected = {}
    for k in range(1, size + 1):
        v = sum(c * comb(k - 1, k1 - 1) * comb(size - k, p.n - k1) for k1, c in n_p.items())
        if v:
            expected[k] = e_q * v
    assert n_vector(u, z.z2).counts == expected
    if signed:
        oracle = _signed_oracle(p, marks.as_tuple(), size)
        assert f_table_signed(u, marks) == {ab: e_q * v for ab, v in oracle.items()}
        assert pair_gap_table(u, marks.z1, marks.z3) == _pair_oracle(oracle, e_q)
    return u, max(F.values()).bit_length()


def _check_ordinal_sum(p: Poset, z: MarkedTriple, marks: MarkedTriple, below, above):
    """A + P + B with A and B disjoint unions of chains of the lengths
    ``below`` and ``above`` (a single chain has e = 1): F and the signed
    table are e(A) e(B) times P's, and N is too, moved by |A|.  Returns the
    sum and the bits of F's largest cell."""
    a0, b0 = p.n, p.n + sum(below)  # A is a0..b0-1, B is b0..size-1
    size = b0 + sum(above)
    pairs = [*p.covers, *_chains_from(a0, below), *_chains_from(b0, above)]
    pairs += [(a, x) for a in range(a0, b0) for x in range(p.n)]
    pairs += [(x, b) for x in range(p.n) for b in range(b0, size)]
    u = build(size, pairs)
    e = _multinomial(below) * _multinomial(above)
    F = f_table(u, z).entries
    assert F == {kl: e * v for kl, v in oracle_f_entries(p, z).items()}
    n_p = oracle_n_counts(p, z.z2)
    assert n_vector(u, z.z2).counts == {k + b0 - a0: e * v for k, v in n_p.items()}
    signed = _signed_oracle(p, marks.as_tuple(), p.n)  # p.n positions: P's own table
    assert f_table_signed(u, marks) == {ab: e * v for ab, v in signed.items()}
    assert pair_gap_table(u, marks.z1, marks.z3) == _pair_oracle(signed, e)
    return u, max(F.values()).bit_length()


def _union_bits(seed: int, count: int, signed: int) -> list[int]:
    """``_check_disjoint_union`` on ``count`` cases with three chains of
    6-16 elements each, the first ``signed`` of them with the signed table."""
    return [
        _check_disjoint_union(p, z, marks, [rng.randint(6, 16) for _ in range(3)], i < signed)[1]
        for i, (p, z, marks, rng) in enumerate(_marked_cases(seed, count))
    ]


def _ordinal_bits(seed: int, count: int) -> list[int]:
    """``_check_ordinal_sum`` on ``count`` cases: in the first, A and B are
    single chains of 6-16 elements; in the rest, three chains of 5-9 each,
    so N stays within 64."""
    out = []
    for i, (p, z, marks, rng) in enumerate(_marked_cases(seed, count)):
        if i == 0:
            below, above = [rng.randint(6, 16)], [rng.randint(6, 16)]
        else:
            below, above = ([rng.randint(5, 9) for _ in range(3)] for _ in "AB")
        out.append(_check_ordinal_sum(p, z, marks, below, above)[1])
    return out


def test_disjoint_union_with_chains_matches_the_shuffle_transform():
    bits = _union_bits(UNION_SEED, 4, signed=1)
    assert max(bits) > 64  # past one machine word


def test_ordinal_sum_with_chains_scales_the_table_of_p():
    bits = _ordinal_bits(UNION_SEED, 4)
    assert max(bits) > 64


# bytes that e needs -> bytes each count is stored in: a machine word up to
# 8 bytes, whole bytes past it
SLOT_WIDTHS = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8, 9: 9, 10: 10, 11: 11, 12: 12}


def _needs(e: int) -> int:
    """Bytes that e needs."""
    return (e.bit_length() + 7) // 8


def _width_case(nbytes: int, ordinal: bool):
    """(P, z, marks, lengths): a case of ``_marked_cases`` and the lengths of
    the chains (at most four of 1-12 elements, fewest ideals first) whose
    sum with P has an e of exactly ``nbytes`` bytes: put both below and
    above P in an ordinal sum (e(P) times the square of their multinomial)
    or beside P in a disjoint union (at most three chains)."""
    p, z, marks, _ = _marked_cases(UNION_SEED + 2, 1)[0]
    e_p = sum(1 for _ in enumerate_extensions(p))
    shapes = [c for r in range(5) for c in combinations_with_replacement(range(1, 13), r)]
    for c in sorted(shapes, key=lambda c: (prod(x + 1 for x in c), c)):
        if ordinal:
            fits, e = p.n + 2 * sum(c) <= 64, e_p * _multinomial(c) ** 2
        else:
            fits, e = len(c) <= 3, e_p * _multinomial([p.n, *c])
        if fits and _needs(e) == nbytes:
            return p, z, marks, list(c)
    raise AssertionError(f"no sum of P and chains needs {nbytes} bytes")


def _assert_slot_width(u: Poset, nbytes: int, cast: bool) -> None:
    assert _needs(count_extensions(u)) == nbytes
    stored = SLOT_WIDTHS[nbytes] if cast and sys.byteorder == "little" else nbytes
    assert u.__dict__["_fold"][1][1] == stored


@pytest.mark.parametrize("cast", [True, False], ids=["cast", "split"])
@pytest.mark.parametrize("nbytes", sorted(SLOT_WIDTHS))
def test_every_slot_width_in_an_ordinal_sum(nbytes, cast, monkeypatch):
    # F, N and the signed table of P between chains, with e of every byte
    # length up to 12, against the ordinal-sum oracle; without the cast (as
    # on a big-endian host) no width is rounded and every slot is read by
    # the word split
    if not cast:
        monkeypatch.setattr("posetlab.extensions._WORD_CODES", {})
        monkeypatch.setattr("posetlab.extensions._WORD_BYTES", {})
    p, z, marks, lengths = _width_case(nbytes, ordinal=True)
    u, _ = _check_ordinal_sum(p, z, marks, lengths, lengths)
    _assert_slot_width(u, nbytes, cast)


@pytest.mark.parametrize("nbytes", range(1, 9))
def test_every_word_width_in_a_disjoint_union(nbytes):
    # the same beside P, where the chains' elements also fall between the
    # marks, so the band is wide and its slots span the whole gap range
    p, z, marks, lengths = _width_case(nbytes, ordinal=False)
    u, _ = _check_disjoint_union(p, z, marks, lengths, signed=True)
    _assert_slot_width(u, nbytes, True)


def test_word_codes_stand_for_their_widths():
    # a cast reads the host's byte order and the fold packs little-endian
    little = sys.byteorder == "little"
    assert sorted(_WORD_CODES) == ([1, 2, 4, 8] if little else [])
    assert _WORD_BYTES == ({n: SLOT_WIDTHS[n] for n in range(1, 9)} if little else {})
    for width, code in _WORD_CODES.items():
        assert calcsize(code) == memoryview(bytes(width)).cast(code).itemsize == width


@pytest.mark.parametrize("nbytes", range(1, 11))
def test_word_cast_and_word_split_read_the_same_slots(nbytes, monkeypatch):
    # random counts of every bit length up to the width, the largest among
    # them, and zero slots at the start, in the middle and at the end in
    # every combination: for a machine word the cast, and without it (as on
    # a big-endian host) the word split, read back exactly the slots that
    # were packed, zeros included
    rng = random.Random(nbytes)
    bits = 8 * nbytes
    cases = []
    for slots in (1, 2, 3, 8, 41):
        for zeros in range(8):
            counts = [rng.getrandbits(rng.randint(1, bits)) or 1 for _ in range(slots)]
            counts[rng.randrange(slots)] = (1 << bits) - 1
            for i, at in enumerate((0, slots // 2, slots - 1)):
                if zeros >> i & 1:
                    counts[at] = 0
            packed = sum(c << bits * i for i, c in enumerate(counts))
            cases.append((packed, slots, counts))
    if nbytes in _WORD_CODES:
        for packed, slots, counts in cases:
            assert list(_slot_counts(packed, nbytes, slots)) == counts
    monkeypatch.setattr("posetlab.extensions._WORD_CODES", {})
    for packed, slots, counts in cases:
        assert _slot_counts(packed, nbytes, slots) == counts


@pytest.mark.parametrize("cast", [True, False], ids=["cast", "split"])
def test_f_rows_match_the_dict_oracle(cast, monkeypatch):
    # the search's rows, counted by the lattice-free pass, against F's dict
    # from the lattice fold, written cell by cell: every marked poset of the
    # sample, and an ordinal sum whose e(P) needs 9 bytes, so no slot is a
    # machine word; without the cast (as on a big-endian host) every slot
    # is read by the word split
    if not cast:
        monkeypatch.setattr("posetlab.extensions._WORD_CODES", {})
        monkeypatch.setattr("posetlab.extensions._WORD_BYTES", {})
    for p, z in marked_sample():
        rows = _f_rows(p.up, p.down, p.cover_up, p.width, z.as_tuple())
        assert rows == dense_rows(f_table(p, z)), (p.covers, z)
    p, z, marks, lengths = _width_case(9, ordinal=True)
    u, _ = _check_ordinal_sum(p, z, marks, lengths, lengths)
    assert count_extensions(u) >= 2**64
    assert _f_rows(u.up, u.down, u.cover_up, u.width, z.as_tuple()) == dense_rows(f_table(u, z))
    with pytest.raises(BadChain):
        _f_rows(u.up, u.down, u.cover_up, u.width, (z.z2, z.z1, z.z3))


@pytest.mark.slow
def test_composition_identities_on_a_larger_sample():
    assert max(_union_bits(UNION_SEED + 1, 40, signed=10)) > 64
    assert max(_ordinal_bits(UNION_SEED + 1, 40)) > 64
