"""Counting engines: enumeration oracle, gap-phase DP, positional DP."""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import oracle_f_entries, oracle_n_counts, width_five_poset
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
    _entry_order,
    _gap_axis,
    count_extensions,
    enumerate_extensions,
    f_table,
    f_table_signed,
    is_extension,
    n_vector,
    pair_gap_table,
    positional_gap_counts,
    FTable,
)
from posetlab.families import family_cpc2_witness, family_stanley_tight
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
    slots = prod(_gap_axis(q, u, v)[2] for u, v in ((z.z1, z.z2), (z.z2, z.z3)))
    budget = q.lattice().widest * slots
    monkeypatch.setattr("posetlab.extensions.STATE_BUDGET", budget)
    assert f_table(Poset(q.n, q.up), z).entries == f_table(q, z).entries
    monkeypatch.setattr("posetlab.extensions.STATE_BUDGET", budget - 1)
    p = Poset(q.n, q.up)
    with pytest.raises(TooLarge, match=f"exceeds state budget {budget - 1}"):
        f_table(p, z)
    assert "_fold" not in p.__dict__


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
    # triple is still a chain, so its signed table is re-keyed from the
    # entry-order fold, here also in the big-int regime
    for p, z in medium_corpus[:25] + _width_five_instances():
        assert is_normalized(p, z)
        F = f_table(p, z)
        signed = f_table_signed(p, z.swapped12())
        assert {(-a, a + b): v for (a, b), v in signed.items()} == F.entries
        assert F.total() == sum(signed.values()) == count_extensions(p)


def test_signed_and_pair_tables_match_oracle_on_any_marks(medium_corpus):
    # marks in any order, comparable or not, against plain enumeration: a
    # sample of all ordered triples, and every order of the chain triple,
    # which the fold counts in entry order and re-keys
    for p, z in medium_corpus[:30]:
        words = list(enumerate_extensions(p))
        triples = list(permutations(range(p.n), 3))[::17] + list(permutations(z.as_tuple()))
        for a, b, c in triples:
            signed, pair, positions = Counter(), Counter(), Counter()
            for w in words:
                pa, pb, pc = w.index(a), w.index(b), w.index(c)
                signed[(pb - pa, pc - pb)] += 1
                pair[pc - pa] += 1
                positions[(pa + 1, pb + 1, pc + 1)] += 1
            assert f_table_signed(p, MarkedTriple(a, b, c)) == signed
            assert pair_gap_table(p, a, c) == pair
            assert pair_gap_table(p, c, a) == {-g: v for g, v in pair.items()}
            assert positional_gap_counts(p, (a, b, c)) == positions


def test_chain_marks_fold_in_entry_order(medium_corpus):
    # every order of a chain triple is folded in the gaps between
    # consecutive marks, led by position 0 when the request is absolute
    for p, z in medium_corpus[:10]:
        z1, z2, z3 = z.as_tuple()
        entry = ((z1, z2), (z2, z3))
        for a, b, c in permutations((z1, z2, z3)):
            coords, level = _entry_order(p, (a, b, c), ((a, b), (b, c)))
            assert coords == entry and (level is None) == ((a, b, c) == (z1, z2, z3))
            coords, level = _entry_order(p, (a, b, c), ((None, a), (None, b), (None, c)))
            assert coords == ((None, z1),) + entry and level[z3] == 3
        # a pair that is not a chain keeps the requested gap
        x, y = next((x, y) for x in range(p.n) for y in range(p.n) if p.incomparable(x, y))
        assert _entry_order(p, (x, y), ((x, y),)) == (((x, y),), None)


def test_pair_gap_consistency(medium_corpus):
    # summing F over the second gap reproduces the two-mark count
    for p, z in medium_corpus:
        F = f_table(p, z)
        pair = pair_gap_table(p, z.z1, z.z2)
        for k in range(1, p.n):
            assert sum(v for (kk, l), v in F.entries.items() if kk == k) == pair.get(k, 0)


def test_n_vector_examples_and_sum(medium_corpus):
    inst = family_stanley_tight(5, 3)
    nv = n_vector(inst.poset, inst.a)
    assert (nv.get(2), nv.get(3), nv.get(4)) == (2, 4, 2)
    d = 3
    assert n_vector(chain(6), d).counts == {d + 1: 1}
    for p, z in medium_corpus[:20]:
        nv = n_vector(p, z.z2)
        assert nv.total() == count_extensions(p)
        assert nv.counts == oracle_n_counts(p, z.z2)


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
    ],
)
def test_ftable_from_json_obj_rejects_malformed_input(obj):
    with pytest.raises(MalformedInput):
        FTable.from_json_obj(obj)


def test_positional_engine_multi_mark(medium_corpus):
    # three gaps in one fold: every digit of every key checked against the
    # absolute positions read off the words, for the chain-ordered triple,
    # two orders of it that are not chain orders, and the first three ids
    for p, z in medium_corpus:
        z1, z2, z3 = z.as_tuple()
        triples = [(z1, z2, z3), (z3, z1, z2), (z2, z3, z1), (0, 1, 2)]
        expected = {marks: Counter() for marks in triples}
        for w in enumerate_extensions(p):
            pos = {e: i + 1 for i, e in enumerate(w)}
            for marks, counter in expected.items():
                counter[tuple(pos[m] for m in marks)] += 1
        for marks in triples:
            counts = positional_gap_counts(p, marks)
            assert counts == dict(expected[marks]), (p.covers, marks)
            assert sum(counts.values()) == count_extensions(p)


def test_bad_marks_are_rejected():
    p = chain(3)
    for call in (
        lambda: n_vector(p, 7),
        lambda: n_vector(p, -1),
        lambda: pair_gap_table(p, 0, 3),
        lambda: positional_gap_counts(p, (0, 5)),
    ):
        with pytest.raises(IndexOutOfRange):
            call()
    for call in (
        lambda: pair_gap_table(p, 0, 0),
        lambda: positional_gap_counts(p, (1, 2, 1)),
    ):
        with pytest.raises(BadParams):
            call()


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


def test_positional_state_budget(medium_corpus, monkeypatch):
    q, z = medium_corpus[0]
    monkeypatch.setattr("posetlab.extensions.STATE_BUDGET", 3)
    with pytest.raises(TooLarge):
        positional_gap_counts(Poset(q.n, q.up), z.as_tuple())
    # the budget counts the slots folded: for chain marks, those of the
    # entry-order coordinates, fewer than the requested gaps would take
    q, z = _width_five_instances()[0]
    marks = z.as_tuple()[::-1]
    gaps = tuple((None, m) for m in marks)
    coords, _ = _entry_order(q, marks, gaps)
    folded, asked = (prod(_gap_axis(q, u, v)[2] for u, v in g) for g in (coords, gaps))
    assert folded < asked
    budget = q.lattice().widest * folded
    monkeypatch.setattr("posetlab.extensions.STATE_BUDGET", budget)
    assert positional_gap_counts(Poset(q.n, q.up), marks)
    monkeypatch.setattr("posetlab.extensions.STATE_BUDGET", budget - 1)
    with pytest.raises(TooLarge):
        positional_gap_counts(Poset(q.n, q.up), marks)


def test_signed_table_reuses_the_kept_fold(medium_corpus):
    # every order of a chain triple folds in the same entry-order coords, so
    # the signed table of the swapped triple only decodes F's kept fold
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
        positional_gap_counts(p, z.as_tuple())
    assert p.__dict__["_fold"] is kept
    assert f_table(p, z) == F


def test_only_the_latest_fold_is_kept():
    # one kept fold per poset, replaced on a miss: folding many mark tuples
    # on a large poset keeps the last one only, and asking for it again is a hit
    p = width_five_poset()
    pairs = [(a, b) for a in range(10) for b in range(a + 1, 10)][:40]
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
def marked_posets(draw, max_n: int = 8):
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
@given(marked_posets(), st.data())
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

    calls = [("f_table", z.as_tuple())]
    calls += [("f_table_signed", marks) for marks in permutations(z.as_tuple())]
    calls += [("n_vector", (a,)) for a in z.as_tuple()]
    calls += [("positional_gap_counts", marks) for marks in [z.as_tuple()[::-1], (z.z3, z.z1)]]
    for name, marks in data.draw(st.permutations(calls)):
        results = []
        for q in (p, build(n, pairs)):
            if name == "f_table":
                results.append(f_table(q, MarkedTriple(*marks)).entries)
            elif name == "f_table_signed":
                results.append(f_table_signed(q, MarkedTriple(*marks)))
            elif name == "n_vector":
                results.append({(k,): v for k, v in n_vector(q, marks[0]).counts.items()})
            else:
                results.append(positional_gap_counts(q, marks))
        gaps = positions if name in ("n_vector", "positional_gap_counts") else signed_gaps
        assert results[0] == results[1] == oracle(marks, gaps), (name, marks)
