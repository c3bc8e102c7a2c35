"""Counting engines: enumeration oracle, gap-phase DP, positional DP."""

from __future__ import annotations

import random
from collections import Counter
from itertools import permutations
from math import comb, factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import is_extension, oracle_f_entries, oracle_n_counts, width_five_poset
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
    _gap_axis,
    _gap_counts,
    count_extensions,
    enumerate_extensions,
    f_table,
    f_table_signed,
    lattice,
    n_vector,
    pair_gap_table,
    positional_gap_counts,
    word_classes,
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
    budget = lattice(q).widest * slots
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
    # triple is still a chain, so its signed table is F relabelled, here
    # also in the big-int regime
    for p, z in medium_corpus[:25] + _width_five_instances():
        assert is_normalized(p, z)
        F = f_table(p, z)
        signed = f_table_signed(p, z.swapped12())
        assert {(-a, a + b): v for (a, b), v in signed.items()} == F.entries
        assert F.total() == sum(signed.values()) == count_extensions(p)
    # so the relabelling is checked by more than itself: every order of each
    # big chain triple against a fold in the requested gaps on a fresh poset
    for p, z in _width_five_instances():
        fresh = Poset(p.n, p.up)
        for marks in permutations(z.as_tuple()):
            a, b, c = marks
            folded = _gap_counts(fresh, ((a, b), (b, c)))
            assert f_table_signed(p, MarkedTriple(*marks)) == folded, marks


def test_signed_and_pair_tables_match_oracle_on_any_marks(medium_corpus):
    # marks in any order, comparable or not, against plain enumeration: a
    # sample of all ordered triples, and every order of the chain triple,
    # whose signed table is F relabelled
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


def test_positional_engine_multi_mark(medium_corpus):
    # several positions in one fold: every digit of every key checked
    # against the absolute positions read off the words, for the
    # chain-ordered triple, two orders of it that are not chain orders, the
    # first three ids and, up to n = 6, every element, so that only the
    # empty ideal comes before the first mark and only the full one after
    # the last
    for p, z in medium_corpus:
        z1, z2, z3 = z.as_tuple()
        mark_tuples = [(z1, z2, z3), (z3, z1, z2), (z2, z3, z1), (0, 1, 2)]
        if p.n <= 6:
            mark_tuples.append(tuple(range(p.n)))
        expected = {marks: Counter() for marks in mark_tuples}
        for w in enumerate_extensions(p):
            pos = {e: i + 1 for i, e in enumerate(w)}
            for marks, counter in expected.items():
                counter[tuple(pos[m] for m in marks)] += 1
        for marks in mark_tuples:
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
        lambda: f_table(chain(6), MarkedTriple(9, 1, 2)),
        lambda: f_table(chain(6), MarkedTriple(0, 1, -1)),
        lambda: f_table_signed(chain(6), MarkedTriple(9, 1, 2)),
        lambda: f_table_signed(chain(6), MarkedTriple(0, 1, -1)),
        lambda: word_classes(chain(6), MarkedTriple(9, 1, 2)),
        lambda: word_classes(chain(6), MarkedTriple(0, 1, -1)),
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
    given lengths against the shuffle transform; returns the bits of F's
    largest cell."""
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
    return max(F.values()).bit_length()


def _check_ordinal_sum(p: Poset, z: MarkedTriple, marks: MarkedTriple, below, above):
    """A + P + B with A and B disjoint unions of chains of the lengths
    ``below`` and ``above`` (a single chain has e = 1): F and the signed
    table are e(A) e(B) times P's, and N is too, moved by |A|.  Returns the
    bits of F's largest cell."""
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
    return max(F.values()).bit_length()


def _union_bits(seed: int, count: int, signed: int) -> list[int]:
    """``_check_disjoint_union`` on ``count`` cases with three chains of
    6-16 elements each, the first ``signed`` of them with the signed table."""
    return [
        _check_disjoint_union(p, z, marks, [rng.randint(6, 16) for _ in range(3)], i < signed)
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
        out.append(_check_ordinal_sum(p, z, marks, below, above))
    return out


def test_disjoint_union_with_chains_matches_the_shuffle_transform():
    bits = _union_bits(UNION_SEED, 4, signed=1)
    assert max(bits) > 64  # past one machine word


def test_ordinal_sum_with_chains_scales_the_table_of_p():
    bits = _ordinal_bits(UNION_SEED, 4)
    assert max(bits) > 64


@pytest.mark.slow
def test_composition_identities_on_a_larger_sample():
    assert max(_union_bits(UNION_SEED + 1, 40, signed=10)) > 64
    assert max(_ordinal_bits(UNION_SEED + 1, 40)) > 64
