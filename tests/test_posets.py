"""Core poset type: closure, duality, parameters, thin/flat, canonical form."""

from __future__ import annotations

import copy
import itertools
import json
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_threshold, width_bruteforce, width_five_poset
from posetlab.errors import BadParams, CycleDetected, IndexOutOfRange, MalformedInput, TooLarge
from posetlab.extensions import (
    FTable, IdealLattice, NVector, count_extensions, f_table, lattice, n_vector,
)
from posetlab.families import FamilyInstance, build_family, family_cpc2_witness
from posetlab.geometry import McEstimate
from posetlab.inequalities import check_cpc2
from posetlab.injections import InjectionCertificate, verify_injections
from posetlab.posets import (
    MarkedTriple,
    Poset,
    antichain,
    build,
    chain,
    is_flat,
    is_thin,
    load_poset,
    normalize,
    params,
    thin_threshold,
    width,
)
from posetlab.search import (
    Certificate, SearchJob, SearchSummary, canonical_key, random_instance, run,
)
from posetlab.vanishing import SupportRegion, support


@st.composite
def posets(draw, max_n: int = 6) -> Poset:
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    label = draw(st.permutations(range(n)))
    pairs = [
        (label[i], label[j])
        for i in range(n)
        for j in range(i + 1, n)
        if bits[i * n + j]
    ]
    return build(n, pairs)


def test_chain_and_antichain_counts():
    assert count_extensions(build(3, [(0, 1), (1, 2)])) == 1
    assert count_extensions(build(3, [])) == 6


def test_build_rejects_cycles_and_bad_ids():
    with pytest.raises(CycleDetected):
        build(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleDetected):
        build(2, [(0, 0)])
    with pytest.raises(IndexOutOfRange):
        build(3, [(0, 7)])
    with pytest.raises(IndexOutOfRange):
        build(0, [])
    with pytest.raises(IndexOutOfRange):
        build(65, [])


def test_covers_regenerate_relation():
    p = build(4, [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)])
    assert p.covers == ((0, 1), (1, 2), (2, 3))
    assert build(4, p.covers).up == p.up


def _reachable(n: int, rows) -> tuple[int, ...]:
    """Rows of the transitive closure by a depth-first search from each x."""
    out = []
    for x in range(n):
        seen, stack = 0, [x]
        while stack:
            v = stack.pop()
            for y in range(n):
                if rows[v] >> y & 1 and not seen >> y & 1:
                    seen |= 1 << y
                    stack.append(y)
        out.append(seen)
    return tuple(out)


@st.composite
def acyclic_rows(draw, max_n: int = 8):
    """(n, rows) of a random acyclic relation: as drawn, closed, or reduced."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    label = draw(st.permutations(range(n)))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rows[label[i]] |= 1 << label[j]
    form = draw(st.sampled_from(["drawn", "closed", "reduced"]))
    if form != "drawn":
        rows = build(n, [(x, y) for x in range(n) for y in range(n) if rows[x] >> y & 1])
        rows = rows.up if form == "closed" else rows.cover_up
    return n, tuple(rows)


@settings(max_examples=150, deadline=None)
@given(acyclic_rows(), st.data())
def test_constructor_closes_any_acyclic_rows(shape, data):
    n, rows = shape
    p = Poset(n, rows)
    assert p.up == _reachable(n, rows)
    _assert_rows_and_lattice(p)  # down is the transpose, cover_up the reduction
    pairs = [(x, y) for x in range(n) for y in range(n) if rows[x] >> y & 1]
    assert p == build(n, pairs)
    if n >= 3:
        z = MarkedTriple(*data.draw(st.permutations(range(n)))[:3])
        chain_pairs = [(z.z1, z.z2), (z.z2, z.z3)]
        try:
            q = build(n, [*p.relation_pairs(), *chain_pairs])
        except CycleDetected:
            with pytest.raises(CycleDetected):
                normalize(p, z)
        else:
            assert normalize(p, z) == (q, z)


@pytest.mark.parametrize(
    "n, pairs, on_cycle",
    [
        (3, [(1, 1)], {1}),  # a self-pair, a reflexive row for Poset
        (3, [(0, 2), (2, 0)], {0, 2}),
        (64, [(i, (i + 1) % 64) for i in range(64)], set(range(64))),
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (5, 0)], {2, 3, 4}),  # below the cycle too
    ],
)
def test_cycles_raise_through_build_and_poset(n, pairs, on_cycle):
    rows = [0] * n
    for a, b in pairs:
        rows[a] |= 1 << b
    for make in (lambda: build(n, pairs), lambda: Poset(n, tuple(rows))):
        with pytest.raises(CycleDetected) as info:
            make()
        assert int(str(info.value).split()[1]) in on_cycle


def test_poset_rejects_rows_of_the_wrong_shape():
    with pytest.raises(IndexOutOfRange):
        Poset(3, (0, 0))
    with pytest.raises(IndexOutOfRange):
        Poset(2, (0b100, 0))
    with pytest.raises(IndexOutOfRange):
        Poset(2, (-1, 0))


@settings(max_examples=120)
@given(posets())
def test_closure_idempotent_and_dual_involution(p: Poset):
    assert build(p.n, p.relation_pairs()).up == p.up
    assert p.dual().dual().up == p.up


@settings(max_examples=60, deadline=None)
@given(posets(max_n=5))
def test_extension_count_self_dual(p: Poset):
    assert count_extensions(p) == count_extensions(p.dual())


@settings(max_examples=80)
@given(posets())
def test_param_invariants(p: Poset):
    prm = params(p)
    dual_prm = params(p.dual())
    for x in range(p.n):
        assert 1 <= prm.b[x] <= p.n
        assert prm.b[x] + prm.b_star[x] <= p.n + 1
        assert prm.t[x] <= prm.b[x]
        assert prm.t_star[x] <= prm.b_star[x]
        assert prm.b[x] == dual_prm.b_star[x]
        assert prm.t[x] == dual_prm.t_star[x]
    for x in range(p.n):
        for y in range(p.n):
            if p.less(x, y):
                assert prm.interval(x, y) >= 2
                assert prm.interval(x, y) == params(p.dual()).interval(y, x)


@settings(max_examples=80, deadline=None)
@given(posets())
def test_width_two_routes_agree(p: Poset):
    assert width(p) == width_bruteforce(p)


def test_width_matches_the_largest_antichain_on_drawn_instances():
    # every drawn instance, chainless ones too
    for i in range(5000):
        p, _ = random_instance(5, i, 3, 10)
        assert p.width == width_bruteforce(p), p.covers


def test_width_examples():
    assert width(chain(5)) == 1
    assert width(antichain(5)) == 5
    inst = family_cpc2_witness(1, 2)
    assert width(inst.poset) == 3
    assert width(inst.poset) == width_bruteforce(inst.poset)


def test_params_chain_and_antichain_t_values():
    for p in (chain(3), antichain(3)):
        prm = params(p)
        assert all(prm.t[x] == 1 for x in range(3))
        assert all(prm.t_star[x] == 1 for x in range(3))


def test_witness_family_interval():
    inst = family_cpc2_witness(1, 2)
    prm = params(inst.poset)
    assert prm.interval(inst.z.z1, inst.z.z2) == 2


def _reference_lattice(p: Poset) -> IdealLattice:
    """The ideal lattice by the full-scan walk: every element outside an
    ideal I is tried in ascending order and kept when all of its lower
    elements lie in I.  Each ideal's addable set is found apart from that
    walk, as the minimal elements of its complement: those with nothing of
    the complement below them."""
    full = (1 << p.n) - 1
    below = [sum(1 << y for y in range(p.n) if p.less(y, x)) for x in range(p.n)]
    ideals, succ, ways, index = [0], [], [1], {0: 0}
    layers = [0] * (p.n + 1)
    for t, ideal in enumerate(ideals):
        layers[ideal.bit_count()] += 1
        edges = []
        for x in range(p.n):
            if ideal >> x & 1 or below[x] & (full ^ ideal):
                continue
            nxt = ideal | 1 << x
            if nxt not in index:
                index[nxt] = len(ideals)
                ideals.append(nxt)
                ways.append(0)
            ways[index[nxt]] += ways[t]
            edges.append(index[nxt])
        succ.append(edges)
    # chains to the full ideal, by a walk down from it: J covers J - x for
    # every x of J with nothing of J above it
    above = [0] * len(ideals)
    above[-1] = 1
    for ideal in sorted(ideals, key=int.bit_count, reverse=True):
        for x in range(p.n):
            if ideal >> x & 1 and not any(ideal >> y & 1 and p.less(x, y) for y in range(p.n)):
                above[index[ideal ^ 1 << x]] += above[index[ideal]]
    addable = []
    for ideal in ideals:
        rest = [x for x in range(p.n) if not ideal >> x & 1]
        addable.append(sum(1 << x for x in rest if not any(p.less(y, x) for y in rest)))
    return IdealLattice(ideals, addable, succ, max(layers), ways[-1], ways, above)


def _assert_rows_and_lattice(p: Poset) -> None:
    n, less = p.n, p.less
    between = [[any(less(x, z) and less(z, y) for z in range(n)) for y in range(n)] for x in range(n)]
    down = tuple(sum(1 << y for y in range(n) if less(y, x)) for x in range(n))
    cover_up = tuple(
        sum(1 << y for y in range(n) if less(x, y) and not between[x][y]) for x in range(n)
    )
    reduction = tuple((x, y) for x in range(n) for y in range(n) if less(x, y) and not between[x][y])
    assert p.down == down and p.cover_up == cover_up
    assert p.covers == reduction and build(n, p.covers).up == p.up
    lat = lattice(p)
    assert lat == _reference_lattice(p)
    assert lat.ways[-1] == lat.above[0] == lat.count


@settings(max_examples=120, deadline=None)
@given(posets())
def test_lattice_and_rows_match_reference(p: Poset):
    _assert_rows_and_lattice(p)


def test_lattice_and_rows_match_reference_on_corpus(medium_corpus):
    corpus = [p for p, _ in medium_corpus]
    corpus += [p.dual() for p in corpus]
    wide = width_five_poset()
    assert wide.n == 28 and wide.width == 5
    for p in corpus + [wide, wide.dual()]:
        _assert_rows_and_lattice(p)


def test_lattice_budget_keeps_nothing_on_too_large(monkeypatch):
    p = antichain(6)
    monkeypatch.setattr("posetlab.extensions.IDEAL_BUDGET", 2**6 - 1)
    with pytest.raises(TooLarge):
        lattice(p)
    assert "_lattice" not in p.__dict__
    monkeypatch.undo()
    lat = lattice(p)
    assert lat == _reference_lattice(p) and (lat.widest, lat.count) == (20, 720)


def test_lattice_budget_fires_mid_layer(monkeypatch):
    # antichain(60) has layers of 1, 60, 1 770 and 34 220 ideals: 1 831 fit
    # in 2 000, so the budget runs out inside the fourth layer; a check made
    # only once a layer is complete keeps all 34 220 (~6.6 MB peak)
    p = antichain(60)
    monkeypatch.setattr("posetlab.extensions.IDEAL_BUDGET", 2000)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="exceeds 2000 ideals"):
            lattice(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert "_lattice" not in p.__dict__


def test_lattice_ideal_budget(monkeypatch):
    p = build(11, [(0, 1), (1, 2)])  # a 3-chain and 8 free elements: 4 * 2^8 ideals
    monkeypatch.setattr("posetlab.extensions.IDEAL_BUDGET", 1023)
    with pytest.raises(TooLarge, match="exceeds 1023 ideals"):
        lattice(p)
    assert "_lattice" not in p.__dict__
    monkeypatch.setattr("posetlab.extensions.IDEAL_BUDGET", 1024)
    lat = lattice(p)
    assert (len(lat.ideals), lat.widest) == (1024, 56 + 70 + 56 + 28)


def _reference_params(p: Poset):
    """b, b*, t, t* and the interval table, straight from their definitions
    with one full n x n interval table."""
    n, pc = p.n, lambda m: bin(m).count("1")
    b = tuple(pc(p.down[x]) + 1 for x in range(n))
    b_star = tuple(pc(p.up[x]) + 1 for x in range(n))
    full = (1 << n) - 1
    incomp = [full & ~(p.up[x] | p.down[x] | (1 << x)) for x in range(n)]
    t, t_star = [], []
    for x in range(n):
        dx, ux = p.down[x] | (1 << x), p.up[x] | (1 << x)
        ys = [y for y in range(n) if incomp[x] >> y & 1]
        t.append(max([1] + [pc(incomp[y] & dx) for y in ys]))
        t_star.append(max([1] + [pc(incomp[y] & ux) for y in ys]))
    interval = [
        [pc((p.up[x] | (1 << x)) & (p.down[y] | (1 << y))) for y in range(n)] for x in range(n)
    ]
    return b, b_star, tuple(t), tuple(t_star), interval


def test_cached_params_match_reference(medium_corpus):
    corpus = [p for p, _ in medium_corpus]
    corpus += [p.dual() for p in corpus]
    corpus += [random_instance(31, i, 3, 10)[0] for i in range(200)]
    for p in corpus:
        b, b_star, t, t_star, interval = _reference_params(p)
        assert (p.b, p.b_star, p.t, p.t_star) == (b, b_star, t, t_star)
        assert [[p.interval(x, y) for y in range(p.n)] for x in range(p.n)] == interval
        assert p.width == width_bruteforce(p)
        assert params(p) is p
    # support reads b, b* and three interval sizes, nothing else
    for p, z in medium_corpus:
        fresh = Poset(p.n, p.up)
        support(fresh, z)
        assert {"b", "b_star"} <= set(fresh.__dict__)
        assert not {"t", "t_star", "width"} & set(fresh.__dict__)


def test_cached_rows_read_on_the_class_give_the_descriptor():
    # help() and pydoc read the row's docstring through the class
    assert Poset.width.__doc__ == "Maximum antichain size, via minimum chain cover (Dilworth)."
    assert Poset.b is Poset.__dict__["b"]


def test_marked_triple_validation_and_normalize():
    with pytest.raises(BadParams):
        MarkedTriple(0, 0, 1)
    p = antichain(4)
    q, z = normalize(p, MarkedTriple(0, 1, 2))
    assert q.less(0, 1) and q.less(1, 2) and q.less(0, 2)
    # already normalized: unchanged object
    q2, _ = normalize(q, z)
    assert q2.up == q.up
    with pytest.raises(CycleDetected):
        normalize(chain(3), MarkedTriple(1, 0, 2))


def _one_of_each_record():
    """One instance of each of the package's twelve record classes, the
    frozen four first, built the way the package builds them."""
    fam = build_family("cpc2-witness", k=1, l=2)
    p, z = fam.poset, fam.z
    job = SearchJob("cpc2", 6, 3, 40, width_max=3)
    _, summary = run(job)
    table = f_table(p, z)
    return [
        p, z, job, support(p, z),
        table, n_vector(p, z.z2), check_cpc2(table, 1, 2), verify_injections(p, z)[0],
        Certificate("cpc", chain(3), MarkedTriple(0, 1, 2), {"k": 1, "l": 1}, 2, 1, 0),
        summary, McEstimate(0.25, 0.05, 25, 100), fam,
    ]


def test_records_copy_and_pickle_to_equal_objects():
    records = _one_of_each_record()
    assert len({type(r) for r in records}) == 12
    for r in records:
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(twin) is type(r) and twin == r and repr(twin) == repr(r)
    assert repr(MarkedTriple(0, 1, 2)) == "MarkedTriple(z1=0, z2=1, z3=2)"
    assert repr(chain(3)) == "Poset(n=3, up=(6, 4, 0))"
    assert repr(McEstimate(0.5, 0.1, 1, 2)) == "McEstimate(mean=0.5, stderr=0.1, hits=1, samples=2)"


def test_frozen_records_refuse_assignment_and_hash_their_fields():
    frozen = _one_of_each_record()[:4]
    for r, name in zip(frozen, ("n", "z1", "budget", "k_lo")):
        before = getattr(r, name)
        with pytest.raises(AttributeError):
            setattr(r, name, 7)
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert getattr(r, name) == before
        assert hash(copy.deepcopy(r)) == hash(r)
    p, z = frozen[0], frozen[1]
    assert hash(p) == hash((p.n, p.up)) and hash(z) == hash(z.as_tuple())
    assert z != z.as_tuple() and p != chain(p.n)
    # the kept lattice and order parameters are not fields
    assert lattice(p) and p.b and p == Poset(p.n, p.up) and "_lattice" in p.__dict__
    for r in _one_of_each_record()[4:]:
        with pytest.raises(TypeError):
            hash(r)


def test_record_defaults_are_fresh_containers():
    z = MarkedTriple(0, 1, 2)
    a, b = FTable(3, z), FTable(3, z)
    a.entries[(1, 1)] = 1
    assert b.entries == {} and a != b
    first, second = (InjectionCertificate("transfer", 1, 1, 0, 0, 0, 0) for _ in range(2))
    first.errors.append("x")
    first.collisions.append("y")
    assert second.errors == [] and second.collisions == []
    one, other = SearchSummary("cpc"), SearchSummary("cpc")
    one.min_slack.append(1)
    one.critical.append({"index": 0})
    assert other.min_slack == [] and other.critical == [] and other.instances == 0
    fam, twin = (FamilyInstance("antichain", {}, chain(3)) for _ in range(2))
    fam.extras["ratio"] = 1
    assert twin.extras == {} and twin.z is None
    nv, nv_twin = NVector(3, 0), NVector(3, 0)
    nv.counts[1] = 1
    assert nv_twin.counts == {}


@pytest.mark.parametrize(
    "cls, args",
    [(FTable, (3, MarkedTriple(0, 1, 2))), (SupportRegion, (1, 2, 3, 4, 5, 6))],
    ids=["mutable", "frozen"],
)
def test_record_initializer_names_the_field_at_fault(cls, args):
    first, last = cls._fields[0], cls._fields[len(args) - 1]
    keywords = dict(zip(cls._fields[1:], args[1:]))
    assert cls(*args) == cls(args[0], **keywords) == cls(**{first: args[0]}, **keywords)
    with pytest.raises(TypeError, match="has no field 'colour'"):
        cls(*args, colour=1)
    with pytest.raises(TypeError, match=f"got field '{first}' twice"):
        cls(*args, **{first: args[0]})
    with pytest.raises(TypeError, match=f"lacks field '{last}'"):
        cls(*args[:-1])
    with pytest.raises(TypeError, match=f"takes {len(cls._fields)} fields, got"):
        cls(*args, *[0] * (len(cls._fields) - len(args) + 1))


def test_thin_flat_definitions():
    p3 = chain(3)
    z = MarkedTriple(0, 1, 2)
    assert is_thin(p3, z, 1)
    # antichain of n: every outside element has n - 2 incomparables
    n = 5
    pa, za = normalize(antichain(n), MarkedTriple(0, 1, 2))
    prm = params(pa)
    outside = [u for u in range(n) if u not in (0, 1, 2)]
    worst = max(n - prm.b[u] - prm.b_star[u] for u in outside)
    assert thin_threshold(pa, za) == worst + 1
    assert is_thin(pa, za, worst + 1) and not is_thin(pa, za, worst)
    # flat constrains the marked elements only
    assert is_flat(pa, za, flat_threshold(pa, za))
    assert not is_flat(pa, za, flat_threshold(pa, za) - 1)


def test_thin_threshold_matches_incomparability_count():
    # n - b(u) - b*(u) counts the incomparables of u minus one, so the
    # smallest workable t is exactly the worst incomparable count.
    inst = family_cpc2_witness(1, 2)
    p, z = inst.poset, inst.z
    marked = set(z.as_tuple())
    worst = max(
        sum(1 for y in range(p.n) if y != u and not p.less(u, y) and not p.less(y, u))
        for u in range(p.n)
        if u not in marked
    )
    assert thin_threshold(p, z) == worst


def test_canonical_key_is_relabeling_invariant():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        p = build(n, pairs)
        perm = list(range(n))
        rng.shuffle(perm)
        q = build(n, [(perm[a], perm[b]) for a, b in pairs])
        assert canonical_key(p) == canonical_key(q)


def test_canonical_key_separates_small_nonisomorphic():
    keys = {canonical_key(p) for p in (chain(3), antichain(3), build(3, [(0, 1)]))}
    assert len(keys) == 3


def _permutation_min_key(p: Poset):
    """Reference canonical form: the least relation bitstring over all n!
    relabelings."""
    pairs = p.relation_pairs()
    best = None
    for perm in itertools.permutations(range(p.n)):
        code = 0
        for a, b in pairs:
            code |= 1 << (perm[a] * p.n + perm[b])
        if best is None or code < best:
            best = code
    return (p.n, best)


def test_canonical_key_agrees_with_permutation_min_pair_for_pair():
    rng = random.Random(12)
    sample = []
    for _ in range(30):
        n = rng.randint(1, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        sample.append(build(n, pairs))
        perm = list(range(n))
        rng.shuffle(perm)
        sample.append(build(n, [(perm[a], perm[b]) for a, b in pairs]))
    keys = [canonical_key(p) for p in sample]
    refs = [_permutation_min_key(p) for p in sample]
    verdicts = set()
    for i, j in itertools.combinations(range(len(sample)), 2):
        assert (keys[i] == keys[j]) == (refs[i] == refs[j]), (sample[i], sample[j])
        if sample[i].n == sample[j].n:
            verdicts.add(refs[i] == refs[j])
    assert verdicts == {True, False}  # the sample tests both answers


def test_canonical_key_refuses_ten_elements():
    # two non-isomorphic posets (e(P) = 53 and 52) that a degree-profile
    # hash cannot tell apart; an exact key above n = 9 is not offered
    first = build(10, [(1, 0), (1, 7), (2, 4), (3, 5), (3, 6), (5, 1), (5, 8),
                       (6, 1), (6, 9), (7, 2), (8, 9), (9, 0), (9, 2)])
    second = build(10, [(0, 1), (0, 8), (1, 2), (1, 6), (3, 2), (3, 7), (4, 6),
                        (4, 8), (6, 7), (7, 5), (8, 3), (9, 0), (9, 4)])
    assert (count_extensions(first), count_extensions(second)) == (53, 52)
    for p in (first, second):
        with pytest.raises(TooLarge):
            canonical_key(p)


def test_json_round_trip_accepts_unreduced_covers():
    p = build(4, [(0, 1), (1, 2), (0, 2), (1, 3)])
    q, z, a = load_poset(json.dumps(p.to_json_obj()))
    assert q.up == p.up and z is None and a is None
    obj = p.to_json_obj()
    obj["covers"].append([0, 2])  # redundant pair; loader re-reduces
    obj["z"] = [0, 1, 2]
    q2, z2, _ = load_poset(obj)
    assert q2.up == p.up and z2 == MarkedTriple(0, 1, 2)


def _json_formats():
    """For each JSON format posetlab reads back: what its writer gives for
    one marked poset, the reader, and copies of that object with each field
    written as a decimal string (F-table counts, certificate lhs/rhs) set to
    a given value."""
    p, z = build(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (3, 5)]), MarkedTriple(0, 2, 5)
    cert = Certificate("cpc2", p, z, {"k": 1, "l": 2}, 10**30, 7, 3)
    table, line = f_table(p, z).to_json_obj(), cert.to_json_obj()
    (k, l, _), *cells = table["F"]
    return {
        "poset": (p.to_json_obj(), lambda obj: load_poset(obj)[0], lambda v: []),
        "table": (table, FTable.from_json_obj, lambda v: [{**table, "F": [[k, l, v], *cells]}]),
        "certificate": (
            line, Certificate.from_json_obj, lambda v: [{**line, "lhs": v}, {**line, "rhs": v}]
        ),
    }


@pytest.mark.parametrize("name", ["poset", "table", "certificate"])
def test_json_readers_share_one_set_of_field_checks(name):
    obj, read, with_text = _json_formats()[name]
    text = json.dumps(obj)
    assert json.dumps(read(json.loads(text)).to_json_obj()) == text
    for as_int, as_text in zip(with_text(12), with_text("12")):
        assert read(as_int).to_json_obj() == read(as_text).to_json_obj() == as_text
    # int() reads the first six (the fifth is 12 in Arabic-Indic digits);
    # only the form str(int) writes is read back
    for value in ("1_0", " 6 ", "+1", "01", "\u0661\u0662", "-0", "1e3", "x", 1.0, None):
        for bad in with_text(value):
            with pytest.raises(MalformedInput, match="must be an integer"):
                read(bad)
    for value in ("6", 6.0, True, None):
        with pytest.raises(MalformedInput, match="'n' must be an integer"):
            read({**obj, "n": value})
    for z in ([0, 2, 6], [-1, 2, 5], [6, 7, 8]):
        with pytest.raises(IndexOutOfRange):
            read({**obj, "z": z})
    with pytest.raises(BadParams, match="distinct"):
        read({**obj, "z": [0, 2, 0]})
    for z in ([0, 2], 5, [0, 2, "5"], [0, 2, 5.0]):
        with pytest.raises(MalformedInput):
            read({**obj, "z": z})
