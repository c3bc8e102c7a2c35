"""Search harness: exhaustive class enumeration, randomized violation hunts."""

from __future__ import annotations

import hashlib
import json
import random
from functools import reduce
from itertools import combinations
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import marked_sample
from posetlab import extensions, search
from posetlab.errors import (
    BadChain, BadParams, CycleDetected, IndexOutOfRange, MalformedInput, TooLarge,
)
from posetlab.extensions import _f_rows, count_extensions, f_table
from posetlab.inequalities import FAILS, HOLDS, VACUOUS, check_cpc, check_cpc1, check_cpc2
from posetlab.posets import MarkedTriple, Poset, build
from posetlab.search import (
    Certificate,
    POSET_CLASS_COUNTS,
    SEED_STRIDE,
    SearchJob,
    SearchSummary,
    canonical_key,
    enumerate_posets,
    random_instance,
    run,
    verify_certificate,
)


# SHA-256 of repr((p.n, p.covers)) of every representative of
# enumerate_posets(1), ..., enumerate_posets(6), in order, as first recorded
# with the permutation-min canonical form
ENUMERATION_SHA256 = "0eb09624423a07e765c2f46d23e513ff371c8d0827c6e9d0c815ab34c767e668"


def test_enumerate_poset_class_counts():
    digest = hashlib.sha256()
    for n in range(1, 7):
        reps = enumerate_posets(n)
        assert len(reps) == POSET_CLASS_COUNTS[n], n
        assert len({canonical_key(p) for p in reps}) == len(reps)
        for p in reps:
            digest.update(repr((p.n, p.covers)).encode())
    assert digest.hexdigest() == ENUMERATION_SHA256


def test_enumerate_guard():
    with pytest.raises(TooLarge):
        enumerate_posets(7)


def test_enumeration_contains_landmarks():
    reps = enumerate_posets(4)
    counts = sorted(count_extensions(p) for p in reps)
    assert counts[0] == 1 and counts[-1] == 24  # chain and antichain present


def test_random_instance_is_deterministic():
    a = random_instance(3, 17, 3, 8)
    b = random_instance(3, 17, 3, 8)
    assert a[0].up == b[0].up and a[1] == b[1]
    c = random_instance(4, 17, 3, 8)
    assert a[0].up != c[0].up or a[1] != c[1]


def _instance_from_pairs(seed, index, n_min, n_max):
    """``random_instance`` as first written: the same RNG calls in the same
    order, with the kept pairs listed and handed to ``build``, and the
    3-chains listed by a plain loop in lexicographic order."""
    rng = random.Random(seed * 1_000_003 + index)
    n = rng.randint(n_min, n_max)
    order = list(range(n))
    rng.shuffle(order)
    prob = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5])
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]
    p = build(n, pairs)
    up = p.up
    chains = [
        (a, b, c)
        for a in range(n)
        for b in range(n) if up[a] >> b & 1
        for c in range(n) if up[b] >> c & 1
    ]
    return p, MarkedTriple(*rng.choice(chains)) if chains else None


def test_random_instance_keeps_its_stream():
    # certificates carry their instance index, so the instances drawn for an
    # index must never change
    for seed in (7, 42):
        for n_min, n_max in ((3, 8), (3, 10)):
            for index in range(2000):
                p, z = random_instance(seed, index, n_min, n_max)
                q, y = _instance_from_pairs(seed, index, n_min, n_max)
                assert (p.n, p.up) == (q.n, q.up) and z == y, (seed, index, n_min, n_max)


@pytest.mark.parametrize("seed", [0, 10**9])
@pytest.mark.parametrize(
    "n_min, n_max, count", [(3, 3, 300), (8, 8, 300), (3, 12, 600), (20, 40, 40)]
)
def test_the_stream_holds_at_every_rejection_width(seed, n_min, n_max, count):
    # the draw reads getrandbits by CPython's rejection rule, as randint,
    # shuffle and choice do: one n (which still spends a draw when
    # n_min == n_max), shuffles over 3-40 elements and chain draws over up
    # to thousands of 3-chains give every bit width from 1 up
    rng = random.Random()
    for index in range(count):
        p, z = random_instance(seed, index, n_min, n_max)
        q, y = _instance_from_pairs(seed, index, n_min, n_max)
        rows = search._draw_rows(rng, seed, index, n_min, n_max)
        assert (p.n, p.up) == (q.n, q.up) == (len(rows), Poset(len(rows), tuple(rows)).up)
        assert z == y, (seed, index, n_min, n_max)


def test_the_draw_calls_no_stdlib_wrapper(monkeypatch):
    job = SearchJob(target="gcpc", n_max=8, seed=42, budget=500, width_max=3)
    certs, summary = run(job)
    drawn = [random_instance(42, index, 3, 8) for index in range(50)]
    assert certs

    def refuse(*args, **kwargs):
        raise AssertionError("the draw reads getrandbits and random only")

    for name in ("randint", "shuffle", "choice"):
        monkeypatch.setattr(random.Random, name, refuse)
    again, again_summary = run(job)
    assert [c.to_json_obj() for c in again] == [c.to_json_obj() for c in certs]
    assert again_summary.to_json_obj() == summary.to_json_obj()
    assert [random_instance(42, index, 3, 8) for index in range(50)] == drawn


def test_the_scan_builds_no_lattice_and_folds_nothing(monkeypatch):
    # the scan counts F by its own forward pass, so a search with the
    # lattice build and the fold refused finds the same certificates
    job = SearchJob(target="gcpc", n_max=8, seed=42, budget=500, width_max=3)
    certs, summary = run(job)
    assert certs

    def refuse(*args, **kwargs):
        raise AssertionError("the scan builds no lattice and folds nothing")

    for name in ("_build_lattice", "_fold"):
        monkeypatch.setattr(f"posetlab.extensions.{name}", refuse)
    again, again_summary = run(job)
    assert [c.to_json_obj() for c in again] == [c.to_json_obj() for c in certs]
    assert again_summary.to_json_obj() == summary.to_json_obj()


def test_row_test_finds_exactly_the_instances_with_a_3_chain():
    # the closure has a < b < c exactly when the rows hold u -> v -> w
    rng = random.Random()
    for n_max in (8, 12):
        for index in range(10_000):
            rows = search._draw_rows(rng, 5, index, 3, n_max)
            p = Poset(len(rows), tuple(rows))
            assert bool(search._linked(rows)) == bool(search._chains(p.up)), (n_max, index)
    for n in range(1, 6):
        for p in enumerate_posets(n):
            has_chain = bool(search._chains(p.up))
            assert bool(search._linked(p.cover_up)) == has_chain, p.covers
            assert bool(search._linked(p.up)) == has_chain, p.covers


# usable instances of SearchJob("gcpc", 8, 7, 4000, width_max=3)
SEED_7_USABLE = 1446


def test_search_keeps_the_usable_instances_of_random_instance():
    job = SearchJob(target="gcpc", n_max=8, seed=7, budget=4000, width_max=3)
    _, summary = run(job)
    drawn = [random_instance(7, index, 3, 8) for index in range(4000)]
    assert summary.usable == sum(z is not None and p.width <= 3 for p, z in drawn)
    assert summary.usable == SEED_7_USABLE


@st.composite
def acyclic_rows(draw, max_n: int = 12):
    """(n, rows): the bitmask rows of a relation on 1 <= n <= max_n elements,
    acyclic along a random labelling and not closed, each pair kept with
    probability 1/2, 1/4 or 1/8."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    label = draw(st.permutations(range(n)))
    pairs = list(combinations(range(n), 2))
    masks = st.integers(min_value=0, max_value=(1 << len(pairs)) - 1)
    kept = reduce(and_, draw(st.lists(masks, min_size=1, max_size=3)))
    rows = [0] * n
    for bit, (i, j) in enumerate(pairs):
        if kept >> bit & 1:
            rows[label[i]] |= 1 << label[j]
    return n, rows


@settings(max_examples=300, deadline=None)
@given(acyclic_rows())
def test_the_sources_and_sinks_of_the_drawn_rows_bound_the_width(instance):
    # the search drops an instance with more than width_max sources (in no
    # row) or sinks (empty row) before closing it; both are antichains of
    # the closure, so the shortcut drops only instances that are too wide
    n, rows = instance
    width = Poset(n, tuple(rows)).width
    heads = reduce(or_, rows, 0)
    sources, sinks = n - heads.bit_count(), rows.count(0)
    assert sources <= width and sinks <= width
    for width_max in range(1, n + 1):
        kept = bool(search._linked(rows)) and max(sources, sinks) <= width_max
        assert bool(search._linked(rows, width_max)) == kept, width_max


def _reference_gcpc_run(seed: int, budget: int, n_max: int, width_max):
    """The gcpc search by the plain route: ``random_instance``, ``p.width``,
    ``f_table`` and ``check_cpc2`` at every grid point, and each failure
    carried to the signed table with z1 and z2 swapped."""
    summary, certs, slacks = SearchSummary("gcpc"), [], []
    for index in range(budget):
        summary.instances += 1
        p, z = random_instance(seed, index, 3, n_max)
        if z is None or width_max is not None and p.width > width_max:
            continue
        summary.usable += 1
        F = f_table(p, z)
        for k in range(1, p.n):
            for l in range(1, p.n - k + 1):
                rep = check_cpc2(F, k, l)
                if rep.verdict == HOLDS:
                    summary.holds += 1
                    slacks.append(rep.rhs - rep.lhs)
                elif rep.verdict == VACUOUS:
                    summary.vacuous += 1
                else:
                    summary.fails += 1
                    a, b = -k - 1, k + l + 1
                    indices = {"k": a, "l": b, "p": a + 1, "q": b + 1}
                    certs.append(
                        Certificate("gcpc", p, z.swapped12(), indices, rep.lhs, rep.rhs, index)
                    )
    summary.certificates = len(certs)
    summary.min_slack = sorted(s for s in slacks if s > 0)[:5]
    return certs, summary


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_matches_the_plain_route_at_every_width_cap(seed):
    # the width shortcut on sources and sinks, the closure on bare rows and
    # the records built only at a failure leave every output as it was
    for width_max in (1, 2, 3, None):
        certs, summary = run(SearchJob("gcpc", 9, seed, 2000, width_max=width_max))
        ref_certs, ref_summary = _reference_gcpc_run(seed, 2000, 9, width_max)
        assert summary.to_json_obj() == ref_summary.to_json_obj(), width_max
        assert [c.to_json_obj() for c in certs] == [c.to_json_obj() for c in ref_certs]


def test_the_search_builds_records_only_for_an_instance_that_fails(monkeypatch):
    # a usable instance is decided on its closed rows; its Poset and
    # MarkedTriple are built once, at its first failure
    index, built = [None], {"Poset": [], "MarkedTriple": []}
    draw_rows = search._draw_rows

    def drawing(rng, seed, i, n_min, n_max):
        index[0] = i
        return draw_rows(rng, seed, i, n_min, n_max)

    def counted(name):
        cls = getattr(search, name)

        def make(*args):
            built[name].append(index[0])
            return cls(*args)

        return make

    monkeypatch.setattr(search, "_draw_rows", drawing)
    for name in built:
        monkeypatch.setattr(search, name, counted(name))
    certs, summary = run(SearchJob("gcpc", 8, 42, 4000, width_max=3))
    failing = sorted({c.index for c in certs})
    assert failing and len(failing) < summary.usable
    assert sorted(built["Poset"]) == sorted(built["MarkedTriple"]) == failing


def test_enumerate_posets_keeps_no_lattice(monkeypatch):
    # the representatives it grows from are read off a lattice built for
    # them alone, never the one kept on the poset
    def refuse(p):
        raise AssertionError("enumerate_posets keeps no lattice")

    monkeypatch.setattr(extensions, "lattice", refuse)
    monkeypatch.setattr(search, "lattice", refuse, raising=False)
    reps = enumerate_posets(5)
    assert len(reps) == POSET_CLASS_COUNTS[5]
    assert all("_lattice" not in p.__dict__ for p in reps)


def test_search_job_rejects_negative_seeds_and_widths_below_one():
    # random.Random seeds with |a|: seed -1 at index 3 drew the instance of
    # seed 0 at index 1 000 000, and width_max 0 left no instance usable
    for bad in ({"seed": -1}, {"seed": -5}, {"width_max": 0}, {"width_max": -2}):
        params = {"target": "gcpc", "n_max": 6, "seed": 0, "budget": 10, **bad}
        with pytest.raises(BadParams, match="seed must be >= 0|width_max must be >= 1"):
            SearchJob(**params)
    SearchJob(target="gcpc", n_max=6, seed=0, budget=10, width_max=1)


@pytest.mark.parametrize(
    "bad",
    [{"budget": 10.0}, {"n_max": 8.0}, {"seed": 1.5}, {"seed": True}, {"n_min": "3"},
     {"width_max": 3.0}, {"width_max": False}, {"budget": None}],
)
def test_search_job_refuses_non_integer_fields(bad):
    # 10.0 raised a TypeError in run, n_max=8.0 an AttributeError in _below,
    # seed=1.5 ran a stream no CLI command draws and seed=True repeated seed 1
    ((name, value),) = bad.items()
    with pytest.raises(BadParams, match=f"{name} must be an integer, got {value!r}"):
        SearchJob(**{"target": "gcpc", "n_max": 8, "seed": 1, "budget": 10, **bad})


def test_search_cpc2_finds_and_reverifies(tmp_path):
    out = tmp_path / "found.jsonl"
    job = SearchJob(target="cpc2", n_max=7, seed=42, budget=4000, out=str(out))
    certs, summary = run(job)
    assert summary.instances == 4000
    assert summary.critical == []  # a double failure would falsify two-of-three
    assert len(certs) == summary.certificates > 0
    assert all(verify_certificate(c) for c in certs)
    lines = out.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [c.to_json_obj() for c in certs]
    reloaded = [Certificate.from_json_obj(json.loads(line)) for line in lines]
    assert all(verify_certificate(c) for c in reloaded)


def test_search_out_survives_a_crash(tmp_path, monkeypatch):
    job = SearchJob(target="cpc2", n_max=7, seed=42, budget=4000)
    certs, _ = run(job)
    crash_at = certs[len(certs) // 2].index + 1

    draw_rows = search._draw_rows

    def crashing(rng, seed, index, n_min, n_max):
        if index == crash_at:
            raise RuntimeError("killed")
        return draw_rows(rng, seed, index, n_min, n_max)

    monkeypatch.setattr(search, "_draw_rows", crashing)
    out = tmp_path / "found.jsonl"
    with pytest.raises(RuntimeError):
        run(SearchJob(target="cpc2", n_max=7, seed=42, budget=4000, out=str(out)))
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines == [c.to_json_obj() for c in certs if c.index < crash_at]


def test_search_deterministic_across_index_chunks():
    # instances are seeded per index: scanning disjoint index ranges in any
    # order and absorbing the summaries reproduces the whole run
    job = SearchJob(target="cpc2", n_max=6, seed=11, budget=1500)
    certs, summary = run(job)
    merged = SearchSummary(job.target)
    chunk_certs = []
    for lo, hi in ((1000, 1500), (0, 400), (400, 1000)):
        part = SearchSummary(job.target)
        rng = random.Random()
        chunk_certs += [c for i in range(lo, hi) for c in search._scan_instance(job, i, part, rng)]
        merged.absorb(part)
    assert sorted((c.to_json_obj() for c in chunk_certs), key=lambda c: c["index"]) == [
        c.to_json_obj() for c in certs
    ]
    assert merged.to_json_obj() == summary.to_json_obj()


def test_fast_path_matches_check_reports():
    checkers = {"cpc": check_cpc, "cpc1": check_cpc1, "cpc2": check_cpc2}
    seen = set()
    for p, z in marked_sample():
        if p.up not in seen:
            seen.add(p.up)
            loop = [
                (a, b, c)
                for a in range(p.n)
                for b in range(p.n)
                for c in range(p.n)
                if p.less(a, b) and p.less(b, c)
            ]
            assert search._chains(p.up) == loop
        F = f_table(p, z)
        grid = [(k, l) for k in range(1, p.n) for l in range(1, p.n - k + 1)]
        for target, check in checkers.items():
            summary = SearchSummary(target)
            rows = _f_rows(p.up, p.down, p.cover_up, p.width, z.as_tuple())
            certs = search._scan_table(SearchJob(target, 8, 0, 0), 0, summary, rows, lambda: (p, z))
            reps = [check(F, k, l) for k, l in grid]
            verdicts = [rep.verdict for rep in reps]
            where = (p.covers, z, target)
            assert (summary.holds, summary.fails, summary.vacuous) == (
                verdicts.count(HOLDS), verdicts.count(FAILS), verdicts.count(VACUOUS)
            ), where
            assert [(c.indices, c.lhs, c.rhs) for c in certs] == [
                ({"k": rep.k, "l": rep.l}, rep.lhs, rep.rhs) for rep in reps if rep.verdict == FAILS
            ], where
            assert all(c.ineq == target and c.poset is p and c.z is z for c in certs)
            slacks = sorted(rep.rhs - rep.lhs for rep in reps if rep.verdict == HOLDS)
            assert summary.min_slack == [s for s in slacks if s > 0][:5], where
            assert summary.critical == []


def test_a_double_failure_is_logged_as_critical(monkeypatch):
    # no table is known to fail two of cpc, cpc1 and cpc2 at one cell, so
    # every table is made F(1,1) = F(1,2) = F(2,2) = F(3,1) = 1 and 0
    # elsewhere: at (1, 1) cpc and cpc1 both fail, and nowhere else does any
    # of the three fail; the cpc failure makes a certificate that names the
    # same instance and cell
    def rows(up, down, cover_up, width, marks):
        rows = [[0] * (len(up) + 2) for _ in range(len(up) + 2)]
        for k, l in ((1, 1), (1, 2), (2, 2), (3, 1)):
            rows[k][l] = 1
        return rows

    monkeypatch.setattr(search, "_f_rows", rows)
    certs, summary = run(SearchJob("cpc", n_max=5, seed=42, budget=3))
    assert certs and len(summary.critical) == len(certs) == summary.fails
    assert summary.to_json_obj()["critical"] == [
        {"covers": [list(c) for c in cert.poset.covers], "z": list(cert.z.as_tuple()),
         "k": cert.indices["k"], "l": cert.indices["l"], "index": cert.index}
        for cert in certs
    ]


def test_cpc1_certificates_are_cpc2_failures_of_the_dual():
    # F of the dual with the marks reversed is F transposed, so a cpc1
    # failure at (k, l) is a cpc2 failure at (l, k) there, with the same
    # products
    certs, summary = run(SearchJob("cpc1", n_max=7, seed=42, budget=4000))
    assert len(certs) == summary.fails == 75
    for cert in certs:
        assert verify_certificate(cert)
        k, l = cert.indices["k"], cert.indices["l"]
        rep = check_cpc2(f_table(cert.poset.dual(), cert.z.reversed()), l, k)
        assert (rep.verdict, rep.lhs, rep.rhs) == (FAILS, cert.lhs, cert.rhs)


@pytest.mark.parametrize("target", search.SEARCH_TARGETS)
def test_every_grid_point_of_a_usable_instance_is_counted_once(target):
    _, summary = run(SearchJob(target, 8, 7, 2000, width_max=3))
    usable = [p for p, z in (random_instance(7, i, 3, 8) for i in range(2000))
              if z is not None and p.width <= 3]
    assert summary.usable == len(usable) == 712
    points = sum(p.n * (p.n - 1) // 2 for p in usable)
    assert summary.holds + summary.fails + summary.vacuous == points == 10745


def test_gcpc_on_width_two_reverifies():
    # width two does NOT shield the signed-index comparison: the reduction
    # lands at a negative first gap, and violations exist even at width 2
    # (a 7-element witness is pinned in test_inequalities).  Whatever the
    # sample turns up must re-verify from scratch.
    job = SearchJob(target="gcpc", n_max=7, width_max=2, seed=7, budget=4000)
    certs, summary = run(job)
    assert summary.fails == len(certs)
    assert all(verify_certificate(c) for c in certs)


def test_cpc_target_has_no_violations_and_tracks_slack():
    job = SearchJob(target="cpc", n_max=7, seed=5, budget=3000)
    certs, summary = run(job)
    assert certs == [] and summary.fails == 0
    assert summary.critical == []
    assert summary.holds > 0 and summary.min_slack
    assert all(s > 0 for s in summary.min_slack)


def test_gcpc_certificates_via_signed_reduction():
    job = SearchJob(target="gcpc", n_max=7, width_max=3, seed=42, budget=4000)
    certs, summary = run(job)
    assert len(certs) > 0
    for cert in certs[:10]:
        assert cert.ineq == "gcpc"
        assert cert.indices["k"] < 0 < cert.indices["l"]
        assert verify_certificate(cert)
        tampered = Certificate(
            cert.ineq, cert.poset, cert.z, cert.indices, cert.lhs + 1, cert.rhs, cert.index
        )
        assert not verify_certificate(tampered)


def test_verify_certificate_rejects_malformed_certificates():
    p, z = build(3, [(0, 1), (1, 2)]), MarkedTriple(0, 1, 2)
    with pytest.raises(BadParams, match="'stanley'"):
        verify_certificate(Certificate("stanley", p, z, {"k": 1, "l": 1}, 1, 0, 0))
    with pytest.raises(BadParams, match="lack l"):
        verify_certificate(Certificate("cpc2", p, z, {"k": 1}, 1, 0, 0))
    with pytest.raises(BadParams, match="lack p, q"):
        verify_certificate(Certificate("gcpc", p, z, {"k": 1, "l": 1}, 1, 0, 0))
    # indices are read as on reload, so a string index is malformed input
    with pytest.raises(MalformedInput, match="index 'k' must be an integer"):
        verify_certificate(Certificate("cpc", p, z, {"k": "1", "l": 1}, 0, 0, 0))
    # well formed but not a violation on the chain
    assert not verify_certificate(Certificate("cpc2", p, z, {"k": 1, "l": 1}, 1, 0, 0))


def test_verify_certificate_rejects_marks_outside_the_poset():
    # a bare IndexError and a ValueError (negative shift count) before
    for z, bad in (((9, 1, 2), 9), ((0, 1, -1), -1)):
        p = build(6, [(0, 1), (1, 2)])
        cert = Certificate("cpc2", p, MarkedTriple(*z), {"k": 1, "l": 1}, 1, 0, 0)
        with pytest.raises(IndexOutOfRange, match=f"element {bad} outside 0..5"):
            verify_certificate(cert)


def test_certificate_json_round_trip_and_malformed_input():
    job = SearchJob(target="gcpc", n_max=7, width_max=3, seed=42, budget=500)
    certs, _ = run(job)
    assert certs
    for cert in certs:
        text = json.dumps(cert.to_json_obj())
        back = Certificate.from_json_obj(json.loads(text))
        assert back == cert and json.dumps(back.to_json_obj()) == text
    good = certs[0].to_json_obj()
    for key in ("ineq", "n", "covers", "z", "indices", "lhs", "rhs"):
        with pytest.raises(MalformedInput, match=f"lacks {key}"):
            Certificate.from_json_obj({k: v for k, v in good.items() if k != key})
    # a bare KeyError, ValueError and TypeError before
    for field, value in (("n", "seven"), ("n", 7.5), ("lhs", "1e3"), ("index", None),
                         ("indices", {**good["indices"], "k": "minus one"}),
                         ("z", [0, 1, True])):
        with pytest.raises(MalformedInput, match="must be an integer"):
            Certificate.from_json_obj({**good, field: value})
    for value in (5, "0 1", None, [[0, 1, 2]], [3]):
        with pytest.raises(MalformedInput, match="'covers' must be a list of pairs"):
            Certificate.from_json_obj({**good, "covers": value})
    for field, value in (("z", 7), ("z", [0, 1]), ("z", None), ("indices", [1, 2]), ("ineq", 3)):
        with pytest.raises(MalformedInput, match=f"'{field}' must be"):
            Certificate.from_json_obj({**good, field: value})
    with pytest.raises(MalformedInput, match="must be an object"):
        Certificate.from_json_obj([good])
    # n and the cover elements are range-checked on load, as in load_poset
    line = {"ineq": "cpc2", "n": 10**9, "covers": [[0, 1]], "z": [0, 1, 2],
            "indices": {"k": 1, "l": 1}, "lhs": "1", "rhs": "0"}
    with pytest.raises(IndexOutOfRange, match=r"n=1000000000 outside 1\.\.64"):
        Certificate.from_json_obj(line)
    with pytest.raises(IndexOutOfRange, match=r"element 7 outside 0\.\.2"):
        Certificate.from_json_obj({**line, "n": 3, "covers": [[0, 7]]})
    # the poset is built and the marks checked on load, so verify_certificate
    # no longer meets a cycle or a non-chain (it raised on both before)
    line = {**line, "n": 3, "covers": [[0, 1], [1, 0]]}
    with pytest.raises(CycleDetected):
        Certificate.from_json_obj(line)
    with pytest.raises(BadChain, match=r"cpc2 certificate marks must form a chain"):
        Certificate.from_json_obj({**line, "covers": []})


def test_a_reloaded_certificate_builds_its_poset_once(monkeypatch):
    certs, _ = run(SearchJob("gcpc", 8, 1, 4000, width_max=3))
    line = json.loads(json.dumps(certs[0].to_json_obj()))
    built = []
    init = Poset.__init__

    def counting(self, n, up):
        built.append(n)
        init(self, n, up)

    monkeypatch.setattr(Poset, "__init__", counting)
    assert verify_certificate(Certificate.from_json_obj(line))
    assert len(built) == 1


def test_certificates_of_one_instance_share_their_poset_and_lattice(monkeypatch):
    certs, _ = run(SearchJob("gcpc", 8, 1, 4000, width_max=3))
    by_index = {}
    for cert in certs:
        by_index.setdefault(cert.index, set()).add(id(cert.poset))
    assert all(len(ids) == 1 for ids in by_index.values())
    assert (len(certs), len(by_index)) == (95, 52)
    builds = []
    build_lattice = extensions._build_lattice

    def counting(p):
        builds.append(p)
        return build_lattice(p)

    monkeypatch.setattr(extensions, "_build_lattice", counting)
    assert all(verify_certificate(c) for c in certs)
    assert len(builds) == len(by_index)


def test_a_redundant_cover_pair_reloads_reduced():
    certs, _ = run(SearchJob("cpc2", n_max=7, seed=42, budget=4000))
    line = certs[0].to_json_obj()
    (a, b), (_, c) = next(
        (x, y) for x in line["covers"] for y in line["covers"] if x[1] == y[0]
    )
    padded = {**line, "covers": [*line["covers"], [a, c]]}  # a < b < c, so a < c is implied
    back = Certificate.from_json_obj(padded)
    assert back == Certificate.from_json_obj(line) == certs[0]
    assert back.to_json_obj() == line and verify_certificate(back)


def test_search_job_caps_the_budget_below_the_next_seeds_instances():
    # instance SEED_STRIDE + i of seed s draws the rows of instance i of
    # seed s + 1, so a budget past SEED_STRIDE would count them twice
    rng = random.Random()
    for s, i in ((0, 0), (3, 1), (7, 49)):
        assert search._draw_rows(rng, s, SEED_STRIDE + i, 3, 8) == search._draw_rows(
            rng, s + 1, i, 3, 8
        )
    SearchJob(target="gcpc", n_max=8, seed=1, budget=SEED_STRIDE)
    for bad in (SEED_STRIDE + 1, 10**9):
        with pytest.raises(BadParams, match=f"budget must be in 0..{SEED_STRIDE}, got {bad}"):
            SearchJob(target="gcpc", n_max=8, seed=1, budget=bad)


def test_bad_target_rejected():
    with pytest.raises(BadParams):
        SearchJob(target="nope", n_max=6, seed=0, budget=10)
