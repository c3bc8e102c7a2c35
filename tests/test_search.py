"""Search harness: exhaustive class enumeration, randomized violation hunts."""

from __future__ import annotations

import hashlib
import json

import pytest

from posetlab import search
from posetlab.errors import BadParams, IndexOutOfRange, MalformedInput, TooLarge
from posetlab.extensions import count_extensions, f_table
from posetlab.inequalities import check_cpc, check_cpc1, check_cpc2
from posetlab.posets import MarkedTriple
from posetlab.search import (
    Certificate,
    POSET_CLASS_COUNTS,
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

    def crashing(seed, index, n_min, n_max):
        if index == crash_at:
            raise RuntimeError("killed")
        return random_instance(seed, index, n_min, n_max)

    monkeypatch.setattr(search, "random_instance", crashing)
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
        chunk_certs += [c for i in range(lo, hi) for c in search._scan_instance(job, i, part)]
        merged.absorb(part)
    assert sorted((c.to_json_obj() for c in chunk_certs), key=lambda c: c["index"]) == [
        c.to_json_obj() for c in certs
    ]
    assert merged.to_json_obj() == summary.to_json_obj()


def _marked_sample():
    """Every marked poset on n <= 5 elements, then a seeded random sample."""
    for n in range(3, 6):
        for p in enumerate_posets(n):
            for chain in search._chains(p):
                yield p, MarkedTriple(*chain)
    for index in range(300):
        p, z = random_instance(9, index, 3, 8)
        if z is not None:
            yield p, z


def test_fast_path_matches_check_reports():
    checkers = (check_cpc, check_cpc1, check_cpc2)
    seen = set()
    for p, z in _marked_sample():
        if p.up not in seen:
            seen.add(p.up)
            loop = [
                (a, b, c)
                for a in range(p.n)
                for b in range(p.n)
                for c in range(p.n)
                if p.less(a, b) and p.less(b, c)
            ]
            assert search._chains(p) == loop
        F = f_table(p, z)
        rows = search._dense_rows(F)
        for k in range(1, p.n):
            for l in range(1, p.n - k + 1):
                trio = search._cpc_trio(rows, k, l)
                for check, fast in zip(checkers, trio):
                    rep = check(F, k, l)
                    assert (rep.verdict, rep.lhs, rep.rhs) == fast, (p.covers, z, k, l)


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
            cert.ineq, cert.n, cert.covers, cert.z, cert.indices, cert.lhs + 1, cert.rhs, cert.index
        )
        assert not verify_certificate(tampered)


def test_verify_certificate_rejects_malformed_certificates():
    covers = [(0, 1), (1, 2)]
    with pytest.raises(BadParams, match="'stanley'"):
        verify_certificate(Certificate("stanley", 3, covers, (0, 1, 2), {"k": 1, "l": 1}, 1, 0, 0))
    with pytest.raises(BadParams, match="lack l"):
        verify_certificate(Certificate("cpc2", 3, covers, (0, 1, 2), {"k": 1}, 1, 0, 0))
    with pytest.raises(BadParams, match="lack p, q"):
        verify_certificate(Certificate("gcpc", 3, covers, (0, 1, 2), {"k": 1, "l": 1}, 1, 0, 0))
    # indices are read as on reload, so a string index is malformed input
    with pytest.raises(MalformedInput, match="index 'k' must be an integer"):
        verify_certificate(Certificate("cpc", 3, covers, (0, 1, 2), {"k": "1", "l": 1}, 0, 0, 0))
    # well formed but not a violation on the chain
    assert not verify_certificate(Certificate("cpc2", 3, covers, (0, 1, 2), {"k": 1, "l": 1}, 1, 0, 0))


def test_verify_certificate_rejects_marks_outside_the_poset():
    # a bare IndexError and a ValueError (negative shift count) before
    for z, bad in (((9, 1, 2), 9), ((0, 1, -1), -1)):
        cert = Certificate("cpc2", 6, [(0, 1), (1, 2)], z, {"k": 1, "l": 1}, 1, 0, 0)
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
    for field, value in (("z", 7), ("z", [0, 1]), ("indices", [1, 2]), ("ineq", 3)):
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


def test_bad_target_rejected():
    with pytest.raises(BadParams):
        SearchJob(target="nope", n_max=6, seed=0, budget=10)
