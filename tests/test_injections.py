"""Certification of the four word injections on exhaustive small domains."""

from __future__ import annotations

import copy
import hashlib
import io
import json
import re
import time
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import chain_triples, words_by_position
from posetlab import injections
from posetlab.cli import main
from posetlab.errors import (
    BadParams, HypothesesNotMet, IndexOutOfRange, NoPivot, PosetLabError, TooLarge,
)
from posetlab.extensions import (
    WORD_BUDGET, FTable, enumerate_extensions, f_table, lattice, n_vector, word_classes,
)
from posetlab.families import family_stanley_tight
from posetlab.injections import (
    MAPS,
    certify_map,
    certify_stanley,
    grow_intervals,
    interval_total,
    phi_stanley,
    phi_stanley_inverse,
    psi_shrink,
    shrink_intervals,
    tau,
    transfer_intervals,
    verify_injections,
)
from posetlab.posets import MarkedTriple, antichain, build, chain, normalize, params


def test_tau_trivial_cases():
    p = antichain(2)
    assert tau(p, (0, 1), 1) == (1, 0)
    assert tau(chain(2), (0, 1), 1) == (0, 1)
    with pytest.raises(IndexOutOfRange):
        tau(p, (0, 1), 2)
    with pytest.raises(IndexOutOfRange):
        tau(p, (0, 1), 0)


def test_tau_involution_on_swaps(medium_corpus):
    for p, _ in medium_corpus[:10]:
        for w in list(enumerate_extensions(p))[:50]:
            for i in range(1, p.n):
                w2 = tau(p, w, i)
                if w2 != w:
                    assert tau(p, w2, i) == w


def test_phi_on_two_element_antichain():
    p = antichain(2)
    out, r = phi_stanley(p, 1, (0, 1))  # mark 1 sits at position 2
    assert out == (1, 0) and r == 1
    assert phi_stanley_inverse(p, 1, out, r) == (0, 1)


def test_stanley_tight_family_certificate():
    inst = family_stanley_tight(5, 3)
    p, a = inst.poset, inst.a
    prm = params(p)
    cert = certify_stanley(p, a, 3, words_by_position(p, a))
    assert cert.ok and cert.domain_size == 4 and cert.codomain_cells == 2
    assert cert.interval_total == prm.t[a]
    nv = n_vector(p, a)
    assert nv.get(3) <= prm.t[a] * nv.get(2)
    assert nv.get(3) <= (3 - 1) * nv.get(2)


def _rhs_transfer(prm, z, k, l):
    z1, z2, z3 = z.as_tuple()
    return min(prm.t[z2], k) + min(prm.interval(z1, z2) - 1, prm.t_star[z1]) * (
        prm.t_star[z3] + prm.t[z2]
    )


def _rhs_shrink(prm, z, k, l):
    z1, z2, z3 = z.as_tuple()
    return (
        min(k, prm.t_star[z1])
        + min(k, prm.t[z3] - 1)
        + min(prm.interval(z1, z2) - 1, prm.t[z2])
        * (min(l - 1, prm.t[z3]) + min(l - 1, prm.t_star[z1] - 1))
    )


def _rhs_grow(prm, z, k, l):
    z1, z2, z3 = z.as_tuple()
    return prm.t[z1] + (prm.t_star[z2] - 1) + min(l - 1, prm.t_star[z2]) * prm.t_star[z3]


def test_interval_totals_match_bound_decomposition(medium_corpus):
    for p, z in medium_corpus:
        prm = params(p)
        for k in range(1, p.n - 1):
            for l in range(1, p.n - 1):
                assert interval_total(transfer_intervals(prm, z, k, l)) == _rhs_transfer(prm, z, k, l)
                assert interval_total(shrink_intervals(prm, z, k, l)) == _rhs_shrink(prm, z, k, l)
                assert interval_total(grow_intervals(prm, z, k, l)) == _rhs_grow(prm, z, k, l)


def test_certificates_on_corpus(medium_corpus):
    total = 0
    for p, z in medium_corpus:
        for cert in verify_injections(p, z):
            assert cert.ok, cert.to_json_obj()
            assert cert.image_size == cert.domain_size
            total += 1
    assert total > 100


def test_ratio_bounds_hold_independently(medium_corpus):
    # two routes, one fact: table products must respect the interval totals
    for p, z in medium_corpus:
        prm = params(p)
        F = f_table(p, z)
        for k in range(1, p.n - 1):
            for l in range(1, p.n - 1):
                if F.get(k, l + 2) > 0:
                    assert F.get(k + 1, l + 1) <= _rhs_transfer(prm, z, k, l) * F.get(k, l + 2)
                if F.get(k + 2, l) > 0:
                    # mirrored statement via the dual poset: the roles of the
                    # two gaps swap, so the target class is F*(l, k+2)
                    pd, zd = p.dual(), z.reversed()
                    prmd = params(pd)
                    Fd = f_table(pd, zd)
                    assert Fd.get(l, k + 2) == F.get(k + 2, l)
                    assert Fd.get(l + 1, k + 1) <= _rhs_transfer(prmd, zd, l, k) * Fd.get(l, k + 2)
                if F.get(k, l) > 0:
                    assert F.get(k + 1, l) <= _rhs_shrink(prm, z, k, l) * F.get(k, l)
                if F.get(k + 2, l) > 0:
                    assert F.get(k + 1, l) <= _rhs_grow(prm, z, k, l) * F.get(k + 2, l)


def test_stanley_round_trip_and_bounds(medium_corpus):
    for p, z in medium_corpus[:20]:
        a = z.z2
        prm = params(p)
        classes = words_by_position(p, a)
        nv = {pos: len(ws) for pos, ws in classes.items()}
        for kpos, count in sorted(nv.items()):
            if nv.get(kpos - 1, 0) > 0:
                cert = certify_stanley(p, a, kpos, classes)
                assert cert.ok
                assert count <= prm.t[a] * nv[kpos - 1]
                assert count <= (kpos - 1) * nv[kpos - 1]


def test_transfer_edge_cannot_be_tightened():
    # z1 < z2 < z3 with e < z2 incomparable to z1 and two free elements:
    # at (k, l) = (1, 1) the case-2 pivot sits directly after z1, so the
    # payload fills the whole box edge min(b(z1,z2) - 1, t*(z1)) = 1, and
    # F(2,2)/F(1,3) = 3 exceeds what a b(z1,z2) - 2 edge (here: 0) would
    # certify.
    p = build(6, [(0, 2), (2, 3), (1, 2)])  # 0=z1, 2=z2, 3=z3, 1=e, 4/5 free
    z = MarkedTriple(0, 2, 3)
    prm = params(p)
    F = f_table(p, z)
    assert F.get(2, 2) == 6 and F.get(1, 3) == 2
    cert = certify_map(p, z, 1, 1, "transfer", word_classes(p, z)[0])
    assert cert.ok
    z1, z2, z3 = z.as_tuple()
    untight = min(prm.t[z2], 1) + min(prm.interval(z1, z2) - 2, prm.t_star[z1]) * (
        prm.t_star[z3] + prm.t[z2]
    )
    assert cert.domain_size > untight * F.get(1, 3)
    assert cert.domain_size <= cert.interval_total * F.get(1, 3)


def test_refuses_to_run_without_hypotheses():
    p = chain(4)
    z = MarkedTriple(0, 1, 2)
    classes = word_classes(p, z)[0]
    with pytest.raises(HypothesesNotMet):
        certify_map(p, z, 1, 2, "transfer", classes)  # F(1,4) = 0 on the chain
    with pytest.raises(HypothesesNotMet):
        certify_map(p, z, 2, 1, "grow", classes)  # F(4,1) = 0
    with pytest.raises(HypothesesNotMet):
        certify_stanley(p, 0, 1, words_by_position(p, 0))  # N_0 is empty


def test_shrink_handles_conditional_final_swap():
    # moving the case-2 pivot past z3 may stop early when the next element
    # is comparable; the image must still land in F(k,l)
    p = build(6, [(1, 0), (1, 2), (1, 3), (1, 4), (1, 5), (2, 0), (2, 3), (3, 0), (4, 0)])
    z = MarkedTriple(1, 2, 3)
    word = (1, 4, 2, 3, 0, 5)
    tag, payload, out = psi_shrink(p, z, 1, 1, word)
    assert tag == "2"
    pos = {e: i for i, e in enumerate(out)}
    assert pos[z.z2] - pos[z.z1] == 1 and pos[z.z3] - pos[z.z2] == 1


# -- failure paths: a broken map must give a failing certificate --------------


def _shrink_fixture():
    # the 3-chain 0 < 1 < 2 plus two free elements; shrink at (1, 1) maps
    # the 4 words of F(2, 1) into the 6 words of F(1, 1)
    p, z = normalize(antichain(5), MarkedTriple(0, 1, 2))
    classes = word_classes(p, z)[0]
    assert len(classes[(2, 1)]) == 4 and len(classes[(1, 1)]) == 6
    return p, z, classes


def _swap_shrink(monkeypatch, fn):
    _, intervals_fn, dom_shift, img_shift = MAPS["shrink"]
    monkeypatch.setitem(MAPS, "shrink", (fn, intervals_fn, dom_shift, img_shift))


def _broken_shrink_cert(monkeypatch, kind):
    """Certify shrink at (1, 1) on the fixture with one kind of broken map."""
    p, z, classes = _shrink_fixture()
    domain, target = classes[(2, 1)], classes[(1, 1)]

    def zero_payload(p, z, k, l, word):
        tag, _, out = psi_shrink(p, z, k, l, word)
        return tag, (0,), out

    def broken(p, z, k, l, word):
        raise NoPivot("no pivot here")

    fn = {
        "collision": lambda p, z, k, l, word: ("1", (1,), target[0]),
        "payload": zero_payload,
        "image": lambda p, z, k, l, word: ("1", (1,), word),
        "raise": broken,
    }[kind]
    _swap_shrink(monkeypatch, fn)
    return certify_map(p, z, 1, 1, "shrink", classes), domain


def _broken_stanley_cert(monkeypatch, kind):
    """Certify stanley on N_3 of the tight family (4 words into the 2 words
    of N_2) with one kind of broken map or inverse."""
    inst = family_stanley_tight(5, 3)
    p, a = inst.poset, inst.a
    positions = words_by_position(p, a)
    domain, target = positions[3], positions[2]
    assert len(domain) == 4 and len(target) == 2
    real_phi = injections.phi_stanley
    last = []

    def same_image(p, a, word):
        last.append(word)  # the fake inverse below hands the word back
        return target[0], 1

    def zero_payload(p, a, word):
        out, _ = real_phi(p, a, word)
        return out, 0

    def broken(p, a, word):
        raise NoPivot("no pivot here")

    maps = {
        "collision": same_image,
        "payload": zero_payload,
        "image": lambda p, a, word: (word, 1),
        "raise": broken,
    }
    inverses = {
        "collision": lambda p, a, word, r: last[-1],
        "inverse": lambda p, a, word, r: word[::-1],
    }
    if kind in maps:
        monkeypatch.setattr(injections, "phi_stanley", maps[kind])
    if kind in inverses:
        monkeypatch.setattr(injections, "phi_stanley_inverse", inverses[kind])
    return certify_stanley(p, a, 3, positions), domain


def test_certify_map_reports_collisions(monkeypatch):
    cert, domain = _broken_shrink_cert(monkeypatch, "collision")
    assert cert.ok is False and cert.errors == [] and cert.image_size == 1
    assert cert.collisions == [
        {"first": list(domain[0]), "second": list(w)} for w in domain[1:]
    ]


def test_certify_map_reports_payload_outside_box(monkeypatch):
    cert, domain = _broken_shrink_cert(monkeypatch, "payload")
    assert cert.ok is False and cert.collisions == [] and cert.image_size == 0
    assert [e["word"] for e in cert.errors] == [list(w) for w in domain]
    assert all(e["error"].startswith("payload (0,) outside box ") for e in cert.errors)


def test_certify_map_reports_image_outside_target(monkeypatch):
    cert, domain = _broken_shrink_cert(monkeypatch, "image")
    assert cert.ok is False and cert.collisions == [] and cert.image_size == 0
    assert cert.errors == [{"word": list(w), "error": "image not in F(1, 1)"} for w in domain]


def test_certify_map_reports_a_raising_map(monkeypatch):
    cert, domain = _broken_shrink_cert(monkeypatch, "raise")
    assert cert.ok is False and cert.collisions == [] and cert.image_size == 0
    assert cert.errors == [{"word": list(w), "error": "no pivot here"} for w in domain]


def test_certify_stanley_reports_a_wrong_inverse(monkeypatch):
    inst = family_stanley_tight(5, 3)
    assert certify_stanley(inst.poset, inst.a, 3, words_by_position(inst.poset, inst.a)).ok
    cert, _ = _broken_stanley_cert(monkeypatch, "inverse")
    assert cert.ok is False and cert.collisions == [] and cert.image_size == 0
    assert len(cert.errors) == cert.domain_size == 4
    assert all(e["error"] == "round trip failed" for e in cert.errors)


def test_certify_stanley_reports_collisions(monkeypatch):
    cert, domain = _broken_stanley_cert(monkeypatch, "collision")
    assert cert.ok is False and cert.errors == [] and cert.image_size == 1
    assert cert.collisions == [
        {"first": list(domain[0]), "second": list(w)} for w in domain[1:]
    ]


def test_certify_stanley_reports_payload_outside_box(monkeypatch):
    cert, domain = _broken_stanley_cert(monkeypatch, "payload")
    assert cert.ok is False and cert.collisions == [] and cert.image_size == 0
    assert cert.errors == [
        {"word": list(w), "error": "payload (0,) outside box 1=(2,)"} for w in domain
    ]


def test_certify_stanley_reports_image_outside_target(monkeypatch):
    cert, domain = _broken_stanley_cert(monkeypatch, "image")
    assert cert.ok is False and cert.collisions == [] and cert.image_size == 0
    assert cert.errors == [{"word": list(w), "error": "image not in N_{k-1}"} for w in domain]


def test_certify_stanley_reports_a_raising_map(monkeypatch):
    cert, domain = _broken_stanley_cert(monkeypatch, "raise")
    assert cert.ok is False and cert.collisions == [] and cert.image_size == 0
    assert cert.errors == [{"word": list(w), "error": "no pivot here"} for w in domain]


def test_certify_map_reports_unknown_tags_and_wrong_arity(monkeypatch):
    # the box checks of the bulk decision run once per distinct (tag,
    # payload) pair, so a pair taken by one word only must still fail it
    p, z, classes = _shrink_fixture()
    domain = classes[(2, 1)]

    def odd_keys(p, z, k, l, word):
        tag, payload, out = psi_shrink(p, z, k, l, word)
        if word == domain[0]:
            return tag, payload + (1,), out
        if word == domain[-1]:
            return "9", payload, out
        return tag, payload, out

    _swap_shrink(monkeypatch, odd_keys)
    cert = certify_map(p, z, 1, 1, "shrink", classes)
    assert cert.ok is False and cert.collisions == [] and cert.image_size == 2
    assert cert.errors == [
        {"word": list(domain[0]), "error": "payload (1, 1) outside box 1=(1,)"},
        {"word": list(domain[-1]), "error": "unknown case tag 9"},
    ]


@pytest.mark.parametrize("boxes, errors", [
    ([("2", (2,))], ["unknown case tag 1"] * 4),
    ([("1", (2, 2))], [f"payload ({r},) outside box 1=(2, 2)" for r in (2, 2, 1, 1)]),
])
def test_certify_stanley_reports_unknown_tags_and_wrong_arity(monkeypatch, boxes, errors):
    inst = family_stanley_tight(5, 3)
    positions = words_by_position(inst.poset, inst.a)
    monkeypatch.setattr(injections, "stanley_intervals", lambda p, a: boxes)
    cert = certify_stanley(inst.poset, inst.a, 3, positions)
    assert cert.ok is False and cert.collisions == [] and cert.image_size == 0
    assert cert.errors == [
        {"word": list(w), "error": e} for w, e in zip(positions[3], errors)
    ]


def test_unknown_map_names_raise_bad_params(monkeypatch):
    p, z, classes = _shrink_fixture()

    def no_words(p, z):
        raise AssertionError("words enumerated before the map names were checked")

    monkeypatch.setattr(injections, "word_classes", no_words)
    for maps in (("bogus",), ("shrink", "bogus")):
        with pytest.raises(BadParams, match=re.escape(
            "unknown map 'bogus'; known maps: stanley, transfer, shrink, grow"
        )):
            verify_injections(p, z, maps)
    for name in ("nope", "stanley"):
        with pytest.raises(BadParams, match=re.escape(
            f"unknown map {name!r}; known maps: transfer, shrink, grow"
        )):
            certify_map(p, z, 1, 1, name, classes)


# -- the bulk decision against the word-by-word walk ---------------------------


@contextmanager
def _both_paths():
    """Run every certification twice: as ``_certify`` decides it and as the
    forced walk explains it, on a fresh copy of the certificate.  Yields the
    (decided, walked) JSON pairs and the calls ``_certify`` made to the walk."""
    real_certify, real_walk = injections._certify, injections._walk
    pairs, handed = [], []

    def both(cert, boxes, domain, target_set, where, step, inverse=None):
        walked = real_walk(copy.deepcopy(cert), dict(boxes), domain, target_set,
                           where, step, inverse)
        decided = real_certify(cert, boxes, domain, target_set, where, step, inverse)
        pairs.append((decided.to_json_obj(), walked.to_json_obj()))
        return decided

    def walk(*args):
        handed.append(args)
        return real_walk(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(injections, "_certify", both)
        m.setattr(injections, "_walk", walk)
        yield pairs, handed


@st.composite
def small_marked_posets(draw):
    """A random order on 3 <= n <= 7 elements, acyclic along a random
    labelling, and one of its chain triples."""
    n = draw(st.integers(min_value=3, max_value=7))
    label = draw(st.permutations(range(n)))
    pairs = [
        (label[i], label[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    p = build(n, pairs)
    triples = chain_triples(p)
    assume(triples)
    return p, draw(st.sampled_from(triples))


@settings(max_examples=40, deadline=None)
@given(small_marked_posets())
def test_bulk_decision_matches_the_forced_walk(pz):
    p, z = pz
    with _both_paths() as (pairs, handed):
        certs = verify_injections(p, z)
    assert len(pairs) == len(certs)
    for decided, walked in pairs:
        assert decided == walked
    assert all(cert.ok for cert in certs) and handed == []


def _shrink_broken_on(monkeypatch, kind, bad, other):
    """Certify shrink at (1, 1) on the fixture, the real map broken on the
    word ``bad`` only; a repeated key copies the key of the word ``other``."""
    p, z, classes = _shrink_fixture()

    def fn(p, z, k, l, word):
        if word != bad:
            return psi_shrink(p, z, k, l, word)
        if kind == "raise":
            raise NoPivot("no pivot here")
        tag, payload, out = psi_shrink(p, z, k, l, word)
        if kind == "payload":
            return tag, (0,) * len(payload), out
        if kind == "image":
            return tag, payload, word
        return psi_shrink(p, z, k, l, other)

    _swap_shrink(monkeypatch, fn)
    return certify_map(p, z, 1, 1, "shrink", classes)


def _stanley_broken_on(monkeypatch, kind, bad):
    """Certify stanley on N_3 of the tight family, the real map or its
    inverse broken on the word ``bad`` only."""
    inst = family_stanley_tight(5, 3)
    real_phi, real_inverse = injections.phi_stanley, injections.phi_stanley_inverse

    def phi(p, a, word):
        if word == bad and kind == "raise":
            raise NoPivot("no pivot here")
        out, r = real_phi(p, a, word)
        if word == bad and kind == "payload":
            return out, 0
        if word == bad and kind == "image":
            return word, r
        return out, r

    def inverse(p, a, word, r):
        back = real_inverse(p, a, word, r)
        return back[::-1] if back == bad and kind == "inverse" else back

    monkeypatch.setattr(injections, "phi_stanley", phi)
    monkeypatch.setattr(injections, "phi_stanley_inverse", inverse)
    return certify_stanley(inst.poset, inst.a, 3, words_by_position(inst.poset, inst.a))


@pytest.mark.parametrize("at", [0, 2, 3], ids=["first", "middle", "last"])
@pytest.mark.parametrize("name, kind", [
    ("shrink", "raise"), ("shrink", "payload"), ("shrink", "image"), ("shrink", "collision"),
    ("stanley", "raise"), ("stanley", "payload"), ("stanley", "image"), ("stanley", "inverse"),
])
def test_a_map_broken_on_one_word_fails_both_paths_alike(monkeypatch, name, kind, at):
    if name == "shrink":
        domain = _shrink_fixture()[2][(2, 1)]
    else:
        inst = family_stanley_tight(5, 3)
        domain = words_by_position(inst.poset, inst.a)[3]
    assert len(domain) == 4
    bad, other = domain[at], domain[at - 1]
    with _both_paths() as (pairs, handed):
        if name == "shrink":
            cert = _shrink_broken_on(monkeypatch, kind, bad, other)
        else:
            cert = _stanley_broken_on(monkeypatch, kind, bad)
    [(decided, walked)] = pairs
    assert decided == walked and len(handed) == 1
    assert cert.ok is False and cert.image_size == 3
    if kind == "collision":
        first, second = sorted((bad, other), key=domain.index)
        assert cert.errors == []
        assert cert.collisions == [{"first": list(first), "second": list(second)}]
    else:
        assert cert.collisions == [] and [e["word"] for e in cert.errors] == [list(bad)]


# SHA-256 over the sorted-key JSON of every certificate below, one per line,
# recorded before certify_map and certify_stanley shared one loop; a change
# in any certificate byte, healthy or broken, changes it.
PINNED_CERTIFICATES_SHA256 = "8a1d27e08595913d08382052a4ba5b7f16f3d2c133112da5c0e5dabbdabc08ca"


def test_injection_certificate_bytes_are_pinned(monkeypatch, medium_corpus, wide_corpus):
    certs = [c for p, z in medium_corpus + wide_corpus for c in verify_injections(p, z)]
    for kind in ("collision", "payload", "image", "raise"):
        with monkeypatch.context() as m:
            certs.append(_broken_shrink_cert(m, kind)[0])
    for kind in ("inverse", "collision", "payload", "image", "raise"):
        with monkeypatch.context() as m:
            certs.append(_broken_stanley_cert(m, kind)[0])
    lines = "".join(json.dumps(c.to_json_obj(), sort_keys=True) + "\n" for c in certs)
    assert hashlib.sha256(lines.encode()).hexdigest() == PINNED_CERTIFICATES_SHA256


def test_verify_injections_cross_checks_the_counts(monkeypatch):
    # the enumerated classes must match the fold counts, else no certificate
    p, z, _ = _shrink_fixture()
    real_f_table, real_n_vector = injections.f_table, injections.n_vector

    def f_table_off_by_one(p, z):
        F = real_f_table(p, z)
        return FTable(F.n, F.z, {**F.entries, (2, 1): F.get(2, 1) + 1})

    def n_vector_off_by_one(p, a):
        nv = real_n_vector(p, a)
        nv.counts[2] += 1
        return nv

    stdin = json.dumps({**p.to_json_obj(), "z": list(z.as_tuple())})
    for name, broken, match in (
        ("f_table", f_table_off_by_one, "disagree with f_table"),
        ("n_vector", n_vector_off_by_one, "disagree with n_vector"),
    ):
        with monkeypatch.context() as m:
            m.setattr(injections, name, broken)
            with pytest.raises(PosetLabError, match=match):
                verify_injections(p, z)
            err = io.StringIO()
            code = main(["verify-injections"], stdin=io.StringIO(stdin),
                        stdout=io.StringIO(), stderr=err)
            assert code == 2 and err.getvalue().startswith("error: ")
    assert all(cert.ok for cert in verify_injections(p, z))


def _chain_plus_free(free: int):
    """The 3-chain 0 < 1 < 2 and ``free`` elements above or below nothing:
    e(P) = (3 + free)! / 3!."""
    return build(3 + free, [(0, 1), (1, 2)]), MarkedTriple(0, 1, 2)


def test_word_budget_fires_before_enumeration(monkeypatch):
    p, z = _chain_plus_free(10)  # n = 13, e(P) = 1 037 836 800
    assert lattice(p).count == 1_037_836_800 > WORD_BUDGET
    for call in (
        lambda: verify_injections(p, z, ("transfer",)),
        lambda: verify_injections(p, z),
        lambda: word_classes(p, z),
    ):
        with pytest.raises(TooLarge, match="word budget"):
            call()
    # above the enumeration guard the check raises before building a lattice
    p, z = _chain_plus_free(20)
    with pytest.raises(TooLarge, match="n <= 14"):
        verify_injections(p, z)
    assert "_lattice" not in p.__dict__
    # so does a mark outside the poset
    with pytest.raises(IndexOutOfRange):
        verify_injections(chain(6), MarkedTriple(0, 1, -1))
    # words within the budget are certified as before
    p, z = _chain_plus_free(3)
    assert all(cert.ok for cert in verify_injections(p, z))
    # e(P) = 6! / 3! = 120 words: kept at a budget of exactly 120, not at 119
    monkeypatch.setattr("posetlab.extensions.WORD_BUDGET", 120)
    classes, _ = word_classes(p, z)
    assert sum(map(len, classes.values())) == 120
    monkeypatch.setattr("posetlab.extensions.WORD_BUDGET", 119)
    with pytest.raises(TooLarge, match="word budget 119"):
        word_classes(p, z)


def test_word_budget_cli_exit_code():
    p, z = _chain_plus_free(10)
    obj = {**p.to_json_obj(), "z": list(z.as_tuple())}
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = main(["verify-injections", "--map", "transfer"],
                stdin=io.StringIO(json.dumps(obj)), stdout=out, stderr=err)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error:") and "word budget" in err.getvalue()
