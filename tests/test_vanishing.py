"""Positivity region, positional existence test, hexagon closure, equality case."""

from __future__ import annotations

import pytest

from conftest import chain_triples, corpus, exists_extension_at, hexagon_closure_check
from posetlab.errors import BadChain, BadParams, HypothesesNotMet, IndexOutOfRange
from posetlab.extensions import enumerate_extensions, f_table
from posetlab.families import family_antichain
from posetlab.posets import MarkedTriple, build, chain, normalize, params
from posetlab.vanishing import SupportRegion, equality_case_check, support


def test_chain_support_is_single_point():
    region = support(chain(3), MarkedTriple(0, 1, 2))
    assert region.points() == {(1, 1)}


def test_support_requires_normalized_triple():
    with pytest.raises(BadChain):
        support(build(4, []), MarkedTriple(0, 1, 2))
    with pytest.raises(BadChain):
        support(chain(4), MarkedTriple(0, 2, 1))


def test_antichain_family_support_matches_table():
    inst = family_antichain(2, 1)
    F = f_table(inst.poset, inst.z)
    region = support(inst.poset, inst.z)
    box = {(k, l) for k in range(1, inst.poset.n) for l in range(1, inst.poset.n)}
    assert {kl for kl in box if region.membership(*kl)} == {
        kl for kl in box if F.get(*kl) > 0
    }


def test_support_equals_brute_support_exhaustive(small_poset_classes):
    for n, reps in small_poset_classes.items():
        for p in reps:
            for z in chain_triples(p):
                F = f_table(p, z)
                region = support(p, z)
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        assert region.membership(k, l) == (F.get(k, l) > 0)


def test_support_equals_brute_support_random():
    for p, z in corpus(60, 6, 8, seed=4242):
        F = f_table(p, z)
        region = support(p, z)
        for k in range(1, p.n + 1):
            for l in range(1, p.n + 1):
                assert region.membership(k, l) == (F.get(k, l) > 0)


def test_support_membership_iff_positional_witness(medium_corpus):
    for p, z in medium_corpus[:25]:
        region = support(p, z)
        zs = list(z.as_tuple())
        for k in range(1, p.n):
            for l in range(1, p.n - k):
                witness = any(
                    exists_extension_at(p, zs, [a, a + k, a + k + l])
                    for a in range(1, p.n - k - l + 1)
                )
                assert witness == region.membership(k, l)


def test_exists_extension_chain_examples():
    p = chain(3)
    assert exists_extension_at(p, [0, 1, 2], [1, 2, 3])
    assert exists_extension_at(p, [0, 2], [1, 3])
    assert not exists_extension_at(p, [0, 2], [1, 2])  # interval of size 3 needs gap 2


def test_exists_extension_matches_enumeration():
    from itertools import combinations

    for p, z in corpus(25, 4, 6, seed=99):
        zs = list(z.as_tuple())
        seen = set()
        for w in enumerate_extensions(p):
            seen.add(tuple(w.index(e) + 1 for e in zs))
        for pos in combinations(range(1, p.n + 1), 3):
            assert exists_extension_at(p, zs, list(pos)) == (pos in seen)


def test_exists_extension_matches_enumeration_four_marks():
    from itertools import combinations

    for p, z in corpus(40, 5, 7, seed=98):
        tops = [x for x in range(p.n) if p.less(z.z3, x)]
        if not tops:
            continue
        zs = list(z.as_tuple()) + [tops[0]]
        seen = set()
        for w in enumerate_extensions(p):
            seen.add(tuple(w.index(e) + 1 for e in zs))
        for pos in combinations(range(1, p.n + 1), 4):
            assert exists_extension_at(p, zs, list(pos)) == (pos in seen)


def test_exists_extension_validation():
    p = chain(4)
    with pytest.raises(BadChain):
        exists_extension_at(p, [0, 1], [2, 2])
    with pytest.raises(BadChain):
        exists_extension_at(build(3, []), [0, 1], [1, 2])
    with pytest.raises(IndexOutOfRange):
        exists_extension_at(p, [0, 1], [0, 2])
    with pytest.raises(IndexOutOfRange):
        support(chain(6), MarkedTriple(9, 1, 2))
    with pytest.raises(BadChain):
        exists_extension_at(p, [0], [])
    # marks are checked as elements first: a negative id would otherwise
    # index the rows from the end, then fail on a negative shift count
    for zs, bad in (([-4, 1], -4), ([0, 9], 9)):
        with pytest.raises(IndexOutOfRange, match=f"element {bad} outside 0..3"):
            exists_extension_at(p, zs, [1, 2])
    with pytest.raises(BadParams, match="distinct"):
        exists_extension_at(p, [1, 1], [1, 2])


def test_hexagon_closure_on_regions_and_sets(medium_corpus):
    for p, z in medium_corpus:
        assert hexagon_closure_check(support(p, z))
    assert hexagon_closure_check(SupportRegion(2, 2, 3, 3, 5, 5))  # single point
    assert hexagon_closure_check(set())  # vacuous
    assert not hexagon_closure_check({(1, 1), (2, 2)})  # synthetic non-hexagon


def test_diagonal_zero_propagation(medium_corpus):
    # if F(k+1,l) F(k,l+1) = 0 then F(k,l) F(k+1,l+1) = 0
    for p, z in medium_corpus:
        F = f_table(p, z)
        for k in range(1, p.n):
            for l in range(1, p.n):
                if F.get(k + 1, l) * F.get(k, l + 1) == 0:
                    assert F.get(k, l) * F.get(k + 1, l + 1) == 0


def test_equality_case_on_split_posets():
    # everything comparable to z2: lower block {0,1,3} (chain 0<1 plus
    # pendant 3), upper block {4,5,6} (4 below chain element 5, pendant 6);
    # the marks z1 = 1, z3 = 5 float inside their blocks so both gaps vary.
    cases = [
        (7, [(0, 1), (1, 2), (3, 2), (2, 4), (4, 5), (4, 6)], MarkedTriple(1, 2, 5)),
        (8, [(0, 1), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)], MarkedTriple(1, 3, 5)),
    ]
    hits = 0
    for n, pairs, z in cases:
        p, z = normalize(build(n, pairs), z)
        F = f_table(p, z)
        for k in range(1, p.n):
            for l in range(1, p.n):
                if (
                    F.get(k, l + 2) == 0
                    and F.get(k + 2, l) == 0
                    and F.get(k, l) * F.get(k + 1, l + 1) > 0
                ):
                    rep = equality_case_check(p, z, k, l, F)
                    assert rep.verdict == "holds"
                    assert rep.extra["z2_comparable_to_all"]
                    hits += 1
    assert hits > 0


def test_equality_case_hypotheses_not_met():
    inst = family_antichain(2, 1)
    F = f_table(inst.poset, inst.z)
    k, l = 2, 1
    # the nonvanishing hypothesis fails while the products differ
    assert F.get(k, l) * F.get(k + 1, l + 1) == 0
    assert F.get(k, l + 1) * F.get(k + 1, l) > 0
    with pytest.raises(HypothesesNotMet):
        equality_case_check(inst.poset, inst.z, k, l, F)
    with pytest.raises(HypothesesNotMet):
        equality_case_check(chain(3), MarkedTriple(0, 1, 2), 1, 1)


def test_structural_consequence_flag():
    # equality-case instances force z2 comparable to everything
    p, z = normalize(build(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), MarkedTriple(1, 2, 3))
    prm = params(p)
    assert prm.b[z.z2] + prm.b_star[z.z2] == p.n + 1
