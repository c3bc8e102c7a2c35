"""Slice volumes: exact polynomial, Monte Carlo agreement, exact recovery."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetlab import geometry
from posetlab.errors import BadParams, DegenerateSlice
from posetlab.extensions import FTable, f_table
from posetlab.families import family_cpc2_witness
from posetlab.geometry import (
    interpolation_nodes,
    recover_f_from_volume,
    volume_formula,
    volume_mc,
)
from posetlab.posets import MarkedTriple, antichain, build, chain, normalize
from posetlab.search import random_instance


def test_formula_on_three_chain():
    F = f_table(chain(3), MarkedTriple(0, 1, 2))
    s = t = Fraction(1, 3)
    # single cell (1,1): value (1 - s - t)^{n-2} / (n-2)! = 1/3
    assert volume_formula(F, s, t) == Fraction(1, 3)


def test_formula_linearity_in_counts():
    inst = family_cpc2_witness(1, 2)
    F = f_table(inst.poset, inst.z)
    s, t = Fraction(1, 5), Fraction(1, 4)
    doubled = FTable(F.n, F.z, {kl: 3 * v for kl, v in F.entries.items()})
    assert volume_formula(doubled, s, t) == 3 * volume_formula(F, s, t)


def test_formula_on_antichain_based_poset():
    p, z = normalize(antichain(4), MarkedTriple(0, 1, 2))
    F = f_table(p, z)
    v = volume_formula(F, Fraction(1, 4), Fraction(1, 4))
    assert v > 0 and v.denominator % 2 == 0


def _fraction_by_fraction(F, s, t):
    # reference: the polynomial summed one Fraction term at a time
    s, t = Fraction(s), Fraction(t)
    u, n, total = 1 - s - t, F.n, Fraction(0)
    for (k, l), v in F.entries.items():
        if v == 0 or k + l > n:
            continue
        total += (
            v
            * s ** (k - 1) / factorial(k - 1)
            * t ** (l - 1) / factorial(l - 1)
            * u ** (n - k - l) / factorial(n - k - l)
        )
    return total


@st.composite
def tables_and_points(draw):
    n = draw(st.integers(3, 12))
    cells = [(k, l) for k in range(1, n) for l in range(1, n - k + 1)]
    entries = draw(st.dictionaries(st.sampled_from(cells), st.integers(0, 10**12), max_size=len(cells)))
    point = st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=10**6)
    return FTable(n, MarkedTriple(0, 1, 2), entries), draw(point), draw(point)


@settings(max_examples=100, deadline=None)
@given(tables_and_points())
def test_formula_matches_fraction_by_fraction_sum(case):
    F, s, t = case
    assert volume_formula(F, s, t) == _fraction_by_fraction(F, s, t)


def test_formula_at_points_with_different_denominators(medium_corpus):
    points = [(Fraction(2, 7), Fraction(3, 11)), (Fraction(1, 6), Fraction(5, 9)),
              (Fraction(3, 10), Fraction(1, 4)), (Fraction(1, 5), Fraction(1, 5)), (0, 1)]
    for p, z in medium_corpus[:10]:
        F = f_table(p, z)
        for s, t in points:
            assert volume_formula(F, s, t) == _fraction_by_fraction(F, s, t)


# (poset, marks, s, t, seed, {samples: hits}), recorded while every call drew
# one (samples, dim) array per 2^17 rows; the chart dims are 2, 2, 4 and 7
_PINNED_HITS = [
    (chain(4), (0, 1, 2), Fraction(1, 5), Fraction(1, 5), 1, {20_003: 3640, 1_001: 185}),
    (build(4, [(0, 1), (1, 2)]), (0, 1, 2), Fraction(2, 7), Fraction(3, 11), 2,
     {9_001: 3998, 1_001: 430}),
    (build(6, [(0, 1), (0, 3), (1, 2), (1, 4), (1, 5), (3, 2)]), (0, 1, 2),
     Fraction(1, 3), Fraction(1, 4), 3, {50_000: 2780, 1_001: 62}),
    (build(9, [(1, 7), (3, 6), (3, 7), (5, 0), (7, 4)]), (3, 7, 4),
     Fraction(1, 5), Fraction(1, 5), 4, {16_385: 1552, 1_001: 89}),
]


@pytest.mark.parametrize("batch", [1, 7, 8192, 1 << 20])
def test_mc_hits_do_not_depend_on_the_block_size(batch, monkeypatch):
    # calls in a row with different dims share no buffer; every sample count
    # but 1 001 = 7 * 143 (kept short for one row per block) ends on a
    # partial block of 7 or 8192 rows
    monkeypatch.setattr(geometry, "MC_BATCH", batch)
    for p, marks, s, t, seed, pinned in _PINNED_HITS:
        for samples, hits in pinned.items():
            if batch == 1 and samples != 1_001:
                continue
            est = volume_mc(p, MarkedTriple(*marks), s, t, samples, seed)
            assert (est.hits, est.samples) == (hits, samples), (p.covers, samples)


def test_mc_agrees_with_formula_small_grid():
    fixtures = [
        (chain(4), MarkedTriple(0, 1, 2)),
        normalize(antichain(4), MarkedTriple(0, 1, 2)),
        (family_cpc2_witness(1, 2).poset, family_cpc2_witness(1, 2).z),
    ]
    points = [(Fraction(1, 5), Fraction(1, 5)), (Fraction(1, 3), Fraction(1, 4))]
    bad = 0
    for i, (p, z) in enumerate(fixtures):
        F = f_table(p, z)
        for j, (s, t) in enumerate(points):
            exact = volume_formula(F, s, t)
            est = volume_mc(p, z, s, t, samples=120_000, seed=1000 + 10 * i + j)
            if not est.within(exact, sigmas=3.0):
                bad += 1
    assert bad <= 1  # statistical: allow one 3-sigma excursion on 6 cells


def test_mc_rejects_bad_parameters():
    p, z = chain(4), MarkedTriple(0, 1, 2)
    with pytest.raises(BadParams):
        volume_mc(p, z, Fraction(1, 2), Fraction(1, 2), 1000, 1)
    with pytest.raises(BadParams):
        volume_mc(p, z, Fraction(0), Fraction(1, 4), 1000, 1)


def test_mc_degenerate_slice():
    with pytest.raises(DegenerateSlice):
        volume_mc(chain(3), MarkedTriple(1, 0, 2), Fraction(1, 5), Fraction(1, 5), 1000, 1)


def _all_pairs_slice_system(p, z, s, t):
    # reference: one constraint per comparable pair, not only per cover
    z1, z2, z3 = z.as_tuple()
    cols = [x for x in range(p.n) if x not in (z2, z3)]
    col_of = {x: i for i, x in enumerate(cols)}
    sf, tf = float(s), float(t)
    offsets = {z2: sf, z3: sf + tf}
    constraints = []
    for a in range(p.n):
        for b in range(p.n):
            if p.less(a, b):
                ia, ca = col_of[z1 if a in offsets else a], offsets.get(a, 0.0)
                ib, cb = col_of[z1 if b in offsets else b], offsets.get(b, 0.0)
                if ia != ib:
                    constraints.append((ia, ib, ca - cb))
                elif ca - cb > 0:
                    constraints.append((None, None, 1.0))
    constraints.append((col_of[z1], None, sf + tf - 1.0))
    return cols, constraints


def test_cover_constraints_give_the_all_pairs_hits(medium_corpus, monkeypatch):
    s, t = Fraction(1, 5), Fraction(2, 7)
    cases = list(medium_corpus)
    # marks that need not form a chain of the poset (most raise DegenerateSlice)
    cases += [(p, MarkedTriple(0, 1, 2)) for p, _ in medium_corpus[:20]]
    compared = 0
    for i, (p, z) in enumerate(cases):
        cols, covers_only = geometry._slice_system(p, z, s, t)
        assert len(covers_only) <= len(p.covers) + 1
        try:
            hits = volume_mc(p, z, s, t, samples=20_000, seed=7000 + i).hits
        except DegenerateSlice:
            continue
        with monkeypatch.context() as m:
            m.setattr(geometry, "_slice_system", _all_pairs_slice_system)
            assert volume_mc(p, z, s, t, samples=20_000, seed=7000 + i).hits == hits
        compared += 1
    assert compared >= len(medium_corpus)


def test_interpolation_node_count():
    for n in range(3, 8):
        nodes = interpolation_nodes(n)
        assert len(nodes) == n * (n - 1) // 2
        assert all(0 < s and 0 < t and s + t < 1 for s, t in nodes)


def test_recovery_is_exact(medium_corpus):
    for p, z in medium_corpus[:6]:
        F = f_table(p, z)
        recovered = recover_f_from_volume(lambda s, t: volume_formula(F, s, t), p.n)
        for cell, value in recovered.items():
            assert value == F.get(*cell), (cell, value)
        for cell, v in F.entries.items():
            if v:
                assert recovered[cell] == v


def test_recovery_on_random_instances():
    for idx in (1, 5, 9):
        p, z = random_instance(314, idx, 4, 6)
        if z is None:
            continue
        F = f_table(p, z)
        rec = recover_f_from_volume(lambda s, t: volume_formula(F, s, t), p.n)
        assert {c: int(v) for c, v in rec.items() if v} == F.entries
