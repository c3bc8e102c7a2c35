"""Family generators: expected closed forms vs the exact DP, and edge cases."""

from __future__ import annotations

from fractions import Fraction

import pytest

from posetlab.errors import BadParams
from posetlab.extensions import f_table, n_vector
from posetlab.families import (
    build_family,
    family_antichain,
    family_converse_tight,
    family_cpc2_witness,
    family_stanley_tight,
)
from posetlab.posets import params, width


def test_antichain_family_matches_dp():
    for k in range(1, 4):
        for l in range(1, 4):
            inst = family_antichain(k, l)
            assert inst.poset.n == k + l + 2
            F = f_table(inst.poset, inst.z)
            for cell, expect in inst.expected_cells.items():
                assert F.get(*cell) == expect, (k, l, cell)


def test_cpc2_witness_matches_dp_and_width():
    for k in range(1, 4):
        for l in range(2, 6):
            inst = family_cpc2_witness(k, l)
            assert inst.poset.n == k + l + 3
            F = f_table(inst.poset, inst.z)
            for cell, expect in inst.expected_cells.items():
                assert F.get(*cell) == expect, (k, l, cell)
            assert width(inst.poset) == 3
            assert inst.extras["cpc2_ratio"] == Fraction(l, l + 1)


def test_stanley_tight_matches_dp():
    for n in range(5, 9):
        for k in range(3, n - 1):
            inst = family_stanley_tight(n, k)
            assert not inst.experimental
            assert width(inst.poset) == 2
            nv = n_vector(inst.poset, inst.a)
            for pos, expect in inst.expected_positions.items():
                assert nv.get(pos) == expect, (n, k, pos)


def test_converse_tight_matches_dp():
    for n in range(7, 11):
        for k in (2, 3):
            for l in (1, 2):
                if n - k - l - 3 < 1:
                    continue
                inst = family_converse_tight(n, k, l)
                F = f_table(inst.poset, inst.z)
                for cell, expect in inst.expected_cells.items():
                    assert F.get(*cell) == expect, (n, k, l, cell)


def test_converse_cross_ratio_trend():
    # exact ratio equals the closed form; normalized by (k-1) l n it
    # increases monotonically toward 1
    k, l = 3, 2
    prev = None
    for n in range(10, 17):
        inst = family_converse_tight(n, k, l)
        ratio = Fraction(int(inst.extras["cross_ratio"]))
        c = n - k - l - 2
        assert ratio == 1 + (k - 1) * l * c
        normalized = ratio / ((k - 1) * l * n)
        assert normalized < 1
        if prev is not None:
            assert normalized > prev
        prev = normalized


def test_bad_params():
    with pytest.raises(BadParams):
        family_antichain(0, 1)
    with pytest.raises(BadParams):
        family_cpc2_witness(1, 1)
    with pytest.raises(BadParams):
        family_stanley_tight(5, 5)
    with pytest.raises(BadParams):
        family_converse_tight(6, 2, 1)  # m = 0
    with pytest.raises(BadParams):
        build_family("nope", k=1)


def test_experimental_edges_flagged():
    assert family_stanley_tight(6, 2).experimental
    assert family_stanley_tight(6, 5).experimental
    assert not family_stanley_tight(6, 3).experimental


def test_experimental_flag_reaches_the_json_line():
    assert family_stanley_tight(5, 2).to_json_obj()["experimental"] is True
    assert "experimental" not in family_stanley_tight(5, 3).to_json_obj()


def test_element_layout_is_stable():
    # serialized fixtures must not move between versions
    inst = family_cpc2_witness(1, 2)
    assert inst.poset.covers == ((0, 1), (0, 3), (1, 2), (1, 4), (1, 5), (3, 2))
    assert inst.z.as_tuple() == (0, 1, 2)
    inst2 = family_converse_tight(8, 2, 1)
    assert inst2.z.as_tuple() == (0, 1, 2)
    assert inst2.poset.covers == (
        (0, 1), (0, 4), (1, 2), (1, 5), (2, 6), (3, 1), (3, 4), (4, 2), (4, 5), (6, 7),
    )


def test_build_family_dispatch():
    inst = build_family("stanley-tight", n=6, k=3)
    assert inst.family == "stanley-tight" and inst.a == 0
    obj = inst.to_json_obj()
    assert obj["schema"] == "posetlab/1" and "N" in obj["expected"]
