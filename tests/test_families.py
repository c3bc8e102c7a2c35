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
from posetlab.inequalities import check_stanley
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
    # every instance is exact, k = n - 1 (no chain above a) included
    for n in range(4, 10):
        for k in range(3, n):
            inst = family_stanley_tight(n, k)
            assert width(inst.poset) == 2
            nv = n_vector(inst.poset, inst.a)
            for pos, expect in inst.expected_positions.items():
                assert nv.get(pos) == expect, (n, k, pos)
            rep = check_stanley(nv, k)
            assert rep.verdict == "holds" and rep.slack == 0, (n, k)


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
        family_stanley_tight(5, 2)
    with pytest.raises(BadParams):
        family_converse_tight(6, 2, 1)  # m = 0
    with pytest.raises(BadParams):
        build_family("nope", k=1)


def test_experimental_edges_flagged():
    # the old edge cases: k = 2 leaves no chain below a for w to hang off
    # (N_3 is then 0, not k - 1), so it is refused; k = n - 1 is exact
    with pytest.raises(BadParams, match="3 <= k <= n-1"):
        family_stanley_tight(6, 2)
    for k in (3, 5):
        inst = family_stanley_tight(6, k)
        assert not hasattr(inst, "experimental"), k
        nv = n_vector(inst.poset, inst.a)
        for pos, expect in inst.expected_positions.items():
            assert nv.get(pos) == expect, (k, pos)


def test_experimental_flag_reaches_the_json_line():
    # every instance is exact, so no JSON line carries the key
    with pytest.raises(BadParams, match="3 <= k <= n-1"):
        build_family("stanley-tight", n=5, k=2)
    for k in (3, 4):
        assert "experimental" not in build_family("stanley-tight", n=5, k=k).to_json_obj()


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
