import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corevol import pleated, surface_invariants
from corevol.pleated import (
    PleatLeaf,
    PleatedCoreData,
    fuchsian_reduction_check,
    wedge_volume_quadrature,
)
from corevol.renvol import (
    Convention,
    bending_sum,
    closed_profile,
    closed_volume,
    expansion_fit,
    fit_expansion,
    renormalized_volume,
    surface_terms,
)
from corevol.surface import SurfaceInfo

from conftest import make_row_group

GRID = np.geomspace(0.3, 1e-3, 12)


def slab_closed(area, eps, conv):
    return closed_volume([("collar", area)], eps, conv)


def wedge_closed(leaf, eps, conv):
    return closed_volume([("wedge", (math.pi - leaf.theta) * leaf.length)], eps, conv)


def pleated_v(core, conv):
    return renormalized_volume(core.terms, conv, base=core.core_volume)


def pleated_profile(core, eps_grid, conv):
    return closed_profile(core.terms, eps_grid, conv, base=core.core_volume)


def test_pleat_leaf_bounds():
    with pytest.raises(ValueError):
        PleatLeaf(0.0, 1.0)
    with pytest.raises(ValueError):
        PleatLeaf(1.0, -0.1)
    with pytest.raises(ValueError):
        PleatLeaf(1.0, math.pi + 0.1)
    assert PleatLeaf(1.0, 0.0).theta == 0.0  # doubled-surface degeneration


def test_core_data_validation():
    with pytest.raises(ValueError):
        PleatedCoreData(-1.0, (), 1.0)
    with pytest.raises(ValueError):
        PleatedCoreData.from_genus(1.0, (), genus=1)
    core = PleatedCoreData.from_genus(1.0, (PleatLeaf(2.0, 1.0),), genus=2)
    assert core.boundary_area == pytest.approx(4.0 * math.pi)


@pytest.mark.parametrize("genus, area_over_pi", [(2, 4), (3, 8), (4, 12)])
def test_boundary_area_is_minus_two_pi_chi(genus, area_over_pi):
    # -2 pi chi = 4 pi (g - 1): genus 2 alone cannot tell it from 4 pi / (g - 1)
    core = PleatedCoreData.from_genus(1.0, (), genus=genus)
    assert core.boundary_area == pytest.approx(area_over_pi * math.pi, rel=1e-15)


# ------------------------------------------------------------------- slab

# the collar slab has no printed line: both conventions use the derived slab

def test_slab_zero_area():
    for conv in Convention:
        assert slab_closed(0.0, 0.5, conv) == 0.0


def test_slab_worked_example():
    expected = 4.0 * math.pi * (0.5 + math.sinh(2.0) / 4.0)
    for conv in Convention:
        assert slab_closed(4.0 * math.pi, math.exp(-1.0), conv) == pytest.approx(
            expected, rel=1e-13
        )


def test_slab_contributes_nothing_to_the_constant_term():
    for conv in Convention:
        vols = np.array([slab_closed(4.0 * math.pi, float(e), conv) for e in GRID])
        fit = fit_expansion(GRID, vols)
        assert abs(fit.v) <= 1e-8
        assert renormalized_volume([("collar", 4.0 * math.pi)], conv) == 0.0


# ------------------------------------------------------------------ wedges

def test_wedge_closed_flat_leaf_is_zero():
    leaf = PleatLeaf(1.0, math.pi)
    for conv in Convention:
        assert wedge_closed(leaf, 0.3, conv) == 0.0


def test_wedge_closed_paper_worked_example():
    leaf = PleatLeaf(1.0, math.pi / 2.0)
    eps = math.exp(-1.0)
    expected = (math.pi / 8.0) * (eps + eps ** -2) - math.pi / 4.0
    assert wedge_closed(leaf, eps, Convention.PAPER) == pytest.approx(
        expected, rel=1e-13
    )


def test_wedge_closed_derived_worked_example():
    leaf = PleatLeaf(1.0, math.pi / 2.0)
    expected = (math.pi / 4.0) * math.sinh(1.0) ** 2
    assert wedge_closed(leaf, math.exp(-1.0), Convention.DERIVED) == (
        pytest.approx(expected, rel=1e-13)
    )


def test_wedge_quadrature_flat_leaf_exact_zero():
    assert wedge_volume_quadrature((PleatLeaf(2.0, math.pi),), 0.2)[0][0] == 0.0


@pytest.mark.parametrize("length", [1.0, 2.0])
@pytest.mark.parametrize("theta", [math.pi / 3.0, 2.0 * math.pi / 3.0])
@pytest.mark.parametrize("eps", [math.exp(-1.0), 0.2])
def test_wedge_quadrature_matches_derived(length, theta, eps):
    leaf = PleatLeaf(length, theta)
    quad = wedge_volume_quadrature((leaf,), eps)[0][0]
    closed = wedge_closed(leaf, eps, Convention.DERIVED)
    assert abs(quad - closed) / abs(closed) <= 1e-5


def test_wedge_has_rank_one_structure():
    # V = (pi - theta) L u(eps) for a shape factor independent of theta
    eps = 0.2
    factors = []
    for length, theta in [(0.7, 0.9), (0.7, 2.2), (2.0, 2.9)]:
        v = wedge_volume_quadrature((PleatLeaf(length, theta),), eps)[0][0]
        factors.append(v / ((math.pi - theta) * length))
    for f in factors[1:]:
        assert f == pytest.approx(factors[0], rel=1e-6)


BATCH_THETAS = (0.0, 1e-300, math.pi / 2.0, math.nextafter(math.pi / 2.0, 4.0), math.pi)


@pytest.mark.parametrize("eps", [0.2, 1e-3])
def test_wedge_batch_is_bitwise_one_leaf_calls(eps):
    # every leaf owns its own intervals, so neither the other leaves of the
    # batch nor their order moves a value or an error estimate in any bit
    leaves = [PleatLeaf(0.5 + i, theta) for i, theta in enumerate(BATCH_THETAS)]
    alone = {leaf: [float(a[0]).hex() for a in wedge_volume_quadrature((leaf,), eps)[:2]]
             for leaf in leaves}
    for order in itertools.permutations(leaves):
        values, errors, _ = wedge_volume_quadrature(order, eps)
        got = [[v.hex(), e.hex()] for v, e in zip(values, errors)]
        assert got == [alone[leaf] for leaf in order]


# --------------------------------------------------------- pleated volumes

def test_pleated_no_leaves_returns_core_volume():
    core = PleatedCoreData(3.5, (), 4.0 * math.pi)
    for conv in Convention:
        assert pleated_v(core, conv) == 3.5


def test_pleated_worked_example():
    core = PleatedCoreData(5.0, (PleatLeaf(2.0, math.pi / 2.0),), 4.0 * math.pi)
    assert pleated_v(core, Convention.PAPER) == pytest.approx(
        5.0 - math.pi / 2.0, rel=1e-14
    )
    assert pleated_v(core, Convention.DERIVED) == pytest.approx(
        5.0 - math.pi / 4.0, rel=1e-14
    )


def test_pleated_fuchsian_degeneration_single_leaf():
    length = 1.7
    core = PleatedCoreData(0.0, (PleatLeaf(length, 0.0),), 0.0)
    assert pleated_v(core, Convention.PAPER) == pytest.approx(
        -math.pi * length / 2.0, rel=1e-14
    )
    assert pleated_v(core, Convention.DERIVED) == pytest.approx(
        -math.pi * length / 4.0, rel=1e-14
    )


def test_convention_gap_is_quarter_bending_sum():
    leaves = (PleatLeaf(2.0, 1.0), PleatLeaf(0.5, 2.5))
    bending = sum((math.pi - leaf.theta) * leaf.length for leaf in leaves)
    core0 = PleatedCoreData(0.0, leaves, 4.0 * math.pi)
    gap0 = (pleated_v(core0, Convention.PAPER)
            - pleated_v(core0, Convention.DERIVED))
    assert gap0 == -bending / 2.0 + bending / 4.0  # exact float identity
    core5 = PleatedCoreData(5.0, leaves, 4.0 * math.pi)
    gap5 = (pleated_v(core5, Convention.PAPER)
            - pleated_v(core5, Convention.DERIVED))
    assert gap5 == pytest.approx(-bending / 4.0, rel=1e-14)


LEAVES = st.builds(
    PleatLeaf,
    length=st.floats(min_value=1e-3, max_value=1e3),
    theta=st.one_of(st.just(0.0), st.just(math.pi), st.floats(min_value=0.0, max_value=math.pi)),
)


@settings(max_examples=300, deadline=None)
@given(core_volume=st.one_of(st.just(-0.0), st.floats(min_value=0.0, max_value=1e3)),
       leaves=st.lists(LEAVES, max_size=6),
       boundary_area=st.floats(min_value=0.0, max_value=1e3))
def test_table_v_is_core_volume_minus_bending(core_volume, leaves, boundary_area):
    # V read from the table rows equals the written-out formula in every
    # bit, the sign of a zero core volume with no bending included
    core = PleatedCoreData(core_volume, tuple(leaves), boundary_area)
    bending = bending_sum((leaf.length, leaf.theta) for leaf in leaves)
    assert pleated_v(core, Convention.PAPER).hex() == (core_volume - bending / 2.0).hex()
    assert pleated_v(core, Convention.DERIVED).hex() == (core_volume - bending / 4.0).hex()


def test_pleated_profile_is_monotone():
    core = PleatedCoreData(2.0, (PleatLeaf(1.0, 1.2),), 4.0 * math.pi)
    for conv in Convention:
        vols = [v for _, v in pleated_profile(core, GRID, conv).samples]
        assert all(b > a for a, b in zip(vols, vols[1:]))


def test_pleated_profile_constant_term_matches_value():
    core = PleatedCoreData(2.0, (PleatLeaf(1.0, 1.2),), 4.0 * math.pi)
    fit = expansion_fit(pleated_profile(core, GRID, Convention.DERIVED))
    assert fit.v == pytest.approx(
        pleated_v(core, Convention.DERIVED), abs=1e-7
    )


def test_pleated_paper_profile_leaves_stray_linear_term():
    # the printed wedge line carries a bare eps power that the terminating
    # expansion family cannot represent; the fit residual exposes it
    core = PleatedCoreData(2.0, (PleatLeaf(1.0, 1.2),), 4.0 * math.pi)
    fit = expansion_fit(pleated_profile(core, GRID, Convention.PAPER))
    assert fit.residual > 1e-3


# ------------------------------------------------------ Fuchsian reduction

def test_fuchsian_reduction_exact(surface_s1, surface_adjacent, surface_crossed):
    for surface in (surface_s1, surface_adjacent, surface_crossed):
        for conv in Convention:
            passed, report = fuchsian_reduction_check(surface, conv)
            assert passed, report
            assert report["difference"] == 0.0


@st.composite
def row_groups(draw):
    """A validated row group: 2g disjoint circles on the real line, randomly paired."""
    genus = draw(st.integers(min_value=1, max_value=3))
    centers = [3.0 * i + draw(st.floats(min_value=-0.5, max_value=0.5)) for i in range(2 * genus)]
    order = draw(st.permutations(range(2 * genus)))
    pairs = [(order[2 * i], order[2 * i + 1]) for i in range(genus)]
    return make_row_group(centers, draw(st.floats(min_value=0.2, max_value=0.9)), pairs)


@settings(max_examples=40, deadline=None)
@given(group=row_groups())
def test_fuchsian_reduction_holds_on_row_groups(group):
    surface = surface_invariants(group)
    for conv in Convention:
        passed, report = fuchsian_reduction_check(surface, conv)
        assert passed, report
        assert report["pleated"].hex() == report["fuchsian"].hex()


def test_fuchsian_reduction_values(surface_s1):
    _, report = fuchsian_reduction_check(surface_s1, Convention.PAPER)
    assert report["pleated"] == pytest.approx(-2.0 * math.pi, rel=1e-14)
    _, report = fuchsian_reduction_check(surface_s1, Convention.DERIVED)
    assert report["pleated"] == pytest.approx(-math.pi, rel=1e-14)


def test_fuchsian_reduction_fails_on_a_wrong_wedge_oracle(surface_adjacent, monkeypatch):
    # the bitwise leg cannot see the oracle; the eps = 0.1 leg must
    doubled = lambda leaves, eps: ([2.0 * v for v in wedge_volume_quadrature(leaves, eps)[0]],)
    monkeypatch.setattr(pleated, "wedge_volume_quadrature", doubled)
    for conv in Convention:
        passed, report = fuchsian_reduction_check(surface_adjacent, conv)
        assert not passed
        assert report["difference"] == 0.0
        assert report["oracle_gap"] > 0.1


def test_fuchsian_reduction_degenerate_no_ends():
    surface = SurfaceInfo(ends=0, genus=2, handlebody_genus=3, end_lengths=(),
                          core_area=4.0 * math.pi)
    for conv in Convention:
        passed, report = fuchsian_reduction_check(surface, conv)
        assert passed
        assert report["pleated"] == 0.0
        assert renormalized_volume(surface_terms(surface), conv) == 0.0


@pytest.mark.parametrize("length, eps", [(0.5, 0.3), (2.0, 0.05), (3.5, 1e-3)])
def test_wedge_quadrature_theta_zero_is_half_disk(length, eps):
    # the Fuchsian degeneration: the sector is the half-disk x >= 0
    quad = wedge_volume_quadrature((PleatLeaf(length, 0.0),), eps)[0][0]
    exact = math.pi * length * math.sinh(-math.log(eps)) ** 2 / 2.0
    assert abs(quad - exact) <= 1e-14 * exact
