import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corevol import quadrature, renvol, surface_invariants
from corevol.cli import build_group, main, parse_config
from corevol.quadrature import QuadratureError
from corevol.renvol import (
    Convention,
    VolumeProfile,
    _truncated_volumes,
    default_eps_grid,
    expansion_fit,
    fit_expansion,
    level_lambda,
    level_set_area,
    profile_closed,
    profile_quadrature,
    renormalized_volume_fuchsian,
    truncated_volume_closed,
    truncated_volume_quadrature,
)
from corevol.surface import SurfaceInfo


def core_only_surface(area=4.0 * math.pi):
    # fictitious no-end surface used for boundary cases; g = 2k + e - 1
    return SurfaceInfo(ends=0, genus=2, handlebody_genus=3, end_lengths=(),
                      core_area=area)


def scaled_surface(surface, factor):
    return SurfaceInfo(
        ends=surface.ends,
        genus=surface.genus,
        handlebody_genus=surface.handlebody_genus,
        end_lengths=tuple(factor * length for length in surface.end_lengths),
        core_area=surface.core_area,
    )


# ---------------------------------------------------------------- level data

def test_level_param_roundtrip():
    lam = level_lambda(0.1)
    assert lam == pytest.approx(math.log(10.0))
    assert math.exp(-lam) == pytest.approx(0.1)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
def test_level_param_range(eps):
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
        level_lambda(eps)


# -------------------------------------------------------------- level areas

def test_level_area_degenerate_core(surface_s1):
    assert level_set_area(surface_s1, 1e-10) == pytest.approx(0.0, abs=1e-8)


def test_level_area_cyclic_worked_example(surface_s1):
    # L = (2s, 2s) with s = 1: area = 4 pi s sinh(1) cosh(1)
    expected = 4.0 * math.pi * math.sinh(1.0) * math.cosh(1.0)
    assert level_set_area(surface_s1, 1.0) == pytest.approx(expected, rel=1e-13)


def test_level_area_limit_surface(surface_adjacent):
    # area / cosh^2(lambda) tends to twice the core area plus pi sum L_i
    limit = (2.0 * surface_adjacent.core_area
             + math.pi * surface_adjacent.total_end_length)
    for lam in (10.0, 20.0):
        scaled = level_set_area(surface_adjacent, lam) / math.cosh(lam) ** 2
        expected = (2.0 * surface_adjacent.core_area
                    + math.pi * surface_adjacent.total_end_length * math.tanh(lam))
        assert scaled == pytest.approx(expected, rel=1e-12)
    assert level_set_area(surface_adjacent, 20.0) / math.cosh(20.0) ** 2 == (
        pytest.approx(limit, rel=1e-8)
    )


def test_level_area_rejects_nonpositive_lambda(surface_s1):
    with pytest.raises(ValueError):
        level_set_area(surface_s1, 0.0)


# ------------------------------------------------------------- closed forms

def test_closed_volume_derived_core_term_vanishes_for_cyclic(surface_s1):
    # genus-1 core is a geodesic of zero area: only cylinder terms survive
    lam = 1.5
    vol = truncated_volume_closed(surface_s1, math.exp(-lam), Convention.DERIVED)
    expected = (math.pi / 2.0) * math.sinh(lam) ** 2 * 4.0
    assert vol == pytest.approx(expected, rel=1e-13)


def test_closed_volume_paper_worked_example(surface_s1):
    # printed end form at eps = 0.1 with sum L = 4
    eps = 0.1
    vol = truncated_volume_closed(surface_s1, eps, Convention.PAPER)
    expected = (math.pi / 4.0) * (eps ** -2 - 2.0 + eps ** 2) * 4.0
    assert vol == pytest.approx(expected, rel=1e-13)
    assert vol == pytest.approx(math.pi * 98.01, rel=1e-12)


def test_closed_volume_derived_worked_example(surface_s1):
    vol = truncated_volume_closed(surface_s1, 0.1, Convention.DERIVED)
    assert vol == pytest.approx(2.0 * math.pi * math.sinh(math.log(10.0)) ** 2,
                                rel=1e-13)


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5])
def test_closed_volume_eps_domain(surface_s1, eps):
    with pytest.raises(ValueError):
        truncated_volume_closed(surface_s1, eps, Convention.DERIVED)


def test_conventions_differ_by_model_form(surface_adjacent):
    # the two conventions disagree only inside the four-term model family
    eps = default_eps_grid()
    diff = np.array([
        truncated_volume_closed(surface_adjacent, float(e), Convention.PAPER)
        - truncated_volume_closed(surface_adjacent, float(e), Convention.DERIVED)
        for e in eps
    ])
    fit = fit_expansion(eps, diff)
    assert fit.residual <= 1e-9 * np.abs(diff).max()


# ---------------------------------------------------------------- quadrature

def test_quadrature_core_only_slab():
    surface = core_only_surface()
    vol = truncated_volume_quadrature(surface, math.exp(-1.0))
    expected = 2.0 * surface.core_area * (0.5 + math.sinh(2.0) / 4.0)
    assert vol == pytest.approx(expected, rel=1e-9)


def test_quadrature_matches_derived_closed_form(surface_s1, surface_adjacent,
                                                surface_crossed):
    for surface in (surface_s1, surface_adjacent, surface_crossed):
        for eps in (0.3, 0.05, 0.005):
            quad = truncated_volume_quadrature(surface, eps, tol=1e-9)
            closed = truncated_volume_closed(surface, eps, Convention.DERIVED)
            assert quad == pytest.approx(closed, rel=1e-6)


def test_quadrature_monotone_in_eps(surface_s1):
    v_small = truncated_volume_quadrature(surface_s1, 0.05)
    v_large = truncated_volume_quadrature(surface_s1, 0.2)
    assert v_small > v_large


def test_quadrature_tolerance_floor(surface_s1):
    with pytest.raises(ValueError):
        truncated_volume_quadrature(surface_s1, 0.1, tol=1e-12)


@pytest.fixture(scope="module")
def surfaces_by_genus(surface_s1, surface_crossed, g3_row):
    return {1: surface_s1, 2: surface_crossed, 3: surface_invariants(g3_row)}


BATCH_CASES = [(genus, tol, count) for genus in (1, 2, 3)
               for tol in (1e-8, 1e-9) for count in (8, 16)]


@pytest.mark.parametrize("genus, tol, count", BATCH_CASES)
def test_profile_batch_equals_per_eps_calls_bitwise(surfaces_by_genus, genus, tol, count):
    surface = surfaces_by_genus[genus]
    grid = default_eps_grid(1e-3, 0.3, count)
    profile = profile_quadrature(surface, grid, tol)
    singles = [truncated_volume_quadrature(surface, float(e), tol) for e in grid]
    assert [v.hex() for v in profile.volumes.tolist()] == [v.hex() for v in singles]


@pytest.mark.parametrize("genus, tol, count", BATCH_CASES)
def test_profile_error_estimates_meet_tolerance(surfaces_by_genus, genus, tol, count):
    grid = default_eps_grid(1e-3, 0.3, count)
    volumes, errors = _truncated_volumes(surfaces_by_genus[genus], grid, tol)
    assert volumes.shape == errors.shape == (count,)
    assert np.all(errors > 0.0)
    assert np.all(errors <= tol * np.abs(volumes))


README_GENUS1 = {"mode": "fuchsian_group",
                 "generators": [{"p": -1.0, "q": 1.0, "length": 2.0}]}
README_GENUS2 = {
    "mode": "fuchsian_group",
    "circles": [{"center": c, "radius": 0.4} for c in (-3.0, -1.0, 1.0, 3.0)],
    "pairings": [{"source": 0, "target": 1, "matrix": [-2.5, -7.9, 2.5, 7.5]},
                 {"source": 2, "target": 3, "matrix": [7.5, -7.9, 2.5, -2.5]}],
}


def test_cell_budget_exhaustion_in_renvol_is_a_json_error(tmp_path, capsys, monkeypatch):
    # one cell stops genus 1's inner t integral and two its outer one (the
    # end cylinder converges within 3 cells); genus 2 stops in its core slab
    for config, cells, integral in [(README_GENUS1, 1, "end cylinder"),
                                    (README_GENUS1, 2, "end cylinder"),
                                    (README_GENUS2, 2, "core slab")]:
        monkeypatch.setattr(quadrature, "MAX_CELLS", cells)
        path = tmp_path / "group.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["renvol", "--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "quadrature"
        message = error["message"]
        assert f"not met within {cells} cells on [0.0, " in message
        named, eps = message.split(": ")[0].split(" at eps ")
        assert named == integral
        cfg = parse_config(config)
        grid = cfg["epsilon_grid"]
        assert float(eps) in default_eps_grid(grid["min"], grid["max"], grid["count"])
        # intervals refine independently of their batch, so the level named
        # fails alone with the same message
        surface = surface_invariants(build_group(cfg))
        with pytest.raises(QuadratureError) as alone:
            truncated_volume_quadrature(surface, float(eps), cfg["quadrature_tol"])
        assert str(alone.value) == message


def test_tolerance_error_names_the_eps(monkeypatch, surface_s1):
    # the per-level check after both integrals names the level it rejects
    monkeypatch.setattr(renvol, "adaptive_quad_batch",
                        lambda f, a, b, rel_tol: (np.ones(np.size(b)), np.ones(np.size(b))))
    with pytest.raises(QuadratureError, match=r"exceeds tolerance .* at eps 0\.25$"):
        truncated_volume_quadrature(surface_s1, 0.25)


def test_coarea_identity(surface_s1, surface_adjacent):
    # d/d lambda of the truncated volume is the level-set area
    h = 1e-3
    for surface in (surface_s1, surface_adjacent):
        for lam in (0.5, 1.0, 2.0):
            plus = truncated_volume_quadrature(surface, math.exp(-(lam + h)))
            minus = truncated_volume_quadrature(surface, math.exp(-(lam - h)))
            derivative = (plus - minus) / (2.0 * h)
            area = level_set_area(surface, lam)
            assert abs(derivative - area) / area <= 1e-4


# ------------------------------------------------------------ expansion fits

def test_fit_recovers_synthetic_exactly():
    eps = np.geomspace(0.2, 0.001, 12)
    truth = (3.0, -1.0, -2.0, 0.5)
    vols = truth[0] * eps ** -2 + truth[1] * np.log(eps) + truth[2] + truth[3] * eps ** 2
    fit = fit_expansion(eps, vols)
    assert fit.c_m2 == pytest.approx(truth[0], abs=1e-8)
    assert fit.c_log == pytest.approx(truth[1], abs=1e-8)
    assert fit.v == pytest.approx(truth[2], abs=1e-8)
    assert fit.c_2 == pytest.approx(truth[3], abs=1e-8)
    assert fit.residual <= 1e-9 * np.abs(vols).max()


@settings(max_examples=30, deadline=None)
@given(
    c_m2=st.floats(min_value=-5.0, max_value=5.0),
    c_log=st.floats(min_value=-5.0, max_value=5.0),
    v=st.floats(min_value=-5.0, max_value=5.0),
    c_2=st.floats(min_value=-5.0, max_value=5.0),
)
def test_fit_is_exact_on_the_model_family(c_m2, c_log, v, c_2):
    eps = np.geomspace(0.3, 0.001, 10)
    vols = c_m2 * eps ** -2 + c_log * np.log(eps) + v + c_2 * eps ** 2
    fit = fit_expansion(eps, vols)
    scale = 1.0 + np.abs(vols).max()
    assert abs(fit.v - v) <= 1e-8 * scale


def test_fit_requires_enough_samples():
    eps = np.geomspace(0.3, 0.001, 7)
    with pytest.raises(ValueError, match="8 samples"):
        fit_expansion(eps, eps ** -2)


def test_fit_requires_two_decades():
    eps = np.geomspace(0.3, 0.03, 12)
    with pytest.raises(ValueError, match="decades"):
        fit_expansion(eps, eps ** -2)


def test_fit_rejects_rank_deficient_design():
    eps = np.array([0.3, 0.3, 0.3, 0.3, 0.001, 0.001, 0.001, 0.001])
    with pytest.raises(ValueError, match="rank"):
        fit_expansion(eps, eps ** -2)


def test_fit_of_derived_profile_gives_quarter_constant(surface_s1):
    profile = profile_closed(surface_s1, default_eps_grid(), Convention.DERIVED)
    fit = expansion_fit(profile)
    assert fit.v == pytest.approx(-math.pi, abs=1e-6)


def test_fit_of_paper_profile_gives_half_constant(surface_s1):
    profile = profile_closed(surface_s1, default_eps_grid(), Convention.PAPER)
    fit = expansion_fit(profile)
    assert fit.v == pytest.approx(-2.0 * math.pi, abs=1e-6)


def test_fit_of_quadrature_profile(surface_s1):
    profile = profile_quadrature(surface_s1, default_eps_grid(), tol=1e-9)
    fit = expansion_fit(profile)
    assert fit.v == pytest.approx(-math.pi, abs=1e-4)
    assert fit.residual <= 1e-5 * profile.volumes.max()


def test_fit_stable_under_grid_shift(surface_s1):
    base = expansion_fit(profile_quadrature(surface_s1, default_eps_grid(), 1e-9))
    shifted_grid = default_eps_grid(eps_min=5e-4, eps_max=0.15)
    shifted = expansion_fit(profile_quadrature(surface_s1, shifted_grid, 1e-9))
    assert abs(base.v - shifted.v) < 1e-4


# ------------------------------------------------------ renormalized volumes

def test_renormalized_volume_no_ends_is_zero():
    surface = core_only_surface()
    assert renormalized_volume_fuchsian(surface, Convention.PAPER) == 0.0
    assert renormalized_volume_fuchsian(surface, Convention.DERIVED) == 0.0


def test_renormalized_volume_worked_example(surface_s1):
    assert renormalized_volume_fuchsian(surface_s1, Convention.PAPER) == (
        pytest.approx(-2.0 * math.pi, rel=1e-14)
    )
    assert renormalized_volume_fuchsian(surface_s1, Convention.DERIVED) == (
        pytest.approx(-math.pi, rel=1e-14)
    )


def test_renormalized_volume_linear_in_lengths(surface_adjacent):
    doubled = scaled_surface(surface_adjacent, 2.0)
    for conv in Convention:
        v1 = renormalized_volume_fuchsian(surface_adjacent, conv)
        v2 = renormalized_volume_fuchsian(doubled, conv)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_ratio_constant_across_groups(surface_s1, surface_adjacent, surface_crossed):
    ratios = []
    for surface in (surface_s1, surface_adjacent, surface_crossed):
        fit = expansion_fit(profile_quadrature(surface, default_eps_grid(), 1e-9))
        ratios.append(fit.v / surface.total_end_length)
    for r in ratios:
        assert abs(r - (-math.pi / 4.0)) <= 1e-4
    assert max(ratios) - min(ratios) <= 1e-4


# -------------------------------------------------------------- profiles

def test_profile_invariants():
    with pytest.raises(ValueError):
        VolumeProfile(((0.1, 1.0), (0.2, 2.0)), "quadrature")
    with pytest.raises(ValueError):
        VolumeProfile(((0.2, 2.0), (0.1, 1.0)), "quadrature")
    profile = VolumeProfile(((0.2, 1.0), (0.1, 2.0)), "quadrature")
    assert profile.eps.tolist() == [0.2, 0.1]
    assert profile.volumes.tolist() == [1.0, 2.0]
    # a pleated core with no bending and no boundary has a constant profile
    assert VolumeProfile(((0.2, 2.0), (0.1, 2.0)), "quadrature").volumes.tolist() == [2.0, 2.0]


def test_default_grid_shape():
    grid = default_eps_grid()
    assert len(grid) == 12
    assert grid[0] == pytest.approx(0.3)
    assert grid[-1] == pytest.approx(1e-3)
    assert all(a > b for a, b in zip(grid, grid[1:]))
