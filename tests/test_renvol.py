import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corevol import quadrature, renvol, surface_invariants
from corevol.cli import build_group, parse_config
from corevol.quadrature import QuadratureError
from corevol.renvol import (
    Convention,
    VolumeProfile,
    _truncated_volumes,
    closed_profile,
    closed_volume,
    default_eps_grid,
    expansion_fit,
    fit_expansion,
    level_lambda,
    profile_quadrature,
    renormalized_volume,
    surface_terms,
    truncated_volume_quadrature,
)
from corevol.pleated import PleatedCoreData, PleatLeaf, wedge_volume_quadrature
from corevol.surface import SurfaceInfo

from conftest import level_set_area, make_cyclic, make_row_group


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
    vol = closed_volume(surface_terms(surface_s1), math.exp(-lam), Convention.DERIVED)
    expected = (math.pi / 2.0) * math.sinh(lam) ** 2 * 4.0
    assert vol == pytest.approx(expected, rel=1e-13)


def test_closed_volume_paper_worked_example(surface_s1):
    # printed end form at eps = 0.1 with sum L = 4
    eps = 0.1
    vol = closed_volume(surface_terms(surface_s1), eps, Convention.PAPER)
    expected = (math.pi / 4.0) * (eps ** -2 - 2.0 + eps ** 2) * 4.0
    assert vol == pytest.approx(expected, rel=1e-13)
    assert vol == pytest.approx(math.pi * 98.01, rel=1e-12)


def test_closed_volume_derived_worked_example(surface_s1):
    vol = closed_volume(surface_terms(surface_s1), 0.1, Convention.DERIVED)
    assert vol == pytest.approx(2.0 * math.pi * math.sinh(math.log(10.0)) ** 2,
                                rel=1e-13)


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5])
def test_closed_volume_eps_domain(surface_s1, eps):
    with pytest.raises(ValueError):
        closed_volume(surface_terms(surface_s1), eps, Convention.DERIVED)


# the smallest eps whose eps^-2 is a float64
EPS_INVERSE_SQUARE_FLOOR = 7.458340731200208e-155


def past_the_range(what, eps):
    return pytest.raises(ValueError, match=re.escape(
        f"{what} leaves the float64 range at eps = {eps!r}"))


@pytest.mark.parametrize("entry", ["closed_volume", "profile_quadrature",
                                   "wedge_volume_quadrature"])
def test_eps_whose_inverse_square_overflows_is_a_value_error(surface_s1, surface_adjacent,
                                                             entry):
    # each entry's volumes at the level eps: on the README genus 1 and 2
    # surfaces, the closed form in both conventions, and on a wedge
    surfaces = (surface_s1, surface_adjacent)
    calls = {
        "closed_volume": [lambda e, s=s, c=c: closed_volume(surface_terms(s), e, c)
                          for s in surfaces for c in Convention],
        "profile_quadrature": [lambda e, s=s: profile_quadrature(s, [0.3, e]).samples[-1][1]
                               for s in surfaces],
        "wedge_volume_quadrature": [
            lambda e: wedge_volume_quadrature((PleatLeaf(3.0, 0.0),), e)[0][0]],
    }
    floor = EPS_INVERSE_SQUARE_FLOOR
    below = math.nextafter(floor, 0.0)
    assert math.isfinite(floor ** -2)
    with pytest.raises(OverflowError):
        below ** -2
    for volume in calls[entry]:
        assert math.isfinite(volume(1e-150))  # the CLI's eps floor
        # at the floor eps^-2 is finite and the volume leaves the range
        with past_the_range("the truncated volume", floor):
            volume(floor)
        with past_the_range("eps^-2", below):
            volume(below)
    if entry == "closed_volume":
        # finite core and end volumes whose sum overflows in math.fsum
        eps = 1.8081517111843692e-154
        with past_the_range("the truncated volume", eps):
            closed_volume(surface_terms(surface_adjacent), eps, Convention.DERIVED)
    if entry == "wedge_volume_quadrature":
        # a unit leaf stays finite at the floor; a long one leaves the range
        # at the CLI's eps floor
        assert math.isfinite(wedge_volume_quadrature((PleatLeaf(1.0, 0.0),), floor)[0][0])
        with past_the_range("the truncated volume", 1e-150):
            wedge_volume_quadrature((PleatLeaf(1e10, 0.0),), 1e-150)


def test_conventions_differ_by_model_form(surface_adjacent):
    # the two conventions disagree only inside the four-term model family
    eps = default_eps_grid()
    diff = np.array([
        closed_volume(surface_terms(surface_adjacent), float(e), Convention.PAPER)
        - closed_volume(surface_terms(surface_adjacent), float(e), Convention.DERIVED)
        for e in eps
    ])
    fit = fit_expansion(eps, diff)
    assert fit.residual <= 1e-9 * np.abs(diff).max()


# ------------------------------------------------------ the closed-form table

TABLE_EPS = np.geomspace(1e-12, 0.99, 60).tolist()
README_G2 = {
    "mode": "fuchsian_group",
    "circles": [{"center": -3.0, "radius": 0.4}, {"center": -1.0, "radius": 0.4},
                {"center": 1.0, "radius": 0.4}, {"center": 3.0, "radius": 0.4}],
    "pairings": [{"source": 0, "target": 1, "matrix": [-2.5, -7.9, 2.5, 7.5]},
                 {"source": 2, "target": 3, "matrix": [7.5, -7.9, 2.5, -2.5]}],
}


def table_surfaces():
    """README genus 1 and genus 2, and the crossed genus-3 row group."""
    g3 = make_row_group((-5, -3, -1, 1, 3, 5), 0.4, [(0, 3), (1, 4), (2, 5)])
    groups = (make_cyclic(1.0), build_group(parse_config(README_G2)), g3)
    return [surface_invariants(group) for group in groups]


def ks_slab(area, chi, lam):
    """Krasnov-Schlenker for a slab over `area` of core or boundary: -pi lam chi,
    plus (1/4) int H da with H = 2 tanh lam over the level area cosh^2 lam."""
    return -mpmath.pi * lam * chi + 2 * mpmath.tanh(lam) * area * mpmath.cosh(lam) ** 2 / 4


def ks_sector(w, lam):
    """Krasnov-Schlenker for ends or leaves of bending w: W(C)'s -w/4, plus
    (1/4) int H da with H = tanh lam + coth lam over w sinh lam cosh lam."""
    mean = mpmath.tanh(lam) + mpmath.coth(lam)
    return -w / 4 + mean * w * mpmath.sinh(lam) * mpmath.cosh(lam) / 4


def assert_rel(value, exact, rel=1e-14):
    assert abs(value - exact) <= rel * abs(exact), (value, exact)


def test_table_rows_match_printed_lines_and_krasnov_schlenker():
    # each paper row against its printed line verbatim, each derived row
    # against the W-volume decomposition, at 40 digits over 60 levels
    paper, derived = Convention.PAPER, Convention.DERIVED
    surfaces = table_surfaces()
    leaves = [PleatLeaf(1.3, theta) for theta in (0.0, 0.4, 2.0, 3.0)]
    collars = [PleatedCoreData.from_genus(0.0, (), genus) for genus in (2, 3)]
    with mpmath.workdps(40):
        for eps in TABLE_EPS:
            e = mpmath.mpf(eps)
            lam = -mpmath.log(e)
            for surface in surfaces:
                g = surface.handlebody_genus
                total = mpmath.fsum(mpmath.mpf(x) for x in surface.end_lengths)
                exact = {
                    (paper, "core"):
                        mpmath.pi * (g - 1) / 4 * (e ** -2 + mpmath.log(e) / 2 - e ** 2),
                    (paper, "end"): mpmath.pi / 4 * (e ** -2 - 2 + e ** 2) * total,
                    (derived, "core"): ks_slab(2 * mpmath.mpf(surface.core_area), 2 - 2 * g, lam),
                    (derived, "end"): ks_sector(mpmath.pi * total, lam),
                }
                terms = dict(surface_terms(surface))
                for (conv, term), value in exact.items():
                    assert_rel(closed_volume([(term, terms[term])], eps, conv), value)
                for conv in Convention:
                    assert_rel(closed_volume(surface_terms(surface), eps, conv),
                               exact[conv, "core"] + exact[conv, "end"])
            for leaf in leaves:
                w = (mpmath.pi - mpmath.mpf(leaf.theta)) * mpmath.mpf(leaf.length)
                wedge = [("wedge", (math.pi - leaf.theta) * leaf.length)]
                assert_rel(closed_volume(wedge, eps, paper), w / 4 * (e + e ** -2) - w / 2)
                assert_rel(closed_volume(wedge, eps, derived), ks_sector(w, lam))
            for core in collars:
                area = mpmath.mpf(core.boundary_area)
                for conv in Convention:
                    assert_rel(closed_volume([("collar", core.boundary_area)], eps, conv),
                               ks_slab(area, -area / (2 * mpmath.pi), lam))
    # the collar has no printed line: the paper convention uses the derived slab
    assert renvol.CLOSED_FORMS[paper, "collar"] == renvol.CLOSED_FORMS[derived, "collar"]


@pytest.mark.parametrize("eps", [0.3, 1e-6, 1e-12, 1e-76])
def test_closed_volume_rows_are_within_8_u(eps):
    # the basis is built from eps, so no row's error grows with lam =
    # -log(eps): each row within 8 u of its 50-digit value
    u = 2.0 ** -53
    with mpmath.workdps(50):
        e = mpmath.mpf(eps)
        lam = -mpmath.log(e)
        basis = (mpmath.sinh(2 * lam), mpmath.sinh(lam) ** 2, lam, 1, e)
        for (conv, term), row in renvol.CLOSED_FORMS.items():
            exact = mpmath.fsum(mpmath.mpf(c) * b for c, b in zip(row, basis))
            value = closed_volume([(term, 1.0)], eps, conv)
            assert abs(value - exact) <= 8 * u * abs(exact), (conv, term, eps)


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
            quad = truncated_volume_quadrature(surface, eps)
            closed = closed_volume(surface_terms(surface), eps, Convention.DERIVED)
            assert quad == pytest.approx(closed, rel=1e-6)


def test_quadrature_monotone_in_eps(surface_s1):
    v_small = truncated_volume_quadrature(surface_s1, 0.05)
    v_large = truncated_volume_quadrature(surface_s1, 0.2)
    assert v_small > v_large


@pytest.fixture(scope="module")
def surfaces_by_genus(surface_s1, surface_crossed, g3_row):
    return {1: surface_s1, 2: surface_crossed, 3: surface_invariants(g3_row)}


# deep grids, down to eps_min, where the core slab has some 20 cells
BATCH_CASES = [(genus, eps_min, count) for genus in (1, 2, 3)
               for eps_min in (1e-8, 1e-9) for count in (8, 16)]


@pytest.mark.parametrize("genus, eps_min, count", BATCH_CASES)
def test_profile_batch_equals_per_eps_calls_bitwise(surfaces_by_genus, genus, eps_min, count):
    surface = surfaces_by_genus[genus]
    grid = default_eps_grid(eps_min, 0.3, count)
    profile = profile_quadrature(surface, grid)
    singles = [truncated_volume_quadrature(surface, float(e)) for e in grid]
    assert [v.hex() for _, v in profile.samples] == [v.hex() for v in singles]


@pytest.mark.parametrize("genus, eps_min, count", BATCH_CASES)
def test_profile_error_estimates_meet_tolerance(surfaces_by_genus, genus, eps_min, count):
    # the one accuracy of the oracle is rounding level: the slab's bound is
    # at most (17 + m + 4 lam) u with m <= lam / 2.83 + 1 cells, the end
    # slice's at most 88 u (_sector_areas), so (90 + 5 lam) u covers both
    grid = default_eps_grid(eps_min, 0.3, count)
    volumes, errors, _ = _truncated_volumes(surfaces_by_genus[genus], grid)
    assert len(volumes) == len(errors) == count
    u = 2.0 ** -53
    assert all(0.0 < err <= (90.0 + 5.0 * level_lambda(eps)) * u * abs(vol)
               for eps, vol, err in zip(grid, volumes, errors))


README_GENUS1 = {"mode": "fuchsian_group",
                 "generators": [{"p": -1.0, "q": 1.0, "length": 2.0}]}
README_GENUS2 = {
    "mode": "fuchsian_group",
    "circles": [{"center": c, "radius": 0.4} for c in (-3.0, -1.0, 1.0, 3.0)],
    "pairings": [{"source": 0, "target": 1, "matrix": [-2.5, -7.9, 2.5, 7.5]},
                 {"source": 2, "target": 3, "matrix": [7.5, -7.9, 2.5, -2.5]}],
}


def test_core_slab_failure_does_not_depend_on_its_batch():
    # cosh^2 leaves the float64 range past x = 355.58: README genus 2's
    # core slab at eps 1e-160 fails the same in its grid and alone
    surface = surface_invariants(build_group(parse_config(README_GENUS2)))
    with pytest.raises(QuadratureError) as batch:
        profile_quadrature(surface, default_eps_grid(1e-160, 0.3, 12))
    with pytest.raises(QuadratureError) as alone:
        truncated_volume_quadrature(surface, 1e-160)
    assert str(batch.value) == str(alone.value) == (
        "core slab at eps 1e-160: integrand is not finite on "
        "[354.13551078456504, 356.96859487084157]")


def test_oracle_evaluates_each_certified_cell_once(monkeypatch):
    # README genus 2: the core slab's cells, then the theta = 0 slice's two
    # arc cells, shared by every level; no cell is evaluated inside another
    # integrand, the count is the profile's, and the sequence repeats exactly
    calls, depth = [], [0]
    cell = quadrature._cell

    def counted(f, left, right):
        calls.append((depth[0], f.__name__, left, right))
        depth[0] += 1
        try:
            return cell(f, left, right)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(quadrature, "_cell", counted)
    monkeypatch.setattr(renvol, "_cell", counted)
    cfg = parse_config(README_GENUS2)
    surface = surface_invariants(build_group(cfg))
    grid = cfg["epsilon_grid"]
    eps = default_eps_grid(grid["min"], grid["max"], grid["count"])
    runs = []
    for _ in range(2):
        calls.clear()
        profile = profile_quadrature(surface, eps)
        runs.append(list(calls))
    assert runs[0] == runs[1]
    assert len(runs[0]) == profile.cells
    assert {c[0] for c in runs[0]} == {0}
    names = [c[1] for c in runs[0]]
    assert names == ["cosh_power"] * (len(names) - 2) + ["_arc"] * 2


@pytest.mark.parametrize("eps", [0.3, 0.05, 1e-3, 1e-6])
@pytest.mark.parametrize("deep", [1e-8, 1e-9, 2e-10])
def test_end_term_is_the_theta_zero_wedge_slice(eps, deep):
    # README genus 1 has no core: its oracle volume is the total end length
    # times the theta = 0 wedge oracle of a unit leaf, bit for bit, alone
    # and in a batch with a deeper level
    surface = surface_invariants(build_group(parse_config(README_GENUS1)))
    assert surface.core_area == 0.0
    wedge = wedge_volume_quadrature((PleatLeaf(1.0, 0.0),), eps)[0][0]
    alone = truncated_volume_quadrature(surface, eps)
    batched = profile_quadrature(surface, [eps, deep]).samples[0][1]
    assert alone.hex() == batched.hex() == (surface.total_end_length * wedge).hex()


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
    profile = closed_profile(surface_terms(surface_s1), default_eps_grid(), Convention.DERIVED)
    fit = expansion_fit(profile)
    assert fit.v == pytest.approx(-math.pi, abs=1e-6)


def test_fit_of_paper_profile_gives_half_constant(surface_s1):
    profile = closed_profile(surface_terms(surface_s1), default_eps_grid(), Convention.PAPER)
    fit = expansion_fit(profile)
    assert fit.v == pytest.approx(-2.0 * math.pi, abs=1e-6)


def test_fit_of_quadrature_profile(surface_s1):
    profile = profile_quadrature(surface_s1, default_eps_grid())
    fit = expansion_fit(profile)
    assert fit.v == pytest.approx(-math.pi, abs=1e-4)
    assert fit.residual <= 1e-5 * max(v for _, v in profile.samples)


def test_fit_stable_under_grid_shift(surface_s1):
    base = expansion_fit(profile_quadrature(surface_s1, default_eps_grid()))
    shifted_grid = default_eps_grid(eps_min=5e-4, eps_max=0.15)
    shifted = expansion_fit(profile_quadrature(surface_s1, shifted_grid))
    assert abs(base.v - shifted.v) < 1e-4


# ------------------------------------------------------ renormalized volumes

def test_renormalized_volume_no_ends_is_zero():
    surface = core_only_surface()
    assert renormalized_volume(surface_terms(surface), Convention.PAPER) == 0.0
    assert renormalized_volume(surface_terms(surface), Convention.DERIVED) == 0.0


def test_renormalized_volume_worked_example(surface_s1):
    assert renormalized_volume(surface_terms(surface_s1), Convention.PAPER) == (
        pytest.approx(-2.0 * math.pi, rel=1e-14)
    )
    assert renormalized_volume(surface_terms(surface_s1), Convention.DERIVED) == (
        pytest.approx(-math.pi, rel=1e-14)
    )


def test_renormalized_volume_linear_in_lengths(surface_adjacent):
    doubled = scaled_surface(surface_adjacent, 2.0)
    for conv in Convention:
        v1 = renormalized_volume(surface_terms(surface_adjacent), conv)
        v2 = renormalized_volume(surface_terms(doubled), conv)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_ratio_constant_across_groups(surface_s1, surface_adjacent, surface_crossed):
    ratios = []
    for surface in (surface_s1, surface_adjacent, surface_crossed):
        fit = expansion_fit(profile_quadrature(surface, default_eps_grid()))
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
    assert profile.samples == ((0.2, 1.0), (0.1, 2.0))
    assert (profile.cells, profile.bounds) == (0, ())
    # a pleated core with no bending and no boundary has a constant profile
    constant = VolumeProfile(((0.2, 2.0), (0.1, 2.0)), "quadrature")
    assert [v for _, v in constant.samples] == [2.0, 2.0]


def test_default_grid_shape():
    grid = default_eps_grid()
    assert len(grid) == 12
    assert grid[0] == pytest.approx(0.3)
    assert grid[-1] == pytest.approx(1e-3)
    assert all(a > b for a, b in zip(grid, grid[1:]))
