import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate as scipy_integrate

import corevol
from corevol import quadrature
from corevol.pleated import PleatLeaf, wedge_volume_quadrature
from corevol.quadrature import QuadratureError, adaptive_quad, adaptive_quad_batch
from corevol.renvol import _end_cylinder_integrals, level_lambda


def test_polynomial_is_exact_in_one_cell():
    value, err = adaptive_quad(lambda x: x ** 10, 0.0, 1.0, rel_tol=1e-12)
    assert value == pytest.approx(1.0 / 11.0, rel=1e-14)
    assert err <= 1e-12


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: np.cosh(x) ** 2, 0.0, 3.0),
        (lambda x: 1.0 / (1.0 + x ** 2), 0.0, 10.0),
        (lambda x: np.sqrt(np.clip(1.0 - x, 0.0, None)), 0.0, 1.0),
        (lambda x: np.exp(-x) * np.sin(8.0 * x), 0.0, 6.0),
    ],
)
def test_agrees_with_scipy_quad(f, a, b):
    mine, _ = adaptive_quad(f, a, b, rel_tol=1e-11)
    ref, _ = scipy_integrate.quad(lambda x: float(f(np.array([x]))[0]), a, b,
                                  epsabs=1e-13, epsrel=1e-13)
    assert mine == pytest.approx(ref, rel=1e-9)


def test_empty_interval_is_zero():
    assert adaptive_quad(np.cosh, 2.0, 2.0) == (0.0, 0.0)


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_quad(np.cosh, 1.0, 0.0)


def test_cell_budget_exhaustion_raises(monkeypatch):
    # integrable endpoint singularity, but far too few cells allowed
    monkeypatch.setattr(quadrature, "MAX_CELLS", 8)
    with pytest.raises(QuadratureError, match="within 8 cells"):
        adaptive_quad(lambda x: np.clip(x, 1e-300, None) ** -0.9, 0.0, 1.0,
                      rel_tol=1e-12)


def test_nonfinite_integrand_reported():
    with pytest.raises(QuadratureError, match="not finite"):
        adaptive_quad(lambda x: np.where(x > 0.0, x, np.nan), -1.0, 1.0)


def test_deterministic_across_runs():
    f = lambda x: np.sqrt(np.clip(1.0 - x ** 2, 0.0, None))
    first = adaptive_quad(f, -1.0, 1.0, rel_tol=1e-10)
    second = adaptive_quad(f, -1.0, 1.0, rel_tol=1e-10)
    assert first == second
    assert first[0] == pytest.approx(math.pi / 2.0, rel=1e-10)


# ------------------------------------------------------------ batched engine

def _reference_quad(f, a, b, rel_tol):
    """Per-interval reference: the one-interval refinement loop, summing the
    cells with a plain 1-d sum in left-to-right order."""
    def cells(lefts, rights):
        centers, halves = 0.5 * (lefts + rights), 0.5 * (rights - lefts)
        vals = f(centers[:, None] + halves[:, None] * quadrature._XGK[None, :])
        kron = (vals * quadrature._WGK[None, :]).sum(axis=1) * halves
        gauss = (vals[:, 1::2] * quadrature._WG[None, :]).sum(axis=1) * halves
        return kron, np.abs(kron - gauss)

    lefts, rights = np.array([a]), np.array([b])
    vals, errs = cells(lefts, rights)
    while True:
        order = np.argsort(lefts, kind="stable")
        lefts, rights, vals, errs = lefts[order], rights[order], vals[order], errs[order]
        total, total_err = float(vals.sum()), float(errs.sum())
        tol = rel_tol * abs(total)
        if total_err <= tol:
            return total, total_err
        split = errs > tol / len(lefts)
        if not split.any():
            split = errs >= errs.max()
        mids = 0.5 * (lefts[split] + rights[split])
        new_l = np.concatenate([lefts[split], mids])
        new_r = np.concatenate([mids, rights[split]])
        new_v, new_e = cells(new_l, new_r)
        lefts = np.concatenate([lefts[~split], new_l])
        rights = np.concatenate([rights[~split], new_r])
        vals = np.concatenate([vals[~split], new_v])
        errs = np.concatenate([errs[~split], new_e])


def _kinked(x, c):
    return np.sqrt(np.abs(x - c)) * np.cosh(0.3 * x) + np.sin(3.0 * x)


def test_batch_equals_per_interval_calls_bitwise():
    rng = np.random.default_rng(7)
    a = rng.uniform(-3.0, 1.0, 50)
    b = a + rng.uniform(0.01, 4.0, 50)
    c = rng.uniform(-3.0, 5.0, 50)  # kink, often outside its interval
    values, errors = adaptive_quad_batch(lambda x, k: _kinked(x, c[k]), a, b,
                                         rel_tol=1e-10)
    for k in range(50):
        one = adaptive_quad(lambda x: _kinked(x, c[k]), a[k], b[k], rel_tol=1e-10)
        ref = _reference_quad(lambda x: _kinked(x, c[k]), a[k], b[k], 1e-10)
        assert (values[k], errors[k]) == one == ref


def test_batch_agrees_with_scipy_quad_vec():
    rng = np.random.default_rng(8)
    a = rng.uniform(0.0, 1.0, 20)
    b = a + rng.uniform(0.1, 5.0, 20)
    w = rng.uniform(1.0, 9.0, 20)
    values, _ = adaptive_quad_batch(lambda x, k: np.exp(-x) * np.cos(w[k] * x), a, b,
                                    rel_tol=1e-11)
    # quad_vec integrates over one common interval: map each onto [0, 1]
    ref, _ = scipy_integrate.quad_vec(
        lambda s: (b - a) * np.exp(-(a + s * (b - a))) * np.cos(w * (a + s * (b - a))),
        0.0, 1.0, epsabs=0.0, epsrel=1e-13)
    np.testing.assert_allclose(values, ref, rtol=1e-9, atol=1e-13)


def test_batch_zero_width_and_reversed_like_scalar():
    values, errors = adaptive_quad_batch(lambda x, k: np.cosh(x), [2.0, 0.0, 5.0],
                                         [2.0, 1.0, 5.0])
    assert (values[0], errors[0]) == adaptive_quad(np.cosh, 2.0, 2.0) == (0.0, 0.0)
    assert (values[2], errors[2]) == (0.0, 0.0)
    assert (values[1], errors[1]) == adaptive_quad(np.cosh, 0.0, 1.0)
    with pytest.raises(ValueError, match="out of order"):
        adaptive_quad_batch(lambda x, k: np.cosh(x), [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="out of order"):
        adaptive_quad(np.cosh, 1.0, 0.0)


def test_batch_unconvergeable_member_raises(monkeypatch):
    def f(x, k):
        return np.where(k == 3, np.clip(x, 1e-300, None) ** -0.9, np.cosh(x))

    monkeypatch.setattr(quadrature, "MAX_CELLS", 8)
    values, _ = adaptive_quad_batch(f, 0.0, [1.0, 2.0, 3.0], rel_tol=1e-12)
    assert values == pytest.approx(np.sinh([1.0, 2.0, 3.0]), rel=1e-12)
    with pytest.raises(QuadratureError, match="within 8 cells"):
        adaptive_quad_batch(f, 0.0, [1.0, 2.0, 3.0, 1.0], rel_tol=1e-12)


def test_batch_splits_worst_cells_when_none_exceeds_its_share(monkeypatch):
    # three unit cells summing to tol, each of error tol / 3 at rel_tol 1:
    # none is above its share of tol, yet their errors sum above tol, so the
    # worst cells (all three) are split into halves of value 1 and error 0
    tol = 0.9046800706458055
    assert np.full(3, tol / 3.0).sum() > tol

    def fake_eval(f, cells):
        unit = cells[1] - cells[0] == 1.0
        value = np.where(unit, np.where(cells[0] == 0.0, tol, 0.0), 1.0)
        return np.concatenate([cells, [value, np.where(unit, tol / 3.0, 0.0)]])

    monkeypatch.setattr(quadrature, "_eval_cells", fake_eval)
    cells = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    values, errors = quadrature._refine(None, cells, 1, 1.0)
    assert (values[0], errors[0]) == (6.0, 0.0)


# ------------------------------------------- oracles against 50-digit values

END_CYLINDER_EPS = (0.3, 0.05, 1e-2, 1e-3, 1e-4)


@functools.cache
def end_cylinder_batch(rel_tol):
    """eps -> (value, error estimate), all levels integrated in one batch."""
    lams = np.array([level_lambda(eps) for eps in END_CYLINDER_EPS])
    values, errors = _end_cylinder_integrals(lams, rel_tol)
    return dict(zip(END_CYLINDER_EPS, zip(values.tolist(), errors.tolist())))


@pytest.mark.parametrize("eps", END_CYLINDER_EPS)
@pytest.mark.parametrize("rel_tol", [1e-9, 2e-10])
def test_end_cylinder_integral_matches_mpmath(eps, rel_tol):
    with mpmath.workdps(50):
        lam = -mpmath.log(mpmath.mpf(eps))
        exact = mpmath.pi / 2 * mpmath.sinh(lam) ** 2
    value, err = end_cylinder_batch(rel_tol)[eps]
    assert abs(value - exact) <= rel_tol * exact
    assert err <= rel_tol * value


@pytest.mark.parametrize("lam", [1.2, 5.0, 9.2])
def test_end_cylinder_integral_is_exact_to_roundoff(lam):
    # the square-root endpoint at r = lam is smoothed away, so a converged
    # integral is far more accurate than the requested tolerance
    with mpmath.workdps(50):
        exact = mpmath.pi / 2 * mpmath.sinh(mpmath.mpf(lam)) ** 2
    values, _ = _end_cylinder_integrals(np.array([lam]), 1e-8)
    assert abs(values[0] - exact) <= 1e-12 * exact


@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 3.0, math.pi / 2.0,
                                   2.0 * math.pi / 3.0, 2.5])
@pytest.mark.parametrize("length, eps", [(0.5, 0.2), (2.0, 1e-2), (3.0, 1e-3)])
def test_wedge_oracle_matches_mpmath(theta, length, eps):
    # exact to roundoff at any accepted tolerance: the arc endpoint is
    # smoothed away and the z integral is done in closed form
    with mpmath.workdps(50):
        lam = -mpmath.log(mpmath.mpf(eps))
        exact = (mpmath.pi - mpmath.mpf(theta)) * length * mpmath.sinh(lam) ** 2 / 2
    for tol in (1e-8, 1e-10):
        value = wedge_volume_quadrature((PleatLeaf(length, theta),), eps, tol=tol)[0][0]
        assert abs(value - exact) <= 1e-14 * exact, tol


@pytest.mark.parametrize("theta", [0.0, math.pi / 3.0, math.pi / 2.0,
                                   2.0 * math.pi / 3.0, math.pi])
@pytest.mark.parametrize("length, eps", [(0.5, 0.2), (2.0, 1e-2), (3.0, 1e-3)])
def test_wedge_error_estimate_bounds_the_true_error(theta, length, eps):
    # theta = pi is the flat leaf, volume exactly 0 (math.pi falls short of pi)
    with mpmath.workdps(50):
        lam = -mpmath.log(mpmath.mpf(eps))
        bend = mpmath.pi - mpmath.mpf(theta) if theta < math.pi else 0
        exact = bend * length * mpmath.sinh(lam) ** 2 / 2
    for tol in (1e-8, 1e-10):
        values, errors = wedge_volume_quadrature((PleatLeaf(length, theta),), eps, tol=tol)
        assert abs(values[0] - exact) <= errors[0], tol


def test_cli_import_does_not_load_scipy():
    src = str(Path(corevol.__file__).resolve().parents[1])
    code = "import sys, corevol.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
