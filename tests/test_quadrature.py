import functools
import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from corevol import quadrature
from corevol.pleated import PleatLeaf, wedge_volume_quadrature
from corevol.quadrature import QuadratureError, adaptive_quad, cosh_squared_slabs
from corevol.renvol import _sector_areas, level_lambda


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
    with pytest.raises(ValueError, match=r"^integration bounds out of order: \[1\.0, 0\.0\]$"):
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


# ------------------------------------------------------ batched certified engine

def test_batch_equals_per_interval_calls_bitwise():
    # a slab is partitioned and summed on its own, whatever its batch
    lams = np.random.default_rng(7).uniform(1e-3, 20.0, 50).tolist()
    for rel_tol in (1e-9 / 4.0, 1e-6):
        values, errors, cells = cosh_squared_slabs(lams, rel_tol=rel_tol)
        singles = [cosh_squared_slabs([lam], rel_tol=rel_tol) for lam in lams]
        assert [(v, e) for v, e in zip(values, errors)] == [(s[0][0], s[1][0]) for s in singles]
        assert cells == sum(s[2] for s in singles)


def test_batch_agrees_with_scipy_quad_vec():
    lams = np.random.default_rng(8).uniform(0.1, 6.0, 20)
    values, _, _ = cosh_squared_slabs(lams.tolist(), rel_tol=1e-11)
    # quad_vec integrates over one common interval: map each [0, lam] onto [0, 1]
    ref, _ = scipy_integrate.quad_vec(
        lambda s: lams * np.cosh(s * lams) ** 2, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)
    np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)


def test_batch_unconvergeable_member_raises(monkeypatch):
    # cosh^2 overflows past x = 355, in the second slab's cells
    with pytest.raises(QuadratureError, match="not finite") as failed:
        cosh_squared_slabs([1.0, 400.0], rel_tol=1e-12)
    assert failed.value.owner == 1
    # the widest certified cosh^2 cell at 1e-12 is about 4.0 wide: the first
    # three slabs fit in 8 cells, the fourth needs more and owns the
    # failure, before any cell is evaluated
    monkeypatch.setattr(quadrature, "MAX_CELLS", 8)
    lams = [1.0, 2.0, 3.0]
    values, _, _ = cosh_squared_slabs(lams, rel_tol=1e-12)
    assert values == pytest.approx([lam / 2 + math.sinh(2 * lam) / 4 for lam in lams], rel=1e-12)
    with pytest.raises(QuadratureError, match="within 8 cells") as failed:
        cosh_squared_slabs(lams + [100.0], rel_tol=1e-12)
    assert failed.value.owner == 3


# the slab rule's bits at levels the goldens do not reach (eps below 1e-3
# and above 0.3), at the oracle's slab tolerance tol / 4 for tol 1e-10,
# 1e-9, 1e-8 and 0.99: sha256 of the float.hex values then bounds, and the
# cells evaluated
SLAB_EPS = (1e-150, 1e-77, 1e-12, 1e-6, 1e-3, 0.3, 0.5, 0.9, 1.0 - 2.0 ** -53)
SLAB_PINS = {
    2.5e-11: ("bcc440f95f944894b6770caeba40e6b0c54b8e7d4edb9e5d7eb54fe33c66db90", 135),
    2.5e-10: ("fb5cb14c8c07b91ab7cbc1f1512821c0a7c1914a5f7005817c69724b5221e956", 124),
    2.5e-9: ("0ea8a565755bf87259e02dcee1ed8a341eb31eac42f543972780749227324d10", 115),
    0.2475: ("25f222bbc334c26830f27a6bb913220728d33b7bed5a32cbe521313879f8698b", 66),
}


@pytest.mark.parametrize("rel_tol", sorted(SLAB_PINS))
def test_slab_bits_are_pinned(rel_tol):
    values, bounds, cells = cosh_squared_slabs([level_lambda(e) for e in SLAB_EPS],
                                               rel_tol=rel_tol)
    digest = hashlib.sha256(",".join(map(float.hex, values + bounds)).encode()).hexdigest()
    assert (digest, cells) == SLAB_PINS[rel_tol]


def test_adaptive_quad_halves_the_worst_cell(monkeypatch):
    # sqrt is worst in the cell at 0, so each halving splits the leftmost
    # cell and leaves the smooth cells to its right alone
    calls = []
    cell = quadrature._cell

    def counted(f, left, right):
        calls.append((left, right))
        return cell(f, left, right)

    monkeypatch.setattr(quadrature, "_cell", counted)
    value, err = adaptive_quad(math.sqrt, 0.0, 1.0, rel_tol=1e-8)
    assert value == pytest.approx(2.0 / 3.0, rel=1e-8)
    assert err <= 1e-8 * value
    halvings = (len(calls) - 1) // 2
    assert halvings > 3
    assert calls == [(0.0, 1.0)] + [cell for k in range(1, halvings + 1)
                                    for cell in ((0.0, 2.0 ** -k), (2.0 ** -k, 2.0 ** (1 - k)))]


# ------------------------------------------------------- qk15 constants

@pytest.mark.parametrize("weights", ["_WGK", "_WG"])
def test_each_weight_set_sums_to_two(weights):
    # a constant cut to 15 digits leaves the Kronrod sum 6e-15 short
    total = math.fsum(getattr(quadrature, weights))
    assert abs(total - 2.0) <= 2.0 * math.ulp(2.0)


def test_rules_are_exact_to_their_degree():
    x = [mpmath.mpf(v) for v in quadrature._XGK]
    for weights, nodes, degree in [(quadrature._WGK, x, 22), (quadrature._WG, x[1::2], 13)]:
        for d in range(degree + 1):
            rule = mpmath.fsum(mpmath.mpf(w) * v ** d for w, v in zip(weights, nodes))
            exact = mpmath.mpf(2) / (d + 1) if d % 2 == 0 else 0
            assert abs(rule - exact) <= 4e-16, (len(nodes), d)


# ------------------------------------------ certified one-pass cosh^2 slabs

def _cosh_squared_integral(lam):
    lam = mpmath.mpf(lam)
    return lam / 2 + mpmath.sinh(2 * lam) / 4


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-9, 3e-8, 1e-6])
def test_certified_bound_covers_the_true_error(rel_tol):
    lams = [0.5, 1.2, 3.7, 4.9, 9.2, 9.3, 13.8, 20.0, 27.6, 28.0]
    values, bounds, _ = cosh_squared_slabs(lams, rel_tol=rel_tol)
    with mpmath.workdps(50):
        for lam, value, bound in zip(lams, values, bounds):
            assert abs(value - _cosh_squared_integral(lam)) <= bound, lam
    assert all(bound <= (rel_tol + 1e-12) * value for value, bound in zip(values, bounds))


def test_certified_partition_widths(monkeypatch):
    # the widest cell that meets the oracle's slab tolerance (tol 1e-9 / 4)
    # is 4.855 wide; each slab is cut into that many equal cells, every cell
    # evaluated once, in order
    calls = []
    cell = quadrature._cell

    def counted(f, left, right):
        calls.append((left, right))
        return cell(f, left, right)

    monkeypatch.setattr(quadrature, "_cell", counted)
    _, _, cells = cosh_squared_slabs([4.85, 4.86, 9.71, 9.72], rel_tol=1e-9 / 4.0)
    # every slab starts at 0, so each opens with a cell there
    starts = [k for k, (left, _) in enumerate(calls) if left == 0.0] + [len(calls)]
    assert [j - i for i, j in zip(starts, starts[1:])] == [1, 2, 2, 3]
    assert cells == len(calls) == 8


# ------------------------------------------- oracles against 50-digit values

END_CYLINDER_EPS = (0.3, 0.05, 1e-2, 1e-3, 1e-4)


def end_term(eps_values, rel_tol):
    """renvol's oracle for a unit-length end at each level eps_values[k]:
    the half-disk slice of radius sinh(lam), as _truncated_volumes calls
    it.  Returns (values, error bounds)."""
    return _sector_areas(eps_values, [0.0] * len(eps_values), rel_tol)[:2]


@functools.cache
def end_cylinder_batch(rel_tol):
    """eps -> (value, error bound), all levels integrated in one batch."""
    values, errors = end_term(END_CYLINDER_EPS, rel_tol)
    return dict(zip(END_CYLINDER_EPS, zip(values, errors)))


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
    # the square-root endpoint at x = sinh(lam) is smoothed away, so a
    # converged integral is far more accurate than the requested tolerance
    eps = math.exp(-lam)
    with mpmath.workdps(50):
        exact = mpmath.pi / 2 * mpmath.sinh(-mpmath.log(mpmath.mpf(eps))) ** 2
    values, _ = end_term([eps], 1e-8)
    assert abs(values[0] - exact) <= 2e-15 * exact


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
        values, errors, _ = wedge_volume_quadrature((PleatLeaf(length, theta),), eps, tol=tol)
        assert abs(values[0] - exact) <= errors[0], tol


def _exact_wedge(theta, length, eps):
    """50-digit wedge volume; theta = pi is the flat leaf, volume exactly 0
    (math.pi falls short of pi)."""
    with mpmath.workdps(50):
        lam = -mpmath.log(mpmath.mpf(eps))
        bend = mpmath.pi - mpmath.mpf(theta) if theta < math.pi else 0
        return bend * length * mpmath.sinh(lam) ** 2 / 2


RIGHT = math.pi / 2.0
EDGE_THETAS = [0.0, 5e-324, 1e-300, 1e-9, RIGHT, math.nextafter(RIGHT, 0.0),
               math.nextafter(RIGHT, 4.0), RIGHT - 1e-4, RIGHT + 1e-4, RIGHT - 1e-7,
               RIGHT + 1e-7, 1.5707963, 1.5707, 3.14159, math.pi - 1e-9,
               math.nextafter(math.pi, 0.0), math.pi]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(theta=st.one_of(st.sampled_from(EDGE_THETAS), st.floats(0.0, math.pi)),
       eps=st.floats(1e-12, 0.9), tol=st.floats(1e-10, 1e-6))
def test_wedge_error_bound_covers_the_50_digit_error(theta, eps, tol):
    # the certified bound: truncation proved on the Bernstein ellipse plus
    # rounding, so it covers the true error wherever the sector is
    values, errors, _ = wedge_volume_quadrature((PleatLeaf(1.0, theta),), eps, tol=tol)
    assert abs(values[0] - _exact_wedge(theta, 1.0, eps)) <= errors[0]
    assert errors[0] <= tol * values[0]


def test_sector_tolerance_is_checked_on_the_sector_total():
    # a bound of some 50 u cannot meet 1e-16, and the sector owns the failure
    assert _sector_areas([0.3], [1.0], 1e-10)[2] == 2
    with pytest.raises(QuadratureError, match=r"^tolerance 1\.000e-16 \(relative\) not met") as e:
        _sector_areas([0.3, 0.2], [math.pi, 1.0], 1e-16)
    assert e.value.owner == 1
