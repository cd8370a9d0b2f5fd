import ast
import functools
import hashlib
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from corevol import quadrature
from corevol.pleated import PleatLeaf, wedge_volume_quadrature
from corevol.quadrature import adaptive_quad, cosh_squared_slabs
from corevol import cli, renvol
from corevol.renvol import _sector_areas, default_eps_grid, level_lambda

U = 2.0 ** -53
SRC = Path(__file__).resolve().parents[1] / "src" / "corevol"


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
    with pytest.raises(RuntimeError, match="within 8 cells"):
        adaptive_quad(lambda x: np.clip(x, 1e-300, None) ** -0.9, 0.0, 1.0,
                      rel_tol=1e-12)


def test_nonfinite_integrand_reported():
    with pytest.raises(RuntimeError, match="not finite"):
        adaptive_quad(lambda x: np.where(x > 0.0, x, np.nan), -1.0, 1.0)


def test_deterministic_across_runs():
    f = lambda x: np.sqrt(np.clip(1.0 - x ** 2, 0.0, None))
    first = adaptive_quad(f, -1.0, 1.0, rel_tol=1e-10)
    second = adaptive_quad(f, -1.0, 1.0, rel_tol=1e-10)
    assert first == second
    assert first[0] == pytest.approx(math.pi / 2.0, rel=1e-10)


# ------------------------------------------------------ batched certified engine

def test_no_builtin_sum_in_src():
    # the builtin sum adds floats with compensation from Python 3.12 on, so a
    # value it summed would move with the Python version: every float sum in
    # corevol is a left-to-right functools.reduce instead
    uses = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and node.id == "sum"]
    assert uses == []


def test_batch_equals_per_interval_calls_bitwise():
    # a slab is the same sum of the same cells, whatever its batch; the
    # batch evaluates the full cells it shares once
    lams = np.random.default_rng(7).uniform(1e-3, 20.0, 50).tolist()
    values, errors, cells = cosh_squared_slabs(lams)
    singles = [cosh_squared_slabs([lam]) for lam in lams]
    assert [(v, e) for v, e in zip(values, errors)] == [(s[0][0], s[1][0]) for s in singles]
    width = 2.0 * quadrature._widest_cell()[0]
    assert cells == int(max(lams) // width) + len(lams)
    assert cells < sum(s[2] for s in singles)


def test_batch_agrees_with_scipy_quad_vec():
    lams = np.random.default_rng(8).uniform(0.1, 6.0, 20)
    values, _, _ = cosh_squared_slabs(lams.tolist())
    # quad_vec integrates over one common interval: map each [0, lam] onto [0, 1]
    ref, _ = scipy_integrate.quad_vec(
        lambda s: lams * np.cosh(s * lams) ** 2, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)
    np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)


def test_batch_unconvergeable_member_raises():
    # cosh^2 overflows past x = 355, in the second slab's cells: that slab
    # and its bound read inf, and the first is bitwise its value alone
    values, errors, _ = cosh_squared_slabs([1.0, 400.0])
    assert (values[0], errors[0]) == tuple(part[0] for part in cosh_squared_slabs([1.0])[:2])
    assert math.isfinite(values[0]) and values[1:] == errors[1:] == [math.inf]


def test_certified_partitions_stay_within_a_few_cells(monkeypatch):
    # the arc piece of a sector takes at most 2 cells at every theta in
    # [0, pi] (the kink as _sector_areas places it) ...
    thetas = [math.pi * i / 100_000 for i in range(100_001)]
    for theta in thetas + [0.0, 5e-324, 1e-300, math.nextafter(math.pi, 0.0)]:
        s_kink = math.cos(0.5 * theta) / math.sqrt(1.0 + math.sin(0.5 * theta))
        assert renvol._arc_partition(s_kink)[0] <= 2, theta
    # ... the slab at the CLI's eps floor takes 122 ...
    assert cosh_squared_slabs([level_lambda(cli.EPS_FLOOR)])[2] == 122
    # ... a slab past the float64 range stops at its 126th cell, whose sum is inf ...
    cells = []
    cell = quadrature._cell
    monkeypatch.setattr(quadrature, "_cell", lambda *args: cells.append(args) or cell(*args))
    assert cosh_squared_slabs([1e6]) == ([math.inf], [math.inf], 126)
    assert len(cells) == 126
    # ... and a sector area is finite at the deepest level _sinh_squared takes
    eps = 7.458340731200208e-155
    areas, errors, _ = _sector_areas([eps] * 3, [0.0, 1.0, math.pi / 2.0])
    assert all(map(math.isfinite, areas + errors))
    with pytest.raises(ValueError, match="leaves the float64 range"):
        _sector_areas([math.nextafter(eps, 0.0)], [0.0])


# the slab rule's bits at levels the goldens do not reach (eps below 1e-3
# and above 0.3): sha256 of the float.hex values then bounds, and the cells
# evaluated
SLAB_EPS = (1e-150, 1e-77, 1e-12, 1e-6, 1e-3, 0.3, 0.5, 0.9, 1.0 - 2.0 ** -53)
SLAB_PIN = ("c53f0d8341be025069b7bdbe47a0406e0ebc2ec0e653eb36658c886c25e72a6b", 130)


def test_slab_bits_are_pinned():
    values, bounds, cells = cosh_squared_slabs([level_lambda(e) for e in SLAB_EPS])
    digest = hashlib.sha256(",".join(map(float.hex, values + bounds)).encode()).hexdigest()
    assert (digest, cells) == SLAB_PIN


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


def _rounding_level(lam, cells):
    """The relative bound a slab of depth lam summed from `cells` cells may
    claim: a truncation bound of at most u per cell, and rounding."""
    return (17.0 + cells + 4.0 * lam) * U


@pytest.mark.parametrize("eps_min", [1e-10, 1e-9, 3e-8, 1e-6])
def test_certified_bound_covers_the_true_error(eps_min):
    # fixed levels, and the default grid's down to eps_min
    lams = [0.5, 1.2, 3.7, 4.9, 9.2, 9.3, 13.8, 20.0, 27.6, 28.0]
    lams += [level_lambda(e) for e in default_eps_grid(eps_min)]
    values, bounds, _ = cosh_squared_slabs(lams)
    width = 2.0 * quadrature._widest_cell()[0]
    with mpmath.workdps(50):
        for lam, value, bound in zip(lams, values, bounds):
            assert abs(value - _cosh_squared_integral(lam)) <= bound, lam
            cells = math.ceil(lam / width)
            assert bound <= _rounding_level(lam, cells) * value * (1.0 + 4.0 * U), lam


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_eps_min=st.floats(math.log(1e-150), math.log(0.5)), count=st.integers(8, 64),
       data=st.data())
def test_slab_rule_on_random_grids(log_eps_min, count, data):
    # any grid, unsorted and with repeated levels: each bound covers the
    # 50-digit error at rounding level, each value is bit for bit that of
    # the level alone, and the batch evaluates each full cell of the grid
    # once and each level's last cell
    eps = default_eps_grid(math.exp(log_eps_min), 0.9, count)
    lams = data.draw(st.permutations([level_lambda(e) for e in eps]))
    lams += data.draw(st.lists(st.sampled_from(lams), max_size=4))
    values, bounds, cells = cosh_squared_slabs(lams)
    width = 2.0 * quadrature._widest_cell()[0]
    with mpmath.workdps(50):
        for lam, value, bound in zip(lams, values, bounds):
            assert abs(value - _cosh_squared_integral(lam)) <= bound, lam
            full = int(lam // width)
            m = full + (full * width < lam)
            assert bound <= _rounding_level(lam, m) * value * (1.0 + 4.0 * U), lam
    assert [cosh_squared_slabs([lam])[:2] for lam in lams] == [
        ([v], [b]) for v, b in zip(values, bounds)]
    assert cells == int(max(lams) // width) + sum(int(lam // width) * width < lam
                                                  for lam in lams)


def test_certified_partition_widths(monkeypatch):
    # the cells are 2.8331 wide, the widest whose bound is at most u; each
    # full cell is evaluated once, when the first level above it needs it,
    # and every level adds its own last cell
    calls = []
    cell = quadrature._cell

    def counted(f, left, right):
        calls.append((left, right))
        return cell(f, left, right)

    monkeypatch.setattr(quadrature, "_cell", counted)
    width = 2.0 * quadrature._widest_cell()[0]
    assert width == pytest.approx(2.8331, abs=5e-5)
    _, _, cells = cosh_squared_slabs([2.83, 2.84, 5.66, 5.67])
    assert calls == [(0.0, 2.83), (0.0, width), (width, 2.84), (width, 5.66),
                     (width, 2.0 * width), (2.0 * width, 5.67)]
    assert cells == len(calls) == 6


# ------------------------------------------- oracles against 50-digit values

END_CYLINDER_EPS = (0.3, 0.05, 1e-2, 1e-3, 1e-4)


def end_term(eps_values):
    """renvol's oracle for a unit-length end at each level eps_values[k]:
    the half-disk slice of radius sinh(lam), as _truncated_volumes calls
    it.  Returns (values, error bounds)."""
    return _sector_areas(eps_values, [0.0] * len(eps_values))[:2]


@functools.cache
def end_cylinder_batch(deep):
    """eps -> (value, error bound), all levels and a deeper one integrated
    in one batch."""
    values, errors = end_term(END_CYLINDER_EPS + (deep,))
    return dict(zip(END_CYLINDER_EPS, zip(values, errors)))


@pytest.mark.parametrize("eps", END_CYLINDER_EPS)
@pytest.mark.parametrize("deep", [1e-9, 2e-10])
def test_end_cylinder_integral_matches_mpmath(eps, deep):
    with mpmath.workdps(50):
        lam = -mpmath.log(mpmath.mpf(eps))
        exact = mpmath.pi / 2 * mpmath.sinh(lam) ** 2
    value, err = end_cylinder_batch(deep)[eps]
    assert abs(value - exact) <= err <= 100 * U * value


@pytest.mark.parametrize("lam", [1.2, 5.0, 9.2])
def test_end_cylinder_integral_is_exact_to_roundoff(lam):
    # the square-root endpoint at x = sinh(lam) is smoothed away, so the
    # certified partition is accurate to rounding
    eps = math.exp(-lam)
    with mpmath.workdps(50):
        exact = mpmath.pi / 2 * mpmath.sinh(-mpmath.log(mpmath.mpf(eps))) ** 2
    values, _ = end_term([eps])
    assert abs(values[0] - exact) <= 2e-15 * exact


@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 3.0, math.pi / 2.0,
                                   2.0 * math.pi / 3.0, 2.5])
@pytest.mark.parametrize("length, eps", [(0.5, 0.2), (2.0, 1e-2), (3.0, 1e-3)])
def test_wedge_oracle_matches_mpmath(theta, length, eps):
    # exact to roundoff: the arc endpoint is smoothed away and the z
    # integral is done in closed form
    with mpmath.workdps(50):
        lam = -mpmath.log(mpmath.mpf(eps))
        exact = (mpmath.pi - mpmath.mpf(theta)) * length * mpmath.sinh(lam) ** 2 / 2
    value = wedge_volume_quadrature((PleatLeaf(length, theta),), eps)[0][0]
    assert abs(value - exact) <= 1e-14 * exact


@pytest.mark.parametrize("theta", [0.0, math.pi / 3.0, math.pi / 2.0,
                                   2.0 * math.pi / 3.0, math.pi])
@pytest.mark.parametrize("length, eps", [(0.5, 0.2), (2.0, 1e-2), (3.0, 1e-3)])
def test_wedge_error_estimate_bounds_the_true_error(theta, length, eps):
    # theta = pi is the flat leaf, volume exactly 0 (math.pi falls short of pi)
    with mpmath.workdps(50):
        lam = -mpmath.log(mpmath.mpf(eps))
        bend = mpmath.pi - mpmath.mpf(theta) if theta < math.pi else 0
        exact = bend * length * mpmath.sinh(lam) ** 2 / 2
    values, errors, _ = wedge_volume_quadrature((PleatLeaf(length, theta),), eps)
    assert abs(values[0] - exact) <= errors[0]


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
       eps=st.floats(1e-12, 0.9))
def test_wedge_error_bound_covers_the_50_digit_error(theta, eps):
    # the certified bound: truncation proved on the Bernstein ellipse plus
    # rounding, so it covers the true error wherever the sector is, and it
    # is at rounding level
    values, errors, _ = wedge_volume_quadrature((PleatLeaf(1.0, theta),), eps)
    assert abs(values[0] - _exact_wedge(theta, 1.0, eps)) <= errors[0]
    assert errors[0] <= 100 * U * values[0]
