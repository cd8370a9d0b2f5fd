"""Gauss-Kronrod quadrature in plain Python: one GK15 cell evaluator.

cosh_squared_slabs integrates cosh^2 over the slab [0, lam] of each level,
and renvol's sector slice its own integrand, on partitions fixed in advance
whose error is proved to be at rounding level: no tolerance is asked for.
adaptive_quad bisects one interval, worst cell first, on the Kronrod-Gauss
error estimate.  A slab's value is the sum of its cells in left-to-right
order, so it does not depend on the rest of a batch, and it is identical
across runs.
"""

from __future__ import annotations

import functools
import math
import operator

# 15-point Kronrod nodes on [-1, 1] and weights, QUADPACK's qk15 constants
# to 33 digits (Piessens et al. 1983); the odd-index nodes carry the
# embedded 7-point Gauss rule.  Each weight set sums to 2 within an ulp, as
# the certified bound below needs.
_XGK = (
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144838258730, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
)

# cells adaptive_quad may cut one interval into before its accuracy counts
# as unmet; read at call time
MAX_CELLS = 4096


class QuadratureError(RuntimeError):
    """An integrand that is not finite on a cell, or adaptive_quad's accuracy
    not met within MAX_CELLS cells; `owner` is the index of the failing
    interval in its batch."""

    def __init__(self, message: str, owner: int | None = None):
        super().__init__(message)
        self.owner = owner


# each node's distance from the nearer end of [-1, 1], left half then right
_FROM_LEFT = tuple(1.0 + x for x in _XGK[:7])
_FROM_RIGHT = tuple(1.0 - x for x in _XGK[8:])


def _cell(f, left: float, right: float):
    """GK15 on the cell [left, right]: the Kronrod value and the values of
    f on the 15 float nodes, each placed from the nearer end of the cell so
    that adjacent cells meet without a gap.  A value that is not finite, or
    an OverflowError out of f, raises QuadratureError."""
    half = 0.5 * (right - left)
    nodes = [left + half * t for t in _FROM_LEFT]
    nodes.append(0.5 * (left + right))
    nodes += [right - half * t for t in _FROM_RIGHT]
    try:
        values = list(map(f, nodes))
        kronrod = sum(map(operator.mul, values, _WGK)) * half
    except OverflowError:
        kronrod = math.inf
    if not math.isfinite(kronrod):
        raise QuadratureError(f"integrand is not finite on [{left!r}, {right!r}]")
    return kronrod, values


_UNIT_ROUNDOFF = 2.0 ** -53


@functools.cache
def _widest_cell():
    """The widest half-width h whose cosh_squared_slabs bound is at most the
    unit roundoff u, maximized over a log grid of 256 ellipse parameters rho
    in [1.5, 1000], as (h, g, q) with g = 22 log rho + log(rho - 1) - log 4
    and q = 1 + (rho + 1/rho)/2 at the best rho: the bound at a half-width
    h' is e^(2 h' q - g).  Here 2 h = 2.8331."""
    best = (-math.inf, 0.0, 0.0)
    for i in range(256):
        rho = 1.5 * (1e3 / 1.5) ** (i / 255)
        gain = 22.0 * math.log(rho) + math.log(rho - 1.0) - math.log(4.0)
        reach = 1.0 + 0.5 * (rho + 1.0 / rho)
        best = max(best, ((math.log(_UNIT_ROUNDOFF) + gain) / (2 * reach), gain, reach))
    return best


def cosh_squared_slabs(lams):
    """Integrate cosh(x)**2 over the slab [0, lam] of every lam > 0 of lams
    at rounding level, on one grid of cells fixed in advance, each error
    bounded by proof rather than estimated.

    The bound.  Map a cell of center c and half-width h onto [-1, 1].  GK15
    is exact to degree 22 and its weights are positive with sum 2.  If f is
    analytic inside the Bernstein ellipse E_rho with |f| <= M there, its
    Chebyshev coefficients obey |a_j| <= 2 M rho^-j, and both the integral
    and the rule of T_j are at most 2 in modulus, so the rule's error on the
    cell is at most (2 + 2) h 2 M rho^-22 / (rho - 1) (Trefethen, SIAM
    Review 50, 2008, section 4).  E_rho reaches |Re| <= rho' = (rho +
    1/rho)/2 in the unit variable, and |cosh(x + iy)| <= cosh(x), so M <=
    cosh^2(c + h rho').  With a >= 0 the cell's left end, c = a + h, and
    cosh(a + d) <= e^d cosh(a) for d >= 0, so M <= e^(2 h (1 + rho')) min f
    over the cell, while the cell's integral is at least 2 h min f.  Hence
    every cell has relative error at most 4 e^(2 h (1 + rho')) rho^-22 /
    (rho - 1), and so has a sum of such cells, all positive.

    The grid.  The full cells [j W, (j + 1) W] have the widest width W = 2h
    whose bound is at most u (_widest_cell).  Those below the deepest level
    are evaluated once per call and summed left to right, and a level's
    value is the sum of the full cells below it plus its own last cell
    [floor(lam / W) W, lam] when that is not empty, so it does not depend on
    the rest of the batch, bit for bit.  Its error bound is the largest
    truncation bound among its m cells (a last cell is narrower than W)
    plus rounding, (16 + m + 4 lam) u, times the value: the rounded nodes
    move cosh^2 by at most 4 x u relative, and cosh, the weights and the
    positive sums add less than (16 + m) u.  Past x = 355.58 cosh^2 leaves
    the float64 range: the cell that reaches there raises QuadratureError,
    owned by the first level of the batch that needs it.  Returns (values,
    error bounds) as lists and the number of cells evaluated.
    """
    half, gain, reach = _widest_cell()
    width = 2.0 * half

    def cosh_power(x):
        return math.cosh(x) ** 2

    below, values, errors, lasts = [0.0], [], [], 0  # below[j]: the first j full cells, summed
    for k, lam in enumerate(lams):
        n = int(lam // width)
        last = n * width < lam
        lasts += last
        try:
            while len(below) <= n:
                j = len(below) - 1
                below.append(below[j] + _cell(cosh_power, j * width, (j + 1) * width)[0])
            value = below[n] + _cell(cosh_power, n * width, lam)[0] if last else below[n]
        except QuadratureError as exc:
            exc.owner = k
            raise
        truncation = math.exp(2 * reach * (half if n else 0.5 * lam) - gain)
        rounding = (16.0 + n + last + 4.0 * lam) * _UNIT_ROUNDOFF
        values.append(value)
        errors.append((truncation + rounding) * value)
    return values, errors, len(below) - 1 + lasts


# stays public only for perfbench: no pipeline path calls it, so its traced
# metrics read 0, but tests/test_bench_metrics.py ties the metric keys of
# perfbench/tracer.py to the per_layer list of BENCHMARK.json
def adaptive_quad(f, a: float, b: float, *, rel_tol: float = 1e-9):
    """Integrate f, called on float nodes, over [a, b] by bisection: the
    cell of largest Kronrod-Gauss estimate is halved until the summed
    estimate is below rel_tol * |integral|, within MAX_CELLS cells.  The
    cells stay in order and the value is their left-to-right sum.  A
    zero-width interval integrates to 0.  Returns (value, error_estimate).
    """
    a, b = float(a), float(b)
    if not b >= a:
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")

    def estimate(left, right):
        kronrod, values = _cell(f, left, right)
        gauss = sum(map(operator.mul, values[1::2], _WG)) * (0.5 * (right - left))
        return left, right, kronrod, abs(kronrod - gauss)

    cells = [estimate(a, b)] if b > a else []
    while True:
        total = float(sum(cell[2] for cell in cells))
        error = float(sum(cell[3] for cell in cells))
        tol = rel_tol * abs(total)
        if error <= tol:
            return total, error
        if len(cells) >= MAX_CELLS:
            raise QuadratureError(
                f"tolerance {tol:.3e} not met within {MAX_CELLS} cells on "
                f"[{a!r}, {b!r}] (error estimate {error:.3e})"
            )
        worst = max(range(len(cells)), key=lambda i: cells[i][3])
        left, right = cells[worst][:2]
        mid = 0.5 * (left + right)
        cells[worst:worst + 1] = [estimate(left, mid), estimate(mid, right)]
