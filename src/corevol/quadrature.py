"""Gauss-Kronrod quadrature in plain Python: one GK15 cell evaluator.

cosh_squared_slabs integrates cosh^2 over the slab [0, lam] of each level,
and renvol's sector slice its own integrand, on partitions fixed in advance
whose error is proved to meet the tolerance.  adaptive_quad bisects one
interval, worst cell first, on the Kronrod-Gauss error estimate.  A slab's
value is the sum of its cells in left-to-right order, so it does not depend
on the rest of a batch, and it is identical across runs.
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

# cells one interval may be cut into before its tolerance counts as unmet;
# read at call time
MAX_CELLS = 4096


class QuadratureError(RuntimeError):
    """Requested tolerance not met within the cell budget, or an integrand
    that is not finite; `owner` is the index of the failing interval in its
    batch."""

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


@functools.lru_cache(maxsize=64)
def _widest_cell(rel_tol: float):
    """The widest half-width h whose cosh_squared_slabs bound meets rel_tol,
    maximized over a log grid of 256 ellipse parameters rho in [1.5, 1000],
    as (h, g, q) with g = 22 log rho + log(rho - 1) - log 4 and q = 1 +
    (rho + 1/rho)/2 at the best rho: the bound at a half-width h' is
    e^(2 h' q - g)."""
    best = (-math.inf, 0.0, 0.0)
    for i in range(256):
        rho = 1.5 * (1e3 / 1.5) ** (i / 255)
        gain = 22.0 * math.log(rho) + math.log(rho - 1.0) - math.log(4.0)
        reach = 1.0 + 0.5 * (rho + 1.0 / rho)
        best = max(best, ((math.log(rel_tol) + gain) / (2 * reach), gain, reach))
    return best


def cosh_squared_slabs(lams, *, rel_tol: float):
    """Integrate cosh(x)**2 over the slab [0, lam] of every lam > 0 of lams
    in one pass on equal cells, each error bounded by proof rather than
    estimated.

    The bound.  Map a cell of center c and half-width h onto [-1, 1].  GK15
    is exact to degree 22 and its weights are positive with sum 2.  If f is
    analytic inside the Bernstein ellipse E_rho with |f| <= M there, its
    Chebyshev coefficients obey |a_j| <= 2 M rho^-j, and both the integral
    and the rule of T_j are at most 2 in modulus, so the rule's error on the
    cell is at most (2 + 2) h 2 M rho^-22 / (rho - 1) (Trefethen, SIAM
    Review 50, 2008, section 4).  E_rho reaches |Re| <= rho' = (rho +
    1/rho)/2 in the unit variable, and |cosh(x + iy)| <= cosh(x), so M <=
    cosh^2(c + h rho').  With m >= 0 the cell's left end, c = m + h, and
    cosh(m + d) <= e^d cosh(m) for d >= 0, so M <= e^(2 h (1 + rho')) min f
    over the cell, while the cell's integral is at least 2 h min f.  Hence
    every cell has relative error at most 4 e^(2 h (1 + rho')) rho^-22 /
    (rho - 1), and so has a sum of such cells, all positive.

    The widest h whose bound meets rel_tol is maximized over rho once per
    rel_tol.  Each slab takes n = ceil(lam / 2h) equal cells: no refinement
    loop and no Kronrod-Gauss estimate.  The error returned is the bound at
    the slab's own half-width plus rounding, (16 + n + 4 lam) u |value|:
    the rounded nodes move cosh^2 by at most 4 x u relative, and cosh, the
    weights and the positive sums add less than (16 + n) u.  A slab that
    needs more than MAX_CELLS cells raises QuadratureError and owns it; no
    cell is evaluated then.  Returns (values, error bounds) as lists and the
    number of cells evaluated.
    """
    widest, gain, reach = _widest_cell(rel_tol)
    if not widest > 0.0:
        raise ValueError(f"no certified cell meets relative tolerance {rel_tol!r}")
    counts = []
    for k, lam in enumerate(lams):
        need = lam / (2.0 * widest)
        if need > MAX_CELLS:
            raise QuadratureError(
                f"tolerance {rel_tol:.3e} (relative) not met within {MAX_CELLS} cells on "
                f"[0.0, {lam!r}] (the certified partition needs "
                f"{math.ceil(need) if need < math.inf else need})", owner=k,
            )
        counts.append(math.ceil(need))

    def cosh_power(x):
        return math.cosh(x) ** 2

    values, errors = [], []
    for k, (lam, n) in enumerate(zip(lams, counts)):
        edges = [lam * (j / n) for j in range(n + 1)]
        try:
            value = sum((_cell(cosh_power, left, right)[0]
                         for left, right in zip(edges, edges[1:])), 0.0)
        except QuadratureError as exc:
            exc.owner = k
            raise
        truncation = math.exp(2 * reach * (lam / (2.0 * n)) - gain)
        rounding = (16.0 + n + 4.0 * lam) * _UNIT_ROUNDOFF
        values.append(value)
        errors.append((truncation + rounding) * value)
    return values, errors, sum(counts)


# stays: perfbench/tracer.py wraps it as corevol.pleated.adaptive_quad (quadrature metrics)
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
