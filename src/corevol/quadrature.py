"""Gauss-Kronrod quadrature on subdivided cells, vectorized.

One engine integrates a batch of intervals at once: every interval's cells
are evaluated in one call of the integrand.  cosh_power_quad_batch
integrates cosh^p, an entire integrand, on a partition fixed in advance
whose error is proved to meet the tolerance; renvol's sector slice does
the same for its own integrand through _eval_cells.  adaptive_quad_batch
bisects each interval until its own summed Kronrod-Gauss error estimate
meets its tolerance; only the scalar adaptive_quad still calls it.  An
interval's value is the sum of its cells in left-to-right order, so results
are independent of refinement history and of the rest of the batch, and
identical across runs.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# 15-point Kronrod nodes on [-1, 1] and weights, QUADPACK's qk15 constants
# to 33 digits (Piessens et al. 1983); the odd-index nodes carry the
# embedded 7-point Gauss rule.  Each weight set sums to 2 within an ulp, as
# the certified bound below needs.
_XGK = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144838258730, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

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


def _eval_cells(f, cells):
    """The rows (left, right, owner) of some cells with two rows appended:
    each cell's Kronrod value and Kronrod-Gauss error estimate."""
    lefts, rights, owner = cells
    centers = 0.5 * (lefts + rights)
    halves = 0.5 * (rights - lefts)
    nodes = centers[:, None] + halves[:, None] * _XGK[None, :]
    index = owner.astype(np.intp).repeat(_XGK.size)
    vals = np.asarray(f(nodes.ravel(), index), dtype=float).reshape(nodes.shape)
    if not np.isfinite(vals).all():
        i = np.flatnonzero(~np.isfinite(vals.ravel()))[0]
        raise QuadratureError(f"integrand is not finite near x = {float(nodes.flat[i])!r}",
                              owner=int(index[i]))
    kron = (vals * _WGK[None, :]).sum(axis=1) * halves
    gauss = (vals[:, 1::2] * _WG[None, :]).sum(axis=1) * halves
    return np.concatenate([cells, [kron, np.abs(kron - gauss)]])


def _run_sums(rows, starts, counts):
    """Sum of each run rows[:, s:s + n], bitwise equal to rows[:, s:s + n].sum(axis=1).

    np.add.reduceat adds in another order.  numpy reduces a contiguous last
    axis in the same pairwise order as a 1-d array, so runs of one length
    are summed as the rows of one C-contiguous block.
    """
    if counts.min() == counts.max():
        return np.ascontiguousarray(rows).reshape(len(rows), len(starts), -1).sum(axis=2)
    out = np.empty((len(rows), len(starts)))
    # np.unique would import numpy.ma on first use
    for n in np.flatnonzero(np.bincount(counts)):
        same = counts == n
        block = rows[:, starts[same, None] + np.arange(n)]
        out[:, same] = np.ascontiguousarray(block).sum(axis=2)
    return out


def _refine(f, cells, count, rel_tol):
    """Equal-share refinement of `count` intervals.  `cells` holds the rows
    (left, right, owner) of their first cells, sorted by owner, then left.
    Returns (values, error estimates)."""
    values, errors = np.zeros(count), np.zeros(count)
    if not cells.shape[1]:
        return values, errors
    cells = _eval_cells(f, cells)
    while True:
        owner, errs = cells[2], cells[4]
        # interval i owns the run of cells bounds[i]:bounds[i + 1]
        edge = np.ones(owner.size + 1, dtype=bool)
        np.not_equal(owner[1:], owner[:-1], out=edge[1:-1])
        bounds = edge.nonzero()[0]
        starts, counts = bounds[:-1], bounds[1:] - bounds[:-1]
        totals, total_errs = _run_sums(cells[3:], starts, counts)
        tols = rel_tol * np.abs(totals)
        done = total_errs <= tols
        ids = owner[starts[done]].astype(np.intp)
        values[ids] = totals[done]
        errors[ids] = total_errs[done]
        if done.all():
            return values, errors
        stuck = ~done & (counts >= MAX_CELLS)
        if stuck.any():
            k = stuck.argmax()
            left, right = cells[0, starts[k]], cells[1, starts[k] + counts[k] - 1]
            raise QuadratureError(
                f"tolerance {tols[k]:.3e} not met within {MAX_CELLS} cells on "
                f"[{float(left)!r}, {float(right)!r}] (error estimate {total_errs[k]:.3e})",
                owner=int(owner[starts[k]]),
            )
        # equal-share refinement: in each open interval split every cell above
        # its share of the interval's budget, or else its worst cells
        open_ = (~done).repeat(counts)
        split = open_ & (errs > (tols / counts).repeat(counts))
        stalled = ~done & ~np.logical_or.reduceat(split, starts)
        if stalled.any():
            worst = errs >= np.maximum.reduceat(errs, starts).repeat(counts)
            split |= worst & stalled.repeat(counts)
        parents = cells[:3, split]
        mids = 0.5 * (parents[0] + parents[1])
        halves = np.concatenate([parents, parents], axis=1)
        halves[1, :mids.size] = mids
        halves[0, mids.size:] = mids
        cells = np.concatenate([cells[:, open_ & ~split], _eval_cells(f, halves)], axis=1)
        cells = cells[:, np.lexsort((cells[0], cells[2]))]


def _bounds(a, b):
    """a and b broadcast to one flat float array each; raises ValueError on
    an interval out of order."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    a, b = a.reshape(-1), b.reshape(-1)
    out_of_order = (~(b >= a)).nonzero()[0]
    if out_of_order.size:
        k = out_of_order[0]
        raise ValueError(f"integration bounds out of order: [{a[k]}, {b[k]}]")
    return a, b


def _uniform_cells(a, b, counts):
    """Rows (left, right, owner) of `counts` equal cells on every interval
    [a[k], b[k]] with b > a, sorted by owner, then left; `counts` is an int
    or one count per interval.  Edges a (1 - j/n) + b j/n put each
    interval's ends on a and b exactly."""
    counts = np.where(b > a, counts, 0)
    owner = np.arange(a.size).repeat(counts)
    n = counts[owner]
    j = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    lo, hi = a[owner], b[owner]
    lefts, rights = (lo * (1.0 - frac) + hi * frac for frac in (j / n, (j + 1) / n))
    return np.array([lefts, rights, owner.astype(float)])


def adaptive_quad_batch(f, a, b, *, rel_tol: float = 1e-9):
    """Integrate f over every interval [a[k], b[k]] in one refinement loop.

    f(x, k) receives a node array and, in the same shape, the index of the
    interval each node belongs to.  Each interval starts as one cell and
    stops once its error estimate is below rel_tol * |its integral|, within
    its own budget of MAX_CELLS cells.  a and b broadcast; zero-width
    intervals integrate to 0.  Returns (values, error_estimates) as arrays.
    """
    a, b = _bounds(a, b)
    return _refine(f, _uniform_cells(a, b, 1), a.size, rel_tol)


_UNIT_ROUNDOFF = 2.0 ** -53


@functools.lru_cache(maxsize=64)
def _widest_cell(power: int, rel_tol: float):
    """The widest half-width h whose cosh_power_quad_batch bound meets
    rel_tol, maximized over a log grid of 256 ellipse parameters rho in
    [1.5, 1000], as (h, g, q) with g = 22 log rho + log(rho - 1) - log 4
    and q = 1 + (rho + 1/rho)/2 at the best rho: the bound at a half-width
    h' is e^(p h' q - g)."""
    best = (-math.inf, 0.0, 0.0)
    for i in range(256):
        rho = 1.5 * (1e3 / 1.5) ** (i / 255)
        gain = 22.0 * math.log(rho) + math.log(rho - 1.0) - math.log(4.0)
        reach = 1.0 + 0.5 * (rho + 1.0 / rho)
        best = max(best, ((math.log(rel_tol) + gain) / (power * reach), gain, reach))
    return best


def cosh_power_quad_batch(a, b, power: int, *, rel_tol: float):
    """Integrate cosh(x)**power over every interval [a[k], b[k]] in one pass
    on equal cells, each error bounded by proof rather than estimated.

    The bound.  Map a cell of center c and half-width h onto [-1, 1].  GK15
    is exact to degree 22 and its weights are positive with sum 2.  If f is
    analytic inside the Bernstein ellipse E_rho with |f| <= M there, its
    Chebyshev coefficients obey |a_j| <= 2 M rho^-j, and both the integral
    and the rule of T_j are at most 2 in modulus, so the rule's error on the
    cell is at most (2 + 2) h 2 M rho^-22 / (rho - 1) (Trefethen, SIAM
    Review 50, 2008, section 4).  E_rho reaches |Re| <= rho' = (rho +
    1/rho)/2 in the unit variable, and |cosh(x + iy)| <= cosh(x), so M <=
    cosh^p(|c| + h rho').  With m the cell's least |x|, |c| <= m + h, and
    cosh(m + d) <= e^d cosh(m) for d >= 0, so M <= e^(p h (1 + rho')) min f
    over the cell, while the cell's integral is at least 2 h min f.  Hence
    every cell, wherever it lies, has relative error at most
    4 e^(p h (1 + rho')) rho^-22 / (rho - 1), and so has a sum of such
    cells, all positive.

    The widest h whose bound meets rel_tol is maximized over rho once per
    (power, rel_tol).  Each interval takes n = ceil(width / 2h) equal cells, and every
    cell of the batch is evaluated in one integrand call: no refinement
    loop and no Kronrod-Gauss estimate.  The error returned is the bound at
    the interval's own half-width plus rounding, (16 + n + 2 p max |x|) u
    |value|: the rounded nodes move cosh^p by at most 2 p |x| u relative,
    and cosh, the weights and the positive sums add less than (16 + n) u.
    Zero-width intervals integrate to 0.  An interval that needs more than
    MAX_CELLS cells raises QuadratureError and owns it.  Returns (values,
    error bounds) as arrays and the number of cells evaluated.
    """
    a, b = _bounds(a, b)
    widest, gain, reach = _widest_cell(power, rel_tol)
    if not widest > 0.0:
        raise ValueError(f"no certified cell meets relative tolerance {rel_tol!r}")
    need = np.ceil((b - a) / (2.0 * widest))
    over = (need > MAX_CELLS).nonzero()[0]
    if over.size:
        k = over[0]
        raise QuadratureError(
            f"tolerance {rel_tol:.3e} (relative) not met within {MAX_CELLS} cells on "
            f"[{float(a[k])!r}, {float(b[k])!r}] (the certified partition needs {need[k]:.0f})",
            owner=int(k),
        )
    counts = need.astype(np.intp)
    values, errors = np.zeros(a.size), np.zeros(a.size)
    live = counts > 0
    if not live.any():
        return values, errors, 0
    cells = _eval_cells(lambda x, k: np.cosh(x) ** power, _uniform_cells(a, b, counts))
    n = counts[live]
    values[live] = _run_sums(cells[3:4], np.cumsum(n) - n, n)[0]
    half = (b - a)[live] / (2.0 * n)
    truncation = np.exp(power * reach * half - gain)
    largest = np.maximum(np.abs(a[live]), np.abs(b[live]))
    rounding = (16.0 + n + 2.0 * power * largest) * _UNIT_ROUNDOFF
    errors[live] = (truncation + rounding) * values[live]
    return values, errors, int(n.sum())


# stays: perfbench/tracer.py wraps it as corevol.pleated.adaptive_quad (quadrature metrics)
def adaptive_quad(f, a: float, b: float, *, rel_tol: float = 1e-9):
    """Integrate the vectorized callable f over [a, b].

    Stops once the total error estimate is below rel_tol * |integral|.
    Returns (value, error_estimate).  A batch of one interval for
    adaptive_quad_batch.
    """
    values, errors = adaptive_quad_batch(lambda x, k: f(x), a, b, rel_tol=rel_tol)
    return float(values[0]), float(errors[0])
