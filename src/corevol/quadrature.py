"""Adaptive Gauss-Kronrod quadrature on subdivided cells, vectorized.

One engine integrates a batch of intervals at once: every interval's cells
are evaluated in one call of the integrand, and each interval is bisected
until its own summed Kronrod-Gauss error estimate meets its tolerance.  An
interval's value is the sum of its cells in left-to-right order, so results
are independent of refinement history and of the rest of the batch, and
identical across runs.
"""

from __future__ import annotations

import numpy as np

# 15-point Kronrod nodes on [-1, 1] and weights; the odd-index nodes carry
# the embedded 7-point Gauss rule.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
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


def adaptive_quad_batch(f, a, b, *, rel_tol: float = 1e-9):
    """Integrate f over every interval [a[k], b[k]] in one refinement loop.

    f(x, k) receives a node array and, in the same shape, the index of the
    interval each node belongs to.  Each interval stops once its error
    estimate is below rel_tol * |its integral|, within its own budget of
    MAX_CELLS cells.  a and b broadcast; zero-width intervals integrate
    to 0.  Returns (values, error_estimates) as arrays.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    a, b = a.reshape(-1), b.reshape(-1)
    out_of_order = (~(b >= a)).nonzero()[0]
    if out_of_order.size:
        k = out_of_order[0]
        raise ValueError(f"integration bounds out of order: [{a[k]}, {b[k]}]")
    cells = np.array([a, b, np.arange(a.size, dtype=float)])
    return _refine(f, cells[:, b > a], a.size, rel_tol)


def adaptive_quad(f, a: float, b: float, *, rel_tol: float = 1e-9):
    """Integrate the vectorized callable f over [a, b].

    Stops once the total error estimate is below rel_tol * |integral|.
    Returns (value, error_estimate).  A batch of one interval for
    adaptive_quad_batch.
    """
    values, errors = adaptive_quad_batch(lambda x, k: f(x), a, b, rel_tol=rel_tol)
    return float(values[0]), float(errors[0])
