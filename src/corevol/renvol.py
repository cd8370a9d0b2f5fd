"""Renormalized volume of Fuchsian Schottky 3-manifolds.

The truncated region at level eps = exp(-lambda) is the set of points within
distance lambda of the convex core.  Its volume has the exact form

    c_-2 eps^-2 + c_log log(eps) + V + c_2 eps^2,

and the constant term V is the renormalized volume.  Two coefficient
conventions are carried side by side: "paper" reproduces the closed forms
as printed in the source derivation this toolkit follows, while "derived"
uses the antiderivative forms consistent with the induced level-set metric;
the two disagree by a factor of two in the end-cylinder term, so the
quadrature oracle here is the arbiter and every report prints both.  It
integrates cosh^2 over the slab above the two core copies and, per end, the
half-disk slice of the tube around it: the theta = 0 sector that the
pleated wedge oracle integrates too.  A closed form, Fuchsian or pleated,
is its list of (term, weight) pairs, each term a row of the one table
CLOSED_FORMS, a pleated core's own volume included, and no formula
branches on the convention.  A truncated volume past the float64 range,
closed or oracle, is a ValueError naming its eps.  `VolumeProfile` and
`ExpansionFit` are plain records with `__slots__`, immutable by convention.
"""

from __future__ import annotations

import functools
import math
import operator
from enum import Enum

from .quadrature import _UNIT_ROUNDOFF, _cell, cosh_squared_slabs
from .surface import SurfaceInfo


class Convention(Enum):
    PAPER = "paper"
    DERIVED = "derived"


PROVENANCE_QUADRATURE = "quadrature"

# Every closed form of the truncated volume: per (convention, term), the
# coefficients of (sinh 2 lam, sinh^2 lam, lam, 1, eps), lam = -log eps, per
# unit of the term's weight: 2 A for the two core copies of a Fuchsian
# surface, the volume Vol(C) of a pleated core, the boundary area for its
# collar slab, and w = sum (pi - theta_i) L_i over the ends (theta = 0) or
# bent leaves.  The derived rows are Krasnov-Schlenker's (Comm. Math. Phys.
# 279, 2008) vol = W(C) - pi lam chi + (1/4) int H da over the level set,
# per term: Vol(C) for the core volume, w lam / 2 + (1/4) 2 tanh lam w
# cosh^2 lam for a core or collar, and -w / 4 + (1/4) (tanh lam + coth lam)
# w sinh lam cosh lam for an end or wedge.  The paper rows are the printed
# lines pi (g - 1)/4 (eps^-2 + log(eps)/2 - eps^2) (2 A = 4 pi (g - 1)),
# (pi/4) (eps^-2 - 2 + eps^2) sum L_i and w/4 (eps + eps^-2) - w/2; the
# collar has none, and the volume row is the constant 1 in both.  Every
# coefficient is dyadic, so each product c * b is exact.
CLOSED_FORMS = {
    (Convention.DERIVED, "core"): (0.25, 0.0, 0.5, 0.0, 0.0),
    (Convention.PAPER, "core"): (0.125, 0.0, -0.03125, 0.0, 0.0),
    (Convention.DERIVED, "volume"): (0.0, 0.0, 0.0, 1.0, 0.0),
    (Convention.PAPER, "volume"): (0.0, 0.0, 0.0, 1.0, 0.0),
    (Convention.DERIVED, "collar"): (0.25, 0.0, 0.5, 0.0, 0.0),
    (Convention.PAPER, "collar"): (0.25, 0.0, 0.5, 0.0, 0.0),
    (Convention.DERIVED, "end"): (0.0, 0.5, 0.0, 0.0, 0.0),
    (Convention.PAPER, "end"): (0.0, 1.0, 0.0, 0.0, 0.0),
    (Convention.DERIVED, "wedge"): (0.0, 0.5, 0.0, 0.0, 0.0),
    (Convention.PAPER, "wedge"): (0.25, 0.5, 0.0, -0.25, 0.25),
}


def level_lambda(eps: float) -> float:
    """Distance lambda = -log(eps) to the core of the level eps, for eps in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return -math.log(eps)


def _inverse_square(eps: float) -> float:
    """eps^-2, or a ValueError naming eps where it leaves the float64 range
    (eps below about 7.5e-155), in place of pow's bare OverflowError."""
    try:
        return eps ** -2
    except OverflowError:
        raise ValueError(f"eps^-2 leaves the float64 range at eps = {eps!r}") from None


def _finite_volume(volume: float, eps: float) -> float:
    """volume, or a ValueError naming eps where it leaves the float64 range."""
    if not math.isfinite(volume):
        raise ValueError(f"the truncated volume leaves the float64 range at eps = {eps!r}")
    return volume


def _sinh_squared(eps: float) -> float:
    """sinh(lambda)^2 of the level eps, built from eps so that no lambda
    amplifies its error.  Below eps = 1/2 it is (eps^-2 - 2 + eps^2) / 4,
    summed exactly: eps^-2 (pow, within 0.52 ulp) is at most 16/9 of the
    sum, so within 3 u relative.  Above, where that sum cancels, it is ((1 -
    eps)(1 + eps) / (2 eps))^2, with 1 - eps exact and no cancellation:
    within 7 u."""
    level_lambda(eps)  # the same domain check
    if eps < 0.5:
        return math.fsum((_inverse_square(eps), -2.0, eps * eps)) / 4.0
    radius = (1.0 - eps) * (1.0 + eps) / (2.0 * eps)
    return radius * radius


def surface_terms(surface: SurfaceInfo) -> list:
    """(term, weight) pairs of a Fuchsian surface: its two core copies, and
    its ends as leaves bent at theta = 0."""
    ends = bending_sum((length, 0.0) for length in surface.end_lengths)
    return [("core", 2.0 * surface.core_area), ("end", ends)]


def closed_volume(terms, eps: float, convention: Convention) -> float:
    """Closed-form truncated volume at level eps: the sum of every (term,
    weight) of `terms`, each the correctly rounded sum of its row's exact
    products times its weight.  The basis is built from eps, not from lam:
    sinh^2 lam (_sinh_squared) and sinh 2 lam = (eps^-2 - eps^2) / 2 have
    no lam to amplify, so each is within a few u.  A volume past the
    float64 range is a ValueError naming eps."""
    lam = level_lambda(eps)
    basis = ((_inverse_square(eps) - eps * eps) / 2.0, _sinh_squared(eps), lam, 1.0, eps)
    volumes = [weight * math.fsum(map(operator.mul, CLOSED_FORMS[convention, term], basis))
               for term, weight in terms]
    try:
        volume = math.fsum(volumes)
    except OverflowError:  # fsum's, where finite volumes sum past the range
        volume = math.inf
    return _finite_volume(volume, eps)


def renormalized_volume(terms, convention: Convention) -> float:
    """Constant term of the closed-form expansion: the sum of c_1 - c_sinh^2
    / 2 of each term's row times its weight, in order (in the eps expansion
    sinh 2 lam and lam have no constant term, sinh^2 lam has -1/2), from
    -0.0, which adds nothing to the first.  A term whose constant is zero
    adds nothing, not even the sign of a zero."""
    v = -0.0
    for term, weight in terms:
        _, c_sinh2, _, c_1, _ = CLOSED_FORMS[convention, term]
        constant = c_1 - c_sinh2 / 2.0
        if constant:
            v += constant * weight
    return v


_SQRT2 = math.sqrt(2.0)
# relative rounding bound of a unit slice, in units of u, before its cells
# and its radius add theirs (see _sector_areas)
_SLICE_ROUNDING = 40.0


def _arc_partition(s_kink: float):
    """(cells, truncation bound) of the arc piece 4 s^2 sqrt(2 - s^2) on
    [0, s_kink]: the fewest equal cells whose bound is below the slice's
    rounding bound, measured on the piece's least integral (4/3) s_kink^3."""
    target = _SLICE_ROUNDING * _UNIT_ROUNDOFF * (4.0 / 3.0) * s_kink ** 3
    n = 0
    while True:
        n += 1
        reach = 1.0 + 2.0 * n * (_SQRT2 - s_kink) / s_kink
        rho = reach + math.sqrt(reach * reach - 1.0)
        bound = 64.0 * s_kink * rho ** -22 / (rho * rho - 1.0)
        if bound <= target:
            return n, bound


def _cubic(us):
    return [u * (2.0 - u) * (1.0 - u) for u in us]


def _arc(ss):
    return [s * s * math.sqrt(2.0 - s * s) for s in ss]


def _sector_areas(eps_values, thetas):
    """Areas of the disk sectors of opening pi - theta and radius R =
    sinh(lam), lam = -log(eps), per (eps, theta) of eps_values and thetas:
    the slices of pleated wedges and, at theta = 0, of the tubes around
    Fuchsian ends.

    The slice.  Rotated about the leaf axis, an isometry that keeps the
    slice and dx dy, the sector is symmetric about the x axis: a column x
    has width 2 min(x cot(theta/2), arc), arc = sqrt(R^2 - x^2), and the
    kink where the edge rays meet the circle is at x = R sin(theta/2).
    With x = R u (2 - u), Jacobian 2 R (1 - u), and s = 1 - u, the area is
    R^2 times that of the unit slice, which the kink s_k = sqrt(1 -
    sin(theta/2)) splits into two pieces: the cubic 4 cot(theta/2) u (2 -
    u)(1 - u) on u in [0, 1 - s_k], which GK15 integrates exactly on one
    cell, and the arc 4 s^2 sqrt(2 - s^2) on s in [0, s_k], where arc =
    R s sqrt(2 - s^2) has no cancellation near the rim.  theta = 0 has no
    cubic piece, and theta = pi (the flat leaf) has neither.

    The bound.  The arc piece is analytic in the disk |s| < sqrt 2 and at
    most 16 in modulus there.  Cut [0, s_k] into n cells of half-width h and
    take for each cell the Bernstein ellipse E_rho whose reach s_k + h
    (rho' - 1), rho' = (rho + 1/rho)/2, is sqrt 2.  As in
    cosh_squared_slabs, |a_j| <= 2 M rho^-j; the odd T_j are integrated
    exactly by the symmetric rule, so only even j >= 24 contribute, and a
    cell's error is at most 8 h M rho^-22 / (rho^2 - 1), all n cells'
    64 s_k rho^-22 / (rho^2 - 1).  The piece takes the fewest cells whose
    bound is below the slice's rounding bound (_arc_partition): one, or two
    for theta below about 0.69.  So a slice is exact to rounding.  Every
    term of a slice is positive, so relative rounding errors add.  Relative
    to the slice, the rounded nodes move it by at most 9 u (each piece is
    monotone or nearly so, and x |f'| integrates to a few times f), the
    integrand's evaluation 6 u, the weights and the 15-point sums 15 u, the
    kink (cos / sqrt(1 + sin), with no cancellation) 3 u and the sum of its
    n cells n u: (33 + n) u.  R^2 adds at most 7 u (_sinh_squared) and its product
    with the slice 1 u: (41 + n) u, taken with room as (_SLICE_ROUNDING + 5
    + n) u.

    Each distinct theta's unit slice is integrated once, on a partition
    fixed in advance, and summed over its cells in order, cubic piece
    first, so an area does not depend on the rest of the batch.  Its
    integrands are finite, the arc piece takes at most two cells at every
    theta in [0, pi], and an area is at most (pi/2) sinh^2 lam <= 7.1e307,
    since _sinh_squared raises ValueError where it would leave the float64
    range.  Returns (areas, error bounds) as lists and the number of cells
    evaluated.
    """
    units, cells = {}, 0  # theta -> (unit slice, its error bound)
    for theta in thetas:
        if theta in units:
            continue
        unit, bound, n = 0.0, 0.0, 0
        if theta != math.pi:
            sin_h, cos_h = math.sin(0.5 * theta), math.cos(0.5 * theta)
            s_kink = cos_h / math.sqrt(1.0 + sin_h)
            if s_kink < 1.0:
                unit, n = 4.0 * cos_h / sin_h * _cell(_cubic, 0.0, 1.0 - s_kink)[0], 1
            if s_kink > 0.0:
                arcs, bound = _arc_partition(s_kink)
                for i in range(arcs):
                    unit += 4.0 * _cell(_arc, s_kink * i / arcs, s_kink * (i + 1) / arcs)[0]
                n += arcs
        cells += n
        units[theta] = unit, bound + (_SLICE_ROUNDING + 5.0 + n) * _UNIT_ROUNDOFF * unit
    squares = list(map(_sinh_squared, eps_values))
    areas = [square * units[theta][0] for square, theta in zip(squares, thetas)]
    errors = [square * units[theta][1] for square, theta in zip(squares, thetas)]
    return areas, errors, cells


def _truncated_volumes(surface: SurfaceInfo, eps_values):
    """Oracle volumes and their error bounds at every level of eps_values,
    each integral one batch over all levels at rounding level, and the
    number of cells evaluated.  A volume past the float64 range, the core
    slab's where cosh^2 leaves it (eps below about 3.7e-155) included, is a
    ValueError naming the first such eps of the batch."""
    lams = [level_lambda(float(e)) for e in eps_values]
    totals, errs, cells = [0.0] * len(lams), [0.0] * len(lams), 0
    if surface.core_area != 0.0:
        slabs, slab_errs, cells = cosh_squared_slabs(lams)
        weight = 2.0 * surface.core_area
        totals = [weight * slab for slab in slabs]
        errs = [weight * err for err in slab_errs]
    total_length = surface.total_end_length
    if total_length > 0.0:
        areas, area_errs, end_cells = _sector_areas(eps_values, [0.0] * len(lams))
        totals = [total + total_length * area for total, area in zip(totals, areas)]
        errs = [err + total_length * area_err for err, area_err in zip(errs, area_errs)]
        cells += end_cells
    return [_finite_volume(total, float(e)) for total, e in zip(totals, eps_values)], errs, cells


# stays public only for perfbench: no pipeline path calls it, so its traced
# calls read 0, but tests/test_bench_metrics.py ties the metric keys of
# perfbench/tracer.py to the per_layer list of BENCHMARK.json
def truncated_volume_quadrature(surface: SurfaceInfo, eps: float) -> float:
    """Independent oracle for the truncated volume.

    Integrates the volume element numerically over the truncated region
    (the core slab, and the tube around each end as L times its half-disk
    slice); no closed-form antiderivative of the integrand is used anywhere
    on this path.  A batch of one level for the profile oracle.
    """
    volumes, _, _ = _truncated_volumes(surface, [eps])
    return volumes[0]


class VolumeProfile:
    """Sampled map eps -> volume with provenance.

    Samples are (eps, volume) pairs with eps strictly decreasing and volume
    nondecreasing: a pleated core with no bending and no boundary has a
    constant profile.  An oracle profile also carries the quadrature cells
    evaluated for it and the certified error bound of each volume.
    """

    __slots__ = ("samples", "provenance", "cells", "bounds")

    def __init__(self, samples: tuple[tuple[float, float], ...], provenance: str,
                 cells: int = 0, bounds: tuple[float, ...] = ()):
        pairs = list(zip(samples, samples[1:]))
        if any(e2 >= e1 for (e1, _), (e2, _) in pairs):
            raise ValueError("profile eps values must be strictly decreasing")
        if any(v2 < v1 for (_, v1), (_, v2) in pairs):
            raise ValueError("profile volumes must not decrease as eps decreases")
        self.samples, self.provenance = samples, provenance
        self.cells, self.bounds = cells, bounds


def default_eps_grid(eps_min: float = 1e-3, eps_max: float = 0.3,
                     count: int = 12) -> list:
    """Logarithmic eps grid of count >= 2 levels, descending from eps_max to
    eps_min, both exact; conditions the expansion fit while keeping
    cosh(lambda) moderate for the quadrature.  Levels too close to be
    distinct float64 values are a ValueError."""
    if not (0.0 < eps_min < eps_max < 1.0 and count >= 2):
        raise ValueError("need 0 < eps_min < eps_max < 1 and at least 2 levels")
    step = (math.log(eps_min) - math.log(eps_max)) / (count - 1)
    grid = [eps_max, *(eps_max * math.exp(k * step) for k in range(1, count - 1)), eps_min]
    if not all(map(operator.gt, grid, grid[1:])):
        raise ValueError(f"an eps grid of count {count} from max {eps_max!r} to min "
                         f"{eps_min!r} repeats a level in float64")
    return grid


def closed_profile(terms, eps_grid, convention: Convention) -> VolumeProfile:
    """Closed-form profile: closed_volume at every level of eps_grid."""
    samples = tuple((float(e), closed_volume(terms, float(e), convention)) for e in eps_grid)
    return VolumeProfile(samples, f"closed_form_{convention.value}")


def profile_quadrature(surface: SurfaceInfo, eps_grid) -> VolumeProfile:
    """Oracle profile: every level of eps_grid integrated in one batch."""
    eps_values = [float(e) for e in eps_grid]
    volumes, errors, cells = _truncated_volumes(surface, eps_values)
    return VolumeProfile(tuple(zip(eps_values, volumes)), PROVENANCE_QUADRATURE, cells,
                         tuple(errors))


class ExpansionFit:
    """Coefficients of vol(eps) ~ c_m2 eps^-2 + c_log log(eps) + v + c_2 eps^2.

    v is the renormalized volume.  `residual` is the 2-norm of the fit
    residual and `condition` the Frobenius condition number of R, from the
    QR of the column-scaled design actually solved: 1 to 4 times kappa_2.
    """

    __slots__ = ("c_m2", "c_log", "v", "c_2", "residual", "condition")

    def __init__(self, c_m2: float, c_log: float, v: float, c_2: float,
                 residual: float, condition: float):
        self.c_m2, self.c_log, self.v, self.c_2 = c_m2, c_log, v, c_2
        self.residual, self.condition = residual, condition


def _dot(x, y) -> float:
    """Inner product of two sequences, correctly rounded."""
    return math.fsum(map(operator.mul, x, y))


def _qr(columns):
    """Thin QR of the columns by modified Gram-Schmidt, each column
    orthogonalized twice, which keeps Q orthogonal to working precision
    (Bjorck and Paige, SIAM J. Matrix Anal. Appl. 13, 1992).  Returns (the
    columns of Q, the rows of R); a column in the span of those before it
    leaves a zero on R's diagonal."""
    q, r = [], [[0.0] * len(columns) for _ in columns]
    for j, v in enumerate(columns):
        for _ in range(2):
            for i, qi in enumerate(q):
                c = _dot(qi, v)
                r[i][j] += c
                v = [a - c * b for a, b in zip(v, qi)]
        r[j][j] = norm = math.sqrt(_dot(v, v))
        q.append([a / norm for a in v] if norm else v)
    return q, r


def _back_substitute(r, b):
    """The solution y of R y = b, R upper triangular with a nonzero diagonal."""
    y = list(b)
    for i in reversed(range(len(y))):
        products = (r[i][j] * y[j] for j in range(i + 1, len(y)))
        y[i] = (y[i] - functools.reduce(operator.add, products, 0.0)) / r[i][i]
    return y


def _solve(q, r, rhs):
    """The least-squares solution y of (Q R) y = rhs: R y = Q^T rhs by back
    substitution."""
    return _back_substitute(r, [_dot(qi, rhs) for qi in q])


def fit_expansion(eps, volumes) -> ExpansionFit:
    """Least squares in the exact four-term model family.

    The expansion of the truncated volume terminates at eps^2, so the model
    contains the truth and the fit is exact (up to roundoff) on profiles
    generated by either closed form or by converged quadrature.  The
    columns are scaled to unit norm and solved by modified Gram-Schmidt QR
    (_qr), with two steps of iterative refinement.  The condition number is
    the Frobenius one of R, between 1 and 4 times the 2-norm one, and the
    design of m samples is rank-deficient by numpy's rule applied to it:
    condition * m * 2^-52 not below 1.
    """
    eps = [float(e) for e in eps]
    volumes = [float(v) for v in volumes]
    if len(eps) < 8:
        raise ValueError(f"need at least 8 samples to fit, got {len(eps)}")
    # a nan would slip past min and max below
    for name, values in (("eps", eps), ("volume", volumes)):
        for i, x in enumerate(values):
            if not math.isfinite(x):
                raise ValueError(f"{name} {i} is {x!r}: every sample must be finite")
    if not (min(eps) > 0.0 and max(eps) / min(eps) >= 100.0):
        raise ValueError("samples must be positive and span at least two decades of eps")
    try:
        design = [[e ** -2 for e in eps], [math.log(e) for e in eps],
                  [1.0] * len(eps), [e * e for e in eps]]
        scale = [math.sqrt(_dot(column, column)) for column in design]
    except OverflowError:
        scale = [math.inf]
    if not math.isfinite(scale[0]):
        raise ValueError(
            f"the norm of the eps^-2 column overflows float64 (eps down to "
            f"{min(eps):g}); the fit needs every eps above about 1e-77"
        )
    scaled = [[x / s for x in column] for column, s in zip(design, scale)]
    q, r = _qr(scaled)
    # |R|_F |R^-1|_F, R^-1 by columns: since |A|_2 <= |A|_F <= 2 |A|_2 for a
    # 4x4 A, 1 to 4 times kappa_2 (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., ch. 6); inf for a zero on R's diagonal
    condition = math.inf
    if all(r[i][i] for i in range(4)):
        inverse = [_back_substitute(r, [float(i == j) for i in range(4)]) for j in range(4)]
        condition = math.hypot(*(x for row in r for x in row)) * math.hypot(
            *(x for column in inverse for x in column))
    # the rank rule of numpy's lstsq, sigma_min > max(m, n) 2^-52 sigma_max,
    # on that number; a nan one fails it too
    if not condition * len(eps) * 2.0 ** -52 < 1.0:
        raise ValueError("rank-deficient design; eps values are not distinct enough")
    y = _solve(q, r, volumes)
    # iterative refinement recovers exact-model coefficients to near
    # machine precision despite the wide column scaling
    rows = list(zip(*scaled))
    for _ in range(2):
        resid = [v - (a * y[0] + b * y[1] + c * y[2] + d * y[3])
                 for v, (a, b, c, d) in zip(volumes, rows)]
        y = [yi + dy for yi, dy in zip(y, _solve(q, r, resid))]
    x = [yi / s for yi, s in zip(y, scale)]
    resid = [v - (a * x[0] + b * x[1] + c * x[2] + d * x[3])
             for v, (a, b, c, d) in zip(volumes, zip(*design))]
    return ExpansionFit(c_m2=x[0], c_log=x[1], v=x[2], c_2=x[3],
                        residual=math.sqrt(_dot(resid, resid)), condition=condition)


def bending_sum(pairs) -> float:
    """sum over (length, theta) of (pi - theta) * length, in the given order."""
    return functools.reduce(operator.add, [(math.pi - t) * length for length, t in pairs], 0.0)
