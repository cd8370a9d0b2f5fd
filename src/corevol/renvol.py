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
pleated wedge oracle integrates too.  Every closed form, Fuchsian and
pleated, is a row of the one table CLOSED_FORMS, and no formula branches
on the convention.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quadrature
from .quadrature import _UNIT_ROUNDOFF, QuadratureError, cosh_power_quad_batch
from .surface import SurfaceInfo


class Convention(Enum):
    PAPER = "paper"
    DERIVED = "derived"


PROVENANCE_QUADRATURE = "quadrature"

# Every closed form of the truncated volume: per (convention, term), the
# coefficients of (sinh 2 lam, sinh^2 lam, lam, 1, eps), lam = -log eps, per
# unit of the term's weight: 2 A for the two core copies of a Fuchsian
# surface, the boundary area for the collar slab of a pleated core, and
# w = sum (pi - theta_i) L_i over its ends (theta = 0) or bent leaves.  The
# derived rows are Krasnov-Schlenker's (Comm. Math. Phys. 279, 2008)
# vol = W(C) - pi lam chi + (1/4) int H da over the level set, per term:
# w lam / 2 + (1/4) 2 tanh lam w cosh^2 lam for a core or collar, and
# -w / 4 + (1/4) (tanh lam + coth lam) w sinh lam cosh lam for an end or
# wedge.  The paper rows are the printed lines pi (g - 1)/4 (eps^-2 +
# log(eps)/2 - eps^2) (2 A = 4 pi (g - 1)), (pi/4) (eps^-2 - 2 + eps^2)
# sum L_i and w/4 (eps + eps^-2) - w/2; the collar has none.  Every
# coefficient is dyadic, so each product c * b is exact.
CLOSED_FORMS = {
    (Convention.DERIVED, "core"): (0.25, 0.0, 0.5, 0.0, 0.0),
    (Convention.PAPER, "core"): (0.125, 0.0, -0.03125, 0.0, 0.0),
    (Convention.DERIVED, "collar"): (0.25, 0.0, 0.5, 0.0, 0.0),
    (Convention.PAPER, "collar"): (0.25, 0.0, 0.5, 0.0, 0.0),
    (Convention.DERIVED, "end"): (0.0, 0.5, 0.0, 0.0, 0.0),
    (Convention.PAPER, "end"): (0.0, 1.0, 0.0, 0.0, 0.0),
    (Convention.DERIVED, "wedge"): (0.0, 0.5, 0.0, 0.0, 0.0),
    (Convention.PAPER, "wedge"): (0.25, 0.5, 0.0, -0.25, 0.25),
}


# smallest quadrature tolerance the oracle accepts
QUAD_TOL_FLOOR = 1e-10


def level_lambda(eps: float) -> float:
    """Distance lambda = -log(eps) to the core of the level eps, for eps in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return -math.log(eps)


def _level_radius(eps: float) -> float:
    """sinh(lambda) of the level eps, as (1 - eps)(1 + eps) / (2 eps): no
    cancellation and no lambda to amplify, so within 2 u relative."""
    level_lambda(eps)  # the same domain check
    return (1.0 - eps) * (1.0 + eps) / (2.0 * eps)


def level_set_area(surface: SurfaceInfo, lam: float) -> float:
    """Area of the distance-lambda level surface.

    Two copies of the core scaled by cosh^2(lambda) plus one flat cylinder
    of area pi L_i sinh(lambda) cosh(lambda) per end.
    """
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    cylinders = math.pi * math.sinh(lam) * math.cosh(lam) * surface.total_end_length
    return 2.0 * surface.core_area * math.cosh(lam) ** 2 + cylinders


def surface_terms(surface: SurfaceInfo) -> list:
    """(term, weight) pairs of a Fuchsian surface: its two core copies, and
    its ends as leaves bent at theta = 0."""
    ends = bending_sum((length, 0.0) for length in surface.end_lengths)
    return [("core", 2.0 * surface.core_area), ("end", ends)]


def closed_volume(terms, eps: float, convention: Convention, base: float = 0.0) -> float:
    """Closed-form truncated volume at level eps: base plus every (term,
    weight) of `terms`, each the correctly rounded sum of its row's exact
    products times its weight."""
    lam = level_lambda(eps)
    basis = (math.sinh(2.0 * lam), math.sinh(lam) ** 2, lam, 1.0, eps)
    volumes = [weight * math.fsum(map(operator.mul, CLOSED_FORMS[convention, term], basis))
               for term, weight in terms]
    return math.fsum([base, *volumes])


def renormalized_volume(terms, convention: Convention, base: float = 0.0) -> float:
    """Constant term of the closed-form expansion: base plus c_1 - c_sinh^2 / 2
    of each term's row times its weight, in order (in the eps expansion
    sinh 2 lam and lam have no constant term, sinh^2 lam has -1/2).  A term
    whose constant is zero adds nothing, not even the sign of a zero."""
    v = base
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


def _sector_areas(eps_values, thetas, rel_tol: float):
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
    cosh_power_quad_batch, |a_j| <= 2 M rho^-j; the odd T_j are integrated
    exactly by the symmetric rule, so only even j >= 24 contribute, and a
    cell's error is at most 8 h M rho^-22 / (rho^2 - 1), all n cells'
    64 s_k rho^-22 / (rho^2 - 1).  The piece takes the fewest cells whose
    bound is below the slice's rounding bound (_arc_partition): one, or two
    for theta below about 0.69.  So a slice is exact to rounding whatever
    the tolerance, and rel_tol is only checked.  Every term of a slice is
    positive, so relative rounding errors add.  Relative to the slice, the
    rounded nodes move it by at most 9 u (each piece is monotone or nearly
    so, and x |f'| integrates to a few times f), the integrand's
    evaluation 6 u, the weights and the 15-point sums 15 u, the kink (cos /
    sqrt(1 + sin), with no cancellation) 3 u and the sum of its n cells
    n u: (33 + n) u, taken with room as (_SLICE_ROUNDING + n) u.  R^2 adds
    5 u (_level_radius).

    Each distinct theta's unit slice is integrated once, on a partition
    fixed in advance, and every cell of every slice is evaluated in one
    _eval_cells call, so an area does not depend on the rest of the batch.
    A piece that needs more than MAX_CELLS cells raises QuadratureError,
    and so does a sector whose error bound exceeds rel_tol times its area;
    `owner` is the sector (the first of its theta).  Returns (areas, error
    bounds) as arrays and the number of cells evaluated.
    """
    slots, firsts = {}, []
    for k, theta in enumerate(thetas):
        if theta not in slots:
            slots[theta] = len(firsts)
            firsts.append(k)
    # rows (left, right, piece) of every cell; slice j owns the pieces 2j
    # (the cubic, in u) and 2j + 1 (the arc, in s), and coef their factors
    cells, coef, bounds = [], np.zeros(2 * len(firsts)), np.zeros(len(firsts))
    for j, theta in enumerate(slots):
        if theta == math.pi:
            continue
        sin_h, cos_h = math.sin(0.5 * theta), math.cos(0.5 * theta)
        s_kink = cos_h / math.sqrt(1.0 + sin_h)
        if s_kink < 1.0:
            cells.append((0.0, 1.0 - s_kink, 2 * j))
            coef[2 * j] = 4.0 * cos_h / sin_h
        if s_kink > 0.0:
            n, bounds[j] = _arc_partition(s_kink)
            if n > quadrature.MAX_CELLS:
                raise QuadratureError(
                    f"tolerance {_SLICE_ROUNDING * _UNIT_ROUNDOFF:.3e} (the rounding bound) "
                    f"not met within {quadrature.MAX_CELLS} cells on [0.0, {s_kink!r}] "
                    f"(the certified partition needs {n})", owner=firsts[j],
                )
            cells += [(s_kink * i / n, s_kink * (i + 1) / n, 2 * j + 1) for i in range(n)]
            coef[2 * j + 1] = 4.0

    def column(x, k):
        return coef[k] * np.where(k & 1, x * x * np.sqrt(2.0 - x * x),
                                  x * (2.0 - x) * (1.0 - x))

    units, counts = np.zeros(len(firsts)), np.zeros(len(firsts))
    if cells:
        rows = quadrature._eval_cells(column, np.array(cells).T)
        slot = rows[2].astype(np.intp) >> 1
        # each slice's cells in order, cubic piece first
        units = np.bincount(slot, weights=rows[3], minlength=len(firsts))
        counts = np.bincount(slot, minlength=len(firsts))
    rounding = (_SLICE_ROUNDING + 5.0 + counts) * _UNIT_ROUNDOFF
    unit_errors = bounds + rounding * units
    index = [slots[theta] for theta in thetas]
    radii = np.array([_level_radius(float(eps)) for eps in eps_values])
    squares = radii * radii
    areas, errors = squares * units[index], squares * unit_errors[index]
    over = (~(errors <= rel_tol * areas) | ~np.isfinite(areas)).nonzero()[0]
    if over.size:
        k = over[0]
        raise QuadratureError(
            f"tolerance {rel_tol:.3e} (relative) not met: the certified error "
            f"{errors[k]:.3e} of area {areas[k]:.6e} exceeds it", owner=int(k),
        )
    return areas, errors, len(cells)


def _truncated_volumes(surface: SurfaceInfo, eps_values, tol: float):
    """Oracle volumes and their error bounds at every level of eps_values,
    each integral one batch over all levels, and the number of cells
    evaluated; raises QuadratureError at the first level, in the given
    order, whose bound exceeds tol * |volume|.  A QuadratureError names its
    eps level, and the integral too if it failed inside one."""
    if tol < QUAD_TOL_FLOOR:
        raise ValueError(f"tolerance must be at least {QUAD_TOL_FLOOR!r}, got {tol}")
    lams = np.array([level_lambda(float(e)) for e in eps_values])
    totals = np.zeros(lams.size)
    errs = np.zeros(lams.size)
    cells = 0
    integral = "core slab"
    try:
        if surface.core_area != 0.0:
            slabs, slab_errs, cells = cosh_power_quad_batch(0.0, lams, 2, rel_tol=tol / 4.0)
            totals += 2.0 * surface.core_area * slabs
            errs += 2.0 * surface.core_area * slab_errs
        integral = "end cylinder"
        total_length = surface.total_end_length
        if total_length > 0.0:
            areas, area_errs, end_cells = _sector_areas(eps_values, [0.0] * lams.size, tol / 2.0)
            totals += total_length * areas
            errs += total_length * area_errs
            cells += end_cells
    except QuadratureError as exc:
        eps = float(eps_values[exc.owner])
        raise QuadratureError(f"{integral} at eps {eps!r}: {exc}", exc.owner) from None
    for k, (total, err) in enumerate(zip(totals.tolist(), errs.tolist())):
        if err > tol * abs(total) + 1e-300:
            raise QuadratureError(
                f"quadrature error bound {err:.3e} exceeds tolerance for volume "
                f"{total:.6e} at eps {float(eps_values[k])!r}", k
            )
    return totals, errs, cells


# stays public: perfbench/tracer.py counts truncated_volume_quadrature.calls through it
def truncated_volume_quadrature(surface: SurfaceInfo, eps: float,
                                tol: float = 1e-9) -> float:
    """Independent oracle for the truncated volume.

    Integrates the volume element numerically over the truncated region
    (the core slab, and the tube around each end as L times its half-disk
    slice); no closed-form antiderivative of the integrand is used anywhere
    on this path.  A batch of one level for the profile oracle.
    """
    volumes, _, _ = _truncated_volumes(surface, [eps], tol)
    return float(volumes[0])


@dataclass(frozen=True)
class VolumeProfile:
    """Sampled map eps -> volume with provenance.

    Samples are (eps, volume) pairs with eps strictly decreasing and volume
    nondecreasing: a pleated core with no bending and no boundary has a
    constant profile.  `cells` counts the quadrature cells evaluated for it.
    """

    samples: tuple[tuple[float, float], ...]
    provenance: str
    cells: int = 0

    def __post_init__(self):
        eps = [s[0] for s in self.samples]
        vol = [s[1] for s in self.samples]
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("profile eps values must be strictly decreasing")
        if any(v2 < v1 for v1, v2 in zip(vol, vol[1:])):
            raise ValueError("profile volumes must not decrease as eps decreases")

    @property
    def eps(self):
        return np.array([s[0] for s in self.samples])

    @property
    def volumes(self):
        return np.array([s[1] for s in self.samples])


def default_eps_grid(eps_min: float = 1e-3, eps_max: float = 0.3,
                     count: int = 12) -> np.ndarray:
    """Logarithmic eps grid, descending; conditions the expansion fit while
    keeping cosh(lambda) moderate for the quadrature."""
    if not (0.0 < eps_min < eps_max < 1.0):
        raise ValueError("need 0 < eps_min < eps_max < 1")
    return np.geomspace(eps_max, eps_min, count)


def closed_profile(terms, eps_grid, convention: Convention, base: float = 0.0) -> VolumeProfile:
    """Closed-form profile: closed_volume at every level of eps_grid."""
    samples = tuple((float(e), closed_volume(terms, float(e), convention, base))
                    for e in eps_grid)
    return VolumeProfile(samples, f"closed_form_{convention.value}")


def profile_quadrature(surface: SurfaceInfo, eps_grid, tol: float = 1e-9) -> VolumeProfile:
    """Oracle profile: every level of eps_grid integrated in one batch."""
    eps_values = [float(e) for e in eps_grid]
    volumes, _, cells = _truncated_volumes(surface, eps_values, tol)
    return VolumeProfile(tuple(zip(eps_values, volumes.tolist())), PROVENANCE_QUADRATURE, cells)


@dataclass(frozen=True)
class ExpansionFit:
    """Coefficients of vol(eps) ~ c_m2 eps^-2 + c_log log(eps) + v + c_2 eps^2.

    v is the renormalized volume.  `residual` is the 2-norm of the fit
    residual and `condition` the condition number of the column-scaled
    design actually solved.
    """

    c_m2: float
    c_log: float
    v: float
    c_2: float
    residual: float
    condition: float


def fit_expansion(eps, volumes) -> ExpansionFit:
    """Least squares in the exact four-term model family.

    The expansion of the truncated volume terminates at eps^2, so the model
    contains the truth and the fit is exact (up to roundoff) on profiles
    generated by either closed form or by converged quadrature.
    """
    eps = np.asarray(eps, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    if eps.size < 8:
        raise ValueError(f"need at least 8 samples to fit, got {eps.size}")
    if eps.max() / eps.min() < 100.0:
        raise ValueError("samples must span at least two decades of eps")
    design = np.column_stack([eps ** -2, np.log(eps), np.ones_like(eps), eps ** 2])
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(design, axis=0)
    if not np.isfinite(scale[0]):
        raise ValueError(
            f"the norm of the eps^-2 column overflows float64 (eps down to "
            f"{eps.min():g}); the fit needs every eps above about 1e-77"
        )
    if not np.all(scale > 0.0):
        raise ValueError("degenerate design column")
    scaled = design / scale
    coeffs, _, rank, _ = np.linalg.lstsq(scaled, volumes, rcond=None)
    if rank < 4:
        raise ValueError("rank-deficient design; eps values are not distinct enough")
    # iterative refinement recovers exact-model coefficients to near
    # machine precision despite the wide column scaling
    for _ in range(2):
        resid = volumes - scaled @ coeffs
        coeffs = coeffs + np.linalg.lstsq(scaled, resid, rcond=None)[0]
    x = coeffs / scale
    residual = float(np.linalg.norm(volumes - design @ x))
    condition = float(np.linalg.cond(scaled))
    return ExpansionFit(
        c_m2=float(x[0]), c_log=float(x[1]), v=float(x[2]), c_2=float(x[3]),
        residual=residual, condition=condition,
    )


def expansion_fit(profile: VolumeProfile) -> ExpansionFit:
    return fit_expansion(profile.eps, profile.volumes)


def bending_sum(pairs) -> float:
    """sum over (length, theta) of (pi - theta) * length, in the given order."""
    total = 0.0
    for length, theta in pairs:
        total += (math.pi - theta) * length
    return total
