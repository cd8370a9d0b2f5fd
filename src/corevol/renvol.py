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

from .quadrature import QuadratureError, adaptive_quad_batch, cosh_power_quad_batch
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


def _sector_areas(radii, thetas, rel_tol: float):
    """Areas of the disk sectors {x >= 0, y <= tan(pi/2 - theta) x} of width
    pi - theta and radius R, per (R, theta) of radii and thetas: the slices
    of pleated wedges and, at theta = 0, of the tubes around Fuchsian ends.

    Each column x has the y-width min(slope x, arc) + arc.  x runs up to
    x_max = R when theta <= pi/2, where the arc sqrt(R^2 - x^2) vanishes
    like sqrt(R - x), and otherwise up to the kink x = R sin(theta), where
    the edge ray meets the arc.  The columns are integrated in u in [0, 1]
    with x = x_max u (2 - u), which makes the square-root endpoint smooth,
    times the Jacobian 2 x_max (1 - u); the kink, at u = 1 - sqrt(1 -
    sin(theta)) when theta <= pi/2, splits [0, 1] in two.  One
    adaptive_quad_batch call integrates every sector: sector k owns
    intervals 2k = [0, u_kink] and 2k + 1 = [u_kink, 1], each refined on
    its own, so an area does not depend on the rest of the batch.  Returns
    (areas, error estimates); a QuadratureError's `owner` is the sector.
    """
    count = len(radii)
    # a flat sector keeps u_kink = end = 0: two empty intervals
    radius, x_max, slope, u_kink, end = (np.zeros(count) for _ in range(5))
    edge = np.zeros(count, dtype=bool)
    for i, (r, theta) in enumerate(zip(radii, thetas)):
        radius[i] = r
        if theta == math.pi:
            continue
        sin_t, cos_t = math.sin(theta), math.cos(theta)
        below_right_angle = theta <= math.pi / 2.0
        x_max[i] = r if below_right_angle else r * sin_t
        u_kink[i] = 1.0 - math.sqrt(1.0 - sin_t) if below_right_angle else 1.0
        end[i] = 1.0
        # upper sector edge y = slope * x; the half-disk at theta = 0 has
        # none, and `column` picks the arc there (slope 0 keeps inf * 0 out)
        edge[i] = sin_t > 0.0
        slope[i] = cos_t / sin_t if edge[i] else 0.0

    def column(u, k):
        sector = k // 2
        r, x_end = radius[sector], x_max[sector]
        x = x_end * u * (2.0 - u)
        arc = np.sqrt(np.clip(r * r - x ** 2, 0.0, None))
        # slope * x can overflow for a theta near 0 at a small eps; the
        # infinite product then picks the arc, as theta = 0 does
        with np.errstate(over="ignore"):
            edge_y = slope[sector] * x
        upper = np.where(edge[sector], np.minimum(edge_y, arc), arc)
        return np.clip(upper + arc, 0.0, None) * (2.0 * x_end * (1.0 - u))

    a = np.column_stack([np.zeros(count), u_kink]).ravel()
    b = np.column_stack([u_kink, end]).ravel()
    try:
        pieces, errors = adaptive_quad_batch(column, a, b, rel_tol=rel_tol)
    except QuadratureError as exc:
        exc.owner //= 2  # from the interval to its sector
        raise
    return 0.0 + pieces[0::2] + pieces[1::2], errors[0::2] + errors[1::2]


def _truncated_volumes(surface: SurfaceInfo, eps_values, tol: float):
    """Oracle volumes and their error estimates at every level of
    eps_values, each integral one batch over all levels; raises
    QuadratureError at the first level, in the given order, whose estimate
    exceeds tol * |volume|.  A QuadratureError names its eps level, and the
    integral too if it failed inside one."""
    if tol < QUAD_TOL_FLOOR:
        raise ValueError(f"tolerance must be at least {QUAD_TOL_FLOOR!r}, got {tol}")
    lams = np.array([level_lambda(float(e)) for e in eps_values])
    totals = np.zeros(lams.size)
    errs = np.zeros(lams.size)
    integral = "core slab"
    try:
        if surface.core_area != 0.0:
            slabs, slab_errs = cosh_power_quad_batch(0.0, lams, 2, rel_tol=tol / 4.0)
            totals += 2.0 * surface.core_area * slabs
            errs += 2.0 * surface.core_area * slab_errs
        integral = "end cylinder"
        total_length = surface.total_end_length
        if total_length > 0.0:
            radii = [math.sinh(lam) for lam in lams.tolist()]
            areas, area_errs = _sector_areas(radii, [0.0] * lams.size, tol / 2.0)
            totals += total_length * areas
            errs += total_length * area_errs
    except QuadratureError as exc:
        eps = float(eps_values[exc.owner])
        raise QuadratureError(f"{integral} at eps {eps!r}: {exc}", exc.owner) from None
    for k, (total, err) in enumerate(zip(totals.tolist(), errs.tolist())):
        if err > tol * abs(total) + 1e-300:
            raise QuadratureError(
                f"quadrature error estimate {err:.3e} exceeds tolerance for volume "
                f"{total:.6e} at eps {float(eps_values[k])!r}", k
            )
    return totals, errs


# stays public: perfbench/tracer.py counts truncated_volume_quadrature.calls through it
def truncated_volume_quadrature(surface: SurfaceInfo, eps: float,
                                tol: float = 1e-9) -> float:
    """Independent oracle for the truncated volume.

    Integrates the volume element numerically over the truncated region
    (the core slab, and the tube around each end as L times its half-disk
    slice); no closed-form antiderivative of the integrand is used anywhere
    on this path.  A batch of one level for the profile oracle.
    """
    volumes, _ = _truncated_volumes(surface, [eps], tol)
    return float(volumes[0])


@dataclass(frozen=True)
class VolumeProfile:
    """Sampled map eps -> volume with provenance.

    Samples are (eps, volume) pairs with eps strictly decreasing and volume
    nondecreasing: a pleated core with no bending and no boundary has a
    constant profile.
    """

    samples: tuple[tuple[float, float], ...]
    provenance: str

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
    volumes, _ = _truncated_volumes(surface, eps_values, tol)
    return VolumeProfile(tuple(zip(eps_values, volumes.tolist())), PROVENANCE_QUADRATURE)


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
