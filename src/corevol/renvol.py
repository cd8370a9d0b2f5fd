"""Renormalized volume of Fuchsian Schottky 3-manifolds.

The truncated region at level eps = exp(-lambda) is the set of points within
distance lambda of the convex core.  Its volume has the exact form

    c_-2 eps^-2 + c_log log(eps) + V + c_2 eps^2,

and the constant term V is the renormalized volume.  Two coefficient
conventions are carried side by side: "paper" reproduces the closed forms
as printed in the source derivation this toolkit follows, while "derived"
uses the antiderivative forms consistent with the induced level-set metric;
the two disagree by a factor of two in the end-cylinder term, so the
quadrature oracle here is the arbiter and every report prints both.  Every
closed form, Fuchsian and pleated, is a row of the one table CLOSED_FORMS,
and no formula branches on the convention.
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


# libm's cosh and acosh, elementwise: numpy's own differ from them in the
# last ulp at some nodes, which would move the fitted coefficients' last digits
_libm_cosh = np.frompyfunc(math.cosh, 1, 1)
_libm_acosh = np.frompyfunc(math.acosh, 1, 1)


# Equal first cells of each level's outer s interval.  Across lam 1.2-9.2
# at tol 1e-8 and 1e-9, one first cell never met the tolerance and the
# final partitions had 2-4 cells.  On the first 40 renvol_sweep ops (seed
# 1), three first cells took the outer passes per op from 2.9 to 1.2 and
# the outer cells evaluated from 48.5 to 36.4.  The wedge keeps the
# default one: with three, its integrand calls per op fell from 2.37 to
# 1.22 on the first 60 wedge_leaves ops, but at theta = pi/3 its |K - G|
# estimate on the unsplit cells fell below the rounding of the sum and no
# longer bounded the 50-digit error (3 of the 15 wedge cases at tol 1e-8).
_OUTER_FIRST_CELLS = 3


def _end_cylinder_integrals(lams, rel_tol: float):
    """Volume over one unit-length end at each level lams[k]: integral of
    cosh^2(r) cosh(t) over {cosh r cosh t <= cosh lam, t >= 0}.  One batched
    adaptive quadrature in r covers all levels; its integrand is one
    certified one-pass quadrature of cosh t for all of its r nodes.
    Returns (values, error estimates) as arrays.

    The region is symmetric under r -> -r, so r runs over [0, lam] only,
    as r = lam s (2 - s) with s in [0, 1]: the height t_max = acosh(cosh lam
    / cosh r) vanishes like sqrt(lam - r) at r = lam, and lam - r = lam
    (1 - s)^2 makes it smooth in s."""
    cosh_lam = _libm_cosh(lams).astype(float)

    def cross_section(s, k):
        lam = lams[k]
        cosh_r = _libm_cosh(lam * s * (2.0 - s)).astype(float)
        t_max = _libm_acosh(np.maximum(cosh_lam[k] / cosh_r, 1.0)).astype(float)
        try:
            inner, _ = cosh_power_quad_batch(0.0, t_max, 1, rel_tol=rel_tol / 8.0)
        except QuadratureError as exc:
            exc.owner = int(k[exc.owner])  # from the node to its level
            raise
        return np.float_power(cosh_r, 2) * inner * (2.0 * lam * (1.0 - s))

    halves, errors = adaptive_quad_batch(cross_section, 0.0, np.ones(lams.size),
                                         rel_tol=rel_tol / 2.0,
                                         first_cells=_OUTER_FIRST_CELLS)
    values = 2.0 * halves
    return values, 2.0 * errors + np.abs(values) * rel_tol / 8.0


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
            cyls, cyl_errs = _end_cylinder_integrals(lams, rel_tol=tol / 2.0)
            totals += total_length * cyls
            errs += total_length * cyl_errs
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
    (core slab plus one cylinder region per end); no closed-form
    antiderivative of the integrand is used anywhere on this path.  A batch
    of one level for the profile oracle.
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
