"""Renormalized volume from pleating data (the non-Fuchsian case).

The convex core is a compact region whose boundary surface is bent along
finitely many closed leaves.  The truncated region decomposes into the core,
a slab over the totally geodesic part of the boundary, and one wedge per
bent leaf; the wedge is the set of points projecting onto the leaf, a sector
of angular width (pi - theta) around its axis.  Pleating data (core volume,
leaf lengths and bending angles) is input, not computed.  The closed
forms of the collar slab and the wedges are rows of renvol.CLOSED_FORMS,
read through `PleatedCoreData.terms` with the core volume as their base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# adaptive_quad stays a name of this module: perfbench/tracer.py wraps
# corevol.pleated.adaptive_quad, and its per-layer metrics need the name
from .quadrature import QuadratureError, adaptive_quad, adaptive_quad_batch  # noqa: F401
from .renvol import (
    QUAD_TOL_FLOOR,
    Convention,
    bending_sum,
    closed_volume,
    level_lambda,
    renormalized_volume,
    surface_terms,
)
from .surface import SurfaceInfo

# level and relative tolerance of the wedge-oracle leg of fuchsian_reduction_check
REDUCTION_EPS = 0.1
REDUCTION_REL_TOL = 1e-12


@dataclass(frozen=True)
class PleatLeaf:
    """Closed pleating leaf: length and interior dihedral angle theta.

    theta = pi means no bending; theta = 0 is the doubled-surface limit used
    by the Fuchsian degeneration, where each end geodesic counts as a leaf
    bent completely flat.
    """

    length: float
    theta: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"leaf length must be positive, got {self.length}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"bending angle must lie in [0, pi], got {self.theta}")


@dataclass(frozen=True)
class PleatedCoreData:
    """Convex-core input data: volume, boundary area, bent leaves.

    boundary_area is the hyperbolic area -2 pi chi(S) of the boundary
    surface; for a closed genus-g boundary use `from_genus`.
    """

    core_volume: float
    leaves: tuple[PleatLeaf, ...]
    boundary_area: float

    def __post_init__(self):
        if self.core_volume < 0:
            raise ValueError(f"core volume must be nonnegative, got {self.core_volume}")
        if self.boundary_area < 0:
            raise ValueError(f"boundary area must be nonnegative, got {self.boundary_area}")

    @classmethod
    def from_genus(cls, core_volume: float, leaves, genus: int) -> "PleatedCoreData":
        if genus < 2:
            raise ValueError(f"closed boundary surface needs genus >= 2, got {genus}")
        return cls(core_volume, tuple(leaves), 4.0 * math.pi * (genus - 1))

    @property
    def terms(self) -> list:
        """(term, weight) pairs of the closed forms: the collar slab over the
        boundary and the wedges of all leaves.  The core volume is their base."""
        bending = bending_sum((leaf.length, leaf.theta) for leaf in self.leaves)
        return [("collar", self.boundary_area), ("wedge", bending)]


def wedge_volume_quadrature(leaves, eps: float, tol: float = 1e-8):
    """3d oracle for the wedge volumes of `leaves` in the upper half-space model.

    The leaf axis is the z-axis and the wedge is the normal-cone sector
    {x >= 0, y <= tan(pi/2 - theta) x} of width (pi - theta), truncated at
    distance lambda from the axis (sqrt(x^2+y^2+z^2)/z <= cosh lambda) with
    z in [1, e^L], a fundamental domain of the leaf holonomy.  At theta = 0
    the sector is the half-plane x >= 0.

    Only the z integral is done exactly: the holonomy z -> e^s z is an
    isometry preserving the sector and dx dy dz / z^3, so the z-slice has
    1/z times the area of the z = 1 slice, and the wedge is L times that
    area (the integral of dz / z over [1, e^L]).  The slice, of radius
    R = sinh(lam), is integrated numerically column by column, each column
    giving its Cartesian y-width min(slope x, arc) + arc.  x runs up to
    x_max = R when theta <= pi/2, where the arc sqrt(R^2 - x^2) vanishes
    like sqrt(R - x), and otherwise up to the kink x = R sin(theta), where
    the edge ray meets the arc.  The columns are integrated in u in [0, 1]
    with x = x_max u (2 - u), which makes the square-root endpoint smooth,
    times the Jacobian 2 x_max (1 - u); the kink, at
    u = 1 - sqrt(1 - sin(theta)) when theta <= pi/2, splits [0, 1] into two
    intervals.

    Every leaf is integrated in one adaptive_quad_batch call: leaf i owns
    interval 2i = [0, u_kink] and 2i + 1 = [u_kink, 1], and a flat leaf
    (theta = pi) two empty ones.  The engine refines and sums each interval
    on its own, so a leaf's value does not depend on the other leaves of
    the batch.  Returns (values, error estimates) as arrays in leaf order,
    each scaled by its leaf's length.  A QuadratureError names the failing
    leaf and eps, and its `owner` is that leaf's index.
    """
    if tol < QUAD_TOL_FLOOR:
        raise ValueError(f"tolerance must be at least {QUAD_TOL_FLOOR!r}, got {tol}")
    lam = level_lambda(eps)
    radius = math.sinh(lam)
    # a flat leaf keeps u_kink = end = 0: two empty intervals
    length, x_max, slope, u_kink, end = (np.zeros(len(leaves)) for _ in range(5))
    edge = np.zeros(len(leaves), dtype=bool)
    for i, leaf in enumerate(leaves):
        length[i] = leaf.length
        if leaf.theta == math.pi:
            continue
        sin_t, cos_t = math.sin(leaf.theta), math.cos(leaf.theta)
        below_right_angle = leaf.theta <= math.pi / 2.0
        x_max[i] = radius if below_right_angle else radius * sin_t
        u_kink[i] = 1.0 - math.sqrt(1.0 - sin_t) if below_right_angle else 1.0
        end[i] = 1.0
        # upper sector edge y = slope * x; the half-disk at theta = 0 has
        # none, and `column` picks the arc there (slope 0 keeps inf * 0 out)
        edge[i] = sin_t > 0.0
        slope[i] = cos_t / sin_t if edge[i] else 0.0

    def column(u, k):
        leaf = k // 2
        x_end = x_max[leaf]
        x = x_end * u * (2.0 - u)
        arc = np.sqrt(np.clip(radius * radius - x ** 2, 0.0, None))
        # slope * x can overflow for a theta near 0 at a small eps; the
        # infinite product then picks the arc, as theta = 0 does
        with np.errstate(over="ignore"):
            edge_y = slope[leaf] * x
        upper = np.where(edge[leaf], np.minimum(edge_y, arc), arc)
        return np.clip(upper + arc, 0.0, None) * (2.0 * x_end * (1.0 - u))

    a = np.column_stack([np.zeros(len(leaves)), u_kink]).ravel()
    b = np.column_stack([u_kink, end]).ravel()
    try:
        pieces, errors = adaptive_quad_batch(column, a, b, rel_tol=tol)
    except QuadratureError as exc:
        leaf = exc.owner // 2
        raise QuadratureError(f"leaf {leaf} at eps {eps!r}: {exc}", leaf) from None
    values = length * (0.0 + pieces[0::2] + pieces[1::2])
    return values, length * (errors[0::2] + errors[1::2])


def fuchsian_reduction_check(surface: SurfaceInfo, convention: Convention):
    """Degenerate a Fuchsian surface to pleating data and compare routes.

    The core volume collapses to zero and every end geodesic becomes a leaf
    with theta = 0; the pleated V must then equal the Fuchsian one bitwise.
    That holds by construction: both read the constants of CLOSED_FORMS
    rows of equal V (collar and core add nothing, wedge and end the same
    multiple of one bending sum).  The independent leg is the oracle's:
    the DERIVED closed truncated volume at eps = REDUCTION_EPS must match
    the slab volume plus the 3d wedge oracle of every leaf within
    REDUCTION_REL_TOL, whatever the convention; `oracle_gap` is their
    relative difference.  Returns (passed, report dict).
    """
    leaves = tuple(PleatLeaf(length, 0.0) for length in surface.end_lengths)
    core = PleatedCoreData(0.0, leaves, boundary_area=2.0 * surface.core_area)
    pleated = renormalized_volume(core.terms, convention, base=core.core_volume)
    fuchsian = renormalized_volume(surface_terms(surface), convention)
    closed = closed_volume(surface_terms(surface), REDUCTION_EPS, Convention.DERIVED)
    wedges, _ = wedge_volume_quadrature(leaves, REDUCTION_EPS)
    slab = closed_volume([("collar", core.boundary_area)], REDUCTION_EPS, Convention.DERIVED)
    oracle = slab + sum(wedges.tolist())
    gap = abs(oracle - closed) / closed if closed else abs(oracle)
    report = {
        "convention": convention.value,
        "pleated": pleated,
        "fuchsian": fuchsian,
        "difference": pleated - fuchsian,
        "oracle_gap": gap,
    }
    return pleated == fuchsian and gap <= REDUCTION_REL_TOL, report
