"""Renormalized volume from pleating data (the non-Fuchsian case).

The convex core is a compact region whose boundary surface is bent along
finitely many closed leaves.  The truncated region decomposes into the core,
a slab over the totally geodesic part of the boundary, and one wedge per
bent leaf; the wedge is the set of points projecting onto the leaf, a sector
of angular width (pi - theta) around its axis.  Pleating data (core volume,
leaf lengths and bending angles) is input, not computed.  The closed
forms of the collar slab and the wedges are rows of renvol.CLOSED_FORMS,
read through `PleatedCoreData.terms` with the core volume as their base.
`PleatLeaf` and `PleatedCoreData` are plain records with `__slots__`,
immutable by convention.
"""

from __future__ import annotations

import math

# adaptive_quad stays a name of this module only for perfbench/tracer.py,
# which wraps corevol.pleated.adaptive_quad: no pipeline path calls it, so
# its metrics read 0, but tests/test_bench_metrics.py ties the tracer's
# metric keys to the per_layer list of BENCHMARK.json
from .quadrature import adaptive_quad  # noqa: F401
from .renvol import (
    Convention,
    _finite_volume,
    _sector_areas,
    bending_sum,
    closed_volume,
    renormalized_volume,
    surface_terms,
)
from .surface import SurfaceInfo

# level and relative tolerance of the wedge-oracle leg of fuchsian_reduction_check
REDUCTION_EPS = 0.1
REDUCTION_REL_TOL = 1e-12


class PleatLeaf:
    """Closed pleating leaf: length and interior dihedral angle theta.

    theta = pi means no bending; theta = 0 is the doubled-surface limit used
    by the Fuchsian degeneration, where each end geodesic counts as a leaf
    bent completely flat.
    """

    __slots__ = ("length", "theta")

    def __init__(self, length: float, theta: float):
        if not length > 0:
            raise ValueError(f"leaf length must be positive, got {length}")
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"bending angle must lie in [0, pi], got {theta}")
        self.length, self.theta = length, theta


class PleatedCoreData:
    """Convex-core input data: volume, boundary area, bent leaves.

    boundary_area is the hyperbolic area -2 pi chi(S) of the boundary
    surface; for a closed genus-g boundary use `from_genus`.
    """

    __slots__ = ("core_volume", "leaves", "boundary_area")

    def __init__(self, core_volume: float, leaves: tuple[PleatLeaf, ...],
                 boundary_area: float):
        if core_volume < 0:
            raise ValueError(f"core volume must be nonnegative, got {core_volume}")
        if boundary_area < 0:
            raise ValueError(f"boundary area must be nonnegative, got {boundary_area}")
        self.core_volume, self.leaves, self.boundary_area = core_volume, leaves, boundary_area

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


def wedge_volume_quadrature(leaves, eps: float):
    """3d oracle for the wedge volumes of `leaves` in the upper half-space model.

    The leaf axis is the z-axis and the wedge is the normal-cone sector
    {x >= 0, y <= tan(pi/2 - theta) x} of width (pi - theta), truncated at
    distance lambda from the axis (sqrt(x^2+y^2+z^2)/z <= cosh lambda) with
    z in [1, e^L], a fundamental domain of the leaf holonomy.  Only the z
    integral is done exactly: the holonomy z -> e^s z is an isometry
    preserving the sector and dx dy dz / z^3, so the z-slice has 1/z times
    the area of the z = 1 slice, and the wedge is L times that area (the
    integral of dz / z over [1, e^L]).  The slices, sectors of radius
    sinh(lam), are integrated at rounding level in one
    renvol._sector_areas batch; there is no tolerance to set.  Returns
    (values, error bounds) as lists in leaf order, each scaled by its
    leaf's length, and the number of quadrature cells evaluated.  A
    volume past the float64 range is a ValueError.
    """
    areas, errors, cells = _sector_areas([eps] * len(leaves), [leaf.theta for leaf in leaves])
    return ([_finite_volume(leaf.length * area, eps) for leaf, area in zip(leaves, areas)],
            [leaf.length * error for leaf, error in zip(leaves, errors)], cells)


def fuchsian_reduction_check(surface: SurfaceInfo, convention: Convention):
    """Degenerate a Fuchsian surface to pleating data and compare routes.

    The core volume collapses to zero and every end geodesic becomes a leaf
    with theta = 0; the pleated V must then equal the Fuchsian one bitwise.
    That holds by construction: both read the constants of CLOSED_FORMS
    rows of equal V (collar and core add nothing, wedge and end the same
    multiple of one bending sum).  The independent leg is the oracle's:
    the DERIVED closed truncated volume at eps = REDUCTION_EPS must match
    the slab volume plus the 3d wedge oracle of every leaf (at theta = 0
    the very integral renvol uses for the ends) within REDUCTION_REL_TOL,
    whatever the convention; `oracle_gap` is their relative difference.
    Returns (passed, report dict).
    """
    leaves = tuple(PleatLeaf(length, 0.0) for length in surface.end_lengths)
    core = PleatedCoreData(0.0, leaves, boundary_area=2.0 * surface.core_area)
    pleated = renormalized_volume(core.terms, convention, base=core.core_volume)
    fuchsian = renormalized_volume(surface_terms(surface), convention)
    closed = closed_volume(surface_terms(surface), REDUCTION_EPS, Convention.DERIVED)
    wedges = wedge_volume_quadrature(leaves, REDUCTION_EPS)[0]
    slab = closed_volume([("collar", core.boundary_area)], REDUCTION_EPS, Convention.DERIVED)
    oracle = slab + sum(wedges)
    gap = abs(oracle - closed) / closed if closed else abs(oracle)
    report = {
        "convention": convention.value,
        "pleated": pleated,
        "fuchsian": fuchsian,
        "difference": pleated - fuchsian,
        "oracle_gap": gap,
    }
    return pleated == fuchsian and gap <= REDUCTION_REL_TOL, report
