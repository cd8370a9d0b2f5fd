"""Renormalized volumes of Schottky hyperbolic 3-manifolds, normalized by
the distance to the convex core: group construction and validation, quotient
surface topology, truncated-volume closed forms with an independent
quadrature oracle and asymptotic-expansion fitting, pleated-core wedge
volumes, and discrete conformal-change functionals."""

from .mobius import Mobius
from .schottky import (
    Circle,
    Pairing,
    SchottkyData,
    SchottkyError,
    ValidatedGroup,
    generator_from_axis,
    limit_set_sample,
    validate,
)
from .surface import (
    SurfaceInfo,
    SurfaceTopologyError,
    surface_invariants,
)
from .renvol import (
    CLOSED_FORMS,
    Convention,
    ExpansionFit,
    VolumeProfile,
    closed_profile,
    closed_volume,
    default_eps_grid,
    fit_expansion,
    profile_quadrature,
    renormalized_volume,
    surface_terms,
)
from .pleated import (
    PleatLeaf,
    PleatedCoreData,
    wedge_volume_quadrature,
)

__version__ = "0.1.0"
