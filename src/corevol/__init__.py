"""Renormalized volumes of Schottky hyperbolic 3-manifolds, normalized by
the distance to the convex core: group construction and validation, quotient
surface topology, truncated-volume closed forms with an independent
quadrature oracle and asymptotic-expansion fitting, pleated-core wedge
volumes, and discrete conformal-change functionals."""

from .mobius import INF, IsometryClass, IsometryError, Mobius
from .schottky import (
    Circle,
    Pairing,
    SchottkyData,
    SchottkyError,
    ValidatedGroup,
    Word,
    cyclic_group,
    enumerate_words,
    generator_from_axis,
    limit_set_sample,
    pairing_from_circles,
    validate,
    word_mobius,
)
from .surface import (
    EndpointMatchError,
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
    expansion_fit,
    fit_expansion,
    level_set_area,
    profile_quadrature,
    renormalized_volume,
    surface_terms,
    truncated_volume_quadrature,
)
from .pleated import (
    PleatLeaf,
    PleatedCoreData,
    fuchsian_reduction_check,
    wedge_volume_quadrature,
)
from .quadrature import QuadratureError, adaptive_quad

__version__ = "0.1.0"
