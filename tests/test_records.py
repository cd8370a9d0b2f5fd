"""Construction contract of the ten record classes.

Each record is built positionally and by keyword with the same parameter
names, order and defaults, and each check its constructor makes is matched
by exception type and full message.
"""

import math

import pytest

from corevol.anomaly import TAG_FLAT, TAG_HYPERBOLIC, SurfaceMesh
from corevol.mobius import Mobius
from corevol.pleated import PleatedCoreData, PleatLeaf
from corevol.renvol import ExpansionFit, VolumeProfile
from corevol.schottky import Circle, Pairing, SchottkyData, SchottkyError, ValidatedGroup
from corevol.surface import SurfaceInfo, SurfaceTopologyError

MAP = Mobius(1.0, 2.0, 0.0, 1.0)
CIRCLES = (Circle(-2.0, 0.5), Circle(2.0, 0.5))
PAIRINGS = (Pairing(0, 1, MAP),)
LEAVES = (PleatLeaf(2.0, 1.0),)

# (class, positional arguments, field names in parameter order)
RECORDS = [
    (Circle, (-1.5, 0.25), ("center", "radius")),
    (Pairing, (0, 1, MAP), ("source", "target", "map")),
    (SchottkyData, (CIRCLES, PAIRINGS), ("circles", "pairings")),
    (ValidatedGroup, (CIRCLES, PAIRINGS), ("circles", "pairings")),
    (SurfaceInfo, (2, (1.0, 2.0, 3.0)), ("handlebody_genus", "end_lengths")),
    (VolumeProfile, (((0.2, 1.0), (0.1, 2.0)), "quadrature", 7, (1e-12, 2e-12)),
     ("samples", "provenance", "cells", "bounds")),
    (ExpansionFit, (1.0, -2.0, 3.0, -4.0, 5e-13, 60.0),
     ("c_m2", "c_log", "v", "c_2", "residual", "condition")),
    (PleatLeaf, (2.0, 0.5), ("length", "theta")),
    (PleatedCoreData, (1.5, LEAVES, 4.0 * math.pi), ("core_volume", "leaves", "boundary_area")),
    (SurfaceMesh, (TAG_HYPERBOLIC, 2.0, 2.0 * math.pi, 16, 8),
     ("tag", "t_extent", "circumference", "n_t", "n_theta")),
]


@pytest.mark.parametrize("cls, args, names", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_positional_and_keyword_construction_agree(cls, args, names):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(reversed(names), reversed(args))))
    for name, value in zip(names, args):
        assert getattr(by_position, name) is value or getattr(by_position, name) == value
        assert getattr(by_keyword, name) == getattr(by_position, name)


@pytest.mark.parametrize("cls, args, names", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_missing_or_unknown_arguments_are_type_errors(cls, args, names):
    # every record has at least two parameters without a default
    with pytest.raises(TypeError):
        cls(*args[:1])
    with pytest.raises(TypeError):
        cls(*args, extra=1)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})


def test_fields_are_stored_unconverted():
    leaf = PleatLeaf(2, 0)
    assert (type(leaf.length), type(leaf.theta)) == (int, int)
    mesh = SurfaceMesh(TAG_FLAT, 1, 3, 8, 4)
    assert (type(mesh.t_extent), type(mesh.circumference)) == (int, int)
    fit = ExpansionFit(1, 2, 3, 4, 5, 6)
    assert [fit.c_m2, fit.c_log, fit.v, fit.c_2, fit.residual, fit.condition] == [1, 2, 3, 4, 5, 6]


def test_circle_center_is_a_float_and_radius_is_kept():
    circle = Circle(3, 2)
    assert type(circle.center) is float and circle.center == 3.0
    assert type(circle.radius) is int
    assert Circle(center="-1.25", radius=0.5).center == -1.25
    assert (circle.left, circle.right) == (1.0, 5.0)
    # the center is converted before the radius is checked
    with pytest.raises(TypeError):
        Circle(None, -1.0)


@pytest.mark.parametrize("radius", [0.0, -0.4, math.nan, -math.inf])
def test_circle_radius_check(radius):
    with pytest.raises(SchottkyError) as info:
        Circle(1.0, radius)
    assert info.value.kind == "bad_radius"
    assert info.value.detail == {}
    assert str(info.value) == f"circle radius must be positive, got {radius}"


def test_validated_group_genus():
    assert ValidatedGroup(CIRCLES, PAIRINGS).genus == 1
    assert ValidatedGroup(circles=(), pairings=()).genus == 0


@pytest.mark.parametrize("kwargs, message", [
    (dict(handlebody_genus=-2, end_lengths=(1.0,)),
     "genus relation g = 2k + e - 1 has no solution k >= 0 for g=-2, e=1"),
    (dict(handlebody_genus=2, end_lengths=(1.0, 2.0)),
     "genus relation g = 2k + e - 1 has no solution k >= 0 for g=2, e=2"),
    (dict(handlebody_genus=2, end_lengths=()),
     "genus relation g = 2k + e - 1 has no solution k >= 0 for g=2, e=0"),
    (dict(handlebody_genus=1, end_lengths=(1.0, 2.0, 3.0)),
     "genus relation g = 2k + e - 1 has no solution k >= 0 for g=1, e=3"),
    (dict(handlebody_genus=1, end_lengths=(1.0, 0.0)),
     "end lengths must be positive"),
    (dict(handlebody_genus=0, end_lengths=(math.nan,)),
     "end lengths must be positive"),
])
def test_surface_info_checks(kwargs, message):
    with pytest.raises(SurfaceTopologyError) as info:
        SurfaceInfo(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("g", range(7))
def test_surface_info_accepts_exactly_the_solvable_genus_relations(g):
    # g = 2k + e - 1 with k >= 0: g + 1 - e even and >= 0
    for e in range(2 * g + 3):
        lengths = (1.0,) * e
        if (g + 1 - e) % 2 or g + 1 - e < 0:
            with pytest.raises(SurfaceTopologyError):
                SurfaceInfo(g, lengths)
            continue
        info = SurfaceInfo(g, lengths)
        assert info.ends == e
        assert 2 * info.genus + info.ends - 1 == g
        assert info.genus >= 0
        assert info.core_area.hex() == (2.0 * math.pi * (g - 1)).hex()


def test_volume_profile_defaults():
    profile = VolumeProfile(((0.2, 1.0),), "closed_form_paper")
    assert (profile.cells, profile.bounds) == (0, ())
    assert VolumeProfile(samples=(), provenance="quadrature").samples == ()


@pytest.mark.parametrize("samples, message", [
    (((0.1, 1.0), (0.2, 2.0)), "profile eps values must be strictly decreasing"),
    (((0.2, 1.0), (0.2, 2.0)), "profile eps values must be strictly decreasing"),
    (((0.2, 2.0), (0.1, 1.0)), "profile volumes must not decrease as eps decreases"),
    # the eps order is checked first
    (((0.1, 2.0), (0.2, 1.0)), "profile eps values must be strictly decreasing"),
])
def test_volume_profile_checks(samples, message):
    with pytest.raises(ValueError) as info:
        VolumeProfile(samples, "quadrature")
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("length, theta, message", [
    (0.0, 1.0, "leaf length must be positive, got 0.0"),
    (-2.0, 1.0, "leaf length must be positive, got -2.0"),
    (math.nan, 1.0, "leaf length must be positive, got nan"),
    (1.0, -0.5, "bending angle must lie in [0, pi], got -0.5"),
    (1.0, math.pi + 0.1, f"bending angle must lie in [0, pi], got {math.pi + 0.1}"),
    (1.0, math.nan, "bending angle must lie in [0, pi], got nan"),
    # the length is checked first
    (-1.0, 9.0, "leaf length must be positive, got -1.0"),
])
def test_pleat_leaf_checks(length, theta, message):
    with pytest.raises(ValueError) as info:
        PleatLeaf(length, theta)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_pleat_leaf_accepts_both_ends_of_the_angle_range():
    assert PleatLeaf(1.0, 0.0).theta == 0.0
    assert PleatLeaf(1.0, math.pi).theta == math.pi


@pytest.mark.parametrize("core_volume, boundary_area, message", [
    (-1.0, 1.0, "core volume must be nonnegative, got -1.0"),
    (1.0, -0.5, "boundary area must be nonnegative, got -0.5"),
    # the core volume is checked first
    (-1.0, -1.0, "core volume must be nonnegative, got -1.0"),
])
def test_pleated_core_data_checks(core_volume, boundary_area, message):
    with pytest.raises(ValueError) as info:
        PleatedCoreData(core_volume, LEAVES, boundary_area)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_pleated_core_data_from_genus_and_terms():
    core = PleatedCoreData.from_genus(0.0, [PleatLeaf(2.0, math.pi)], genus=3)
    assert core.leaves == (core.leaves[0],) and core.boundary_area == 8.0 * math.pi
    assert core.terms == [("volume", 0.0), ("collar", 8.0 * math.pi), ("wedge", 0.0)]
    assert PleatedCoreData(1.5, (), 0.0).terms == [("volume", 1.5), ("collar", 0.0), ("wedge", 0)]


@pytest.mark.parametrize("args, message", [
    (("sphere", 1.0, 1.0, 32, 32), "unknown metric tag 'sphere'"),
    ((TAG_FLAT, 1.0, 1.0, 7, 32), "mesh needs n_t >= 8 and n_theta >= 4"),
    ((TAG_FLAT, 1.0, 1.0, 32, 3), "mesh needs n_t >= 8 and n_theta >= 4"),
    ((TAG_FLAT, 0.0, 1.0, 32, 32), "mesh extents must be positive"),
    ((TAG_FLAT, 1.0, -1.0, 32, 32), "mesh extents must be positive"),
    ((TAG_FLAT, math.nan, 1.0, 32, 32), "mesh extents must be positive"),
    # the tag is checked first, then the counts
    (("sphere", -1.0, 1.0, 2, 2), "unknown metric tag 'sphere'"),
    ((TAG_FLAT, -1.0, 1.0, 2, 2), "mesh needs n_t >= 8 and n_theta >= 4"),
])
def test_surface_mesh_checks(args, message):
    with pytest.raises(ValueError) as info:
        SurfaceMesh(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_surface_mesh_caches_its_arrays():
    mesh = SurfaceMesh(TAG_FLAT, 1.0, 4.0, 8, 4)
    assert mesh.t is mesh.t and mesh.theta is mesh.theta
    assert (mesh.dt, mesh.dtheta) == (2.0 / 7.0, 1.0)
