import math

import numpy as np
import pytest

from corevol.mobius import Mobius
from corevol.schottky import (
    Circle,
    Pairing,
    SchottkyData,
    SchottkyError,
    ValidatedGroup,
    validate,
)
from corevol.surface import (
    SurfaceInfo,
    SurfaceTopologyError,
    surface_invariants,
)

from conftest import make_cyclic


def test_end_cycles_cyclic(cyclic_s1):
    surface = surface_invariants(cyclic_s1)
    assert surface.ends == 2
    assert surface.end_lengths == pytest.approx((2.0, 2.0), rel=1e-12)


def test_end_cycles_partition(g2_adjacent, g2_crossed, g3_row):
    ends = [surface_invariants(group).ends for group in (g2_adjacent, g2_crossed, g3_row)]
    assert ends == [3, 1, 4]


def test_pairing_figure_dichotomy(surface_adjacent, surface_crossed):
    # same four circles, different pairings: a 3-ended planar surface
    # versus a 1-ended genus-1 surface
    assert (surface_adjacent.ends, surface_adjacent.genus) == (3, 0)
    assert (surface_crossed.ends, surface_crossed.genus) == (1, 1)


def test_adjacent_end_lengths_match_hand_trace(g2_adjacent, surface_adjacent):
    # the two outer cycles carry the pairing generators, the middle one
    # the product of both
    g1 = g2_adjacent.pairings[0].map
    g2 = g2_adjacent.pairings[1].map
    short = 2 * math.acosh(abs(g1.trace) / 2)
    long = 2 * math.acosh(abs(g1.compose(g2).trace) / 2)
    assert surface_adjacent.end_lengths == pytest.approx((short, short, long))
    assert short == pytest.approx(2.0 * math.acosh(2.5), rel=1e-12)


def test_crossed_end_length_matches_hand_trace(g2_crossed, surface_crossed):
    # the single end of the one-holed torus is traced by the commutator
    g1 = g2_crossed.pairings[0].map
    g2 = g2_crossed.pairings[1].map
    commutator = g1.inverse().compose(g2.inverse()).compose(g1).compose(g2)
    expected = 2 * math.acosh(abs(commutator.trace) / 2)
    assert surface_crossed.end_lengths[0] == pytest.approx(expected, rel=1e-9)


def test_surface_invariants_cyclic(surface_s1):
    assert surface_s1.ends == 2
    assert surface_s1.genus == 0
    assert surface_s1.handlebody_genus == 1
    assert surface_s1.end_lengths == pytest.approx((2.0, 2.0))
    assert surface_s1.core_area == 0.0


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_cyclic_family_end_lengths(s):
    surface = surface_invariants(make_cyclic(s))
    assert surface.end_lengths == pytest.approx((2.0 * s, 2.0 * s), rel=1e-9)


def test_genus_relation_holds(surface_s1, surface_adjacent, surface_crossed):
    for surf in (surface_s1, surface_adjacent, surface_crossed):
        assert surf.handlebody_genus == 2 * surf.genus + surf.ends - 1
        assert surf.core_area == pytest.approx(
            2.0 * math.pi * (surf.handlebody_genus - 1)
        )


def test_core_area_is_topological(g3_row):
    surf = surface_invariants(g3_row)
    assert surf.core_area == pytest.approx(2.0 * math.pi * (g3_row.genus - 1))


def _conjugate_group(group, t: Mobius):
    circles = []
    for circ in group.circles:
        left, right = t(circ.left), t(circ.right)
        lo, hi = min(left, right), max(left, right)
        circles.append(Circle((lo + hi) / 2.0, (hi - lo) / 2.0))
    pairings = tuple(
        Pairing(p.source, p.target, p.map.conjugated_by(t)) for p in group.pairings
    )
    return validate(SchottkyData(tuple(circles), pairings))


def test_end_lengths_conjugation_invariant(g2_adjacent, surface_adjacent):
    rng = np.random.default_rng(11)
    for _ in range(5):
        shift, scale = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
        t = Mobius(scale, shift, 0.0, 1.0)
        surf = surface_invariants(_conjugate_group(g2_adjacent, t))
        assert surf.ends == surface_adjacent.ends
        assert surf.end_lengths == pytest.approx(
            surface_adjacent.end_lengths, rel=1e-9
        )
    # a conjugator with a pole between the disks moves the infinity arc
    t = Mobius(0.0, -1.0, 1.0, 0.0)  # z -> -1/z, pole inside the middle gap
    surf = surface_invariants(_conjugate_group(g2_adjacent, t))
    assert surf.ends == surface_adjacent.ends
    assert surf.end_lengths == pytest.approx(surface_adjacent.end_lengths, rel=1e-9)


def test_invariants_stable_under_pairing_inversion(g2_crossed, surface_crossed):
    flipped = validate(
        SchottkyData(
            g2_crossed.circles,
            tuple(
                Pairing(p.target, p.source, p.map.inverse())
                for p in g2_crossed.pairings
            ),
        )
    )
    surf = surface_invariants(flipped)
    assert (surf.ends, surf.genus) == (surface_crossed.ends, surface_crossed.genus)
    assert surf.end_lengths == pytest.approx(surface_crossed.end_lengths, rel=1e-12)


def test_endpoint_mismatch_reported():
    # bypass validation with a map that pairs the wrong circles
    circles = (Circle(-3.0, 0.4), Circle(-1.0, 0.4), Circle(1.0, 0.4), Circle(3.0, 0.4))
    from conftest import pairing_from_circles

    good = pairing_from_circles(circles[0], circles[1])
    bad = pairing_from_circles(circles[2], Circle(3.0, 0.5))
    group = ValidatedGroup(circles, (Pairing(0, 1, good), Pairing(2, 3, bad)))
    with pytest.raises(SurfaceTopologyError, match="misses its partner's endpoint"):
        surface_invariants(group)


def test_inconsistent_pairing_map_reported():
    # an arbitrary Mobius map in place of a genuine pairing cannot close
    # the trace; the failure must surface as a topology error
    circles = (Circle(-2.0, 0.5), Circle(2.0, 0.5))
    bogus = Mobius(1.0, -4.0, 1.0, -3.0)
    group = ValidatedGroup(circles, (Pairing(0, 1, bogus),))
    with pytest.raises(SurfaceTopologyError):
        surface_invariants(group)


def test_endpoint_mapped_to_infinity_reported():
    # the outward map of circle 1 sends its left point 1.5 to infinity; an
    # infinite image must fail the match, not pass it as inf <= inf
    circles = (Circle(-2.0, 0.5), Circle(2.0, 0.5))
    group = ValidatedGroup(circles, (Pairing(0, 1, Mobius(1.5, -1.0, 1.0, 0.0)),))
    assert group.pairings[0].map.inverse()(1.5) == math.inf
    with pytest.raises(SurfaceTopologyError, match="inf"):
        surface_invariants(group)


def test_parabolic_end_holonomy_reported():
    # two tangent circles paired by the parabolic z -> z / (1 + z): the
    # trace closes, but the end holonomy is parabolic and has no length
    circles = (Circle(-1.0, 1.0), Circle(1.0, 1.0))
    group = ValidatedGroup(circles, (Pairing(0, 1, Mobius(1.0, 0.0, 1.0, 1.0)),))
    with pytest.raises(SurfaceTopologyError, match="not hyperbolic"):
        surface_invariants(group)
    with pytest.raises(SchottkyError) as err:
        validate(SchottkyData(circles, group.pairings))
    assert err.value.kind == "overlapping_disks"


def test_surface_info_invariants_enforced():
    with pytest.raises(SurfaceTopologyError):
        SurfaceInfo(handlebody_genus=1, end_lengths=(1.0, 2.0, 3.0))
    with pytest.raises(SurfaceTopologyError):
        SurfaceInfo(handlebody_genus=1, end_lengths=(1.0,))
    info = SurfaceInfo(handlebody_genus=1, end_lengths=(1.0, 2.0))
    assert info.total_end_length == pytest.approx(3.0)
