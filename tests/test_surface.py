import math

import numpy as np
import pytest

from corevol.mobius import Mobius
from corevol.schottky import Circle, Pairing, SchottkyData, ValidatedGroup, validate
from corevol.surface import (
    EndpointMatchError,
    SurfaceInfo,
    SurfaceTopologyError,
    boundary_arcs,
    end_cycles,
    surface_invariants,
)

from conftest import make_cyclic


def test_boundary_arcs_cyclic(cyclic_s1):
    arcs = boundary_arcs(cyclic_s1)
    assert len(arcs) == 2
    assert sum(a.through_infinity for a in arcs) == 1
    middle = next(a for a in arcs if not a.through_infinity)
    assert middle.left == pytest.approx(-math.tanh(0.5))
    assert middle.right == pytest.approx(math.tanh(0.5))


def test_boundary_arcs_count_and_disjointness(g2_adjacent):
    arcs = boundary_arcs(g2_adjacent)
    assert len(arcs) == 4
    finite = [a for a in arcs if not a.through_infinity]
    for a in finite:
        assert a.left < a.right
    for a, b in zip(finite, finite[1:]):
        assert a.right < b.left


def test_end_cycles_cyclic(cyclic_s1):
    cycles = end_cycles(cyclic_s1)
    assert len(cycles) == 2
    assert all(len(c.arcs) == 1 for c in cycles)
    generator = cyclic_s1.pairings[0].map
    for c in cycles:
        assert (c.holonomy.same_isometry(generator)
                or c.holonomy.same_isometry(generator.inverse()))
        assert c.length == pytest.approx(2.0, rel=1e-12)


def test_end_cycles_partition(g2_adjacent, g2_crossed, g3_row):
    for group in (g2_adjacent, g2_crossed, g3_row):
        cycles = end_cycles(group)
        assert sum(len(c.arcs) for c in cycles) == 2 * group.genus


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
    short = g1.translation_length()
    long = g1.compose(g2).translation_length()
    assert surface_adjacent.end_lengths == pytest.approx((short, short, long))
    assert short == pytest.approx(2.0 * math.acosh(2.5), rel=1e-12)


def test_crossed_end_length_matches_hand_trace(g2_crossed, surface_crossed):
    # the single end of the one-holed torus is traced by the commutator
    g1 = g2_crossed.pairings[0].map
    g2 = g2_crossed.pairings[1].map
    commutator = g1.inverse().compose(g2.inverse()).compose(g1).compose(g2)
    expected = commutator.translation_length()
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
    from corevol.schottky import pairing_from_circles

    good = pairing_from_circles(circles[0], circles[1])
    bad = pairing_from_circles(circles[2], Circle(3.0, 0.5))
    group = ValidatedGroup(circles, (Pairing(0, 1, good), Pairing(2, 3, bad)))
    with pytest.raises(EndpointMatchError):
        end_cycles(group)


def test_inconsistent_pairing_map_reported():
    # an arbitrary Mobius map in place of a genuine pairing cannot close
    # the trace; the failure must surface as a topology error
    circles = (Circle(-2.0, 0.5), Circle(2.0, 0.5))
    bogus = Mobius(1.0, -4.0, 1.0, -3.0)
    group = ValidatedGroup(circles, (Pairing(0, 1, bogus),))
    with pytest.raises(SurfaceTopologyError):
        end_cycles(group)


def test_surface_info_invariants_enforced():
    with pytest.raises(SurfaceTopologyError):
        SurfaceInfo(ends=2, genus=1, handlebody_genus=1, end_lengths=(1.0, 2.0),
                    core_area=0.0)
    with pytest.raises(SurfaceTopologyError):
        SurfaceInfo(ends=2, genus=0, handlebody_genus=1, end_lengths=(1.0,),
                    core_area=0.0)
    info = SurfaceInfo(ends=2, genus=0, handlebody_genus=1, end_lengths=(1.0, 2.0),
                       core_area=0.0)
    assert info.total_end_length == pytest.approx(3.0)
