import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corevol.mobius import Mobius
from corevol.schottky import (
    DEDUP_TOL,
    Circle,
    Pairing,
    SchottkyData,
    SchottkyError,
    ValidatedGroup,
    Word,
    _sort_dedup,
    cyclic_group,
    enumerate_words,
    generator_from_axis,
    limit_set_sample,
    pairing_from_circles,
    validate,
    word_mobius,
)

from conftest import make_cyclic, make_row_group, same_isometry


def word_count(g, n):
    return 1 + sum(2 * g * (2 * g - 1) ** (k - 1) for k in range(1, n + 1))


def test_validate_cyclic_example():
    group = validate(cyclic_group(-1.0, 1.0, 2.0))
    assert group.genus == 1
    c0, c1 = group.circles
    assert c0.center == pytest.approx(-math.cosh(1.0) / math.sinh(1.0))
    assert c1.center == pytest.approx(math.cosh(1.0) / math.sinh(1.0))
    assert c0.radius == pytest.approx(1.0 / math.sinh(1.0))


def test_validate_rejects_identity_pairing():
    data = cyclic_group(-1.0, 1.0, 2.0)
    broken = SchottkyData(data.circles, (Pairing(0, 1, Mobius.identity()),))
    with pytest.raises(SchottkyError) as err:
        validate(broken)
    assert err.value.kind in ("circle_mismatch", "exterior_not_contracted")


def test_validate_rejects_overlapping_disks():
    circles = (Circle(-1.0, 1.5), Circle(1.0, 1.5))
    data = SchottkyData(circles, (Pairing(0, 1, pairing_from_circles(*circles)),))
    with pytest.raises(SchottkyError) as err:
        validate(data)
    assert err.value.kind == "overlapping_disks"
    assert err.value.detail["circles"] == (0, 1)


def test_validate_rejects_self_pairing():
    circles = (Circle(-2.0, 0.5), Circle(2.0, 0.5))
    data = SchottkyData(circles, (Pairing(0, 0, pairing_from_circles(*circles)),))
    with pytest.raises(SchottkyError) as err:
        validate(data)
    assert err.value.kind == "self_paired"


def test_validate_rejects_wrong_circle_image():
    circles = (Circle(-2.0, 0.5), Circle(2.0, 0.5))
    wrong = pairing_from_circles(Circle(-2.0, 0.5), Circle(2.0, 0.25))
    data = SchottkyData(circles, (Pairing(0, 1, wrong),))
    with pytest.raises(SchottkyError) as err:
        validate(data)
    assert err.value.kind == "circle_mismatch"


def test_validation_invariant_under_relabeling_and_inversion():
    group = make_row_group((-3.0, -1.0, 1.0, 3.0), 0.4, [(0, 1), (2, 3)])
    # relabel circles 0<->3, 1<->2 and swap each pairing to its inverse
    relabel = {0: 3, 1: 2, 2: 1, 3: 0}
    circles = tuple(group.circles[[3, 2, 1, 0][i]] for i in range(4))
    pairings = tuple(
        Pairing(relabel[p.target], relabel[p.source], p.map.inverse())
        for p in group.pairings
    )
    swapped = validate(SchottkyData(circles, pairings))
    assert swapped.genus == group.genus


def test_generator_from_axis_worked_example():
    mob, source, target = generator_from_axis(-1.0, 1.0, 2.0)
    expected = Mobius(math.cosh(1.0), math.sinh(1.0), math.sinh(1.0), math.cosh(1.0))
    assert same_isometry(mob, expected, tol=1e-12)
    assert source.center == pytest.approx(-math.cosh(1.0) / math.sinh(1.0))
    assert target.center == pytest.approx(math.cosh(1.0) / math.sinh(1.0))
    assert source.radius == pytest.approx(1.0 / math.sinh(1.0))
    assert mob.translation_length() == pytest.approx(2.0, rel=1e-12)


def test_generator_from_axis_rejects_degenerate_axes():
    with pytest.raises(ValueError):
        generator_from_axis(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        generator_from_axis(0.0, float("inf"), 2.0)
    with pytest.raises(ValueError):
        generator_from_axis(-1.0, 1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=-5.0, max_value=5.0),
    q=st.floats(min_value=-5.0, max_value=5.0),
    s=st.floats(min_value=0.2, max_value=3.0),
)
def test_generator_from_axis_always_pairs_validly(p, q, s):
    if abs(p - q) < 0.05:
        return
    mob, source, target = generator_from_axis(p, q, s)
    group = validate(SchottkyData((source, target), (Pairing(0, 1, mob),)))
    assert group.genus == 1
    # the axis runs from the repelling fixed point p to the attracting q:
    # both are fixed, and the derivative 1/(c z + d)^2 is below 1 only at q
    a, b, c, d = mob.entries
    for z in (p, q):
        assert mob(z) == pytest.approx(z, abs=1e-8)
    assert abs(c * q + d) > 1.0 > abs(c * p + d)


def test_pairing_from_circles_maps_circle_to_circle():
    source, target = Circle(-2.0, 0.7), Circle(3.0, 0.3)
    mob = pairing_from_circles(source, target)
    for k in range(32):
        z = source.point_at(2.0 * math.pi * k / 32.0)
        w = mob(z)
        assert abs(abs(w - target.center) - target.radius) <= 1e-8 * target.radius


def test_every_validated_pairing_maps_circle_onto_partner(g2_adjacent, g3_row):
    for group in (make_cyclic(1.0), g2_adjacent, g3_row):
        for pairing in group.pairings:
            source = group.circles[pairing.source]
            target = group.circles[pairing.target]
            for k in range(32):
                z = source.point_at(2.0 * math.pi * k / 32.0)
                w = pairing.map(z)
                assert abs(abs(w - target.center) - target.radius) <= (
                    1e-8 * target.radius
                )


def test_complex_center_is_a_type_error():
    with pytest.raises(TypeError):
        Circle(complex(1.0, 1.0), 0.5)


def test_validation_invariant_under_pure_relabeling(g2_adjacent):
    perm = [2, 3, 0, 1]
    inverse = [perm.index(i) for i in range(4)]
    circles = tuple(g2_adjacent.circles[perm[i]] for i in range(4))
    pairings = tuple(
        Pairing(inverse[p.source], inverse[p.target], p.map)
        for p in g2_adjacent.pairings
    )
    assert validate(SchottkyData(circles, pairings)).genus == g2_adjacent.genus


@pytest.mark.parametrize(
    "g, max_len, expected",
    [(2, 1, 5), (2, 2, 17), (1, 3, 7)],
)
def test_word_counts_worked_examples(g, max_len, expected, g2_adjacent, g3_row):
    groups = {1: make_cyclic(1.0), 2: g2_adjacent, 3: g3_row}
    words = enumerate_words(groups[g], max_len)
    assert len(words) == expected
    assert len({w.letters for w in words}) == expected


@settings(max_examples=20, deadline=None)
@given(g=st.integers(min_value=1, max_value=3), n=st.integers(min_value=0, max_value=5))
def test_word_count_formula(g, n):
    centers = [2.0 * i - (2 * g - 1.0) for i in range(2 * g)]
    group = make_row_group(centers, 0.3, [(2 * i, 2 * i + 1) for i in range(g)])
    assert len(enumerate_words(group, n)) == word_count(g, n)


def test_words_are_reduced():
    with pytest.raises(ValueError):
        Word((1, -1))
    with pytest.raises(ValueError):
        Word((2, 0))
    assert len(Word((1, 1, 2, -1))) == 4


def test_limit_set_cyclic_accumulates_at_fixed_points(cyclic_s1):
    # the only accumulation points of a cyclic group are the two fixed points
    shallow = limit_set_sample(cyclic_s1, 8)
    deep = limit_set_sample(cyclic_s1, 12)
    far = [p for p in deep if min(abs(p - 1.0), abs(p + 1.0)) > 0.05]
    far_shallow = [p for p in shallow if min(abs(p - 1.0), abs(p + 1.0)) > 0.05]
    assert len(far) == len(far_shallow)  # no new points away from +-1
    assert min(abs(p - 1.0) for p in deep) < 1e-6
    assert min(abs(p + 1.0) for p in deep) < 1e-6


def test_limit_set_fuchsian_is_real(g2_adjacent):
    points = limit_set_sample(g2_adjacent, 4)
    assert all(isinstance(p, float) for p in points)
    assert len(points) > 100


def test_limit_set_monotone_in_depth(g2_crossed):
    shallow = limit_set_sample(g2_crossed, 3)
    deep = limit_set_sample(g2_crossed, 4)
    assert len(deep) > len(shallow)
    for p in shallow:
        assert min(abs(p - q) for q in deep) <= 1e-12


def test_enumerate_words_negative_length():
    with pytest.raises(ValueError):
        enumerate_words(make_cyclic(1.0), -1)


def test_limit_set_depth_zero_rejected(cyclic_s1):
    with pytest.raises(ValueError):
        limit_set_sample(cyclic_s1, 0)


def scan_dedup(points):
    """The sorted list `points` scanned against the last point kept."""
    kept = []
    for z in points:
        if kept and abs(z - kept[-1]) <= DEDUP_TOL:
            continue
        kept.append(z)
    return kept


def reference_sample(group, depth):
    """`limit_set_sample` one word at a time: `word_mobius` over
    `enumerate_words`, then a stable sort and `scan_dedup`."""
    raw = []
    for word in enumerate_words(group, depth)[1:]:
        pairing = group.pairings[abs(word.letters[0]) - 1]
        disk = pairing.target if word.letters[0] > 0 else pairing.source
        raw.append(word_mobius(group, word)(group.circles[disk].center))
    return scan_dedup(sorted(raw))


def seeded_row_group(seed, genus):
    """2g real circles in a row with seeded spacing and radii, each
    pairing joining circle 2i to circle 2i + 1 or, if crossed, to i + g."""
    rng = random.Random(seed)
    centers = [0.0]
    for _ in range(2 * genus - 1):
        centers.append(centers[-1] + rng.uniform(1.8, 2.2))
    crossed = rng.random() < 0.5
    pairs = [(i, i + genus) if crossed else (2 * i, 2 * i + 1) for i in range(genus)]
    return make_row_group(centers, 1.8 * rng.uniform(0.25, 0.46), pairs)


README_GENUS2 = SchottkyData(
    tuple(Circle(c, 0.4) for c in (-3.0, -1.0, 1.0, 3.0)),
    (Pairing(0, 1, Mobius(-2.5, -7.9, 2.5, 7.5)),
     Pairing(2, 3, Mobius(7.5, -7.9, 2.5, -2.5))),
)


@pytest.mark.parametrize("name, depth", [
    ("cyclic_s1", 1), ("cyclic_s1", 8), ("g2_adjacent", 8),
    ("g2_crossed", 7), ("g3_row", 5), ("readme", 6),
    *((f"seed{seed}:g{genus}", depth)
      for seed, (genus, depth) in enumerate([(1, 8), (2, 6), (2, 6), (3, 4), (3, 4)])),
])
def test_limit_set_is_bitwise_the_word_products(request, name, depth):
    if name == "readme":
        group = validate(README_GENUS2)
    elif name.startswith("seed"):
        seed, genus = name[4:].split(":g")
        group = seeded_row_group(int(seed), int(genus))
    else:
        group = request.getfixturevalue(name)
    points = limit_set_sample(group, depth)
    assert all(type(p) is float for p in points)
    assert [p.hex() for p in points] == [p.hex() for p in reference_sample(group, depth)]


@pytest.mark.parametrize("d, target_center", [(-5.0, 5.0), (-1e-310, 2e-310)])
def test_limit_set_points_at_infinity_follow_apply(d, target_center):
    # built without validate, so that a word sends a center to infinity: a
    # zero denominator or an overflowing image is +inf, as in Mobius.apply
    group = ValidatedGroup((Circle(10.0, 1.0), Circle(target_center, 1.0)),
                           (Pairing(0, 1, Mobius(0.0, -1.0, 1.0, d)),))
    points = limit_set_sample(group, 2)
    assert math.inf in points
    assert [p.hex() for p in points] == [p.hex() for p in reference_sample(group, 2)]


def test_limit_set_determinant_failure_matches_word_products():
    # word products grow past sqrt(1/u) and cancel their determinant
    group = validate(cyclic_group(-1.0, 1.0, 2.0))
    with pytest.raises(ValueError) as expected:
        reference_sample(group, 500)
    with pytest.raises(ValueError) as got:
        limit_set_sample(group, 500)
    assert str(got.value) == str(expected.value)
    assert "positive determinant" in str(got.value)


def test_limit_set_overflow_failure_matches_word_products():
    # a product's entries overflow, so its determinant is inf, not small
    group = ValidatedGroup((Circle(-2.0, 0.5), Circle(2.0, 0.5)),
                           (Pairing(0, 1, Mobius(1e155, 0.0, 0.0, 1e-155)),))
    with pytest.raises(ValueError) as expected:
        reference_sample(group, 2)
    with pytest.raises(ValueError) as got:
        limit_set_sample(group, 2)
    assert str(got.value) == str(expected.value)
    assert "is not finite" in str(got.value)


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_dedup_compares_with_the_last_point_kept(direction):
    chain = np.array([0.6 * DEDUP_TOL * k * direction for k in range(11)][::-1])
    # a scan against the previous point would keep only the first one
    assert _sort_dedup(chain) == np.sort(chain)[::2].tolist()


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_dedup_keeps_the_first_of_signed_zeros(first, second):
    # keys that differ only in the sign of a zero keep the order of the words
    kept = _sort_dedup(np.array([2.0, first, *[second] * 15, 3.0]))
    assert repr(kept[0]) == repr(first)
    assert len(kept) == 3


# steps of a chain, in units of DEDUP_TOL: a chain of 0.6 steps is one run
# wider than the tolerance, whose scan keeps every second point
DEDUP_STEPS = [0.0, 0.3, 0.6, 1.0, 1.0000001]
DEDUP_CHAINS = st.tuples(
    st.sampled_from([0.0, -0.0, 1e-13, 1.0, -2.5, 3e5]) | st.floats(-10.0, 10.0),
    st.lists(st.sampled_from(DEDUP_STEPS), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(chains=st.lists(DEDUP_CHAINS, min_size=1, max_size=5),
       specials=st.lists(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                         max_size=6),
       order=st.randoms())
def test_dedup_matches_the_scan(chains, specials, order):
    points = list(specials)
    for start, steps in chains:
        points.append(start)
        for step in steps:
            points.append(points[-1] + step * DEDUP_TOL)
    order.shuffle(points)
    points = np.array(points, dtype=float)
    expected = scan_dedup(np.sort(points, kind="stable").tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # inf - inf, nan compares
        kept = _sort_dedup(points)
    assert [p.hex() for p in kept] == [p.hex() for p in expected]
