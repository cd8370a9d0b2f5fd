import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corevol.mobius import (
    INF,
    IsometryClass,
    IsometryError,
    Mobius,
    chordal_distance,
    is_infinity,
)

DIAG = Mobius(2.0, 0.0, 0.0, 0.5)
SYMM = lambda s: Mobius(math.cosh(s), math.sinh(s), math.sinh(s), math.cosh(s))

entry = st.floats(min_value=-3.0, max_value=3.0)


def random_elements(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
        if a * d - b * c > 0.1:
            out.append(Mobius(a, b, c, d))
    return out


def test_determinant_normalized_on_construction():
    m = Mobius(4.0, 0.0, 0.0, 1.0)
    a, b, c, d = m.entries
    assert abs(a * d - b * c - 1.0) <= 1e-12


@given(entry, entry, entry, entry)
def test_determinant_one_after_normalization(a, b, c, d):
    det = a * d - b * c
    if det <= 0.1:
        return
    m = Mobius(a, b, c, d)
    aa, bb, cc, dd = m.entries
    assert abs(aa * dd - bb * cc - 1.0) <= 1e-12


def test_negative_determinant_rejected_for_real():
    with pytest.raises(ValueError):
        Mobius(1.0, 0.0, 0.0, -1.0)


def test_negation_is_the_same_isometry():
    assert Mobius(-2.0, 0.0, 0.0, -0.5).same_isometry(DIAG)


def test_compose_diagonal():
    sq = DIAG.compose(DIAG)
    assert sq.same_isometry(Mobius(4.0, 0.0, 0.0, 0.25))


def test_compose_identity_and_inverse():
    ident = Mobius.identity()
    assert ident.compose(DIAG).same_isometry(DIAG)
    assert DIAG.compose(DIAG.inverse()).same_isometry(ident)


def test_compose_mixed_fields_raises():
    cm = Mobius(complex(2.0), 0j, 0j, complex(0.5))
    with pytest.raises(TypeError):
        DIAG.compose(cm)


def test_determinant_preserved_under_composition():
    for m in random_elements(50, seed=1):
        prod = m.compose(DIAG)
        a, b, c, d = prod.entries
        assert abs(a * d - b * c - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "m, expected",
    [
        (Mobius.identity(), IsometryClass.IDENTITY),
        (Mobius(-1.0, 0.0, 0.0, -1.0), IsometryClass.IDENTITY),
        (Mobius(1.0, 1.0, 0.0, 1.0), IsometryClass.PARABOLIC),
        (DIAG, IsometryClass.HYPERBOLIC),
        (Mobius(math.cos(0.4), -math.sin(0.4), math.sin(0.4), math.cos(0.4)),
         IsometryClass.ELLIPTIC),
    ],
)
def test_classify(m, expected):
    assert m.classify() is expected


def test_classify_complex_loxodromic():
    m = Mobius(complex(2.0, 0.5), 0j, 0j, 1.0 / complex(2.0, 0.5))
    assert m.classify() is IsometryClass.HYPERBOLIC


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_translation_length_diagonal(s):
    m = Mobius(math.exp(s / 2), 0.0, 0.0, math.exp(-s / 2))
    assert m.translation_length() == pytest.approx(s, rel=1e-12)


def test_translation_length_frozen_value():
    assert DIAG.translation_length() == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_translation_length_symmetric(s):
    assert SYMM(s).translation_length() == pytest.approx(2.0 * s, rel=1e-12)


def test_translation_length_rejects_non_hyperbolic():
    with pytest.raises(IsometryError, match="parabolic"):
        Mobius(1.0, 1.0, 0.0, 1.0).translation_length()
    with pytest.raises(IsometryError, match="identity"):
        Mobius.identity().translation_length()


def test_translation_length_conjugation_invariant():
    base = random_elements(5, seed=2)
    conjugators = random_elements(200, seed=3)
    for m in base:
        if m.classify() is not IsometryClass.HYPERBOLIC:
            continue
        ell = m.translation_length()
        for t in conjugators:
            conj = m.conjugated_by(t)
            assert conj.translation_length() == pytest.approx(ell, rel=1e-9)


def test_translation_length_of_square_doubles():
    for m in random_elements(100, seed=4):
        if m.classify() is not IsometryClass.HYPERBOLIC:
            continue
        ell = m.translation_length()
        assert (m @ m).translation_length() == pytest.approx(2.0 * ell, rel=1e-9)


def test_fixed_points_diagonal():
    att, rep = DIAG.fixed_points()
    assert is_infinity(att) and rep == 0.0


def test_fixed_points_symmetric():
    att, rep = SYMM(1.0).fixed_points()
    assert att == pytest.approx(1.0, abs=1e-12)
    assert rep == pytest.approx(-1.0, abs=1e-12)


def test_fixed_points_equivariant_under_translation():
    shift = Mobius(1.0, 1.0, 0.0, 1.0)  # z -> z + 1
    att, rep = DIAG.conjugated_by(shift).fixed_points()
    assert is_infinity(att)
    assert rep == pytest.approx(1.0, abs=1e-12)


def test_fixed_points_are_fixed():
    for m in random_elements(200, seed=5):
        if m.classify() is not IsometryClass.HYPERBOLIC:
            continue
        att, rep = m.fixed_points()
        for p in (att, rep):
            assert chordal_distance(m(p), p) <= 1e-9


def test_fixed_points_reject_elliptic():
    rot = Mobius(math.cos(0.3), -math.sin(0.3), math.sin(0.3), math.cos(0.3))
    with pytest.raises(IsometryError, match="elliptic"):
        rot.fixed_points()


def test_apply_identity():
    assert Mobius.identity()(0.7) == 0.7


def test_apply_diagonal():
    assert DIAG(1.0) == pytest.approx(4.0)


def test_apply_pole_goes_to_infinity():
    m = Mobius(1.0, 2.0, 1.0, 3.0)
    a, b, c, d = m.entries
    assert chordal_distance(m(-d / c), INF) <= 1e-7


def test_apply_infinity():
    m = Mobius(1.0, 2.0, 1.0, 3.0)
    a, b, c, d = m.entries
    assert m(INF) == pytest.approx(a / c)
    assert is_infinity(DIAG(INF))


@settings(max_examples=50)
@given(entry, st.floats(min_value=-5.0, max_value=5.0))
def test_apply_is_group_action(x, p):
    m1 = Mobius(1.0, x, 0.0, 1.0)
    m2 = Mobius(2.0, 0.0, 1.0, 1.0)
    left = m1.compose(m2)(p)
    right = m1(m2(p))
    assert chordal_distance(left, right) <= 1e-9


def test_chordal_distance_at_infinity():
    assert chordal_distance(INF, INF) == 0.0
    assert chordal_distance(0.0, INF) == 1.0
    assert chordal_distance(1e9, INF) <= 1e-9
