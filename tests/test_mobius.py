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
    is_infinity,
)
from conftest import same_isometry

DIAG = Mobius(2.0, 0.0, 0.0, 0.5)
SYMM = lambda s: Mobius(math.cosh(s), math.sinh(s), math.sinh(s), math.cosh(s))

entry = st.floats(min_value=-3.0, max_value=3.0)


def chordal_distance(p, q) -> float:
    """Metric on the boundary sphere that stays finite at infinity."""
    if is_infinity(p) and is_infinity(q):
        return 0.0
    if is_infinity(p) or is_infinity(q):
        return 1.0 / math.sqrt(1.0 + abs(q if is_infinity(p) else p) ** 2)
    return abs(p - q) / math.sqrt((1.0 + abs(p) ** 2) * (1.0 + abs(q) ** 2))


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
    assert same_isometry(Mobius(-2.0, 0.0, 0.0, -0.5), DIAG)


def test_compose_diagonal():
    sq = DIAG.compose(DIAG)
    assert same_isometry(sq, Mobius(4.0, 0.0, 0.0, 0.25))


def test_compose_identity_and_inverse():
    ident = Mobius.identity()
    assert same_isometry(ident.compose(DIAG), DIAG)
    assert same_isometry(DIAG.compose(DIAG.inverse()), ident)


def test_complex_entry_is_a_type_error():
    with pytest.raises(TypeError):
        Mobius(complex(2.0, 0.5), 0.0, 0.0, 0.5)


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
        assert m.compose(m).translation_length() == pytest.approx(2.0 * ell, rel=1e-9)


# fixed points known in closed form (or, for random elements, the roots of
# c z^2 + (d - a) z - b = 0) are fixed by the boundary action

def test_fixed_points_diagonal():
    assert DIAG(0.0) == 0.0
    assert is_infinity(DIAG(INF))


def test_fixed_points_symmetric():
    for z in (1.0, -1.0):
        assert SYMM(1.0)(z) == pytest.approx(z, abs=1e-12)


def test_fixed_points_equivariant_under_translation():
    shift = Mobius(1.0, 1.0, 0.0, 1.0)  # z -> z + 1
    conj = DIAG.conjugated_by(shift)
    assert is_infinity(conj(INF))
    assert conj(1.0) == pytest.approx(1.0, abs=1e-12)


def test_fixed_points_are_fixed():
    for m in random_elements(200, seed=5):
        if m.classify() is not IsometryClass.HYPERBOLIC:
            continue
        a, b, c, d = m.entries
        root = math.sqrt((a - d) ** 2 + 4.0 * b * c)  # = sqrt(tr^2 - 4)
        for p in (((a - d) + root) / (2.0 * c), ((a - d) - root) / (2.0 * c)):
            assert chordal_distance(m(p), p) <= 1e-9


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

