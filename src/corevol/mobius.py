"""Determinant-one 2x2 matrices acting on hyperbolic 2- and 3-space.

Real matrices are orientation-preserving isometries of the upper half-plane
(PSL(2,R)) acting on the boundary R u {inf}; complex matrices are isometries
of upper half-space (PSL(2,C)) acting on C u {inf}.  A matrix and its
negation are the same isometry, so every comparison is sign-insensitive.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

REAL = "real"
COMPLEX = "complex"

DET_TOL = 1e-12
CLASSIFY_TOL = 1e-10
IDENTITY_TOL = 1e-10

INF = float("inf")


class IsometryError(ValueError):
    """An operation was applied to an element of the wrong isometry class."""


class IsometryClass(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"  # loxodromic, in the complex case


def is_infinity(p) -> bool:
    """True if the boundary point is the point at infinity."""
    if isinstance(p, complex):
        return math.isinf(p.real) or math.isinf(p.imag)
    return math.isinf(p)


def chordal_distance(p, q) -> float:
    """Metric on the boundary sphere that stays finite at infinity."""
    pinf, qinf = is_infinity(p), is_infinity(q)
    if pinf and qinf:
        return 0.0
    if pinf:
        return 1.0 / math.sqrt(1.0 + abs(q) ** 2)
    if qinf:
        return 1.0 / math.sqrt(1.0 + abs(p) ** 2)
    return abs(p - q) / math.sqrt((1.0 + abs(p) ** 2) * (1.0 + abs(q) ** 2))


class Mobius:
    """z -> (a z + b) / (c z + d) with a d - b c normalized to 1.

    The field tag ("real" or "complex") is inferred from the entry types
    unless given explicitly; operations on mixed tags raise TypeError.
    Instances are immutable by convention and safe to share.
    """

    __slots__ = ("a", "b", "c", "d", "field")

    def __init__(self, a, b, c, d, field=None):
        if field is None:
            field = COMPLEX if any(isinstance(x, complex) for x in (a, b, c, d)) else REAL
        if field == REAL:
            a, b, c, d = float(a), float(b), float(c), float(d)
            det = a * d - b * c
            if det <= DET_TOL:
                raise ValueError(
                    f"real Mobius needs positive determinant (orientation), got {det!r}"
                )
            s = math.sqrt(det)
        elif field == COMPLEX:
            a, b, c, d = complex(a), complex(b), complex(c), complex(d)
            det = a * d - b * c
            if abs(det) <= DET_TOL:
                raise ValueError(f"singular matrix, det = {det!r}")
            s = cmath.sqrt(det)
        else:
            raise ValueError(f"unknown field tag {field!r}")
        self.a, self.b, self.c, self.d = a / s, b / s, c / s, d / s
        self.field = field

    @classmethod
    def identity(cls, field=REAL) -> "Mobius":
        one = 1.0 if field == REAL else complex(1.0)
        zero = 0.0 if field == REAL else complex(0.0)
        return cls(one, zero, zero, one, field=field)

    @property
    def trace(self):
        return self.a + self.d

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other: apply(self.compose(other), p) == self(other(p))."""
        if self.field != other.field:
            raise TypeError(f"cannot compose {self.field} with {other.field} element")
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            field=self.field,
        )

    def __matmul__(self, other):
        return self.compose(other)

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a, field=self.field)

    def conjugated_by(self, t: "Mobius") -> "Mobius":
        return t.compose(self).compose(t.inverse())

    def same_isometry(self, other: "Mobius", tol: float = 1e-9) -> bool:
        """Entrywise equality up to the global sign ambiguity."""
        if self.field != other.field:
            raise TypeError("cannot compare elements with different field tags")
        plus = max(abs(x - y) for x, y in zip(self.entries, other.entries))
        minus = max(abs(x + y) for x, y in zip(self.entries, other.entries))
        return min(plus, minus) <= tol

    def _identity_defect(self) -> float:
        ident = (1.0, 0.0, 0.0, 1.0)
        plus = max(abs(x - y) for x, y in zip(self.entries, ident))
        minus = max(abs(x + y) for x, y in zip(self.entries, ident))
        return min(plus, minus)

    def classify(self) -> IsometryClass:
        """Trace classification; a tolerance band of 1e-10 around tr^2 = 4
        keeps parabolic-by-intent input from being misread as hyperbolic."""
        if self._identity_defect() <= IDENTITY_TOL:
            return IsometryClass.IDENTITY
        t2 = self.trace * self.trace
        if self.field == COMPLEX:
            if abs(t2.imag) > CLASSIFY_TOL:
                return IsometryClass.HYPERBOLIC
            t2 = t2.real
        if abs(t2 - 4.0) <= CLASSIFY_TOL:
            return IsometryClass.PARABOLIC
        if t2 > 4.0:
            return IsometryClass.HYPERBOLIC
        if t2 < -CLASSIFY_TOL:
            return IsometryClass.HYPERBOLIC
        return IsometryClass.ELLIPTIC

    def translation_length(self) -> float:
        """Displacement along the axis of a hyperbolic element.

        Real case: 2 arccosh(|tr|/2).  Complex case: twice the real part of
        arccosh(tr/2), which agrees with the real formula on real traces.
        """
        cls = self.classify()
        if cls is not IsometryClass.HYPERBOLIC:
            raise IsometryError(
                f"translation length needs a hyperbolic element, got {cls.value}"
            )
        if self.field == REAL:
            return 2.0 * math.acosh(abs(self.trace) / 2.0)
        return 2.0 * abs(cmath.acosh(self.trace / 2.0).real)

    def _deriv_magnitude(self, p) -> float:
        # |derivative| of the action at a finite point, = 1/|c p + d|^2
        den = self.c * p + self.d
        return 1.0 / abs(den) ** 2

    def fixed_points(self):
        """(attracting, repelling) boundary fixed points of a hyperbolic element."""
        cls = self.classify()
        if cls is not IsometryClass.HYPERBOLIC:
            raise IsometryError(
                f"fixed points of the axis need a hyperbolic element, got {cls.value}"
            )
        a, b, c, d = self.entries
        if c == 0:
            # fixes infinity; the finite root solves (d - a) z = b
            finite = b / (d - a)
            if abs(a / d) > 1.0:
                return INF, finite
            return finite, INF
        disc = (a - d) ** 2 + 4.0 * b * c  # = tr^2 - 4
        if self.field == REAL:
            root = math.sqrt(disc)
        else:
            root = cmath.sqrt(disc)
        z1 = ((a - d) + root) / (2.0 * c)
        z2 = ((a - d) - root) / (2.0 * c)
        if self._deriv_magnitude(z1) < 1.0:
            return z1, z2
        return z2, z1

    def apply(self, p):
        """Boundary action; the point at infinity is a value, not an error."""
        if is_infinity(p):
            if self.c == 0:
                return INF
            return self.a / self.c
        den = self.c * p + self.d
        if den == 0:
            return INF
        w = (self.a * p + self.b) / den
        if is_infinity(w):
            return INF
        return w

    def __call__(self, p):
        return self.apply(p)

    def __repr__(self):
        return (
            f"Mobius({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r}, "
            f"field={self.field!r})"
        )
