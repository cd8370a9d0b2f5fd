"""Real determinant-one 2x2 matrices: the orientation-preserving isometries
of the upper half-plane (PSL(2,R)).

The boundary action is on R u {inf}; it also takes points of the plane off
the real line, where it carries circles to circles, which is how validation
checks a side pairing.  A matrix and its negation are the same isometry, so
every comparison is sign-insensitive.
"""

from __future__ import annotations

import math
from enum import Enum

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
    HYPERBOLIC = "hyperbolic"


def is_infinity(p) -> bool:
    """True if the boundary point is the point at infinity."""
    if isinstance(p, complex):
        return math.isinf(p.real) or math.isinf(p.imag)
    return math.isinf(p)


class Mobius:
    """z -> (a z + b) / (c z + d) with real entries and a d - b c normalized
    to 1.  Instances are immutable by convention and safe to share.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = float(a), float(b), float(c), float(d)
        det = a * d - b * c
        if not math.isfinite(det):
            raise ValueError(f"matrix entries overflow: determinant {det!r} is not finite")
        if det <= DET_TOL:
            raise ValueError(
                f"real Mobius needs positive determinant (orientation), got {det!r}"
            )
        s = math.sqrt(det)
        self.a, self.b, self.c, self.d = a / s, b / s, c / s, d / s

    @classmethod
    def identity(cls) -> "Mobius":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def trace(self):
        return self.a + self.d

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other: apply(self.compose(other), p) == self(other(p))."""
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def conjugated_by(self, t: "Mobius") -> "Mobius":
        return t.compose(self).compose(t.inverse())

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
        if abs(t2 - 4.0) <= CLASSIFY_TOL:
            return IsometryClass.PARABOLIC
        if t2 > 4.0:
            return IsometryClass.HYPERBOLIC
        return IsometryClass.ELLIPTIC

    def translation_length(self) -> float:
        """Displacement along the axis of a hyperbolic element:
        2 arccosh(|tr|/2)."""
        cls = self.classify()
        if cls is not IsometryClass.HYPERBOLIC:
            raise IsometryError(
                f"translation length needs a hyperbolic element, got {cls.value}"
            )
        return 2.0 * math.acosh(abs(self.trace) / 2.0)

    def apply(self, p):
        """Boundary action on a real or complex point; the point at infinity
        is a value, not an error."""
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
        return f"Mobius({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"
