"""Real determinant-one 2x2 matrices: the orientation-preserving isometries
of the upper half-plane (PSL(2,R)).

The boundary action is on R u {inf}; it also takes points of the plane off
the real line, where it carries circles to circles, which is how validation
checks a side pairing.  A matrix and its negation are the same isometry, so
the trace is defined up to sign: the end trace in `corevol.surface` reads
|tr|.
"""

from __future__ import annotations

import cmath
import math

DET_TOL = 1e-12


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

    def apply(self, p):
        """Boundary action on a real or complex point; the point at infinity
        is a value, not an error."""
        if cmath.isinf(p):
            if self.c == 0:
                return math.inf
            return self.a / self.c
        den = self.c * p + self.d
        if den == 0:
            return math.inf
        w = (self.a * p + self.b) / den
        if cmath.isinf(w):
            return math.inf
        return w

    def __call__(self, p):
        return self.apply(p)

    def __repr__(self):
        return f"Mobius({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"
