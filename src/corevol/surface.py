"""Topology of the quotient surface of a Fuchsian Schottky group.

The fundamental domain of the group meets the boundary circle R u {inf} in
2g arcs between consecutive disks.  Following an arc to its terminal
endpoint and jumping through the side pairing there traverses the boundary
of one end of the quotient surface; the accumulated map is the end's
holonomy and its translation length is the length of the end's outermost
closed geodesic.
"""

from __future__ import annotations

import functools
import math
import operator

from .mobius import Mobius
from .schottky import ValidatedGroup

MATCH_TOL = 1e-8
HYPERBOLIC_TOL = 1e-10


class SurfaceTopologyError(ValueError):
    pass


class SurfaceInfo:
    """Topology and end data of the quotient surface M; a plain record,
    immutable by convention.

    It keeps what the cycle trace measures: the Schottky genus g
    (`handlebody_genus`) and the end lengths.  The rest follows: the ends
    e are the end lengths counted, the surface genus k solves
    g = 2k + e - 1, and the core area is the Gauss-Bonnet value 2 pi (g - 1).
    """

    __slots__ = ("handlebody_genus", "end_lengths")

    def __init__(self, handlebody_genus: int, end_lengths: tuple[float, ...]):
        two_k = handlebody_genus + 1 - len(end_lengths)
        if two_k < 0 or two_k % 2 != 0:
            raise SurfaceTopologyError(
                "genus relation g = 2k + e - 1 has no solution k >= 0 for "
                f"g={handlebody_genus}, e={len(end_lengths)}"
            )
        if any(not length > 0 for length in end_lengths):
            raise SurfaceTopologyError("end lengths must be positive")
        self.handlebody_genus, self.end_lengths = handlebody_genus, end_lengths

    @property
    def ends(self) -> int:
        return len(self.end_lengths)

    @property
    def genus(self) -> int:
        return (self.handlebody_genus + 1 - self.ends) // 2

    @property
    def core_area(self) -> float:
        return 2.0 * math.pi * (self.handlebody_genus - 1)

    @property
    def total_end_length(self) -> float:
        return functools.reduce(operator.add, self.end_lengths, 0.0)


def _end_lengths(group: ValidatedGroup) -> list[float]:
    """Trace the arc cycles of the fundamental domain boundary.

    With the disks sorted along the line, arc m runs from the right point
    of disk m to the left point of disk m + 1, cyclically, so the last arc
    runs through infinity.  A pairing map is real, orientation-preserving
    and sends the exterior of its disk into the partner disk, so it carries
    the left point of disk m + 1 to the right point of that disk's partner,
    where the next arc starts.  The cycles of this permutation of the arcs
    are the ends, and the map accumulated around a cycle is the end's
    holonomy.  Each image must land on the partner's right point within
    MATCH_TOL, which doubles as a consistency check on the pairing data.
    """
    circles = group.circles
    n = len(circles)
    order = sorted(range(n), key=lambda i: circles[i].center)
    arc_from = {c: m for m, c in enumerate(order)}
    partner, outward = {}, {}
    for p in group.pairings:
        partner[p.source], partner[p.target] = p.target, p.source
        outward[p.source], outward[p.target] = p.map, p.map.inverse()
    visited = [False] * n
    lengths = []
    for start in range(n):
        if visited[start]:
            continue
        holonomy, m = None, start
        while not visited[m]:
            visited[m] = True
            j = order[(m + 1) % n]
            mu, target = outward[j], circles[partner[j]].right
            image = mu(circles[j].left)
            if not abs(target - image) <= MATCH_TOL * max(1.0, abs(target)):
                raise SurfaceTopologyError(
                    f"image {image!r} of endpoint {circles[j].left!r} of circle {j} "
                    f"misses its partner's endpoint {target!r}; pairing data is inconsistent"
                )
            holonomy = mu if holonomy is None else mu.compose(holonomy)
            m = arc_from[partner[j]]
        lengths.append(_end_length(holonomy))
    return lengths


def _end_length(holonomy: Mobius) -> float:
    """2 arccosh(|tr|/2), the length of the end with this holonomy, which
    must be hyperbolic: tr^2 - 4 > HYPERBOLIC_TOL."""
    trace = abs(holonomy.trace)
    if not trace * trace - 4.0 > HYPERBOLIC_TOL:
        raise SurfaceTopologyError(f"end holonomy is not hyperbolic: |trace| = {trace!r}")
    return 2.0 * math.acosh(trace / 2.0)


def surface_invariants(group: ValidatedGroup) -> SurfaceInfo:
    """The quotient surface of `group`, from its cycle trace."""
    return SurfaceInfo(group.genus, tuple(sorted(_end_lengths(group))))
