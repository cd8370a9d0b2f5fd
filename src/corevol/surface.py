"""Topology of the quotient surface of a Fuchsian Schottky group.

The fundamental domain of the group meets the boundary circle R u {inf} in
2g arcs between consecutive disks.  Following an arc to its terminal
endpoint and jumping through the side pairing there traverses the boundary
of one end of the quotient surface; the accumulated map is the end's
holonomy and its translation length is the length of the end's outermost
closed geodesic.
"""

from __future__ import annotations

import math

from .mobius import IsometryClass
from .schottky import ValidatedGroup

MATCH_TOL = 1e-8


class SurfaceTopologyError(ValueError):
    pass


class EndpointMatchError(SurfaceTopologyError):
    """A traced endpoint image failed to land on an arc endpoint; the
    pairing data is invalid or numerically inconsistent."""


class SurfaceInfo:
    """Topology and end data of the quotient surface M; a plain record,
    immutable by convention.

    `handlebody_genus` is the Schottky genus g, `genus` the surface genus k;
    the cycle trace must satisfy g = 2k + e - 1.  The core area is the
    Gauss-Bonnet value 2 pi (g - 1).
    """

    __slots__ = ("ends", "genus", "handlebody_genus", "end_lengths", "core_area")

    def __init__(self, ends: int, genus: int, handlebody_genus: int,
                 end_lengths: tuple[float, ...], core_area: float):
        if ends != len(end_lengths):
            raise SurfaceTopologyError(f"{ends} ends but {len(end_lengths)} end lengths")
        if ends > 0:
            if genus < 0:
                raise SurfaceTopologyError(f"negative surface genus {genus}")
            if handlebody_genus != 2 * genus + ends - 1:
                raise SurfaceTopologyError(
                    f"genus relation violated: g={handlebody_genus}, k={genus}, e={ends}"
                )
            if any(not length > 0 for length in end_lengths):
                raise SurfaceTopologyError("end lengths must be positive")
        self.ends, self.genus, self.handlebody_genus = ends, genus, handlebody_genus
        self.end_lengths, self.core_area = end_lengths, core_area

    @property
    def total_end_length(self) -> float:
        return sum(self.end_lengths)


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
                raise EndpointMatchError(
                    f"image {image!r} of endpoint {circles[j].left!r} of circle {j} "
                    f"misses its partner's endpoint {target!r}; pairing data is inconsistent"
                )
            holonomy = mu if holonomy is None else mu.compose(holonomy)
            m = arc_from[partner[j]]
        if holonomy.classify() is not IsometryClass.HYPERBOLIC:
            raise SurfaceTopologyError(
                f"end holonomy is {holonomy.classify().value}, not hyperbolic"
            )
        lengths.append(holonomy.translation_length())
    return lengths


def surface_invariants(group: ValidatedGroup) -> SurfaceInfo:
    """Ends, genus, end lengths and core area from the cycle trace."""
    lengths = _end_lengths(group)
    e = len(lengths)
    g = group.genus
    two_k = g + 1 - e
    if two_k < 0 or two_k % 2 != 0:
        raise SurfaceTopologyError(
            f"cycle trace gave e={e} ends for genus g={g}; "
            "g = 2k + e - 1 has no integer solution"
        )
    return SurfaceInfo(
        ends=e,
        genus=two_k // 2,
        handlebody_genus=g,
        end_lengths=tuple(sorted(lengths)),
        core_area=2.0 * math.pi * (g - 1),
    )
