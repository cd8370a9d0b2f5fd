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
from dataclasses import dataclass

from .mobius import INF, IsometryClass, Mobius
from .schottky import ValidatedGroup

MATCH_TOL = 1e-8


class SurfaceTopologyError(ValueError):
    pass


class EndpointMatchError(SurfaceTopologyError):
    """A traced endpoint image failed to land on an arc endpoint; the
    pairing data is invalid or numerically inconsistent."""


@dataclass(frozen=True)
class BoundaryArc:
    """Open interval of R u {inf} between two consecutive disks.

    The left endpoint is the rightmost point of circle `left_circle`, the
    right endpoint the leftmost point of `right_circle`.  Exactly one arc
    runs through infinity.
    """

    left: float
    right: float
    left_circle: int
    right_circle: int
    through_infinity: bool = False


@dataclass(frozen=True)
class EndCycle:
    """One cycle of arcs glued by side pairings: a single surface end."""

    arcs: tuple[BoundaryArc, ...]
    holonomy: Mobius
    length: float


@dataclass(frozen=True)
class SurfaceInfo:
    """Topology and end data of the quotient surface M.

    `handlebody_genus` is the Schottky genus g, `genus` the surface genus k;
    the cycle trace must satisfy g = 2k + e - 1.  The core area is the
    Gauss-Bonnet value 2 pi (g - 1).
    """

    ends: int
    genus: int
    handlebody_genus: int
    end_lengths: tuple[float, ...]
    core_area: float

    def __post_init__(self):
        if self.ends != len(self.end_lengths):
            raise SurfaceTopologyError(
                f"{self.ends} ends but {len(self.end_lengths)} end lengths"
            )
        if self.ends > 0:
            if self.genus < 0:
                raise SurfaceTopologyError(f"negative surface genus {self.genus}")
            if self.handlebody_genus != 2 * self.genus + self.ends - 1:
                raise SurfaceTopologyError(
                    f"genus relation violated: g={self.handlebody_genus}, "
                    f"k={self.genus}, e={self.ends}"
                )
            if any(not length > 0 for length in self.end_lengths):
                raise SurfaceTopologyError("end lengths must be positive")

    @property
    def total_end_length(self) -> float:
        return sum(self.end_lengths)


def boundary_arcs(group: ValidatedGroup) -> list[BoundaryArc]:
    """The 2g arcs sorted by position, the infinity arc last."""
    order = sorted(range(len(group.circles)), key=lambda i: group.circles[i].center)
    arcs = []
    for m in range(len(order) - 1):
        i, j = order[m], order[m + 1]
        arcs.append(BoundaryArc(group.circles[i].right, group.circles[j].left, i, j))
    i, j = order[-1], order[0]
    arcs.append(
        BoundaryArc(group.circles[i].right, group.circles[j].left, i, j,
                    through_infinity=True)
    )
    return arcs


def _outward_map(group: ValidatedGroup, circle_index: int) -> Mobius:
    # The map carrying this circle to its partner, exterior into interior.
    for pairing in group.pairings:
        if pairing.source == circle_index:
            return pairing.map
        if pairing.target == circle_index:
            return pairing.map.inverse()
    raise SurfaceTopologyError(f"circle {circle_index} is not in any pairing")


def end_cycles(group: ValidatedGroup) -> list[EndCycle]:
    """Trace the arc cycles of the fundamental domain boundary.

    From an arc's terminal endpoint (its right endpoint, with R oriented
    positively) the outward pairing map of that circle lands on the left
    endpoint of a unique next arc; each image must match an arc endpoint
    within MATCH_TOL, which doubles as a consistency check on the pairing
    data.  Cycles partition the arcs, their number is the number of ends,
    and the accumulated map around a cycle is the end holonomy.
    """
    arcs = boundary_arcs(group)
    visited = [False] * len(arcs)
    cycles = []
    for start in range(len(arcs)):
        if visited[start]:
            continue
        seq: list[int] = []
        maps: list[Mobius] = []
        current = start
        while True:
            visited[current] = True
            seq.append(current)
            p = arcs[current].right
            mu = _outward_map(group, arcs[current].right_circle)
            image = mu(p)
            if image == INF or not math.isfinite(image):
                raise EndpointMatchError(
                    f"endpoint {p!r} of circle {arcs[current].right_circle} "
                    "mapped to infinity"
                )
            nxt = min(range(len(arcs)), key=lambda m: abs(arcs[m].left - image))
            err = abs(arcs[nxt].left - image)
            if err > MATCH_TOL * max(1.0, abs(image)):
                raise EndpointMatchError(
                    f"image {image!r} of endpoint {p!r} misses every arc endpoint "
                    f"(best error {err:.3e}); pairing data is inconsistent"
                )
            maps.append(mu)
            if nxt == start:
                break
            if visited[nxt]:
                raise SurfaceTopologyError(
                    "cycle trace revisited an arc before closing; corrupt pairing data"
                )
            current = nxt
        holonomy = maps[0]
        for mu in maps[1:]:
            holonomy = mu.compose(holonomy)
        if holonomy.classify() is not IsometryClass.HYPERBOLIC:
            raise SurfaceTopologyError(
                f"end holonomy is {holonomy.classify().value}, not hyperbolic"
            )
        cycles.append(
            EndCycle(
                arcs=tuple(arcs[m] for m in seq),
                holonomy=holonomy,
                length=holonomy.translation_length(),
            )
        )
    assert sum(len(c.arcs) for c in cycles) == len(arcs)
    return cycles


def surface_invariants(group: ValidatedGroup) -> SurfaceInfo:
    """Ends, genus, end lengths and core area from the cycle trace."""
    cycles = end_cycles(group)
    e = len(cycles)
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
        end_lengths=tuple(sorted(c.length for c in cycles)),
        core_area=2.0 * math.pi * (g - 1),
    )
