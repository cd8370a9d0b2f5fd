"""Classical Schottky groups built from paired circles.

The group data is 2g pairwise-disjoint closed disks together with g Mobius
maps, each carrying one circle onto its partner and the exterior of the
source disk into the interior of the target disk.  The groups are Fuchsian:
every circle is centered on the real line and every map is real.

The records (`Circle`, `Pairing`, `SchottkyData`, `ValidatedGroup`) are
plain classes with `__slots__`, immutable by convention like `Mobius`:
they compare by identity, and nothing assigns to them after construction.
"""

from __future__ import annotations

import math

from .mobius import DET_TOL, Mobius

MIN_GAP = 1e-9
CIRCLE_MAP_TOL = 1e-9
# limit-set points this close to the last point kept are dropped
DEDUP_TOL = 1e-12
_SAMPLES = 8


class SchottkyError(ValueError):
    """Invalid Schottky data; `kind` and `detail` are machine-readable."""

    def __init__(self, kind: str, message: str, **detail):
        super().__init__(message)
        self.kind = kind
        self.detail = detail


class Circle:
    """Circle centered on the real line; the closed disk it bounds is a
    group side."""

    __slots__ = ("center", "radius")

    def __init__(self, center: float, radius: float):
        self.center = float(center)
        if not radius > 0:
            raise SchottkyError("bad_radius", f"circle radius must be positive, got {radius}")
        self.radius = radius

    @property
    def left(self) -> float:
        return self.center - self.radius

    @property
    def right(self) -> float:
        return self.center + self.radius

    def point_at(self, angle: float) -> complex:
        return self.center + self.radius * complex(math.cos(angle), math.sin(angle))


class Pairing:
    """Side pairing: `map` sends circle `source` onto circle `target`."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: int, target: int, map: Mobius):
        self.source, self.target, self.map = source, target, map


class SchottkyData:
    __slots__ = ("circles", "pairings")

    def __init__(self, circles: tuple[Circle, ...], pairings: tuple[Pairing, ...]):
        self.circles, self.pairings = circles, pairings


class ValidatedGroup:
    """SchottkyData that passed `validate`; genus g = number of pairings."""

    __slots__ = ("circles", "pairings")

    def __init__(self, circles: tuple[Circle, ...], pairings: tuple[Pairing, ...]):
        self.circles, self.pairings = circles, pairings

    @property
    def genus(self) -> int:
        return len(self.pairings)


def _gap(c1: Circle, c2: Circle) -> float:
    return abs(c1.center - c2.center) - (c1.radius + c2.radius)


def validate(data: SchottkyData) -> ValidatedGroup:
    """Check all group invariants; raise SchottkyError naming the offender.

    Disks must be pairwise disjoint with a gap of at least MIN_GAP, every
    circle must sit in exactly one pairing, and each map must carry its
    source circle onto its target circle (8 boundary samples) while
    contracting the exterior (probed at infinity) into the target disk.
    """
    circles, pairings = tuple(data.circles), tuple(data.pairings)
    n = len(circles)
    if n == 0 or n != 2 * len(pairings):
        raise SchottkyError(
            "bad_count",
            f"need 2g circles and g pairings, got {n} circles, {len(pairings)} pairings",
        )

    for i in range(n):
        for j in range(i + 1, n):
            gap = _gap(circles[i], circles[j])
            if gap < MIN_GAP:
                raise SchottkyError(
                    "overlapping_disks",
                    f"disks {i} and {j} are not strictly disjoint (gap {gap:.3e})",
                    circles=(i, j),
                )

    used: dict[int, int] = {}
    for k, pairing in enumerate(pairings):
        for idx in (pairing.source, pairing.target):
            if not 0 <= idx < n:
                raise SchottkyError(
                    "bad_index", f"pairing {k} references circle {idx}", pairing=k
                )
        if pairing.source == pairing.target:
            raise SchottkyError(
                "self_paired", f"pairing {k} pairs circle {pairing.source} to itself",
                pairing=k,
            )
        for idx in (pairing.source, pairing.target):
            if idx in used:
                raise SchottkyError(
                    "reused_circle",
                    f"circle {idx} appears in pairings {used[idx]} and {k}",
                    circles=(idx,),
                )
            used[idx] = k

    # both tests are negated comparisons, so that an infinite or NaN image fails
    for k, pairing in enumerate(pairings):
        src, tgt = circles[pairing.source], circles[pairing.target]
        for s in range(_SAMPLES):
            z = src.point_at(2.0 * math.pi * s / _SAMPLES)
            err = abs(abs(pairing.map(z) - tgt.center) - tgt.radius)
            if not err <= CIRCLE_MAP_TOL * tgt.radius:
                raise SchottkyError(
                    "circle_mismatch",
                    f"pairing {k} does not carry circle {pairing.source} onto "
                    f"circle {pairing.target}",
                    pairing=k,
                    circles=(pairing.source, pairing.target),
                )
        w = pairing.map(float("inf"))
        if not abs(w - tgt.center) < tgt.radius * (1.0 - CIRCLE_MAP_TOL):
            raise SchottkyError(
                "exterior_not_contracted",
                f"pairing {k} maps the exterior of circle {pairing.source} outside "
                f"the interior of circle {pairing.target}",
                pairing=k,
                circles=(pairing.source, pairing.target),
            )

    return ValidatedGroup(circles, pairings)


def generator_from_axis(p: float, q: float, length: float):
    """Hyperbolic element with axis endpoints p, q and the given translation
    length, plus its isometric circle and that circle's image.

    Returns (map, source circle, target circle); q is the attracting fixed
    point and the two circles always form a valid exterior-to-interior
    pairing.  Both endpoints must be finite and distinct.
    """
    if not (math.isfinite(p) and math.isfinite(q)):
        raise ValueError("axis endpoints must be finite (conjugate infinity away first)")
    if p == q:
        raise ValueError("axis endpoints must be distinct")
    if not math.isfinite(q - p):
        raise ValueError(f"axis endpoints {p!r} and {q!r} are too far apart: q - p overflows")
    if not length > 0:
        raise ValueError(f"translation length must be positive, got {length}")
    if q > p:
        move = Mobius(q, p, 1.0, 1.0)  # 0 -> p, inf -> q
    else:
        move = Mobius(-q, p, -1.0, 1.0)
    try:
        half = math.exp(length / 2.0)
    except OverflowError:
        raise ValueError(f"translation length {length} is too large") from None
    dilate = Mobius(half, 0.0, 0.0, 1.0 / half)
    g = dilate.conjugated_by(move)
    if g.c == 0:
        raise ValueError("degenerate axis: isometric circle center at infinity")
    radius = 1.0 / abs(g.c)
    source = Circle(-g.d / g.c, radius)
    target = Circle(g.a / g.c, radius)
    return g, source, target


# enumerate_words and word_mobius stay public: perfbench/tracer.py counts words through them
def enumerate_words(group: ValidatedGroup, max_len: int) -> list[tuple[int, ...]]:
    """All reduced words of length <= max_len, each exactly once, as tuples of
    letters: +i is generator i, -i its inverse (1-based).

    The count is 1 + sum_{k=1..max_len} 2g (2g-1)^(k-1).
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    g = group.genus
    alphabet = []
    for i in range(1, g + 1):
        alphabet.extend((i, -i))
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in alphabet:
                if w and w[-1] == -x:
                    continue
                nxt.append(w + (x,))
        words.extend(nxt)
        frontier = nxt
    return words


def letter_mobius(group: ValidatedGroup, letter: int) -> Mobius:
    pairing = group.pairings[abs(letter) - 1]
    return pairing.map if letter > 0 else pairing.map.inverse()


def word_mobius(group: ValidatedGroup, word: tuple[int, ...]) -> Mobius:
    """Product of the letters in written order (leading letter applied last)."""
    out = Mobius.identity()
    for letter in word:
        out = out.compose(letter_mobius(group, letter))
    return out


def _contraction_disk(group: ValidatedGroup, letter: int) -> int:
    """Index of the disk the letter contracts into."""
    pairing = group.pairings[abs(letter) - 1]
    return pairing.target if letter > 0 else pairing.source


def limit_set_sample(group: ValidatedGroup, depth: int):
    """Boundary points approximating the limit set.

    Each nonempty reduced word of length <= depth is applied to the center
    of the disk its leading letter contracts into.  Points come back sorted
    and deduplicated within DEDUP_TOL; deeper samples contain shallower ones.

    The products are built level by level as arrays: a word of length k + 1
    is its length-k prefix composed with one more letter, by the operations
    of `Mobius.compose` and `Mobius.__init__` in their order, so every point
    is the one `word_mobius` gives.  Each word's children are read from a
    fixed table that lists, per last letter, every letter but its inverse in
    alphabet order.  A product whose determinant is lost or not finite
    raises the ValueError of the `Mobius` constructor.  A point is kept
    outright when it lies more than DEDUP_TOL past its predecessor in sorted
    order; only the runs between such points that are wider than DEDUP_TOL
    are scanned against the last point kept.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    import numpy as np  # the only numpy path of a Fuchsian group

    alphabet = [x for i in range(1, group.genus + 1) for x in (i, -i)]
    xa, xb, xc, xd = np.array([letter_mobius(group, x).entries for x in alphabet]).T
    centers = np.array([group.circles[_contraction_disk(group, x)].center for x in alphabet])
    n = len(alphabet)
    # row j: the letters that may follow letter j, in alphabet order; alphabet
    # order puts i and -i side by side, so j's inverse is j ^ 1
    slot = np.arange(n - 1)
    children = slot + (slot >= (np.arange(n) ^ 1)[:, None])

    a, b, c, d = (np.array([x]) for x in Mobius.identity().entries)
    letter = np.arange(n)
    raw = []
    with np.errstate(all="ignore"):
        for level in range(depth):
            # each word's children in enumeration order
            if level:
                letter = children[letter].ravel()
            width = n if level == 0 else n - 1
            pa, pb, pc, pd = (np.repeat(x, width) for x in (a, b, c, d))
            la, lb, lc, ld = xa[letter], xb[letter], xc[letter], xd[letter]
            a, b = pa * la + pb * lc, pa * lb + pb * ld
            c, d = pc * la + pd * lc, pc * lb + pd * ld
            det = a * d - b * c
            bad = np.flatnonzero(~np.isfinite(det) | (det <= DET_TOL))
            if bad.size:
                i = bad[0]  # the first such word in enumeration order
                Mobius(a[i].item(), b[i].item(), c[i].item(), d[i].item())
            s = np.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
            z = centers[letter] if level == 0 else np.repeat(z, width)
            den = c * z + d
            w = (a * z + b) / den
            w[(den == 0) | np.isinf(w)] = np.inf
            raw.append(w)
    return _sort_dedup(np.concatenate(raw))


def _sort_dedup(points) -> list:
    """`points`, a float array, sorted, each dropped if within DEDUP_TOL of
    the last point kept."""
    import numpy as np

    # Equal keys differ only in the sign of a zero; only then does their
    # order, the order of the words, decide which one the scan keeps.
    points = np.sort(points, kind="stable" if (points == 0).any() else None)
    # The last point kept is at most the predecessor, so a point more than
    # DEDUP_TOL past its predecessor is kept; NaN and inf gaps keep it too.
    keep = np.ones(points.size, dtype=bool)
    with np.errstate(invalid="ignore"):
        keep[1:] = ~(np.abs(np.diff(points)) <= DEDUP_TOL)
        starts = np.flatnonzero(keep)
        ends = np.append(starts[1:], points.size) - 1
        # the run from a kept point to the next one collapses to its first
        # point unless its last is more than DEDUP_TOL past it
        wide = points[ends] - points[starts] > DEDUP_TOL
    for start, end in zip(starts[wide].tolist(), ends[wide].tolist()):
        run = points[start:end + 1].tolist()
        last = run[0]
        for i, p in enumerate(run):
            if abs(p - last) <= DEDUP_TOL:
                continue
            keep[start + i] = True
            last = p
    return points[keep].tolist()
