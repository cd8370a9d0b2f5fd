"""Discrete conformal-change functionals on cylinder meshes.

Meshes are rectangular (t, theta) grids with theta periodic, carrying either
the hyperbolic end metric dt^2 + cosh^2(t) dtheta^2 or the flat cylinder
metric dt^2 + dtheta^2.  Derivatives live on staggered midpoints (flux
form), which makes the discrete Laplacian the exact adjoint of the discrete
Dirichlet energy up to an explicit boundary flux: the summation-by-parts
identity

    sum u * lap(u) * w  +  int |grad u|^2  =  boundary flux of u

holds to machine precision (the report's integration-by-parts defect),
while every Laplacian row (including the one-sided boundary closure) is
second-order accurate.

`anomaly_functionals` computes every report value in one sweep over
cache-sized row blocks.  Each stencil is written once, as a private kernel
over a range of t rows, and that sweep is its only caller.  Every integral
is one `math.fsum` over mesh rows of a row weight times the row's sum, so
no report value depends on how the rows are grouped into blocks.
"""

from __future__ import annotations

import io
import math
import mmap
import os
import stat
import sys
import threading
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

TAG_HYPERBOLIC = "hyperbolic_cylinder"
TAG_FLAT = "flat_cylinder"


class _Metric(NamedTuple):
    sqrt_det: Callable  # sqrt(det) of a t array
    sqrt_det_slope: Callable  # its t-derivative
    area_primitive: Callable  # its antiderivative from 0, of a float t
    scalar_curvature: float  # Gauss curvature -1 doubles to -2; flat cylinders have 0
    liouville_variant: str  # the Liouville residual the tag carries, by its report name


# everything that depends on the metric tag
_METRICS = {
    TAG_HYPERBOLIC: _Metric(np.cosh, np.sinh, math.sinh, -2.0, "hyperbolic_piece"),
    TAG_FLAT: _Metric(np.ones_like, np.zeros_like, float, 0.0, "flat_piece"),
}


class SurfaceMesh:
    """Grid over (t, theta) in [-T, T] x [0, L), theta periodic.

    Node weights use the trapezoid rule in t (half weight at the two
    boundary rows) and the exact periodic rule in theta, so the total area
    matches the analytic area at second order.  A plain record, immutable
    by convention; it has no `__slots__` because its cached arrays live in
    the instance `__dict__`.
    """

    def __init__(self, tag: str, t_extent: float, circumference: float,
                 n_t: int, n_theta: int):
        if tag not in _METRICS:
            raise ValueError(f"unknown metric tag {tag!r}")
        if n_t < 8 or n_theta < 4:
            raise ValueError("mesh needs n_t >= 8 and n_theta >= 4")
        if not (t_extent > 0 and circumference > 0):
            raise ValueError("mesh extents must be positive")
        self.tag, self.t_extent, self.circumference = tag, t_extent, circumference
        self.n_t, self.n_theta = n_t, n_theta

    @property
    def dt(self) -> float:
        return 2.0 * self.t_extent / (self.n_t - 1)

    @property
    def dtheta(self) -> float:
        return self.circumference / self.n_theta

    @cached_property
    def t(self) -> np.ndarray:
        return np.linspace(-self.t_extent, self.t_extent, self.n_t)

    @cached_property
    def theta(self) -> np.ndarray:
        return np.arange(self.n_theta) * self.dtheta

    @property
    def scalar_curvature(self) -> float:
        return _METRICS[self.tag].scalar_curvature

    @cached_property
    def _sqrt_det(self) -> np.ndarray:
        return _METRICS[self.tag].sqrt_det(self.t)

    @cached_property
    def _sqrt_det_mid(self) -> np.ndarray:
        return _METRICS[self.tag].sqrt_det(self.t[:-1] + 0.5 * self.dt)

    @cached_property
    def _sqrt_det_slope(self) -> np.ndarray:
        return _METRICS[self.tag].sqrt_det_slope(self.t)

    @cached_property
    def _theta_coeff(self) -> np.ndarray:
        # sqrt(det) / g_thth: 1/cosh(t) on the hyperbolic tag, 1 when flat
        return 1.0 / self._sqrt_det

    @cached_property
    def _t_weights(self) -> np.ndarray:
        c = np.ones(self.n_t)
        c[0] = c[-1] = 0.5
        return c

    @cached_property
    def _weights(self) -> np.ndarray:
        """Per-row node area weights: they do not vary in theta."""
        return self._sqrt_det * self._t_weights * self.dt * self.dtheta

    @property
    def analytic_area(self) -> float:
        return 2.0 * self.circumference * _METRICS[self.tag].area_primitive(self.t_extent)

    def check_fits(self) -> None:
        """A ValueError if a field of this mesh cannot be allocated, from an
        anonymous mapping of its size unmapped untouched: an uninitialized
        field dropped at once raised glibc's mmap threshold, and the peak
        RSS of a process checking many 8 MB fields crept up 1-4 MiB."""
        try:
            mmap.mmap(-1, 8 * self.n_t * self.n_theta).close()
        except (OSError, OverflowError):
            raise ValueError(
                f"a {self.n_t} x {self.n_theta} field does not fit in memory"
            ) from None


# Every stencil is one private kernel over the rows r0 .. r1 - 1 of a field,
# and `anomaly_functionals` is its only caller, block by block with
# block-sized work arrays.  A kernel writes each step into its work arrays
# with `out=` and in-place ops, in the operation order of the plain
# expression; the sweep takes each integrand's row sums from them.

def _theta_step(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x[:, j + 1] - y[:, j] with j periodic, into out (all three C-contiguous):
    one pass over the flattened rows, then the last column, which that pass
    took from the next row."""
    np.subtract(x.reshape(-1)[1:], y.reshape(-1)[:-1], out=out.reshape(-1)[:-1])
    np.subtract(x[:, 0], y[:, -1], out=out[:, -1])
    return out


def _boundary_operator(mesh: SurfaceMesh, bottom: np.ndarray, top: np.ndarray):
    """d/dt(b dv/dt) at the two boundary rows, expanded as b v'' + b' v' with
    one-sided 4-point v'' and 3-point v' (both O(dt^2)), from the first four
    rows of v (`bottom`) and its last four (`top`)."""
    dt, b, bp = mesh.dt, mesh._sqrt_det, mesh._sqrt_det_slope
    d2_bot = (2.0 * bottom[0] - 5.0 * bottom[1] + 4.0 * bottom[2] - bottom[3]) / dt ** 2
    d2_top = (2.0 * top[-1] - 5.0 * top[-2] + 4.0 * top[-3] - top[-4]) / dt ** 2
    d1_bot = (-3.0 * bottom[0] + 4.0 * bottom[1] - bottom[2]) / (2.0 * dt)
    d1_top = (3.0 * top[-1] - 4.0 * top[-2] + top[-3]) / (2.0 * dt)
    return b[0] * d2_bot + bp[0] * d1_bot, b[-1] * d2_top + bp[-1] * d1_top


def _t_diff(v: np.ndarray, work: np.ndarray) -> np.ndarray:
    """v[j + 1] - v[j] over the consecutive rows of v, in the first len(v) - 1 rows of work."""
    return np.subtract(v[1:], v[:-1], out=work[:len(v) - 1])


def _t_flux(mesh: SurfaceMesh, diff: np.ndarray, j0: int) -> np.ndarray:
    """sqrt(det) dv/dt on the t midpoints from j0 on, in place over their
    differences `diff` (from `_t_diff`)."""
    diff *= mesh._sqrt_det_mid[j0:j0 + len(diff), None]
    return np.divide(diff, mesh.dt, out=diff)


def _laplacian(mesh: SurfaceMesh, rows: np.ndarray, r0: int, lam, work) -> np.ndarray:
    """The metric Laplace-Beltrami operator of v on its rows r0 .. r1 - 1,
    `rows` (C-contiguous), in work[0].  work[2] holds the `_t_diff` of v on
    the midpoints max(r0, 1) - 1 .. min(r1, n_t - 1) - 1 and becomes their t
    fluxes.  Interior rows are the conservative flux form; the boundary rows
    are the one-sided closure `lam` (the boundary operator of v), which
    keeps the summation-by-parts identity exact."""
    b, n_t, n = mesh._sqrt_det, mesh.n_t, len(rows)
    r1 = r0 + n
    out, second_theta = work[0][:n], work[1][:n]
    # the theta part first, so that `out` can hold 2 v: roll(v, -1) - 2 v,
    # then + roll(v, 1) in one flat pass whose first column (taken from the
    # previous row) is redone
    twice = np.multiply(rows, 2.0, out=out)
    _theta_step(rows, twice, second_theta)
    second_theta.reshape(-1)[1:] += rows.reshape(-1)[:-1]
    np.subtract(rows[:, 1], twice[:, 0], out=second_theta[:, 0])
    second_theta[:, 0] += rows[:, -1]
    second_theta *= (mesh._theta_coeff / b)[r0:r1, None]
    second_theta /= mesh.dtheta ** 2
    # interior rows i0 .. i1 - 1 from the fluxes on the midpoints around them
    i0, i1 = max(r0, 1), min(r1, n_t - 1)
    flux = _t_flux(mesh, work[2][:i1 - i0 + 1], i0 - 1)
    interior = np.subtract(flux[1:], flux[:-1], out=out[i0 - r0:i1 - r0])
    interior /= b[i0:i1, None] * mesh.dt
    if r0 == 0:
        out[0, :] = lam[0] / b[0]
    if r1 == n_t:
        out[-1, :] = lam[1] / b[-1]
    out += second_theta
    return out


def _boundary_flux(mesh: SurfaceMesh, bottom: np.ndarray, top: np.ndarray, lam) -> float:
    """The flux term that closes the summation-by-parts identity for u,
    from its first rows `bottom`, its last rows `top` and its boundary
    operator `lam`."""
    dt = mesh.dt
    edges = np.empty((2, mesh.n_theta))
    g_bot = _t_flux(mesh, _t_diff(bottom[:2], edges[:1]), 0)[0] - 0.5 * dt * lam[0]
    g_top = _t_flux(mesh, _t_diff(top[-2:], edges[1:]), mesh.n_t - 2)[0] + 0.5 * dt * lam[1]
    return float((top[-1] * g_top - bottom[0] * g_bot).sum()) * mesh.dtheta


def _read_rows(u: np.ndarray, lo: int, hi: int, buf: np.ndarray | None) -> np.ndarray:
    """Rows lo .. hi - 1 of the field u as a C-contiguous array: a view when
    buf is None (u is C-contiguous), else a copy into the first rows of buf."""
    rows = u[lo:hi]
    if buf is None:
        return rows
    out = buf[:len(rows)]
    np.copyto(out, rows)
    return out


# nodes per row block of `anomaly_functionals`: 256 KiB per block array
BLOCK_NODES = 32768


def anomaly_functionals(mesh: SurfaceMesh, u: np.ndarray) -> dict:
    """The field-dependent values of the `anomaly` report, keyed and ordered
    as the report prints them, after "mesh.area" (the mesh area, first):
    int |grad u|^2; (1/4) int (|grad u|^2 + R u), the shift of the
    renormalized volume under h -> exp(2u) h; on the hyperbolic tag the
    Jensen energy int (|grad v|^2 - 2v) >= 0 of v = u - c, int exp(2v) = area;
    the max and rms of the Liouville residual, lap(u) + 1 - exp(2u) or, when
    flat, lap(u) - exp(2u); and the summation-by-parts defect.

    One sweep over blocks of max(2, BLOCK_NODES // n_theta) rows: each block
    runs every kernel on its rows in three block-sized work arrays (the
    Laplacian, the residual and its max included) and keeps each
    integrand's row sums; each integral is then one `math.fsum` over rows
    of row weight times row sum, so no value depends on BLOCK_NODES.  The
    row sums of u, taken first, also check that the field is finite.  u is
    read a block at a time (`_read_rows`), its rows and the row on each
    side: a view of a C-contiguous field, else a copy into one block-sized
    buffer (a generated field is a read-only broadcast of its 1-d profile),
    so no field is copied whole and no value depends on its layout.  The
    Jensen value takes E(u - c) = E(u) and int (u - c) = int u - c area,
    exact in real arithmetic, so it needs no second pass.  A mean of exp(2u)
    below the normal float64 range, 0 included, has lost the digits that
    c = log(mean) / 2 needs: an ArithmeticError.
    """
    # the kernels divide by the squared spacings as Python float powers, whose
    # OverflowError carries only an errno tuple
    for name, step in (("t", mesh.dt), ("theta", mesh.dtheta)):
        if math.isinf(step * step):
            raise OverflowError(f"the square of the {name} spacing {step!r} overflows")
    u = np.asarray(u, dtype=float)
    n_t, n_theta = mesh.n_t, mesh.n_theta
    if u.shape != (n_t, n_theta):
        raise ValueError(f"field shape {u.shape} does not match mesh ({n_t}, {n_theta})")
    rows = max(2, BLOCK_NODES // n_theta)
    # one buffer for the blocks: an array per block cost 100-360 page faults
    # per call whenever malloc had returned the memory between calls
    buf = None if u.flags.c_contiguous else np.empty((min(rows, n_t) + 2, n_theta))
    # row sums of u, of the squared t differences (midpoint i in row i), of
    # the squared theta differences, of u lap(u), exp(2u) and the residual squared
    sums = np.zeros((6, n_t))
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, n_t, rows):
            _read_rows(u, r0, r0 + rows, buf).sum(axis=1, out=sums[0, r0:r0 + rows])
    if not np.isfinite(sums[0]).all():
        if not all(np.isfinite(u[i]).all() for i in np.flatnonzero(~np.isfinite(sums[0]))):
            raise ValueError("field has non-finite entries")
        raise OverflowError("the row sums of the field overflow")
    # each work array starts on a 64-byte cache line (numpy promises 16 bytes):
    # stores 16 bytes off it ran the sweep 15-25% slower
    size = (min(rows, n_t) + 1) * n_theta
    raw = np.empty((3, -(-size // 8) * 8 + 8))  # whole cache lines per array, plus one
    start = -raw.ctypes.data % 64 // 8
    work = raw[:, start:start + size].reshape(3, -1, n_theta)
    bottom, top = np.ascontiguousarray(u[:4]), np.ascontiguousarray(u[-4:])
    lam = _boundary_operator(mesh, bottom, top)
    hyperbolic = mesh.tag == TAG_HYPERBOLIC
    block_max = []
    for r0 in range(0, n_t, rows):
        r1 = min(r0 + rows, n_t)
        # rows lo .. min(r1, n_t - 1): the block and the rows next to it
        lo, i1 = max(r0 - 1, 0), min(r1, n_t - 1)
        v = _read_rows(u, lo, i1 + 1, buf)
        block, b = v[r0 - lo:r1 - lo], work[1][:r1 - r0]
        # the t differences of the midpoints lo .. i1 - 1, for the energy
        # (from midpoint r0 on) and then for the Laplacian's t fluxes
        diff = _t_diff(v, work[2])[r0 - lo:]
        np.multiply(diff, diff, out=b[:i1 - r0]).sum(axis=1, out=sums[1, r0:i1])
        diff = _theta_step(block, block, b)
        np.multiply(diff, diff, out=b).sum(axis=1, out=sums[2, r0:r1])
        lap = _laplacian(mesh, block, r0, lam, work)
        np.multiply(block, lap, out=b).sum(axis=1, out=sums[3, r0:r1])
        exp_2u = np.exp(np.multiply(block, 2.0, out=b), out=b)
        residual = lap  # the Liouville residual, written over the Laplacian
        if hyperbolic:
            exp_2u.sum(axis=1, out=sums[4, r0:r1])
            residual += 1.0
        np.subtract(residual, exp_2u, out=residual)
        block_max.append(float(np.abs(residual, out=b).max()))
        np.square(residual, out=b).sum(axis=1, out=sums[5, r0:r1])
    weights = mesh._weights
    area = math.fsum((n_theta * weights).tolist())
    integral, by_parts, exp_integral, square = (
        math.fsum((weights * row_sums).tolist()) for row_sums in sums[[0, 3, 4, 5]])
    # int |grad u|^2 = sum of sqrt(det) (du/dt)^2 + (sqrt(det) / g_thth) (du/dtheta)^2
    # dt dtheta; array operations, so that a coefficient out of range is flagged
    t_coeff = mesh._sqrt_det_mid * mesh.dtheta / mesh.dt
    theta_coeff = mesh._theta_coeff * mesh._t_weights * mesh.dt / mesh.dtheta
    energy = math.fsum((t_coeff * sums[1, :-1]).tolist() + (theta_coeff * sums[2]).tolist())
    curv = mesh.scalar_curvature * integral
    values = {"mesh.area": area, "gradient_energy": energy,
              "conformal_change_term": 0.25 * (energy + curv)}
    if hyperbolic:
        mean = exp_integral / area
        if not mean >= sys.float_info.min:
            raise ArithmeticError(f"the mean of exp(2u) is {mean!r}, below the normal range")
        shift = 0.5 * math.log(mean)
        values["jensen_energy_normalized"] = energy - 2.0 * (integral - shift * area)
    defect = by_parts + energy - _boundary_flux(mesh, bottom, top, lam)
    return {
        **values,
        "liouville.variant": _METRICS[mesh.tag].liouville_variant,
        "liouville.residual_max": max(block_max),
        "liouville.residual_rms": math.sqrt(square / area),
        "integration_by_parts_defect": abs(defect),
    }


class _FieldCache(dict):
    """One record per field file read, least recently read first: (device,
    inode) -> None for a file read once, else (the sha256 of the bytes
    parsed, mesh parameters, the read-only field).  Each record counts
    ENTRY_BYTES against the budget, a kept field its bytes too (a record
    holds about 0.15 KiB, 0.8 KiB with an 8x4 field); a field over the
    budget is not kept."""

    ENTRY_BYTES = 1 << 10

    def __init__(self, budget: int = 16 << 20):
        super().__init__()
        self.budget = budget
        self.nbytes = 0  # counted against the budget
        self.lock = threading.Lock()  # held while the records change

    def _size(self, entry) -> int:
        return self.ENTRY_BYTES + (entry[2].nbytes if entry else 0)

    def record(self, file: tuple, entry) -> None:
        """Record a read of the file (device, inode), the most recent, with
        its entry, and drop the least recently read records to stay within
        the budget."""
        if self._size(entry) > self.budget:
            entry = None
        with self.lock:
            if file in self:
                self.nbytes -= self._size(self.pop(file))
            self.nbytes += self._size(entry)
            while self.nbytes > self.budget:
                self.nbytes -= self._size(self.pop(next(iter(self))))
            self[file] = entry


_FIELD_CACHE = _FieldCache()


class _HashingFile(io.FileIO):
    """A file opened for reading that, after `rewind`, hashes every byte
    read from it: read and readall go through readinto, as in
    io.RawIOBase."""

    read, readall = io.RawIOBase.read, io.RawIOBase.readall
    sha256 = None

    def rewind(self) -> None:
        """Seek to the start and hash what is read from there on."""
        # hashlib loads here only: loading it takes about 4 ms, which a
        # process that reads each file once never pays
        import hashlib

        self.seek(0)
        self.sha256 = hashlib.sha256()

    def readinto(self, buffer):
        n = super().readinto(buffer)
        if self.sha256 is not None:
            self.sha256.update(memoryview(buffer)[:n])
        return n

    def digest_to_end(self) -> bytes:
        """The sha256 of the whole file, read in 64 KiB chunks."""
        self.rewind()
        chunk = bytearray(1 << 16)
        while self.readinto(chunk):
            pass
        return self.sha256.digest()


def field_from_csv(path):
    """Read a field file; returns (mesh, field), the field read-only.  The
    file is a header line `n_t,n_theta,t_extent,circumference,tag`, one
    line of those mesh parameters, then the node values row-major, one
    grid row per line.  Each grid row is parsed straight into its row of
    the field array, so no line is held beyond its own row.  Blank lines
    are skipped.  The entries are checked for finiteness by
    `anomaly_functionals`, not here.

    Parsed fields are cached, one record per file (_FieldCache) by device
    and inode, within 16 MiB, least recently read first out.  The first
    read of a file is the plain parse: nothing hashed or kept, hashlib not
    loaded.  The second parses through a reader that hashes the bytes
    parsed and keeps the field under their sha256.  A later read hashes the
    file to the end: the same digest is a hit, a new mesh and a view of the
    kept field; another (a file rewritten in place, whatever its mtime) is
    parsed again and kept.  Every field returned is a read-only view of a
    read-only array, so it is shared, not copied.  On a 1.3 MB 257x256
    file a parse takes 20 to 40 ms, the second read's hashing about 1 ms
    more (and loading hashlib once about 4 ms), a hit about 1.2 ms (Xeon
    core with SHA extensions).  A file that fails to parse is never kept;
    a pipe, which can be read only once, is parsed without the cache."""
    with _HashingFile(path) as raw:
        info = os.fstat(raw.fileno())
        file = info.st_dev, info.st_ino
        # a pipe can be read only once: it is parsed without the cache
        regular = stat.S_ISREG(info.st_mode)
        entry = _FIELD_CACHE.get(file, False) if regular else False
        if entry and raw.digest_to_end() == entry[0]:
            _FIELD_CACHE.record(file, entry)
            return SurfaceMesh(*entry[1]), entry[2].view()
        if entry is not False:  # read before: hash the bytes parsed
            raw.rewind()
        with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8") as fh:
            mesh, u = _parse_field(path, fh)
    u.flags.writeable = False
    if regular:
        params = mesh.tag, mesh.t_extent, mesh.circumference, mesh.n_t, mesh.n_theta
        # under the digest of exactly the bytes parsed
        _FIELD_CACHE.record(file, None if entry is False else (raw.sha256.digest(), params, u))
    return mesh, u.view()


def _parse_field(path, fh):
    """The mesh and field of the field file `path`, read from its text
    stream fh to the end."""
    lines = filter(None, (line.strip() for line in fh))
    if next(lines, None) != "n_t,n_theta,t_extent,circumference,tag":
        raise ValueError(f"{path}: not a corevol field file")
    params = next(lines, None)
    if params is None:
        raise ValueError(f"{path}: no parameter line after the header")
    params = params.split(",")
    if len(params) != 5:
        raise ValueError(
            f"{path}: parameter line needs the 5 header fields, got {len(params)}"
        )
    n_t, n_theta, t_extent, circumference, tag = params
    mesh = SurfaceMesh(
        tag=tag,
        t_extent=float(t_extent),
        circumference=float(circumference),
        n_t=int(n_t),
        n_theta=int(n_theta),
    )
    try:
        mesh.check_fits()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    u = np.empty((mesh.n_t, mesh.n_theta))
    rows = 0
    for line in lines:
        if rows == mesh.n_t:
            raise ValueError(f"{path}: more than n_t = {mesh.n_t} grid rows")
        values = line.split(",")
        fits = len(values) == mesh.n_theta
        # a row of the wrong length is converted into a temporary row, so
        # that a value that is not a number is named before the count
        row = u[rows] if fits else np.empty(len(values))
        try:
            row[:] = values
        except ValueError as exc:
            raise ValueError(f"{path}: grid row {rows + 1}: {exc}") from None
        if not fits:
            raise ValueError(f"{path}: grid row {rows + 1} has {len(values)} "
                             f"values, not n_theta = {mesh.n_theta}")
        rows += 1
    if rows < mesh.n_t:
        raise ValueError(f"{path}: {rows} grid rows, not n_t = {mesh.n_t}")
    return mesh, u
