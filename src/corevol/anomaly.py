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
over a range of t rows, and that sweep is its only caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TAG_HYPERBOLIC = "hyperbolic_cylinder"
TAG_FLAT = "flat_cylinder"

# the Liouville residual each tag carries, by its report name
LIOUVILLE_VARIANT = {TAG_HYPERBOLIC: "hyperbolic_piece", TAG_FLAT: "flat_piece"}

@dataclass(frozen=True)
class SurfaceMesh:
    """Grid over (t, theta) in [-T, T] x [0, L), theta periodic.

    Node weights use the trapezoid rule in t (half weight at the two
    boundary rows) and the exact periodic rule in theta, so the total area
    matches the analytic area at second order.
    """

    tag: str
    t_extent: float
    circumference: float
    n_t: int
    n_theta: int

    def __post_init__(self):
        if self.tag not in (TAG_HYPERBOLIC, TAG_FLAT):
            raise ValueError(f"unknown metric tag {self.tag!r}")
        if self.n_t < 8 or self.n_theta < 4:
            raise ValueError("mesh needs n_t >= 8 and n_theta >= 4")
        if not (self.t_extent > 0 and self.circumference > 0):
            raise ValueError("mesh extents must be positive")

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
        # Gauss curvature -1 doubles to scalar curvature -2 on the
        # hyperbolic tag; flat cylinders are scalar-flat.
        return -2.0 if self.tag == TAG_HYPERBOLIC else 0.0

    @cached_property
    def _sqrt_det(self) -> np.ndarray:
        if self.tag == TAG_HYPERBOLIC:
            return np.cosh(self.t)
        return np.ones_like(self.t)

    @cached_property
    def _sqrt_det_mid(self) -> np.ndarray:
        t_mid = self.t[:-1] + 0.5 * self.dt
        if self.tag == TAG_HYPERBOLIC:
            return np.cosh(t_mid)
        return np.ones_like(t_mid)

    @cached_property
    def _sqrt_det_slope(self) -> np.ndarray:
        # d/dt of sqrt(det), used by the one-sided boundary closure
        if self.tag == TAG_HYPERBOLIC:
            return np.sinh(self.t)
        return np.zeros_like(self.t)

    @cached_property
    def _theta_coeff(self) -> np.ndarray:
        # sqrt(det) / g_thth: 1/cosh(t) on the hyperbolic tag, 1 when flat
        if self.tag == TAG_HYPERBOLIC:
            return 1.0 / np.cosh(self.t)
        return np.ones_like(self.t)

    @cached_property
    def _t_weights(self) -> np.ndarray:
        c = np.ones(self.n_t)
        c[0] = c[-1] = 0.5
        return c

    @cached_property
    def _weight_column(self) -> np.ndarray:
        """Per-node area weights, shape (n_t, 1): they do not vary in theta."""
        return (self._sqrt_det * self._t_weights * self.dt * self.dtheta)[:, None]

    @property
    def analytic_area(self) -> float:
        if self.tag == TAG_HYPERBOLIC:
            return 2.0 * self.circumference * math.sinh(self.t_extent)
        return 2.0 * self.t_extent * self.circumference

    def _allocate(self, make, *args) -> np.ndarray:
        """Every field's allocation; too large a mesh is a ValueError."""
        try:
            return make((self.n_t, self.n_theta), *args)
        except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
            raise ValueError(
                f"a {self.n_t} x {self.n_theta} field does not fit in memory"
            ) from None

    def empty(self) -> np.ndarray:
        return self._allocate(np.empty)

    def zeros(self) -> np.ndarray:
        return self._allocate(np.zeros)

    def constant(self, value: float) -> np.ndarray:
        return self._allocate(np.full, float(value))

    def _check_field(self, u: np.ndarray) -> np.ndarray:
        u = np.ascontiguousarray(u, dtype=float)
        if u.shape != (self.n_t, self.n_theta):
            raise ValueError(
                f"field shape {u.shape} does not match mesh "
                f"({self.n_t}, {self.n_theta})"
            )
        if not np.all(np.isfinite(u)):
            raise ValueError("field has non-finite entries")
        return u


# Every stencil is one private kernel over the rows r0 .. r1 - 1 of a checked
# field, and `anomaly_functionals` is its only caller, block by block with
# block-sized work arrays.  A kernel writes each step into its work arrays
# with `out=` and in-place ops, in the operation order of the plain
# expression, and each sum it returns is the `.sum()` of a contiguous array.

def _integrate(mesh: SurfaceMesh, f, r0: int, r1: int, out: np.ndarray) -> float:
    """Sum of f times the node weights of rows r0 .. r1 - 1 into out, whose
    shape they are: f is 1.0 (for the area) or those rows, and may be out."""
    return float(np.multiply(f, mesh._weight_column[r0:r1], out=out).sum())


def _theta_step(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x[:, j + 1] - y[:, j] with j periodic, into out (all three C-contiguous):
    one pass over the flattened rows, then the last column, which that pass
    took from the next row."""
    np.subtract(x.reshape(-1)[1:], y.reshape(-1)[:-1], out=out.reshape(-1)[:-1])
    np.subtract(x[:, 0], y[:, -1], out=out[:, -1])
    return out


def _gradient_sums(mesh: SurfaceMesh, u: np.ndarray, r0: int, r1: int, work):
    """The t and theta sums of int |grad u|^2 (staggered differences) before
    the dt dtheta factor: the t sum over the midpoints r0 .. min(r1, n_t - 1)
    - 1 (midpoint i lies between rows i and i + 1), the theta sum over the
    rows r0 .. r1 - 1.  Each difference is taken once, into work[0]."""
    d, prod = work[0], work[1]
    m = min(r1, mesh.n_t - 1)
    diff = np.subtract(u[r0 + 1:m + 1], u[r0:m], out=d[:m - r0])
    np.divide(diff, mesh.dt, out=diff)
    t_prod = np.multiply(mesh._sqrt_det_mid[r0:m, None], diff, out=prod[:m - r0])
    t_prod *= diff
    t_sum = float(t_prod.sum())
    n = r1 - r0
    diff = _theta_step(u[r0:r1], u[r0:r1], d[:n])
    diff /= mesh.dtheta
    coeff = (mesh._theta_coeff * mesh._t_weights)[r0:r1, None]
    theta_prod = np.multiply(coeff, diff, out=prod[:n])
    theta_prod *= diff
    return t_sum, float(theta_prod.sum())


def _boundary_operator(mesh: SurfaceMesh, v: np.ndarray):
    """d/dt(b dv/dt) at the two boundary rows, expanded as b v'' + b' v' with
    one-sided 4-point v'' and 3-point v' (both O(dt^2))."""
    dt, b, bp = mesh.dt, mesh._sqrt_det, mesh._sqrt_det_slope
    d2_bot = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / dt ** 2
    d2_top = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / dt ** 2
    d1_bot = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    d1_top = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return b[0] * d2_bot + bp[0] * d1_bot, b[-1] * d2_top + bp[-1] * d1_top


def _t_flux(mesh: SurfaceMesh, v: np.ndarray, r0: int, r1: int, work: np.ndarray) -> np.ndarray:
    """sqrt(det) dv/dt on the t midpoints r0 .. r1 - 1, in the first r1 - r0 rows of work."""
    flux = np.subtract(v[r0 + 1:r1 + 1], v[r0:r1], out=work[:r1 - r0])
    flux *= mesh._sqrt_det_mid[r0:r1, None]
    return np.divide(flux, mesh.dt, out=flux)


def _laplacian(mesh: SurfaceMesh, v: np.ndarray, r0: int, r1: int, lam, work) -> np.ndarray:
    """Rows r0 .. r1 - 1 of the metric Laplace-Beltrami operator of v, in
    work[0]; work[2] (the t fluxes) needs r1 - r0 + 1 rows.  Interior rows
    are the conservative flux form; the boundary rows are the one-sided
    closure `lam` (the boundary operator of v), which keeps the
    summation-by-parts identity exact."""
    b, n_t, n = mesh._sqrt_det, mesh.n_t, r1 - r0
    out, second_theta = work[0][:n], work[1][:n]
    rows = v[r0:r1]
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
    flux = _t_flux(mesh, v, i0 - 1, i1, work[2])
    interior = np.subtract(flux[1:], flux[:-1], out=out[i0 - r0:i1 - r0])
    interior /= b[i0:i1, None] * mesh.dt
    if r0 == 0:
        out[0, :] = lam[0] / b[0]
    if r1 == n_t:
        out[-1, :] = lam[1] / b[-1]
    out += second_theta
    return out


def _boundary_flux(mesh: SurfaceMesh, u: np.ndarray, lam) -> float:
    """The flux term that closes the summation-by-parts identity for u,
    from its boundary operator `lam`."""
    dt, n_t = mesh.dt, mesh.n_t
    edges = np.empty((2, mesh.n_theta))
    g_bot = _t_flux(mesh, u, 0, 1, edges[:1])[0] - 0.5 * dt * lam[0]
    g_top = _t_flux(mesh, u, n_t - 2, n_t - 1, edges[1:])[0] + 0.5 * dt * lam[1]
    return float((u[-1, :] * g_top - u[0, :] * g_bot).sum()) * mesh.dtheta


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
    Laplacian, the residual and its max included), and each integral is the
    `math.fsum` of the blocks' partial sums.  The Jensen value takes
    E(u - c) = E(u) and int (u - c) = int u - c area, exact in real
    arithmetic, so it needs no second pass.
    """
    u = mesh._check_field(u)
    n_t, n_theta = u.shape
    rows = max(2, BLOCK_NODES // n_theta)
    # each work array starts on a 64-byte cache line (numpy promises 16 bytes):
    # stores 16 bytes off it ran the sweep 15-25% slower
    size = (min(rows, n_t) + 1) * n_theta
    raw = np.empty((3, -(-size // 8) * 8 + 8))  # whole cache lines per array, plus one
    start = -raw.ctypes.data % 64 // 8
    work = raw[:, start:start + size].reshape(3, -1, n_theta)
    lam = _boundary_operator(mesh, u)
    hyperbolic = mesh.tag == TAG_HYPERBOLIC
    partials, block_max = [], []
    for r0 in range(0, n_t, rows):
        r1 = min(r0 + rows, n_t)
        block, a, b = u[r0:r1], work[0][:r1 - r0], work[1][:r1 - r0]
        area = _integrate(mesh, 1.0, r0, r1, a)
        integral = _integrate(mesh, block, r0, r1, a)
        t_sum, theta_sum = _gradient_sums(mesh, u, r0, r1, work)
        lap = _laplacian(mesh, u, r0, r1, lam, work)
        by_parts = _integrate(mesh, np.multiply(block, lap, out=b), r0, r1, b)
        exp_2u = np.exp(np.multiply(block, 2.0, out=b), out=b)
        exp_integral = _integrate(mesh, exp_2u, r0, r1, work[2][:r1 - r0]) if hyperbolic else 0.0
        residual = lap  # the Liouville residual, written over the Laplacian
        if hyperbolic:
            residual += 1.0
        np.subtract(residual, exp_2u, out=residual)
        block_max.append(float(np.abs(residual, out=b).max()))
        square = _integrate(mesh, np.square(residual, out=b), r0, r1, b)
        partials.append((area, integral, t_sum, theta_sum, by_parts, exp_integral, square))
    area, integral, t_sum, theta_sum, by_parts, exp_integral, square = (
        math.fsum(column) for column in zip(*partials))
    energy = t_sum * mesh.dt * mesh.dtheta + theta_sum * mesh.dt * mesh.dtheta
    curv = mesh.scalar_curvature * integral
    values = {"mesh.area": area, "gradient_energy": energy,
              "conformal_change_term": 0.25 * (energy + curv)}
    if hyperbolic:
        shift = 0.5 * math.log(exp_integral / area)
        values["jensen_energy_normalized"] = energy - 2.0 * (integral - shift * area)
    defect = by_parts + energy - _boundary_flux(mesh, u, lam)
    return {
        **values,
        "liouville.variant": LIOUVILLE_VARIANT[mesh.tag],
        "liouville.residual_max": max(block_max),
        "liouville.residual_rms": math.sqrt(square / area),
        "integration_by_parts_defect": abs(defect),
    }


def field_from_csv(path):
    """Read a field file; returns (mesh, field).  The file is a header line
    `n_t,n_theta,t_extent,circumference,tag`, one line of those mesh
    parameters, then the node values row-major, one grid row per line.
    Each grid row is parsed straight into its row of the field array, so no
    line is held beyond its own row.  Blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
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
            u = mesh.empty()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
    return mesh, mesh._check_field(u)
