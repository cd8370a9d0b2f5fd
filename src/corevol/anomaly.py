"""Discrete conformal-change functionals on cylinder meshes.

Meshes are rectangular (t, theta) grids with theta periodic, carrying either
the hyperbolic end metric dt^2 + cosh^2(t) dtheta^2 or the flat cylinder
metric dt^2 + dtheta^2.  Derivatives live on staggered midpoints (flux
form), which makes the discrete Laplacian the exact adjoint of the discrete
Dirichlet form up to an explicit boundary flux: the summation-by-parts
identity

    sum u * lap(v) * w  +  grad_form(u, v)  =  boundary_flux(u, v)

holds to machine precision, while every Laplacian row (including the
one-sided boundary closure) is second-order accurate.

Each stencil is written once, as a private kernel over a range of t rows.
The public functions run the kernels on the whole mesh.  The report values
(`anomaly_functionals`) come from one sweep over cache-sized row blocks:
its integrals are `math.fsum`s of per-block partial sums, so they match the
public functions to rounding rather than bit for bit, and the field is the
only full-size array it touches.
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
    def area(self) -> float:
        return _integrate(self, 1.0, 0, self.n_t, _work(self, 1)[0])

    @property
    def analytic_area(self) -> float:
        if self.tag == TAG_HYPERBOLIC:
            return 2.0 * self.circumference * math.sinh(self.t_extent)
        return 2.0 * self.t_extent * self.circumference

    def zeros(self) -> np.ndarray:
        return np.zeros((self.n_t, self.n_theta))

    def constant(self, value: float) -> np.ndarray:
        return np.full((self.n_t, self.n_theta), float(value))

    def from_function(self, f) -> np.ndarray:
        tt, hh = np.meshgrid(self.t, self.theta, indexing="ij")
        return np.asarray(f(tt, hh), dtype=float)

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
# field.  The public functions call it on all rows with work arrays from
# `_work`; `anomaly_functionals` calls it block by block with block-sized work
# arrays.  A kernel writes each step into its work arrays with `out=` and
# in-place ops, in the operation order of the plain expression, and each sum
# it returns is the `.sum()` of a contiguous array.

def _work(mesh: SurfaceMesh, count: int) -> list:
    """`count` uninitialized (n_t, n_theta) arrays for the kernels to write into."""
    return [np.empty((mesh.n_t, mesh.n_theta)) for _ in range(count)]


def _integrate(mesh: SurfaceMesh, f, r0: int, r1: int, out: np.ndarray) -> float:
    """Sum of f times the node weights of rows r0 .. r1 - 1 into out, whose
    shape they are: f is 1.0 (for the area) or those rows, and may be out."""
    return float(np.multiply(f, mesh._weight_column[r0:r1], out=out).sum())


def integrate(mesh: SurfaceMesh, f: np.ndarray) -> float:
    """Area integral of a nodal field."""
    return _integrate(mesh, mesh._check_field(f), 0, mesh.n_t, _work(mesh, 1)[0])


def _theta_step(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x[:, j + 1] - y[:, j] with j periodic, into out (all three C-contiguous):
    one pass over the flattened rows, then the last column, which that pass
    took from the next row."""
    np.subtract(x.reshape(-1)[1:], y.reshape(-1)[:-1], out=out.reshape(-1)[:-1])
    np.subtract(x[:, 0], y[:, -1], out=out[:, -1])
    return out


def _gradient_sums(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray, r0: int, r1: int, work):
    """The t and theta sums of `gradient_form` before the dt dtheta factor:
    the t sum over the midpoints r0 .. min(r1, n_t - 1) - 1 (midpoint i lies
    between rows i and i + 1), the theta sum over the rows r0 .. r1 - 1."""
    # v is u (an energy): each difference once, in two work arrays, not three
    dt, dth = mesh.dt, mesh.dtheta
    du, prod, dv = work[0], work[1], work[0] if v is u else work[2]
    fields = ((u, du),) if v is u else ((u, du), (v, dv))
    m = min(r1, mesh.n_t - 1)
    for x, d in fields:
        diff = np.subtract(x[r0 + 1:m + 1], x[r0:m], out=d[:m - r0])
        np.divide(diff, dt, out=diff)
    t_prod = np.multiply(mesh._sqrt_det_mid[r0:m, None], du[:m - r0], out=prod[:m - r0])
    t_prod *= dv[:m - r0]
    t_sum = float(t_prod.sum())
    n = r1 - r0
    for x, d in fields:
        _theta_step(x[r0:r1], x[r0:r1], d[:n])
        d[:n] /= dth
    coeff = (mesh._theta_coeff * mesh._t_weights)[r0:r1, None]
    theta_prod = np.multiply(coeff, du[:n], out=prod[:n])
    theta_prod *= dv[:n]
    return t_sum, float(theta_prod.sum())


def _gradient_value(mesh: SurfaceMesh, t_sum: float, theta_sum: float) -> float:
    return t_sum * mesh.dt * mesh.dtheta + theta_sum * mesh.dt * mesh.dtheta


def gradient_form(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray) -> float:
    """Dirichlet bilinear form int <grad u, grad v> dmu (staggered differences)."""
    u, v = mesh._check_field(u), mesh._check_field(v)
    return _gradient_value(mesh, *_gradient_sums(mesh, u, v, 0, mesh.n_t, _work(mesh, 3)))


def gradient_energy(mesh: SurfaceMesh, u: np.ndarray) -> float:
    """int |grad u|^2 dmu."""
    return gradient_form(mesh, u, u)


def conformal_change_term(mesh: SurfaceMesh, u: np.ndarray) -> float:
    """(1/4) int (|grad u|^2 + R u) dmu, the shift of the renormalized
    volume under the conformal change h -> exp(2u) h."""
    curv = mesh.scalar_curvature * integrate(mesh, u)
    return 0.25 * (gradient_energy(mesh, u) + curv)


def jensen_energy(mesh: SurfaceMesh, u: np.ndarray) -> float:
    """E(u) = int (|grad u|^2 - 2u) dmu on the hyperbolic cylinder.

    Nonnegative for every area-normalized field (discrete Jensen
    inequality), with equality exactly at u = 0.
    """
    if mesh.tag != TAG_HYPERBOLIC:
        raise ValueError("jensen energy is defined on the hyperbolic tag only")
    return gradient_energy(mesh, u) - 2.0 * integrate(mesh, u)


def normalize_area(mesh: SurfaceMesh, u: np.ndarray) -> np.ndarray:
    """Shift u by the constant making int exp(2u) dmu equal the mesh area."""
    u = mesh._check_field(u)
    total = integrate(mesh, np.exp(2.0 * u))
    return u - 0.5 * math.log(total / mesh.area)


def _boundary_second_derivative(v: np.ndarray, dt: float):
    """One-sided 4-point second t-derivatives at the two boundary rows (O(dt^2))."""
    bottom = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / dt ** 2
    top = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / dt ** 2
    return bottom, top


def _boundary_first_derivative(v: np.ndarray, dt: float):
    """One-sided 3-point first t-derivatives at the two boundary rows (O(dt^2))."""
    bottom = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    top = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return bottom, top


def _boundary_operator(mesh: SurfaceMesh, v: np.ndarray):
    """d/dt(b dv/dt) at the two boundary rows, expanded as b v'' + b' v'."""
    d2_bot, d2_top = _boundary_second_derivative(v, mesh.dt)
    d1_bot, d1_top = _boundary_first_derivative(v, mesh.dt)
    b = mesh._sqrt_det
    bp = mesh._sqrt_det_slope
    return b[0] * d2_bot + bp[0] * d1_bot, b[-1] * d2_top + bp[-1] * d1_top


def _t_flux(mesh: SurfaceMesh, v: np.ndarray, r0: int, r1: int, work: np.ndarray) -> np.ndarray:
    """sqrt(det) dv/dt on the t midpoints r0 .. r1 - 1, in the first r1 - r0 rows of work."""
    flux = np.subtract(v[r0 + 1:r1 + 1], v[r0:r1], out=work[:r1 - r0])
    flux *= mesh._sqrt_det_mid[r0:r1, None]
    return np.divide(flux, mesh.dt, out=flux)


def _laplacian(mesh: SurfaceMesh, v: np.ndarray, r0: int, r1: int, lam, work) -> np.ndarray:
    """Rows r0 .. r1 - 1 of `laplacian`, from the boundary operator `lam` of
    v, in work[0]; work[2] (the t fluxes) needs r1 - r0 + 1 rows."""
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


def laplacian(mesh: SurfaceMesh, v: np.ndarray) -> np.ndarray:
    """Metric Laplace-Beltrami operator, second order at every node.

    Interior rows are the conservative flux form; the boundary rows use the
    one-sided closure that keeps the summation-by-parts identity with
    `gradient_form` and `boundary_flux` exact.
    """
    v = mesh._check_field(v)
    return _laplacian(mesh, v, 0, mesh.n_t, _boundary_operator(mesh, v), _work(mesh, 3))


def _boundary_flux(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray, lam) -> float:
    """`boundary_flux` from the boundary operator `lam` of v."""
    dt, n_t = mesh.dt, mesh.n_t
    edges = np.empty((2, mesh.n_theta))
    g_bot = _t_flux(mesh, v, 0, 1, edges[:1])[0] - 0.5 * dt * lam[0]
    g_top = _t_flux(mesh, v, n_t - 2, n_t - 1, edges[1:])[0] + 0.5 * dt * lam[1]
    return float((u[-1, :] * g_top - u[0, :] * g_bot).sum()) * mesh.dtheta


def boundary_flux(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray) -> float:
    """Flux term closing the discrete integration-by-parts identity:
    integrate(u * laplacian(v)) + gradient_form(u, v) == boundary_flux(u, v)."""
    u = mesh._check_field(u)
    v = mesh._check_field(v)
    return _boundary_flux(mesh, u, v, _boundary_operator(mesh, v))


def _liouville_residual(mesh: SurfaceMesh, lap: np.ndarray, exp_2phi: np.ndarray):
    """The residual, written over `lap`."""
    if mesh.tag == TAG_HYPERBOLIC:
        lap += 1.0
    return np.subtract(lap, exp_2phi, out=lap)


def liouville_residual(mesh: SurfaceMesh, phi: np.ndarray) -> np.ndarray:
    """Nodewise defect of the curvature equation for exp(2 phi) * metric,
    in the variant of the mesh tag (LIOUVILLE_VARIANT).

    hyperbolic_piece: lap(phi) + 1 - exp(2 phi)   (target curvature -1)
    flat_piece:       lap(phi) - exp(2 phi)       (flat background)
    """
    phi = mesh._check_field(phi)
    return _liouville_residual(mesh, laplacian(mesh, phi), np.exp(2.0 * phi))


# nodes per row block of `anomaly_functionals`: 256 KiB per block array
BLOCK_NODES = 32768


def anomaly_functionals(mesh: SurfaceMesh, u: np.ndarray) -> dict:
    """The field-dependent values of the `anomaly` report, keyed and ordered
    as the report prints them, after "mesh.area" (the mesh area, first).

    One sweep over blocks of max(2, BLOCK_NODES // n_theta) rows: each block
    runs every kernel on its rows in three block-sized work arrays (the
    Laplacian, the residual and its max included), and each integral is the
    `math.fsum` of the blocks' partial sums.  The field is the only
    full-size array.  The Jensen value of the area-normalized field u - c
    takes E(u - c) = E(u) and int (u - c) = int u - c area, exact in real
    arithmetic, so it needs no second pass.
    """
    u = mesh._check_field(u)
    n_t, n_theta = u.shape
    rows = max(2, BLOCK_NODES // n_theta)
    work = np.empty((3, min(rows, n_t) + 1, n_theta))
    lam = _boundary_operator(mesh, u)
    hyperbolic = mesh.tag == TAG_HYPERBOLIC
    partials, block_max = [], []
    for r0 in range(0, n_t, rows):
        r1 = min(r0 + rows, n_t)
        block, a, b = u[r0:r1], work[0][:r1 - r0], work[1][:r1 - r0]
        area = _integrate(mesh, 1.0, r0, r1, a)
        integral = _integrate(mesh, block, r0, r1, a)
        t_sum, theta_sum = _gradient_sums(mesh, u, u, r0, r1, work)
        lap = _laplacian(mesh, u, r0, r1, lam, work)
        by_parts = _integrate(mesh, np.multiply(block, lap, out=b), r0, r1, b)
        exp_2u = np.exp(np.multiply(block, 2.0, out=b), out=b)
        exp_integral = _integrate(mesh, exp_2u, r0, r1, work[2][:r1 - r0]) if hyperbolic else 0.0
        residual = _liouville_residual(mesh, lap, exp_2u)
        block_max.append(float(np.abs(residual, out=b).max()))
        square = _integrate(mesh, np.square(residual, out=b), r0, r1, b)
        partials.append((area, integral, t_sum, theta_sum, by_parts, exp_integral, square))
    area, integral, t_sum, theta_sum, by_parts, exp_integral, square = (
        math.fsum(column) for column in zip(*partials))
    energy = _gradient_value(mesh, t_sum, theta_sum)
    curv = mesh.scalar_curvature * integral
    values = {"mesh.area": area, "gradient_energy": energy,
              "conformal_change_term": 0.25 * (energy + curv)}
    if hyperbolic:
        shift = 0.5 * math.log(exp_integral / area)
        values["jensen_energy_normalized"] = energy - 2.0 * (integral - shift * area)
    defect = by_parts + energy - _boundary_flux(mesh, u, u, lam)
    return {
        **values,
        "liouville.variant": LIOUVILLE_VARIANT[mesh.tag],
        "liouville.residual_max": max(block_max),
        "liouville.residual_rms": math.sqrt(square / area),
        "integration_by_parts_defect": abs(defect),
    }


def field_to_csv(mesh: SurfaceMesh, u: np.ndarray, path) -> None:
    """Write a field as CSV: one header line of mesh parameters, then the
    node values row-major (one grid row per line)."""
    u = mesh._check_field(u)
    lines = ["n_t,n_theta,t_extent,circumference,tag"]
    lines.append(
        f"{mesh.n_t},{mesh.n_theta},{mesh.t_extent!r},{mesh.circumference!r},{mesh.tag}"
    )
    for row in u:
        lines.append(",".join(repr(float(x)) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def field_from_csv(path):
    """Inverse of `field_to_csv`; returns (mesh, field).  Each grid row is
    parsed straight into its row of the field array, so no line is held
    beyond its own row.  Blank lines are skipped."""
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
            u = np.empty((mesh.n_t, mesh.n_theta))
        except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
            raise ValueError(
                f"{path}: a {mesh.n_t} x {mesh.n_theta} field does not fit in memory"
            ) from None
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
