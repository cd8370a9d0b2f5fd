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
        return _integrate(self, 1.0, _work(self, 1)[0])

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
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_t, self.n_theta):
            raise ValueError(
                f"field shape {u.shape} does not match mesh "
                f"({self.n_t}, {self.n_theta})"
            )
        if not np.all(np.isfinite(u)):
            raise ValueError("field has non-finite entries")
        return u


# The private kernels take checked fields and write each full-mesh step into
# arrays from `_work`, in the operation order of the plain expression, and sum
# contiguous arrays of its shape.  The public functions check and call them;
# `anomaly_functionals` checks once and shares their results.

def _work(mesh: SurfaceMesh, count: int) -> list:
    """`count` uninitialized (n_t, n_theta) arrays for the kernels to write into."""
    return [np.empty((mesh.n_t, mesh.n_theta)) for _ in range(count)]


def _integrate(mesh: SurfaceMesh, f, work: np.ndarray) -> float:
    # `f` may be `work` itself; the area is the integral of f = 1.0
    return float(np.multiply(f, mesh._weight_column, out=work).sum())


def integrate(mesh: SurfaceMesh, f: np.ndarray) -> float:
    """Area integral of a nodal field."""
    return _integrate(mesh, mesh._check_field(f), _work(mesh, 1)[0])


def _roll(v: np.ndarray, shift: int, out: np.ndarray) -> np.ndarray:
    """np.roll(v, shift, axis=1), written into out."""
    return np.take(v, np.arange(v.shape[1]) - shift, axis=1, mode="wrap", out=out)


def _gradient_form(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray, work) -> float:
    # v is u (an energy): each difference once, in two work arrays, not three
    dt, dth = mesh.dt, mesh.dtheta
    du, prod, dv = work[0], work[1], work[0] if v is u else work[2]
    fields = ((u, du),) if v is u else ((u, du), (v, dv))
    for x, d in fields:
        np.divide(np.subtract(x[1:, :], x[:-1, :], out=d[:-1]), dt, out=d[:-1])
    np.multiply(mesh._sqrt_det_mid[:, None], du[:-1], out=prod[:-1])
    prod[:-1] *= dv[:-1]
    e_t = float(prod[:-1].sum()) * dt * dth
    for x, d in fields:
        np.subtract(_roll(x, -1, d), x, out=d)
        d /= dth
    np.multiply((mesh._theta_coeff * mesh._t_weights)[:, None], du, out=prod)
    prod *= dv
    e_h = float(prod.sum()) * dt * dth
    return e_t + e_h


def gradient_form(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray) -> float:
    """Dirichlet bilinear form int <grad u, grad v> dmu (staggered differences)."""
    return _gradient_form(mesh, mesh._check_field(u), mesh._check_field(v), _work(mesh, 3))


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


def _t_flux(mesh: SurfaceMesh, v: np.ndarray, work: np.ndarray) -> np.ndarray:
    """sqrt(det) dv/dt on the staggered t midpoints: the first n_t - 1 rows of work."""
    flux = np.subtract(v[1:, :], v[:-1, :], out=work[:-1])
    flux *= mesh._sqrt_det_mid[:, None]
    return np.divide(flux, mesh.dt, out=flux)


def _laplacian(mesh: SurfaceMesh, v: np.ndarray, flux: np.ndarray, lam, work) -> np.ndarray:
    """`laplacian` from the t flux of v and its boundary operator `lam`, in work[0]."""
    b = mesh._sqrt_det
    out, second_theta = work
    # the theta part first, so that `out` can hold 2 v and the +1 roll
    _roll(v, -1, second_theta)
    second_theta -= np.multiply(v, 2.0, out=out)
    second_theta += _roll(v, 1, out)
    second_theta *= (mesh._theta_coeff / b)[:, None]
    second_theta /= mesh.dtheta ** 2
    np.subtract(flux[1:, :], flux[:-1, :], out=out[1:-1, :])
    out[1:-1, :] /= b[1:-1, None] * mesh.dt
    out[0, :] = lam[0] / b[0]
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
    work = _work(mesh, 3)
    return _laplacian(mesh, v, _t_flux(mesh, v, work[2]), _boundary_operator(mesh, v), work[:2])


def _boundary_flux(mesh: SurfaceMesh, u: np.ndarray, flux: np.ndarray, lam) -> float:
    """`boundary_flux` from the t flux of v (only its first and last rows are
    read) and the boundary operator `lam` of v."""
    dt = mesh.dt
    g_bot = flux[0, :] - 0.5 * dt * lam[0]
    g_top = flux[-1, :] + 0.5 * dt * lam[1]
    return float((u[-1, :] * g_top - u[0, :] * g_bot).sum()) * mesh.dtheta


def boundary_flux(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray) -> float:
    """Flux term closing the discrete integration-by-parts identity:
    integrate(u * laplacian(v)) + gradient_form(u, v) == boundary_flux(u, v)."""
    u = mesh._check_field(u)
    v = mesh._check_field(v)
    flux = _t_flux(mesh, v, _work(mesh, 1)[0])
    return _boundary_flux(mesh, u, flux, _boundary_operator(mesh, v))


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


def anomaly_functionals(mesh: SurfaceMesh, u: np.ndarray) -> dict:
    """The field-dependent values of the `anomaly` report, keyed and ordered
    as the report prints them, after "mesh.area" (the mesh area, first).

    One pass in three work arrays: the field is checked once, and the energy,
    integral and exp(2u) of u, the t flux, boundary operator and Laplacian
    are each computed once and shared by every value that needs them.  The
    Jensen pass comes last, in the arrays that the residual is done with.
    Each value is bitwise equal to the public function that defines it.
    """
    u = mesh._check_field(u)
    a, b, c = work = _work(mesh, 3)
    area = _integrate(mesh, 1.0, a)
    energy = _gradient_form(mesh, u, u, work)
    curv = mesh.scalar_curvature * _integrate(mesh, u, a)
    values = {"mesh.area": area, "gradient_energy": energy,
              "conformal_change_term": 0.25 * (energy + curv)}
    flux = _t_flux(mesh, u, a)
    lam = _boundary_operator(mesh, u)
    flux_term = _boundary_flux(mesh, u, flux, lam)
    lap = _laplacian(mesh, u, flux, lam, (b, c))
    defect = _integrate(mesh, np.multiply(u, lap, out=a), a) + energy - flux_term
    exp_2u = np.exp(np.multiply(u, 2.0, out=c), out=a)
    residual = _liouville_residual(mesh, lap, exp_2u)
    liouville = {
        "liouville.variant": LIOUVILLE_VARIANT[mesh.tag],
        "liouville.residual_max": float(np.abs(residual, out=c).max()),
        "liouville.residual_rms": math.sqrt(
            _integrate(mesh, np.square(residual, out=c), c) / area),
        "integration_by_parts_defect": abs(defect),
    }
    if mesh.tag == TAG_HYPERBOLIC:
        shift = 0.5 * math.log(_integrate(mesh, exp_2u, c) / area)
        normalized = np.subtract(u, shift, out=b)
        values["jensen_energy_normalized"] = (
            _gradient_form(mesh, normalized, normalized, (a, c))
            - 2.0 * _integrate(mesh, normalized, a)
        )
    return {**values, **liouville}


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
    """Inverse of `field_to_csv`; returns (mesh, field)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != "n_t,n_theta,t_extent,circumference,tag":
        raise ValueError(f"{path}: not a corevol field file")
    if len(lines) < 2:
        raise ValueError(f"{path}: no parameter line after the header")
    params = lines[1].split(",")
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
    u = np.array([line.split(",") for line in lines[2:]], dtype=float)
    return mesh, mesh._check_field(u)
