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

VARIANT_HYPERBOLIC = "hyperbolic_piece"
VARIANT_FLAT = "flat_piece"


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
    def weights(self) -> np.ndarray:
        """Per-node area weights, shape (n_t, n_theta)."""
        col = self._sqrt_det * self._t_weights * self.dt * self.dtheta
        return np.repeat(col[:, None], self.n_theta, axis=1)

    @property
    def area(self) -> float:
        return float(self.weights.sum())

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


def integrate(mesh: SurfaceMesh, f: np.ndarray) -> float:
    """Area integral of a nodal field."""
    return float((mesh._check_field(f) * mesh.weights).sum())


def gradient_form(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray) -> float:
    """Dirichlet bilinear form int <grad u, grad v> dmu (staggered differences)."""
    u = mesh._check_field(u)
    v = mesh._check_field(v)
    dt, dth = mesh.dt, mesh.dtheta
    du_t = (u[1:, :] - u[:-1, :]) / dt
    dv_t = (v[1:, :] - v[:-1, :]) / dt
    e_t = float((mesh._sqrt_det_mid[:, None] * du_t * dv_t).sum()) * dt * dth
    du_h = (np.roll(u, -1, axis=1) - u) / dth
    dv_h = (np.roll(v, -1, axis=1) - v) / dth
    coeff = (mesh._theta_coeff * mesh._t_weights)[:, None]
    e_h = float((coeff * du_h * dv_h).sum()) * dt * dth
    return e_t + e_h


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


def laplacian(mesh: SurfaceMesh, v: np.ndarray) -> np.ndarray:
    """Metric Laplace-Beltrami operator, second order at every node.

    Interior rows are the conservative flux form; the boundary rows use the
    one-sided closure that keeps the summation-by-parts identity with
    `gradient_form` and `boundary_flux` exact.
    """
    v = mesh._check_field(v)
    dt, dth = mesh.dt, mesh.dtheta
    b = mesh._sqrt_det
    out = np.empty_like(v)
    flux = mesh._sqrt_det_mid[:, None] * (v[1:, :] - v[:-1, :]) / dt
    out[1:-1, :] = (flux[1:, :] - flux[:-1, :]) / (b[1:-1, None] * dt)
    lam_bot, lam_top = _boundary_operator(mesh, v)
    out[0, :] = lam_bot / b[0]
    out[-1, :] = lam_top / b[-1]
    second_theta = np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)
    out += (mesh._theta_coeff / b)[:, None] * second_theta / dth ** 2
    return out


def boundary_flux(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray) -> float:
    """Flux term closing the discrete integration-by-parts identity:
    integrate(u * laplacian(v)) + gradient_form(u, v) == boundary_flux(u, v)."""
    u = mesh._check_field(u)
    v = mesh._check_field(v)
    dt = mesh.dt
    q = mesh._sqrt_det_mid[:, None] * (v[1:, :] - v[:-1, :]) / dt
    lam_bot, lam_top = _boundary_operator(mesh, v)
    g_bot = q[0, :] - 0.5 * dt * lam_bot
    g_top = q[-1, :] + 0.5 * dt * lam_top
    return float((u[-1, :] * g_top - u[0, :] * g_bot).sum()) * mesh.dtheta


def liouville_residual(mesh: SurfaceMesh, phi: np.ndarray, variant: str) -> np.ndarray:
    """Nodewise defect of the curvature equation for exp(2 phi) * metric.

    hyperbolic_piece: lap(phi) + 1 - exp(2 phi)   (target curvature -1)
    flat_piece:       lap(phi) - exp(2 phi)       (flat background)
    """
    if variant == VARIANT_HYPERBOLIC:
        if mesh.tag != TAG_HYPERBOLIC:
            raise ValueError("hyperbolic_piece residual needs the hyperbolic tag")
        return laplacian(mesh, phi) + 1.0 - np.exp(2.0 * phi)
    if variant == VARIANT_FLAT:
        if mesh.tag != TAG_FLAT:
            raise ValueError("flat_piece residual needs the flat tag")
        return laplacian(mesh, phi) - np.exp(2.0 * phi)
    raise ValueError(f"unknown variant {variant!r}")


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
    values = [[float(x) for x in line.split(",")] for line in lines[2:]]
    u = np.array(values)
    return mesh, mesh._check_field(u)
