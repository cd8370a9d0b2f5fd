import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corevol.anomaly import (
    TAG_FLAT,
    TAG_HYPERBOLIC,
    SurfaceMesh,
    boundary_flux,
    conformal_change_term,
    field_from_csv,
    field_to_csv,
    gradient_energy,
    gradient_form,
    integrate,
    jensen_energy,
    laplacian,
    liouville_residual,
    normalize_area,
)

TWO_PI = 2.0 * math.pi


def hyperbolic_mesh(n_t=129, n_theta=64, T=2.0, L=TWO_PI):
    return SurfaceMesh(TAG_HYPERBOLIC, T, L, n_t, n_theta)


def flat_mesh(n_t=129, n_theta=64, T=2.0, L=TWO_PI):
    return SurfaceMesh(TAG_FLAT, T, L, n_t, n_theta)


def random_smooth_field(mesh, rng, modes=3):
    t, th = np.meshgrid(mesh.t, mesh.theta, indexing="ij")
    u = np.zeros_like(t)
    for k in range(1, modes + 1):
        a, b = rng.normal(size=2) / k
        phase = rng.uniform(0.0, TWO_PI)
        omega = TWO_PI * k / mesh.circumference
        u += (a * np.sin(omega * th + phase) + b * np.cos(omega * th)) * np.exp(
            -0.3 * k * t ** 2
        )
    return u


# ----------------------------------------------------------------- meshes

def test_mesh_area_matches_analytic():
    mesh = hyperbolic_mesh(n_t=200, n_theta=64)
    assert abs(mesh.area / mesh.analytic_area - 1.0) <= 1e-4
    flat = flat_mesh(n_t=200)
    assert flat.area == pytest.approx(flat.analytic_area, rel=1e-12)


def test_mesh_validation():
    with pytest.raises(ValueError):
        SurfaceMesh("sphere", 1.0, 1.0, 32, 32)
    with pytest.raises(ValueError):
        SurfaceMesh(TAG_FLAT, 1.0, 1.0, 4, 32)
    with pytest.raises(ValueError):
        SurfaceMesh(TAG_FLAT, -1.0, 1.0, 32, 32)


def test_scalar_curvature_by_tag():
    assert hyperbolic_mesh().scalar_curvature == -2.0
    assert flat_mesh().scalar_curvature == 0.0


def test_field_shape_checked():
    mesh = flat_mesh()
    with pytest.raises(ValueError):
        integrate(mesh, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        integrate(mesh, np.full((mesh.n_t, mesh.n_theta), np.nan))


# ------------------------------------------------------------ gradient energy

def test_gradient_energy_constant_is_zero():
    mesh = hyperbolic_mesh()
    assert gradient_energy(mesh, mesh.constant(3.7)) == 0.0


def test_gradient_energy_theta_mode_flat():
    mesh = flat_mesh(n_t=401, n_theta=400, T=1.0)
    omega = TWO_PI / mesh.circumference
    u = mesh.from_function(lambda t, th: np.sin(omega * th))
    expected = omega ** 2 * mesh.analytic_area / 2.0
    assert abs(gradient_energy(mesh, u) / expected - 1.0) <= 1e-3


def test_gradient_energy_second_order():
    # u = sin(w th) cos(pi t/2) on [-1,1] x [0,L): both squared factors
    # integrate to 1 in t off a half-L in theta, so the exact energy is
    # (L/2)(w^2 + (pi/2)^2)
    def error(n_t, n_theta):
        mesh = flat_mesh(n_t=n_t, n_theta=n_theta, T=1.0)
        omega = TWO_PI / mesh.circumference
        u = mesh.from_function(
            lambda t, th: np.sin(omega * th) * np.cos(0.5 * math.pi * t)
        )
        exact = (mesh.circumference / 2.0) * (omega ** 2 + (0.5 * math.pi) ** 2)
        return abs(gradient_energy(mesh, u) - exact)

    e1 = error(65, 64)
    e2 = error(129, 128)
    assert e1 / e2 >= 3.5


# ------------------------------------------------------- conformal change

def test_conformal_change_zero_field():
    assert conformal_change_term(hyperbolic_mesh(), hyperbolic_mesh().zeros()) == 0.0


def test_conformal_change_constant_hyperbolic():
    mesh = hyperbolic_mesh()
    c = 0.8
    expected = 0.25 * (-2.0 * c * mesh.area)
    assert conformal_change_term(mesh, mesh.constant(c)) == pytest.approx(
        expected, rel=1e-12
    )


def test_conformal_change_flat_reduces_to_gradient():
    mesh = flat_mesh()
    omega = TWO_PI / mesh.circumference
    u = mesh.from_function(lambda t, th: np.sin(omega * th))
    assert conformal_change_term(mesh, u) == pytest.approx(
        0.25 * gradient_energy(mesh, u), rel=1e-12
    )


def test_conformal_change_scales_quadratic_plus_linear():
    mesh = hyperbolic_mesh()
    rng = np.random.default_rng(3)
    u = random_smooth_field(mesh, rng)
    grad_part = 0.25 * gradient_energy(mesh, u)
    curv_part = 0.25 * mesh.scalar_curvature * integrate(mesh, u)
    for a in (1.0, 2.0):
        expected = a ** 2 * grad_part + a * curv_part
        assert conformal_change_term(mesh, a * u) == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------- Jensen

def test_jensen_zero_field():
    mesh = hyperbolic_mesh()
    assert abs(jensen_energy(mesh, mesh.zeros())) <= 1e-10


def test_jensen_requires_hyperbolic_tag():
    with pytest.raises(ValueError):
        jensen_energy(flat_mesh(), flat_mesh().zeros())


def test_jensen_positive_for_normalized_bump():
    mesh = hyperbolic_mesh()
    bump = mesh.from_function(lambda t, th: 0.3 * np.exp(-(t ** 2) - np.cos(th)))
    u = normalize_area(mesh, bump)
    assert jensen_energy(mesh, u) > 1e-4


def test_jensen_positive_on_random_normalized_fields():
    mesh = SurfaceMesh(TAG_HYPERBOLIC, 2.0, TWO_PI, 128, 128)
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = normalize_area(mesh, random_smooth_field(mesh, rng))
        scale = 1.0 + np.abs(u).max() * mesh.area
        assert jensen_energy(mesh, u) >= -1e-6 * scale


# --------------------------------------------------------- area normalizing

def test_normalize_area_fixes_integral():
    mesh = hyperbolic_mesh()
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = normalize_area(mesh, random_smooth_field(mesh, rng))
        assert integrate(mesh, np.exp(2.0 * u)) == pytest.approx(
            mesh.area, rel=1e-10
        )


def test_normalize_area_kills_constants():
    mesh = hyperbolic_mesh()
    normalized = normalize_area(mesh, mesh.constant(1.0))
    assert np.abs(normalized).max() <= 1e-12
    unchanged = normalize_area(mesh, mesh.zeros())
    assert np.abs(unchanged).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=-3.0, max_value=3.0))
def test_normalize_area_shift_invariant(c):
    mesh = SurfaceMesh(TAG_HYPERBOLIC, 1.0, TWO_PI, 33, 16)
    base = mesh.from_function(lambda t, th: 0.2 * np.sin(th) * np.exp(-t ** 2))
    first = normalize_area(mesh, base)
    second = normalize_area(mesh, base + c)
    assert np.abs(first - second).max() <= 1e-12


# ----------------------------------------------- integration by parts / SBP

def test_summation_by_parts_identity():
    rng = np.random.default_rng(9)
    for mesh in (hyperbolic_mesh(65, 48), flat_mesh(65, 48)):
        for _ in range(10):
            u = random_smooth_field(mesh, rng)
            v = random_smooth_field(mesh, rng)
            lhs = integrate(mesh, u * laplacian(mesh, v)) + gradient_form(mesh, u, v)
            flux = boundary_flux(mesh, u, v)
            scale = (abs(gradient_form(mesh, u, v)) + abs(flux)
                     + abs(integrate(mesh, u * laplacian(mesh, v))) + 1.0)
            assert abs(lhs - flux) / scale <= 1e-6


def test_laplacian_of_constant_vanishes():
    mesh = hyperbolic_mesh()
    assert np.abs(laplacian(mesh, mesh.constant(2.0))).max() == 0.0


# -------------------------------------------------------- Liouville residual

def test_liouville_zero_field_hyperbolic_exact():
    mesh = hyperbolic_mesh()
    residual = liouville_residual(mesh, mesh.zeros())
    assert np.abs(residual).max() == 0.0


def test_liouville_zero_field_flat_exact():
    mesh = flat_mesh()
    residual = liouville_residual(mesh, mesh.zeros())
    assert np.all(residual == -1.0)


def residual_error_log_sech(n_t):
    mesh = flat_mesh(n_t=n_t, n_theta=16)
    phi = mesh.from_function(lambda t, th: -np.log(np.cosh(t)))
    residual = liouville_residual(mesh, phi)
    exact = -2.0 / np.cosh(mesh.t) ** 2
    return np.abs(residual - exact[:, None]).max()


def test_liouville_log_sech_profile_converges_at_second_order():
    # phi = -log cosh t has lap(phi) = -sech^2 t and e^{2 phi} = sech^2 t,
    # so the flat residual is -2 sech^2 t
    e1 = residual_error_log_sech(65)
    e2 = residual_error_log_sech(129)
    order = math.log2(e1 / e2)
    assert order >= 1.9


# ------------------------------------------------------------------- CSV IO

def test_field_csv_roundtrip(tmp_path):
    mesh = hyperbolic_mesh(33, 16)
    rng = np.random.default_rng(1)
    u = random_smooth_field(mesh, rng)
    path = tmp_path / "field.csv"
    field_to_csv(mesh, u, path)
    mesh2, u2 = field_from_csv(path)
    assert (mesh2.tag, mesh2.n_t, mesh2.n_theta) == (mesh.tag, mesh.n_t, mesh.n_theta)
    assert mesh2.t_extent == mesh.t_extent
    assert np.array_equal(u, u2)


def test_field_csv_rejects_junk(tmp_path):
    header = "n_t,n_theta,t_extent,circumference,tag\n"
    for text, message in [
        ("nope\n1,2,3\n", "not a corevol field file"),
        (header, "no parameter line after the header"),
        (header + "65,32,2.0\n", "parameter line needs the 5 header fields, got 3"),
    ]:
        path = tmp_path / "junk.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as err:
            field_from_csv(path)
        assert str(path) in str(err.value)
