import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import integrate, laplacian, liouville_residual, on_mesh
from corevol import anomaly
from corevol.anomaly import (
    LIOUVILLE_VARIANT,
    TAG_FLAT,
    TAG_HYPERBOLIC,
    SurfaceMesh,
    anomaly_functionals,
    field_from_csv,
)
from corevol.cli import _build_field

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


def report(mesh, u):
    return anomaly_functionals(mesh, u)


def normalizing_shift(mesh, u):
    """The constant c that makes int exp(2(u - c)) dmu the mesh area."""
    return 0.5 * math.log(integrate(mesh, np.exp(2.0 * u)) / integrate(mesh, 1.0))


# ----------------------------------------------------------------- meshes

def test_mesh_area_matches_analytic():
    mesh = hyperbolic_mesh(n_t=200, n_theta=64)
    assert abs(report(mesh, mesh.zeros())["mesh.area"] / mesh.analytic_area - 1.0) <= 1e-4
    flat = flat_mesh(n_t=200)
    assert report(flat, flat.zeros())["mesh.area"] == pytest.approx(
        flat.analytic_area, rel=1e-12)


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
        report(mesh, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        report(mesh, np.full((mesh.n_t, mesh.n_theta), np.nan))


# ------------------------------------------------------------ gradient energy

def test_gradient_energy_constant_is_zero():
    mesh = hyperbolic_mesh()
    assert report(mesh, mesh.constant(3.7))["gradient_energy"] == 0.0


def test_gradient_energy_theta_mode_flat():
    mesh = flat_mesh(n_t=401, n_theta=400, T=1.0)
    omega = TWO_PI / mesh.circumference
    u = on_mesh(mesh, lambda t, th: np.sin(omega * th))
    expected = omega ** 2 * mesh.analytic_area / 2.0
    assert abs(report(mesh, u)["gradient_energy"] / expected - 1.0) <= 1e-3


def test_gradient_energy_second_order():
    # u = sin(w th) cos(pi t/2) on [-1,1] x [0,L): both squared factors
    # integrate to 1 in t off a half-L in theta, so the exact energy is
    # (L/2)(w^2 + (pi/2)^2)
    def error(n_t, n_theta):
        mesh = flat_mesh(n_t=n_t, n_theta=n_theta, T=1.0)
        omega = TWO_PI / mesh.circumference
        u = on_mesh(mesh, lambda t, th: np.sin(omega * th) * np.cos(0.5 * math.pi * t))
        exact = (mesh.circumference / 2.0) * (omega ** 2 + (0.5 * math.pi) ** 2)
        return abs(report(mesh, u)["gradient_energy"] - exact)

    e1 = error(65, 64)
    e2 = error(129, 128)
    assert e1 / e2 >= 3.5


# ------------------------------------------------------- conformal change

def test_conformal_change_zero_field():
    mesh = hyperbolic_mesh()
    assert report(mesh, mesh.zeros())["conformal_change_term"] == 0.0


def test_conformal_change_constant_hyperbolic():
    mesh = hyperbolic_mesh()
    c = 0.8
    values = report(mesh, mesh.constant(c))
    expected = 0.25 * (-2.0 * c * values["mesh.area"])
    assert values["conformal_change_term"] == pytest.approx(expected, rel=1e-12)


def test_conformal_change_flat_reduces_to_gradient():
    mesh = flat_mesh()
    omega = TWO_PI / mesh.circumference
    values = report(mesh, on_mesh(mesh, lambda t, th: np.sin(omega * th)))
    assert values["conformal_change_term"] == pytest.approx(
        0.25 * values["gradient_energy"], rel=1e-12
    )


def test_conformal_change_scales_quadratic_plus_linear():
    mesh = hyperbolic_mesh()
    rng = np.random.default_rng(3)
    u = random_smooth_field(mesh, rng)
    grad_part = 0.25 * report(mesh, u)["gradient_energy"]
    curv_part = 0.25 * mesh.scalar_curvature * integrate(mesh, u)
    for a in (0.5, 1.0, 2.0):
        expected = a ** 2 * grad_part + a * curv_part
        assert report(mesh, a * u)["conformal_change_term"] == pytest.approx(
            expected, rel=1e-12)


# ----------------------------------------------------------------- Jensen

def test_jensen_zero_field():
    mesh = hyperbolic_mesh()
    assert report(mesh, mesh.zeros())["jensen_energy_normalized"] == 0.0


def test_jensen_requires_hyperbolic_tag():
    # the flat tag reports no Jensen energy
    mesh = flat_mesh()
    assert "jensen_energy_normalized" not in report(mesh, mesh.zeros())


def test_jensen_positive_for_normalized_bump():
    mesh = hyperbolic_mesh()
    bump = on_mesh(mesh, lambda t, th: 0.3 * np.exp(-(t ** 2) - np.cos(th)))
    assert report(mesh, bump)["jensen_energy_normalized"] > 1e-4


def test_jensen_positive_on_random_normalized_fields():
    mesh = SurfaceMesh(TAG_HYPERBOLIC, 2.0, TWO_PI, 128, 128)
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = random_smooth_field(mesh, rng)
        values = report(mesh, u)
        scale = 1.0 + np.abs(u - normalizing_shift(mesh, u)).max() * values["mesh.area"]
        assert values["jensen_energy_normalized"] >= -1e-6 * scale


# --------------------------------------------------------- area normalizing

U = 2.0 ** -52


def roundoff_bound(mesh, energy):
    """64 u sqrt(N) max(E, 1): the scale of the roundoff in the Jensen value
    and the integration-by-parts defect, as the benchmark checks them."""
    return 64.0 * U * math.sqrt(mesh.n_t * mesh.n_theta) * max(energy, 1.0)


def test_normalize_area_fixes_integral():
    # the report takes the Jensen energy of the normalized field u - c through
    # two identities; 4 times the conformal-change term of u - c itself
    # (R = -2) is that energy without them
    rng = np.random.default_rng(5)
    for n_t, n_theta in ((129, 64), (64, 48), (257, 256)):
        mesh = hyperbolic_mesh(n_t, n_theta)
        for _ in range(5):
            u = random_smooth_field(mesh, rng)
            v = u - normalizing_shift(mesh, u)
            assert integrate(mesh, np.exp(2.0 * v)) == pytest.approx(
                integrate(mesh, 1.0), rel=1e-10)
            values = report(mesh, u)
            direct = 4.0 * report(mesh, v)["conformal_change_term"]
            bound = roundoff_bound(mesh, values["gradient_energy"])
            assert abs(values["jensen_energy_normalized"] - direct) <= bound


def test_normalize_area_kills_constants():
    mesh = hyperbolic_mesh()
    values = report(mesh, mesh.constant(1.0))
    assert abs(values["jensen_energy_normalized"]) <= 1e-12 * values["mesh.area"]
    assert report(mesh, mesh.zeros())["jensen_energy_normalized"] == 0.0


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=-3.0, max_value=3.0))
def test_normalize_area_shift_invariant(c):
    mesh = SurfaceMesh(TAG_HYPERBOLIC, 1.0, TWO_PI, 33, 16)
    base = on_mesh(mesh, lambda t, th: 0.2 * np.sin(th) * np.exp(-t ** 2))
    first = report(mesh, base)
    second = report(mesh, base + c)
    scale = 1.0 + abs(c) * first["mesh.area"]
    assert abs(first["jensen_energy_normalized"]
               - second["jensen_energy_normalized"]) <= 1e-12 * scale


# ----------------------------------------------- integration by parts / SBP

def test_summation_by_parts_identity():
    rng = np.random.default_rng(9)
    for mesh in (hyperbolic_mesh(65, 48), flat_mesh(65, 48)):
        for _ in range(10):
            u = random_smooth_field(mesh, rng)
            values = report(mesh, u)
            bound = roundoff_bound(mesh, values["gradient_energy"])
            assert values["integration_by_parts_defect"] <= bound


def test_laplacian_of_constant_vanishes():
    mesh = hyperbolic_mesh()
    assert np.abs(laplacian(mesh, mesh.constant(2.0))).max() == 0.0


# -------------------------------------------------------- Liouville residual

def test_liouville_zero_field_hyperbolic_exact():
    mesh = hyperbolic_mesh()
    values = report(mesh, mesh.zeros())
    assert values["liouville.variant"] == "hyperbolic_piece"
    assert values["liouville.residual_max"] == values["liouville.residual_rms"] == 0.0


def test_liouville_zero_field_flat_exact():
    # the residual is -1 at every node
    mesh = flat_mesh()
    values = report(mesh, mesh.zeros())
    assert values["liouville.variant"] == "flat_piece"
    assert values["liouville.residual_max"] == values["liouville.residual_rms"] == 1.0


def residual_error_log_sech(n_t):
    mesh = flat_mesh(n_t=n_t, n_theta=16)
    phi = on_mesh(mesh, lambda t, th: -np.log(np.cosh(t)))
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

def field_to_csv(mesh, u, path):
    """Write a field file in the layout `field_from_csv` reads."""
    lines = ["n_t,n_theta,t_extent,circumference,tag",
             f"{mesh.n_t},{mesh.n_theta},{mesh.t_extent!r},{mesh.circumference!r},{mesh.tag}"]
    lines += [",".join(repr(float(x)) for x in row) for row in u]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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


def grid_rows(n_rows, n_theta=4):
    return "".join(",".join(repr(0.1 * i + 0.01 * j) for j in range(n_theta)) + "\n"
                   for i in range(n_rows))


@pytest.mark.parametrize("rows, message", [
    (grid_rows(3) + "0.1,0.2,0.3\n" + grid_rows(5), "grid row 4 has 3 values, not n_theta = 4"),
    # numpy would broadcast a single value over the row
    (grid_rows(3) + "0.5\n" + grid_rows(5), "grid row 4 has 1 values, not n_theta = 4"),
    (grid_rows(10), "more than n_t = 9 grid rows"),
    (grid_rows(8), "8 grid rows, not n_t = 9"),
], ids=["ragged_row", "single_value_row", "too_many_rows", "too_few_rows"])
def test_field_csv_rejects_bad_grid_rows(tmp_path, rows, message):
    path = tmp_path / "rows.csv"
    path.write_text("n_t,n_theta,t_extent,circumference,tag\n"
                    "9,4,1.0,2.0,flat_cylinder\n" + rows)
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        field_from_csv(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("size", [10 ** 9, 10 ** 10])
def test_field_csv_header_too_large_for_memory(tmp_path, size):
    # the grid rows are never reached: the field is allocated from the header
    path = tmp_path / "huge.csv"
    path.write_text("n_t,n_theta,t_extent,circumference,tag\n"
                    f"{size},{size},1.0,2.0,flat_cylinder\n0.1,0.2\n")
    with pytest.raises(ValueError, match="field does not fit in memory") as err:
        field_from_csv(path)
    assert str(path) in str(err.value)


def test_field_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("n_t,n_theta,t_extent,circumference,tag\n\n"
                    "9,4,1.0,2.0,flat_cylinder\n" + grid_rows(9).replace("\n", "\n\n"))
    _, u = field_from_csv(path)
    assert u[8, 3] == 0.1 * 8 + 0.01 * 3


def traced_peak(call):
    """Peak bytes that numpy and Python allocate during call(), above what
    was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_field_csv_peak_memory(tmp_path):
    # the field itself, the finite check's bool array and one row of text
    mesh = hyperbolic_mesh(257, 256)
    u = random_smooth_field(mesh, np.random.default_rng(2))
    path = tmp_path / "field.csv"
    field_to_csv(mesh, u, path)
    assert traced_peak(lambda: field_from_csv(path)) <= 1.5 * u.nbytes


# ------------------------------------------------------ row-block functionals

def gradient_energy(mesh, u):
    work = np.empty((2, mesh.n_t, mesh.n_theta))
    t_sum, theta_sum = anomaly._gradient_sums(mesh, u, 0, mesh.n_t, work)
    return t_sum * mesh.dt * mesh.dtheta + theta_sum * mesh.dt * mesh.dtheta


def boundary_flux(mesh, u):
    return anomaly._boundary_flux(mesh, u, anomaly._boundary_operator(mesh, u))


def composed_report_values(mesh, u):
    """The anomaly report values composed from one call of each kernel on
    all rows, each value in the form the sweep takes."""
    area, integral, energy = integrate(mesh, 1.0), integrate(mesh, u), gradient_energy(mesh, u)
    values = {
        "mesh.area": area,
        "gradient_energy": energy,
        "conformal_change_term": 0.25 * (energy + mesh.scalar_curvature * integral),
    }
    if mesh.tag == TAG_HYPERBOLIC:
        shift = 0.5 * math.log(integrate(mesh, np.exp(2.0 * u)) / area)
        values["jensen_energy_normalized"] = energy - 2.0 * (integral - shift * area)
    residual = liouville_residual(mesh, u)
    values["liouville.variant"] = LIOUVILLE_VARIANT[mesh.tag]
    values["liouville.residual_max"] = float(np.abs(residual).max())
    values["liouville.residual_rms"] = math.sqrt(integrate(mesh, residual ** 2) / area)
    values["integration_by_parts_defect"] = abs(
        integrate(mesh, u * laplacian(mesh, u)) + energy - boundary_flux(mesh, u))
    return values


def one_block_values(mesh, u, monkeypatch):
    """`anomaly_functionals` in one block of all rows."""
    with monkeypatch.context() as patch:
        patch.setattr(anomaly, "BLOCK_NODES", mesh.n_t * mesh.n_theta)
        return anomaly_functionals(mesh, u)


def as_hex(values):
    return [(k, v if isinstance(v, str) else float.hex(v)) for k, v in values.items()]


def sample_fields(mesh, rng):
    return (random_smooth_field(mesh, rng), mesh.zeros(), mesh.constant(rng.uniform(-1.0, 1.0)))


def assert_matches_one_block(mesh, u, monkeypatch):
    """The sweep against one block of all rows.  The variant and the
    residual max (a max of the same nodal values) are equal.  Each sum is
    the same terms in another order, so it lies within 2 (log2 N + 2) u of
    the sum of their absolute values.  The Jensen value and the
    integration-by-parts defect (a roundoff quantity) lie within
    `roundoff_bound`."""
    got, want = anomaly_functionals(mesh, u), one_block_values(mesh, u, monkeypatch)
    assert list(got) == list(want)
    for key in ("liouville.variant", "liouville.residual_max"):
        assert got[key] == want[key], key
    nodes = mesh.n_t * mesh.n_theta
    energy = want["gradient_energy"]
    sum_tol = 2.0 * (math.log2(nodes) + 2.0) * U
    curv = abs(mesh.scalar_curvature) * integrate(mesh, np.abs(u))
    bounds = {
        "mesh.area": sum_tol * want["mesh.area"],
        "gradient_energy": sum_tol * energy,
        "conformal_change_term": sum_tol * 0.25 * (energy + curv),
        "liouville.residual_rms": sum_tol * want["liouville.residual_rms"],
        "integration_by_parts_defect": roundoff_bound(mesh, energy),
    }
    if mesh.tag == TAG_HYPERBOLIC:
        bounds["jensen_energy_normalized"] = bounds["integration_by_parts_defect"]
    assert len(bounds) + 2 == len(want)
    for key, bound in bounds.items():
        assert abs(got[key] - want[key]) <= bound, (key, got[key], want[key], bound)


MESH_SIZES = [(9, 4), (9, 5), (17, 16), (33, 31), (65, 64), (129, 127), (257, 256)]


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
@pytest.mark.parametrize("n_t, n_theta", MESH_SIZES)
def test_functionals_bitwise_equal_to_composed_public_functions(tag, n_t, n_theta, monkeypatch):
    # in one block the sweep runs every kernel on all rows, and the fsum of
    # one partial is that partial
    rng = np.random.default_rng(n_t * n_theta)
    mesh = SurfaceMesh(tag, rng.uniform(0.5, 2.5), rng.uniform(1.0, 9.0), n_t, n_theta)
    for u in sample_fields(mesh, rng):
        got = one_block_values(mesh, u, monkeypatch)
        assert as_hex(got) == as_hex(composed_report_values(mesh, u))


def test_functionals_bitwise_equal_on_csv_field(tmp_path):
    mesh = hyperbolic_mesh(65, 48)
    u = random_smooth_field(mesh, np.random.default_rng(3))
    path = tmp_path / "field.csv"
    field_to_csv(mesh, u, path)
    mesh2, u2 = field_from_csv(path)
    assert as_hex(anomaly_functionals(mesh2, u2)) == as_hex(anomaly_functionals(mesh, u))


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
@pytest.mark.parametrize("n_t, n_theta", MESH_SIZES + [(513, 512)])
def test_functionals_match_whole_mesh_functions(tag, n_t, n_theta, monkeypatch):
    rng = np.random.default_rng(n_t * n_theta + 1)
    mesh = SurfaceMesh(tag, rng.uniform(0.5, 2.5), rng.uniform(1.0, 9.0), n_t, n_theta)
    for u in sample_fields(mesh, rng):
        assert_matches_one_block(mesh, u, monkeypatch)


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_functionals_match_whole_mesh_functions_in_small_blocks(tag, rows, extra, monkeypatch):
    # n_t one below, at and one above a multiple of the block rows, so that
    # the last block is short, full or a single boundary row
    n_theta = 7
    monkeypatch.setattr(anomaly, "BLOCK_NODES", rows * n_theta)
    rng = np.random.default_rng(10 * rows + extra)
    mesh = SurfaceMesh(tag, rng.uniform(0.5, 2.5), rng.uniform(1.0, 9.0),
                       5 * rows + extra, n_theta)
    for u in sample_fields(mesh, rng):
        assert_matches_one_block(mesh, u, monkeypatch)


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
def test_functionals_peak_memory(tag):
    # three block-sized work arrays, plus the finite check's bool array (an
    # eighth of the field) and 1-d profiles
    rng = np.random.default_rng(7)
    for n_t, limit in ((513, 0.75), (1025, 0.25)):
        mesh = SurfaceMesh(tag, 2.0, TWO_PI, n_t, n_t - 1)
        u = random_smooth_field(mesh, rng)
        assert traced_peak(lambda: anomaly_functionals(mesh, u)) <= limit * u.nbytes, n_t


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
@pytest.mark.parametrize("field", [{"kind": "theta_mode", "k": 2, "amplitude": 0.3},
                                   {"kind": "log_sech_t"}])
def test_build_field_peak_memory(tag, field):
    # the field itself, plus its 1-d profile
    mesh = SurfaceMesh(tag, 2.0, TWO_PI, 257, 256)
    field_bytes = mesh.n_t * mesh.n_theta * 8
    assert traced_peak(lambda: _build_field(mesh, field)) <= 1.1 * field_bytes


def mesh_evaluated_field(mesh, field):
    """An analytic field evaluated on the full (t, theta) mesh, node by node."""
    if field["kind"] == "log_sech_t":
        return on_mesh(mesh, lambda t, th: -np.log(np.cosh(t)))
    amp = field["amplitude"]
    omega = 2.0 * math.pi * field["k"] / mesh.circumference
    return on_mesh(mesh, lambda t, th: amp * np.sin(omega * th))


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
@pytest.mark.parametrize("n_theta", [4, 7, 127, 128, 1000, 1024])
def test_build_field_bitwise_equal_to_mesh_evaluation(tag, n_theta):
    # numpy's SIMD sin, log and cosh give the same bits on a 1-d profile as
    # on the full mesh, whatever the lengths leave over for the vector tail
    fields = [{"kind": "log_sech_t"}] + [
        {"kind": "theta_mode", "k": k, "amplitude": 0.1 * k + 0.07} for k in (1, 2, 3, 4)]
    for n_t in (17, 18, max(n_theta + 1, 8)):
        mesh = SurfaceMesh(tag, 1.7, 5.3, n_t, n_theta)
        for field in fields:
            built = _build_field(mesh, field)
            assert built.flags.c_contiguous
            expected = mesh_evaluated_field(mesh, field)
            assert np.array_equal(built.view(np.int64), expected.view(np.int64)), (n_t, field)
