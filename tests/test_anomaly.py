import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corevol import anomaly
from corevol.anomaly import (
    LIOUVILLE_VARIANT,
    TAG_FLAT,
    TAG_HYPERBOLIC,
    SurfaceMesh,
    anomaly_functionals,
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

U = 2.0 ** -52


def composed_report_values(mesh, u):
    """The anomaly report values with one whole-mesh public-function call each."""
    values = {
        "mesh.area": mesh.area,
        "gradient_energy": gradient_energy(mesh, u),
        "conformal_change_term": conformal_change_term(mesh, u),
    }
    if mesh.tag == TAG_HYPERBOLIC:
        values["jensen_energy_normalized"] = jensen_energy(mesh, normalize_area(mesh, u))
    residual = liouville_residual(mesh, u)
    values["liouville.variant"] = LIOUVILLE_VARIANT[mesh.tag]
    values["liouville.residual_max"] = float(np.abs(residual).max())
    values["liouville.residual_rms"] = math.sqrt(integrate(mesh, residual ** 2) / mesh.area)
    values["integration_by_parts_defect"] = abs(
        integrate(mesh, u * laplacian(mesh, u))
        + gradient_energy(mesh, u)
        - boundary_flux(mesh, u, u)
    )
    return values


def one_block_values(mesh, u):
    """`composed_report_values` with the Jensen value of the normalized field
    u - c in the form the sweep takes: E(u) - 2 (int u - c area)."""
    values = composed_report_values(mesh, u)
    if mesh.tag == TAG_HYPERBOLIC:
        shift = 0.5 * math.log(integrate(mesh, np.exp(2.0 * u)) / mesh.area)
        values["jensen_energy_normalized"] = (
            gradient_energy(mesh, u) - 2.0 * (integrate(mesh, u) - shift * mesh.area))
    return values


def as_hex(values):
    return [(k, v if isinstance(v, str) else float.hex(v)) for k, v in values.items()]


def sample_fields(mesh, rng):
    return (random_smooth_field(mesh, rng), mesh.zeros(), mesh.constant(rng.uniform(-1.0, 1.0)))


def assert_matches_whole_mesh_functions(mesh, u):
    """The sweep against the whole-mesh public functions.  The variant and
    the residual max (a max of the same nodal values) are equal.  Each sum
    is the same terms in another order, so it lies within 2 (log2 N + 2) u
    of the sum of their absolute values.  The Jensen value (taken through
    two identities) and the integration-by-parts defect (a roundoff
    quantity) lie within 64 u sqrt(N) max(E, 1), the scale that the
    benchmark checks them at."""
    got, want = anomaly_functionals(mesh, u), composed_report_values(mesh, u)
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
        "integration_by_parts_defect": 64.0 * U * math.sqrt(nodes) * max(energy, 1.0),
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
    # in one block the sweep runs every kernel on all rows, as the public
    # functions do, and the fsum of one partial is that partial
    monkeypatch.setattr(anomaly, "BLOCK_NODES", n_t * n_theta)
    rng = np.random.default_rng(n_t * n_theta)
    mesh = SurfaceMesh(tag, rng.uniform(0.5, 2.5), rng.uniform(1.0, 9.0), n_t, n_theta)
    for u in sample_fields(mesh, rng):
        assert as_hex(anomaly_functionals(mesh, u)) == as_hex(one_block_values(mesh, u))


def test_functionals_bitwise_equal_on_csv_field(tmp_path, monkeypatch):
    mesh = hyperbolic_mesh(65, 48)
    monkeypatch.setattr(anomaly, "BLOCK_NODES", mesh.n_t * mesh.n_theta)
    u = random_smooth_field(mesh, np.random.default_rng(3))
    path = tmp_path / "field.csv"
    field_to_csv(mesh, u, path)
    mesh2, u2 = field_from_csv(path)
    assert as_hex(anomaly_functionals(mesh2, u2)) == as_hex(one_block_values(mesh, u))


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
@pytest.mark.parametrize("n_t, n_theta", MESH_SIZES + [(513, 512)])
def test_functionals_match_whole_mesh_functions(tag, n_t, n_theta):
    rng = np.random.default_rng(n_t * n_theta + 1)
    mesh = SurfaceMesh(tag, rng.uniform(0.5, 2.5), rng.uniform(1.0, 9.0), n_t, n_theta)
    for u in sample_fields(mesh, rng):
        assert_matches_whole_mesh_functions(mesh, u)


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
        assert_matches_whole_mesh_functions(mesh, u)


# Digests of the float.hex values and array bytes that each public
# whole-mesh function returns on uniform random fields over both tags and
# three mesh sizes, recorded before the report moved to row blocks: the
# functions keep these bits.  numpy's SIMD cosh and exp round differently
# on AVX-512 (first digest) and on AVX2 or older CPUs (second digest;
# NPY_DISABLE_CPU_FEATURES=X86_V4 selects that path), see ROADMAP item 2.
PUBLIC_DIGESTS = {
    "area": ("2e3e9d4da74b9e26", "e5c2af0a5a41aa9d"),
    "integrate": ("ce148739609f3b5b", "cbf851d81911485a"),
    "gradient_form": ("e49695cbf2f8d2df", "70aa60569daa2c62"),
    "gradient_energy": ("c3f07b13ab24d9ec",),
    "conformal_change_term": ("8bcd48f8bac3243c",),
    "normalize_area": ("82a5252aa5ced910", "12341a5da2608e2b"),
    "laplacian": ("7f2c4240619ee747", "b1af46e30c6373e3"),
    "boundary_flux": ("f2ae97a90b05c9f5", "42aa049ec85c77f3"),
    "liouville_residual": ("044632b27f526b32", "5c3b40aa5683cdb3"),
    "jensen_energy": ("4c543fe3c4847910",),
}


def public_values(mesh, u, v):
    values = {
        "area": mesh.area,
        "integrate": integrate(mesh, u),
        "gradient_form": gradient_form(mesh, u, v),
        "gradient_energy": gradient_energy(mesh, u),
        "conformal_change_term": conformal_change_term(mesh, u),
        "normalize_area": normalize_area(mesh, u),
        "laplacian": laplacian(mesh, u),
        "boundary_flux": boundary_flux(mesh, u, v),
        "liouville_residual": liouville_residual(mesh, u),
    }
    if mesh.tag == TAG_HYPERBOLIC:
        values["jensen_energy"] = jensen_energy(mesh, values["normalize_area"])
    return values


def test_public_functions_keep_their_bits():
    digests = {}
    for tag in (TAG_HYPERBOLIC, TAG_FLAT):
        for n_t, n_theta in ((9, 4), (40, 33), (257, 256)):
            rng = np.random.default_rng(n_t * n_theta)
            mesh = SurfaceMesh(tag, 1.7, 5.3, n_t, n_theta)
            u, v = rng.uniform(-1.0, 1.0, (2, n_t, n_theta))
            for name, value in public_values(mesh, u, v).items():
                data = value.tobytes() if isinstance(value, np.ndarray) else value.hex().encode()
                digests.setdefault(name, hashlib.sha256()).update(data)
    got = {name: h.hexdigest()[:16] for name, h in digests.items()}
    assert got.keys() == PUBLIC_DIGESTS.keys()
    assert {name: d for name, d in got.items() if d not in PUBLIC_DIGESTS[name]} == {}


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
        return mesh.from_function(lambda t, th: -np.log(np.cosh(t)))
    amp = field["amplitude"]
    omega = 2.0 * math.pi * field["k"] / mesh.circumference
    return mesh.from_function(lambda t, th: amp * np.sin(omega * th))


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
