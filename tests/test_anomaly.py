import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_to_csv, full, integrate, laplacian, liouville_residual, on_mesh
from corevol import anomaly
from corevol.anomaly import (
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
    assert abs(report(mesh, full(mesh, 0.0))["mesh.area"] / mesh.analytic_area - 1.0) <= 1e-4
    flat = flat_mesh(n_t=200)
    assert report(flat, full(flat, 0.0))["mesh.area"] == pytest.approx(
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


@pytest.mark.parametrize("entries", [[np.nan], [np.inf], [np.inf, -np.inf], [-np.inf]])
def test_field_checked_for_non_finite_entries(entries):
    # the check reads the row sums of u; +inf and -inf in one row sum to nan
    mesh = flat_mesh()
    u = full(mesh, 0.1)
    u[100, 3:3 + len(entries)] = entries
    with pytest.raises(ValueError, match="field has non-finite entries"):
        report(mesh, u)


def test_finite_field_whose_row_sums_overflow_is_an_overflow():
    mesh = flat_mesh()
    with pytest.raises(OverflowError, match="row sums of the field overflow"):
        report(mesh, full(mesh, 1e308))


# ------------------------------------------------------------ gradient energy

def test_gradient_energy_constant_is_zero():
    mesh = hyperbolic_mesh()
    assert report(mesh, full(mesh, 3.7))["gradient_energy"] == 0.0


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
    assert report(mesh, full(mesh, 0.0))["conformal_change_term"] == 0.0


def test_conformal_change_constant_hyperbolic():
    mesh = hyperbolic_mesh()
    c = 0.8
    values = report(mesh, full(mesh, c))
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
    assert report(mesh, full(mesh, 0.0))["jensen_energy_normalized"] == 0.0


def test_jensen_requires_hyperbolic_tag():
    # the flat tag reports no Jensen energy
    mesh = flat_mesh()
    assert "jensen_energy_normalized" not in report(mesh, full(mesh, 0.0))


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
    values = report(mesh, full(mesh, 1.0))
    assert abs(values["jensen_energy_normalized"]) <= 1e-12 * values["mesh.area"]
    assert report(mesh, full(mesh, 0.0))["jensen_energy_normalized"] == 0.0


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
    assert np.abs(laplacian(mesh, full(mesh, 2.0))).max() == 0.0


# -------------------------------------------------------- Liouville residual

def test_liouville_zero_field_hyperbolic_exact():
    mesh = hyperbolic_mesh()
    values = report(mesh, full(mesh, 0.0))
    assert values["liouville.variant"] == "hyperbolic_piece"
    assert values["liouville.residual_max"] == values["liouville.residual_rms"] == 0.0


def test_liouville_zero_field_flat_exact():
    # the residual is -1 at every node
    mesh = flat_mesh()
    values = report(mesh, full(mesh, 0.0))
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


# ------------------------------------------------------ the parsed-field cache

class _CountedCache(anomaly._FieldCache):
    parses = 0


@pytest.fixture
def field_cache(monkeypatch):
    """An empty field cache for the test, counting the parses in `parses`."""
    cache = _CountedCache()
    monkeypatch.setattr(anomaly, "_FIELD_CACHE", cache)
    parse = anomaly._parse_field

    def counted(path, fh):
        cache.parses += 1
        return parse(path, fh)

    monkeypatch.setattr(anomaly, "_parse_field", counted)
    return cache


def kept(cache):
    """The sha256 of each field the cache keeps, least recently read first."""
    return [entry[0] for entry in cache.values() if entry is not None]


def file_id(path):
    return path.stat().st_dev, path.stat().st_ino


def fresh_parse(path):
    """The mesh and field of path, parsed without the cache."""
    with open(path, encoding="utf-8") as fh:
        return anomaly._parse_field(path, fh)


def mesh_params(mesh):
    return mesh.tag, mesh.t_extent, mesh.circumference, mesh.n_t, mesh.n_theta


def test_field_csv_first_read_of_a_file_is_neither_hashed_nor_kept(tmp_path, field_cache,
                                                                    monkeypatch):
    def no_hashing(raw):
        raise AssertionError("hashed on the first read of its file")

    monkeypatch.setattr(anomaly._HashingFile, "rewind", no_hashing)
    paths = [tmp_path / f"field{k}.csv" for k in range(2)]
    for k, path in enumerate(paths):  # two files of one length
        path.write_text("n_t,n_theta,t_extent,circumference,tag\n"
                        f"9,4,{k + 1}.0,2.0,flat_cylinder\n" + grid_rows(9))
        assert field_from_csv(path)[1].tobytes() == fresh_parse(path)[1].tobytes()
    assert field_cache == {file_id(path): None for path in paths}
    assert list(field_cache) == [file_id(path) for path in paths]


def test_field_csv_one_read_does_not_load_hashlib(tmp_path):
    mesh = flat_mesh(9, 4)
    path = tmp_path / "field.csv"
    field_to_csv(mesh, random_smooth_field(mesh, np.random.default_rng(6)), path)
    code = ("import sys; from corevol.anomaly import field_from_csv; "
            "before = 'hashlib' in sys.modules; field_from_csv(sys.argv[1]); "
            "print(before, 'hashlib' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "False"]


def test_field_csv_hit_equals_a_fresh_parse_bitwise(tmp_path, field_cache, monkeypatch):
    # the second read of a file parses with no lookup pass: only the hit
    # hashes the file before parsing it
    lookups, digest_to_end = [], anomaly._HashingFile.digest_to_end
    monkeypatch.setattr(anomaly._HashingFile, "digest_to_end",
                        lambda raw: lookups.append(raw) or digest_to_end(raw))
    mesh = hyperbolic_mesh(33, 16)
    path = tmp_path / "field.csv"
    field_to_csv(mesh, random_smooth_field(mesh, np.random.default_rng(3)), path)
    blank = tmp_path / "blank_lines.csv"
    blank.write_text("n_t,n_theta,t_extent,circumference,tag\n\n"
                     "9,4,1.0,2.0,flat_cylinder\n" + grid_rows(9).replace("\n", "\n\n"))
    for file in (path, blank):
        ref_mesh, ref = fresh_parse(file)
        parses = field_cache.parses
        first_mesh, first = field_from_csv(file)
        miss_mesh, miss = field_from_csv(file)
        hit_mesh, hit = field_from_csv(file)
        assert field_cache.parses == parses + 2  # the third call is a hit
        assert len(lookups) == (1 if file is path else 2)
        assert mesh_params(hit_mesh) == mesh_params(miss_mesh) == mesh_params(ref_mesh)
        assert mesh_params(first_mesh) == mesh_params(ref_mesh)
        assert hit.tobytes() == miss.tobytes() == first.tobytes() == ref.tobytes()
        assert hit.flags.c_contiguous and hit_mesh is not miss_mesh
    assert kept(field_cache) == [hashlib.sha256(p.read_bytes()).digest() for p in (path, blank)]


def test_field_csv_returns_read_only_fields(tmp_path, field_cache):
    # the cache shares the field of a miss and of a hit: no caller can write
    # into it, nor make it writeable again
    mesh = hyperbolic_mesh(33, 16)
    path = tmp_path / "field.csv"
    field_to_csv(mesh, random_smooth_field(mesh, np.random.default_rng(5)), path)
    ref = fresh_parse(path)[1].tobytes()
    parses = field_cache.parses
    for call in ("first", "miss", "hit", "hit"):
        _, u = field_from_csv(path)
        assert not u.flags.writeable, call
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            u[3, 4] += 1.0
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            u.flags.writeable = True
        assert u.tobytes() == ref, call
    assert field_cache.parses == parses + 2
    assert anomaly_functionals(mesh, field_from_csv(path)[1]) == anomaly_functionals(
        mesh, fresh_parse(path)[1])


def test_field_csv_rewritten_file_with_its_old_mtime_is_parsed_again(tmp_path, field_cache):
    path = tmp_path / "rows.csv"
    header = "n_t,n_theta,t_extent,circumference,tag\n9,4,1.0,2.0,flat_cylinder\n"
    path.write_text(header + grid_rows(9))
    stamp = path.stat()
    field_from_csv(path)
    _, old = field_from_csv(path)
    assert len(kept(field_cache)) == 1
    # the same rows in reverse order: the same size, other content
    path.write_text(header + "".join(reversed(grid_rows(9).splitlines(keepends=True))))
    os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stamp.st_size, stamp.st_mtime_ns)
    _, new = field_from_csv(path)
    assert field_cache.parses == 3
    assert kept(field_cache) == [hashlib.sha256(path.read_bytes()).digest()]
    assert np.array_equal(new, old[::-1])
    assert new.tobytes() == fresh_parse(path)[1].tobytes()


def test_field_csv_file_rewritten_after_its_lookup_is_kept_under_the_bytes_parsed(
        tmp_path, field_cache, monkeypatch):
    path = tmp_path / "rows.csv"
    header = "n_t,n_theta,t_extent,circumference,tag\n9,4,1.0,2.0,flat_cylinder\n"
    rows = grid_rows(9).splitlines(keepends=True)
    old_text, new_text = header + "".join(rows), header + "".join(reversed(rows))
    moved_text = header + "".join(rows[1:] + rows[:1])
    path.write_text(old_text)
    field_from_csv(path)
    field_from_csv(path)  # kept under the old text
    path.write_text(moved_text)  # the lookup misses ...
    digest_to_end = anomaly._HashingFile.digest_to_end

    def rewrite_after_lookup(raw):
        digest = digest_to_end(raw)
        path.write_text(new_text)  # ... and in place: the open file reads the new bytes
        return digest

    with monkeypatch.context() as patch:
        patch.setattr(anomaly._HashingFile, "digest_to_end", rewrite_after_lookup)
        _, u = field_from_csv(path)
    assert kept(field_cache) == [hashlib.sha256(new_text.encode()).digest()]
    assert field_cache.parses == 3
    _, again = field_from_csv(path)  # a hit on the bytes parsed
    assert field_cache.parses == 3 and again.tobytes() == u.tobytes()
    path.write_text(old_text)
    _, old = field_from_csv(path)
    assert np.array_equal(u, old[::-1]) and field_cache.parses == 4


def test_field_csv_cache_keeps_no_failure(tmp_path, field_cache):
    path = tmp_path / "rows.csv"
    header = "n_t,n_theta,t_extent,circumference,tag\n9,4,1.0,2.0,flat_cylinder\n"
    # a file that failed, then fixed, parses: a failed read is not recorded,
    # so the fixed file is kept at its second read and hit at its third
    path.write_text(header + grid_rows(8))
    for _ in range(2):
        with pytest.raises(ValueError, match="8 grid rows, not n_t = 9"):
            field_from_csv(path)
    assert kept(field_cache) == []
    path.write_text(header + grid_rows(9))
    for _ in range(3):
        assert field_from_csv(path)[1][8, 3] == 0.1 * 8 + 0.01 * 3
    good = kept(field_cache)
    assert len(good) == 1 and field_cache.parses == 4
    # a file that parsed, then broke, raises the error of a fresh parse
    for broken, message in [(header + grid_rows(10), "more than n_t = 9 grid rows"),
                            (header + grid_rows(3) + "0.1,abc,0.3,0.4\n" + grid_rows(5),
                             "grid row 4: could not convert string to float: 'abc'")]:
        path.write_text(broken)
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                field_from_csv(path)
            assert str(err.value) == f"{path}: {message}"
    assert kept(field_cache) == good


def test_field_csv_non_utf8_error_is_unchanged_by_the_cache(tmp_path, field_cache):
    # the position in the message is counted within the decoder's chunk, as
    # when the file is read line by line through open(), on each path: the
    # first read, the second (through the hashing reader) and a later one
    # whose lookup misses
    mesh = hyperbolic_mesh(65, 64)
    good_path = tmp_path / "field.csv"
    field_to_csv(mesh, random_smooth_field(mesh, np.random.default_rng(4)), good_path)
    good = good_path.read_bytes()
    for position in (3, 8191, 8192, 20000, len(good) - 2):
        bad = good[:position] + b"\xff" + good[position + 1:]
        good_path.write_bytes(bad)
        with pytest.raises(UnicodeDecodeError) as expected:
            with open(good_path, encoding="utf-8") as fh:
                for _ in fh:
                    pass
        new = tmp_path / f"bad{position}.csv"  # a file not read before
        new.write_bytes(bad)
        good_path.write_bytes(good)
        field_from_csv(good_path)  # kept from the second read on
        field_from_csv(good_path)
        good_path.write_bytes(bad)
        for path, read in ((new, "first"), (new, "second"), (good_path, "later")):
            with pytest.raises(UnicodeDecodeError) as err:
                field_from_csv(path)
            assert str(err.value) == str(expected.value), (position, read)
        assert kept(field_cache) == [hashlib.sha256(good).digest()]
    # three failed parses per position, and the good file's first two reads
    assert field_cache.parses == 3 * 5 + 2


def test_field_csv_cache_evicts_oldest_first_within_its_budget(tmp_path, field_cache):
    # oldest: least recently read
    record = anomaly._FieldCache.ENTRY_BYTES
    entry_bytes = 9 * 4 * 8 + record
    field_cache.budget = 2 * entry_bytes + record
    paths = []
    for k in range(3):  # three files that differ in their t extent
        paths.append(tmp_path / f"field{k}.csv")
        paths[-1].write_text("n_t,n_theta,t_extent,circumference,tag\n"
                             f"9,4,{k + 1}.0,2.0,flat_cylinder\n" + grid_rows(9))
    digests = [hashlib.sha256(p.read_bytes()).digest() for p in paths]
    for path in paths + paths:  # the first read of a file is not kept
        field_from_csv(path)
    # the third field drops the first file, the least recently read
    assert list(field_cache) == [file_id(p) for p in paths[1:]]
    assert kept(field_cache) == digests[1:] and field_cache.nbytes == 2 * entry_bytes
    parses = field_cache.parses
    field_from_csv(paths[2])
    field_from_csv(paths[1])
    assert field_cache.parses == parses and kept(field_cache) == [digests[2], digests[1]]
    field_from_csv(paths[0])  # read once again: recorded, not kept
    field_from_csv(paths[0])  # kept, and the least recently read file goes
    assert field_cache.parses == parses + 2
    assert list(field_cache) == [file_id(paths[1]), file_id(paths[0])]
    assert kept(field_cache) == [digests[1], digests[0]]
    assert field_cache.nbytes == 2 * entry_bytes
    # a field over the whole budget is parsed and returned, not kept
    big = tmp_path / "big.csv"
    big.write_text("n_t,n_theta,t_extent,circumference,tag\n9,40,1.0,2.0,flat_cylinder\n"
                   + grid_rows(9, n_theta=40))
    for _ in range(3):
        assert field_from_csv(big)[1].nbytes + record > field_cache.budget
    assert list(field_cache) == [file_id(paths[1]), file_id(paths[0]), file_id(big)]
    assert kept(field_cache) == [digests[1], digests[0]] and field_cache.parses == parses + 5
    assert field_cache.nbytes == 2 * entry_bytes + record


def test_field_cache_counts_entries_of_minimal_fields_within_its_budget(field_cache):
    # on a file read once, and on an 8x4 field, the objects of a record,
    # not the field's 256 bytes, take most of its memory: ENTRY_BYTES counts
    # them
    field_cache.budget = 64 << 10
    record = anomaly._FieldCache.ENTRY_BYTES
    entry_bytes = 8 * 4 * 8 + record

    def read_once():
        for i in range(500):
            field_cache.record((0, i), None)

    assert traced_memory(read_once)[0] <= field_cache.budget
    assert len(field_cache) == field_cache.budget // record
    assert list(field_cache)[0] == (0, 500 - len(field_cache))
    field_cache.clear()
    field_cache.nbytes = 0

    def keep_fields():
        for i in range(500):
            mesh = flat_mesh(8, 4, T=1.0 + i)
            u = full(mesh, float(i))
            u.flags.writeable = False
            field_cache.record((1, i), (hashlib.sha256(u).digest(), mesh_params(mesh), u))

    assert traced_memory(keep_fields)[0] <= field_cache.budget
    assert len(field_cache) == field_cache.budget // entry_bytes
    assert field_cache.nbytes == len(field_cache) * entry_bytes


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_field_csv_from_a_pipe_bypasses_the_cache(tmp_path, field_cache):
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    text = "n_t,n_theta,t_extent,circumference,tag\n9,4,1.0,2.0,flat_cylinder\n" + grid_rows(9)
    for _ in range(3):
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        _, u = field_from_csv(path)
        writer.join(timeout=10.0)
        assert not writer.is_alive()
        assert u[8, 3] == 0.1 * 8 + 0.01 * 3
    assert len(field_cache) == 0 and field_cache.parses == 3


def test_field_cache_stays_within_its_budget_under_threads(field_cache):
    # eight threads record files and keep fields at once, each record
    # evicting, with the interpreter switching threads every microsecond
    mesh = flat_mesh(9, 4)
    u = full(mesh, 0.0)
    u.flags.writeable = False
    entry = hashlib.sha256(u).digest(), mesh_params(mesh), u
    entry_bytes = u.nbytes + anomaly._FieldCache.ENTRY_BYTES
    field_cache.budget = 3 * entry_bytes
    errors = []

    def store(k):
        try:
            for i in range(2000):
                field_cache.record((k, i), None)
                field_cache.record((k, i), entry)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=store, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # the count matches the records, the table is full, and the last record
    # made keeps a field
    assert field_cache.nbytes == sum(
        anomaly._FieldCache.ENTRY_BYTES + (e[2].nbytes if e else 0)
        for e in field_cache.values())
    assert field_cache.budget - entry_bytes < field_cache.nbytes <= field_cache.budget
    assert len(kept(field_cache)) >= 1


def traced_memory(call):
    """Bytes that numpy and Python hold after call() returns, and their peak
    during it, above what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def traced_peak(call):
    return traced_memory(call)[1]


def test_field_csv_peak_memory(tmp_path, field_cache):
    # the field itself and one row of text on the first read and on the miss
    # (the cache keeps the parsed field), the hashing reader's chunk on the
    # hit, which allocates no field
    mesh = hyperbolic_mesh(257, 256)
    u = random_smooth_field(mesh, np.random.default_rng(2))
    path = tmp_path / "field.csv"
    field_to_csv(mesh, u, path)
    for call, bound, n_kept in (("first", 1.5, 0), ("miss", 1.5, 1), ("hit", 0.25, 1)):
        assert traced_peak(lambda: field_from_csv(path)) <= bound * u.nbytes, call
        assert len(kept(field_cache)) == n_kept, call


# ------------------------------------------------------ row-block functionals

def gradient_energy(mesh, u):
    """int |grad u|^2 from the staggered differences, as one sum per part."""
    hyperbolic = mesh.tag == TAG_HYPERBOLIC
    t_mid = mesh.t[:-1] + 0.5 * mesh.dt
    t_coeff = np.cosh(t_mid) if hyperbolic else np.ones_like(t_mid)
    theta_coeff = 1.0 / np.cosh(mesh.t) if hyperbolic else np.ones(mesh.n_t)
    theta_coeff[[0, -1]] *= 0.5
    du_t = np.diff(u, axis=0) / mesh.dt
    du_theta = (np.roll(u, -1, axis=1) - u) / mesh.dtheta
    t_part = (t_coeff[:, None] * du_t ** 2).sum()
    theta_part = (theta_coeff[:, None] * du_theta ** 2).sum()
    return float(t_part + theta_part) * mesh.dt * mesh.dtheta


def boundary_flux(mesh, u):
    """The flux that closes summation by parts: u times the one-sided flux,
    corrected by the boundary operator, on the two boundary rows."""
    dt, lam = mesh.dt, anomaly._boundary_operator(mesh, u, u)
    b_mid = np.cosh(mesh.t[[0, -2]] + 0.5 * dt) if mesh.tag == TAG_HYPERBOLIC else (1.0, 1.0)
    g_bot = b_mid[0] * (u[1] - u[0]) / dt - 0.5 * dt * lam[0]
    g_top = b_mid[1] * (u[-1] - u[-2]) / dt + 0.5 * dt * lam[1]
    return float((u[-1] * g_top - u[0] * g_bot).sum()) * mesh.dtheta


def composed_report_values(mesh, u):
    """The anomaly report values from whole-mesh numpy arrays, each integral
    one weighted sum over all nodes."""
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
    values["liouville.variant"] = {TAG_HYPERBOLIC: "hyperbolic_piece",
                                   TAG_FLAT: "flat_piece"}[mesh.tag]
    values["liouville.residual_max"] = float(np.abs(residual).max())
    values["liouville.residual_rms"] = math.sqrt(integrate(mesh, residual ** 2) / area)
    values["integration_by_parts_defect"] = abs(
        integrate(mesh, u * laplacian(mesh, u)) + energy - boundary_flux(mesh, u))
    return values


def values_in_blocks(mesh, u, block_nodes, monkeypatch):
    """`anomaly_functionals` with BLOCK_NODES set to block_nodes."""
    with monkeypatch.context() as patch:
        patch.setattr(anomaly, "BLOCK_NODES", block_nodes)
        return anomaly_functionals(mesh, u)


def as_hex(values):
    return [(k, v if isinstance(v, str) else float.hex(v)) for k, v in values.items()]


def sample_fields(mesh, rng):
    return (random_smooth_field(mesh, rng), full(mesh, 0.0), full(mesh, rng.uniform(-1.0, 1.0)))


def assert_matches_reference(mesh, u, got):
    """The report against the whole-mesh reference.  The variant and the
    residual max (a max of the same nodal values) are equal.  Each sum is
    the same terms in another order, so it lies within 2 (log2 N + 2) u of
    the sum of their absolute values.  The Jensen value and the
    integration-by-parts defect (a roundoff quantity) lie within
    `roundoff_bound`."""
    want = composed_report_values(mesh, u)
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


def assert_matches_one_block(mesh, u, monkeypatch):
    """The sweep against one block of all rows, bit for bit, and both
    against the whole-mesh reference."""
    got = anomaly_functionals(mesh, u)
    assert as_hex(got) == as_hex(values_in_blocks(mesh, u, mesh.n_t * mesh.n_theta, monkeypatch))
    assert_matches_reference(mesh, u, got)


MESH_SIZES = [(9, 4), (9, 5), (17, 16), (33, 31), (65, 64), (129, 127), (257, 256)]


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
@pytest.mark.parametrize("n_t, n_theta", MESH_SIZES)
def test_functionals_bits_do_not_depend_on_block_size(tag, n_t, n_theta, monkeypatch):
    # every integral is an exact fsum over rows of weighted row sums, and a
    # row's sum does not depend on the block that holds it
    rng = np.random.default_rng(n_t * n_theta)
    mesh = SurfaceMesh(tag, rng.uniform(0.5, 2.5), rng.uniform(1.0, 9.0), n_t, n_theta)
    sizes = (2 * n_theta, 3 * n_theta, 7 * n_theta, anomaly.BLOCK_NODES, n_t * n_theta)
    for u in sample_fields(mesh, rng):
        bits = {str(as_hex(values_in_blocks(mesh, u, size, monkeypatch))) for size in sizes}
        assert len(bits) == 1


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
def test_residual_max_bitwise_equal_to_whole_mesh_residual(tag):
    rng = np.random.default_rng(11)
    for n_t, n_theta in MESH_SIZES + [(1025, 1024)]:
        mesh = SurfaceMesh(tag, rng.uniform(0.5, 2.5), rng.uniform(1.0, 9.0), n_t, n_theta)
        for u in sample_fields(mesh, rng):
            expected = np.abs(liouville_residual(mesh, u)).max()
            assert anomaly_functionals(mesh, u)["liouville.residual_max"] == expected


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
    # three block-sized work arrays (33 rows at 1025 x 1024), the per-row
    # sums and 1-d profiles: measured 0.439 and 0.122 of the field's bytes
    rng = np.random.default_rng(7)
    for n_t, limit in ((513, 0.45), (1025, 0.125)):
        mesh = SurfaceMesh(tag, 2.0, TWO_PI, n_t, n_t - 1)
        u = random_smooth_field(mesh, rng)
        assert traced_peak(lambda: anomaly_functionals(mesh, u)) <= limit * u.nbytes, n_t


GENERATED_FIELDS = [{"kind": "zero"}, {"kind": "constant", "value": -0.7},
                    {"kind": "theta_mode", "k": 3, "amplitude": 0.3}, {"kind": "log_sech_t"}]


def layouts(u):
    """u, a C copy, a Fortran-ordered copy and a view of every other row of
    a larger array, all with the values of u."""
    strided = np.zeros((2 * len(u), u.shape[1]))
    strided[::2] = u
    return u, np.array(u), np.asfortranarray(u), strided[::2]


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
@pytest.mark.parametrize("n_t, n_theta", [(9, 4), (17, 16), (65, 64), (257, 256), (1025, 1024)])
def test_functionals_bits_do_not_depend_on_field_layout(tag, n_t, n_theta, monkeypatch):
    # every field is read a block at a time as a C-contiguous array, so a
    # generated field's broadcast profile gives the bits of its copies
    mesh = SurfaceMesh(tag, 1.7, 5.3, n_t, n_theta)
    for field in GENERATED_FIELDS:
        u = _build_field(mesh, field)
        for block_nodes in (anomaly.BLOCK_NODES, 3 * n_theta):
            bits = {str(as_hex(values_in_blocks(mesh, v, block_nodes, monkeypatch)))
                    for v in layouts(u)}
            assert len(bits) == 1, (field, block_nodes)


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
@pytest.mark.parametrize("field", GENERATED_FIELDS)
def test_functionals_peak_memory_on_generated_field(tag, field):
    # the block-sized reads of the broadcast profile beside the three work
    # arrays, never the whole field: measured 0.157 of the field's bytes
    mesh = SurfaceMesh(tag, 2.0, TWO_PI, 1025, 1024)
    u = _build_field(mesh, field)
    assert traced_peak(lambda: anomaly_functionals(mesh, u)) <= 0.2 * mesh.n_t * mesh.n_theta * 8


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
@pytest.mark.parametrize("field", [{"kind": "theta_mode", "k": 2, "amplitude": 0.3},
                                   {"kind": "log_sech_t"}])
def test_build_field_peak_memory(tag, field):
    # the field itself, plus its 1-d profile
    mesh = SurfaceMesh(tag, 2.0, TWO_PI, 257, 256)
    field_bytes = mesh.n_t * mesh.n_theta * 8
    assert traced_peak(lambda: _build_field(mesh, field)) <= 1.1 * field_bytes


def mesh_evaluated_field(mesh, field):
    """An analytic field evaluated on the full (t, theta) mesh, node by node,
    with math."""
    if field["kind"] == "log_sech_t":
        f = np.vectorize(lambda t, th: -math.log(math.cosh(t)), otypes=[float])
    else:
        amp = field["amplitude"]
        omega = 2.0 * math.pi * field["k"] / mesh.circumference
        f = np.vectorize(lambda t, th: amp * math.sin(omega * th), otypes=[float])
    return on_mesh(mesh, f)


@pytest.mark.parametrize("tag", [TAG_HYPERBOLIC, TAG_FLAT])
@pytest.mark.parametrize("n_theta", [4, 7, 127, 128, 1000, 1024])
def test_build_field_bitwise_equal_to_mesh_evaluation(tag, n_theta):
    # the 1-d profile broadcast over the mesh has the bits of math evaluated
    # at every node: no SIMD path, whatever the lengths
    fields = [{"kind": "log_sech_t"}] + [
        {"kind": "theta_mode", "k": k, "amplitude": 0.1 * k + 0.07} for k in (1, 2, 3, 4)]
    for n_t in (17, 18, max(n_theta + 1, 8)):
        mesh = SurfaceMesh(tag, 1.7, 5.3, n_t, n_theta)
        for field in fields:
            built = _build_field(mesh, field)
            low, high = np.lib.array_utils.byte_bounds(built)
            assert not built.flags.writeable and high - low <= 8 * (mesh.n_t + mesh.n_theta)
            expected = mesh_evaluated_field(mesh, field)
            assert np.array_equal(built.view(np.int64), expected.view(np.int64)), (n_t, field)
