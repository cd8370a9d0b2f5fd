"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import json
import math
import time

import numpy as np
import pytest

from conftest import (
    fuchsian_reduction_check,
    full,
    integrate,
    level_set_area,
    liouville_residual,
    on_mesh,
)
from corevol.anomaly import TAG_FLAT, TAG_HYPERBOLIC, SurfaceMesh, anomaly_functionals
from corevol.cli import main
from corevol.pleated import PleatLeaf, wedge_volume_quadrature
from corevol.renvol import (
    Convention,
    closed_volume,
    default_eps_grid,
    fit_expansion,
    profile_quadrature,
    truncated_volume_quadrature,
)
from corevol.surface import surface_invariants

BTZ_CONFIG = {
    "mode": "fuchsian_group",
    "name": "btz",
    "generators": [{"p": -1.0, "q": 1.0, "length": 2.0}],
    "convention": "both",
}


def _report_dict(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _ok(n, message):
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_btz_worked_example(tmp_path, capsys):
    start = time.perf_counter()
    config = tmp_path / "btz.json"
    config.write_text(json.dumps(BTZ_CONFIG), encoding="utf-8")
    code = main(["renvol", "--config", str(config)])
    report = _report_dict(capsys.readouterr().out)
    elapsed = time.perf_counter() - start

    assert code == 0
    assert report["surface.ends"] == "2"
    assert report["surface.genus"] == "0"
    lengths = [float(x) for x in report["surface.end_lengths"].split(", ")]
    assert lengths == pytest.approx([2.0, 2.0], rel=1e-12)
    assert float(report["surface.core_area"]) == 0.0
    assert float(report["fit.V"]) == pytest.approx(-math.pi, abs=1e-4)
    assert float(report["closed.derived.V"]) == pytest.approx(-math.pi, rel=1e-12)
    assert float(report["closed.paper.V"]) == pytest.approx(-2.0 * math.pi, rel=1e-12)
    assert elapsed < 10.0
    _ok(1, f"pipeline e=2 k=0 L=(2,2), fitted V={report['fit.V']} "
           f"(paper -2pi, derived -pi both printed) in {elapsed:.1f}s")


def test_criterion_2_coarea_identity(surface_s1, surface_adjacent):
    start = time.perf_counter()
    h = 1e-3
    worst = 0.0
    for surface in (surface_s1, surface_adjacent):
        for lam in (0.5, 1.0, 2.0):
            plus = truncated_volume_quadrature(surface, math.exp(-(lam + h)))
            minus = truncated_volume_quadrature(surface, math.exp(-(lam - h)))
            derivative = (plus - minus) / (2.0 * h)
            area = level_set_area(surface, lam)
            worst = max(worst, abs(derivative - area) / area)
            assert abs(derivative - area) / area <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(2, f"|dVol/dlambda - Area| / Area <= {worst:.2e} at lambda in "
           f"{{0.5, 1, 2}} for g=1 and g=2 in {elapsed:.1f}s")


def test_criterion_3_fit_exactness_and_stability(surface_s1):
    eps = np.geomspace(0.2, 0.001, 12)
    truth = (3.0, -1.0, -2.0, 0.5)
    vols = truth[0] * eps ** -2 + truth[1] * np.log(eps) + truth[2] + truth[3] * eps ** 2
    fit = fit_expansion(eps, vols)
    recovered = (fit.c_m2, fit.c_log, fit.v, fit.c_2)
    worst = max(abs(a - b) for a, b in zip(recovered, truth))
    assert worst <= 1e-8

    base = fit_expansion(*zip(*profile_quadrature(surface_s1, default_eps_grid()).samples))
    doubled_grid = default_eps_grid(eps_min=2e-3, eps_max=0.6)
    doubled = fit_expansion(*zip(*profile_quadrature(surface_s1, doubled_grid).samples))
    shift = abs(base.v - doubled.v)
    assert shift < 1e-4
    _ok(3, f"synthetic coefficients recovered to {worst:.2e}; fitted V shifts "
           f"{shift:.2e} under eps-grid doubling")


def test_criterion_4_structure_constant(surface_s1, surface_adjacent,
                                        surface_crossed):
    ratios = []
    for surface in (surface_s1, surface_adjacent, surface_crossed):
        fit = fit_expansion(*zip(*profile_quadrature(surface, default_eps_grid()).samples))
        ratios.append(fit.v / surface.total_end_length)
    spread = max(ratios) - min(ratios)
    assert spread <= 1e-4
    for r in ratios:
        assert abs(r - (-math.pi / 4.0)) <= 1e-4
        assert abs(r - (-math.pi / 2.0)) > 0.5  # printed constant is flagged, not fit
    _ok(4, f"fitted V / sum(L) = {ratios[0]:.6f} across 3 groups "
           f"(spread {spread:.2e}), matching -pi/4; -pi/2 flagged as discrepant")


def test_criterion_5_figure_dichotomy(g2_adjacent, g2_crossed):
    infos = []
    for group in (g2_adjacent, g2_crossed):
        info = surface_invariants(group)  # endpoint matching gate
        assert info.handlebody_genus == 2 * info.genus + info.ends - 1 == 2
        infos.append((info.ends, info.genus))
    assert sorted(infos) == [(1, 1), (3, 0)]
    _ok(5, "four circles pair to (e,k)=(3,0) and (1,1), both with g=2k+e-1=2, "
           "endpoints matched to 1e-8")


def test_criterion_6_pleated_fuchsian_consistency(surface_s1, surface_adjacent,
                                                  surface_crossed):
    for surface in (surface_s1, surface_adjacent, surface_crossed):
        for conv in Convention:
            passed, report = fuchsian_reduction_check(surface, conv)
            assert passed, report
    _ok(6, "pleated formula at theta=0 reproduces the Fuchsian value exactly "
           "for all test groups under both conventions")


def test_criterion_7_wedge_oracle():
    start = time.perf_counter()
    worst = 0.0
    for length in (1.0, 2.0):
        for theta in (math.pi / 3.0, 2.0 * math.pi / 3.0):
            for eps in (math.exp(-1.0), 0.2):
                leaf = PleatLeaf(length, theta)
                quad = wedge_volume_quadrature((leaf,), eps)[0][0]
                wedge = [("wedge", (math.pi - theta) * length)]
                closed = closed_volume(wedge, eps, Convention.DERIVED)
                rel = abs(quad - closed) / abs(closed)
                worst = max(worst, rel)
                assert rel <= 1e-5
    assert wedge_volume_quadrature((PleatLeaf(1.0, math.pi),), 0.2)[0][0] == 0.0
    v1 = wedge_volume_quadrature((PleatLeaf(0.7, 1.1),), 0.25)[0][0]
    v2 = wedge_volume_quadrature((PleatLeaf(1.4, 1.1),), 0.25)[0][0]
    assert abs(v2 - 2.0 * v1) / abs(v2) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(7, f"3d wedge quadrature within {worst:.2e} of (pi-theta) L sinh^2/2 "
           f"on the 2x2x2 grid; theta=pi exact zero; linear in L; {elapsed:.1f}s")


def test_criterion_8_jensen_positivity():
    mesh = SurfaceMesh(TAG_HYPERBOLIC, 2.0, 2.0 * math.pi, 128, 128)
    rng = np.random.default_rng(2024)
    t, th = np.meshgrid(mesh.t, mesh.theta, indexing="ij")
    lowest = math.inf
    for _ in range(100):
        u = np.zeros_like(t)
        for k in range(1, 4):
            a, b = rng.normal(size=2) / k
            omega = 2.0 * math.pi * k / mesh.circumference
            u += (a * np.sin(omega * th) + b * np.cos(omega * th)) * np.exp(
                -0.4 * k * t ** 2
            )
        values = anomaly_functionals(mesh, u)
        energy, area = values["jensen_energy_normalized"], values["mesh.area"]
        # the report's Jensen energy is that of the area-normalized u - c
        shift = 0.5 * math.log(integrate(mesh, np.exp(2.0 * u)) / area)
        scale = 1.0 + np.abs(u - shift).max() * area
        lowest = min(lowest, energy / scale)
        assert energy >= -1e-6 * scale
    assert anomaly_functionals(mesh, full(mesh, 0.0))["jensen_energy_normalized"] == 0.0
    _ok(8, f"E(u) >= 0 for 100 random area-normalized fields "
           f"(min scaled energy {lowest:.3e}); E(0) = 0 exactly")


def test_criterion_9_liouville_residuals():
    hyp = SurfaceMesh(TAG_HYPERBOLIC, 2.0, 2.0 * math.pi, 65, 32)
    flat = SurfaceMesh(TAG_FLAT, 2.0, 2.0 * math.pi, 65, 32)
    assert anomaly_functionals(hyp, full(hyp, 0.0))["liouville.residual_max"] == 0.0
    flat_values = anomaly_functionals(flat, full(flat, 0.0))  # -1 at every node
    assert flat_values["liouville.residual_max"] == flat_values["liouville.residual_rms"] == 1.0

    def err(n_t):
        mesh = SurfaceMesh(TAG_FLAT, 2.0, 2.0 * math.pi, n_t, 16)
        phi = on_mesh(mesh, lambda t, th: -np.log(np.cosh(t)))
        residual = liouville_residual(mesh, phi)
        return np.abs(residual - (-2.0 / np.cosh(mesh.t) ** 2)[:, None]).max()

    order = math.log2(err(65) / err(129))
    assert order >= 1.9
    _ok(9, f"phi=0 residuals exact (0 and -1); grid convergence order "
           f"{order:.2f} on the -log cosh t field")


def test_criterion_10_determinism(tmp_path, capsys):
    config = tmp_path / "btz.json"
    config.write_text(json.dumps(BTZ_CONFIG), encoding="utf-8")
    for name in ("first", "second"):
        code = main(["renvol", "--config", str(config), "--out",
                     str(tmp_path / name), "--csv"])
        assert code == 0
        capsys.readouterr()
    files = ["report.txt", "profile_quadrature.csv",
             "profile_closed_form_paper.csv", "profile_closed_form_derived.csv"]
    for fname in files:
        a = (tmp_path / "first" / fname).read_bytes()
        b = (tmp_path / "second" / fname).read_bytes()
        assert a == b, fname
    _ok(10, f"re-run byte-identical across {len(files)} artifacts")
