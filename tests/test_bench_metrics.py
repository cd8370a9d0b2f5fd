"""The benchmark's traced per-layer metrics need the program names that
perfbench/tracer.py wraps: a name the program drops takes its metrics out
of the traced result line.  This pins the traced metric set to the
`per_layer` list in BENCHMARK.json without running a workload, pins the
names the tracer finds missing, checks that traced CLI runs reach every
wrapped layer, and runs one block each of the renvol, wedge and anomaly
workloads through the benchmark's own checks."""

import importlib
import json
import math
from pathlib import Path

import pytest

from corevol import cli
from corevol.cli import main

ROOT = Path(__file__).resolve().parents[1]

# the tracer targets the program no longer has; a name that joins this list
# silently takes its per-layer metrics out of the benchmark
ABSENT = [
    "corevol.cli.pleated_profile",
    "corevol.renvol.adaptive_quad",
    "corevol.anomaly.laplacian",
    "corevol.anomaly.gradient_form",
    "corevol.anomaly.integrate",
    "corevol.anomaly.normalize_area",
    "corevol.anomaly.liouville_residual",
    "corevol.anomaly.boundary_flux",
    "corevol.anomaly.jensen_energy",
    "corevol.anomaly:SurfaceMesh.from_function",
]


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("tracer").Tracer()


def test_tracer_finds_every_name_but_the_pinned_absent_ones(monkeypatch):
    assert _tracer(monkeypatch).absent == ABSENT


def test_traced_cli_runs_reach_every_wrapped_layer(tmp_path, monkeypatch, capsys):
    group = {"mode": "fuchsian_group", "name": "btz",
             "generators": [{"p": -1.0, "q": 1.0, "length": 2.0}],
             "epsilon_grid": {"min": 1e-3, "max": 0.3, "count": 8}}
    core = {"mode": "pleated_core", "name": "one_leaf", "core_volume": 5.0,
            "leaves": [{"length": 2.0, "theta": math.pi / 2.0}], "boundary_genus": 2}
    tracer = _tracer(monkeypatch)
    tracer.install()
    try:
        for command, config in [("validate", group), ("renvol", group), ("wedge", core)]:
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            # through the module, where the tracer's wrapper of main is
            assert cli.main([command, "--config", str(path)]) == 0, command
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in ("main", "parse_config", "validate", "surface_invariants",
                 "profile_quadrature", "fit_expansion", "wedge_volume_quadrature"):
        assert tracer.calls[name] >= 1, name


def test_traced_metrics_are_the_declared_per_layer_set(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    run = importlib.import_module("run")
    result = {
        "trace": {
            "functions": tracer.function_table(),
            "counts": dict(tracer.counts),
            "layer_calls": tracer.layer_sums(tracer.calls),
            "layer_self_s": tracer.layer_sums(tracer.self_time),
            "op_s": 1.0,
            "overhead_ratios": [1.0],
        },
        "records": [],
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(run.per_layer(result)) == {m["name"] for m in declared["per_layer"]}


def test_one_block_of_anomaly_ops_passes_the_benchmark_checks(tmp_path, monkeypatch, capsys):
    # the area bound, the integration-by-parts bound, the Jensen sign and the
    # zero energy of constant fields, on every mesh size and field kind
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    csv_paths = {}
    for n_t, tag in workloads.CSV_FIELDS:
        path = tmp_path / f"field_{n_t}_{tag}.csv"
        path.write_text(workloads.csv_field_text(workloads.csv_mesh(1, n_t, tag)),
                        encoding="utf-8")
        csv_paths[(n_t, tag)] = path
    ops = workloads.anomaly_ops(1, csv_paths)[:len(workloads.ANOMALY_SLOTS)]
    assert sorted(op["kind"] for op in ops) == sorted(
        f"{n_t}x{n_t - 1}:{kind}" for n_t, _, kind in workloads.ANOMALY_SLOTS)
    config = tmp_path / "op.json"
    for op in ops:
        config.write_text(json.dumps(op["config"]), encoding="utf-8")
        assert main(["anomaly", "--config", str(config)]) == 0, op["kind"]
        checks.check_anomaly(op, capsys.readouterr().out)


# workload -> (command, its ops, the ops of one block)
QUADRATURE_WORKLOADS = {"renvol_sweep": ("renvol", "renvol_ops", "RENVOL_KINDS"),
                        "wedge_leaves": ("wedge", "wedge_ops", "WEDGE_LEAVES_PER_OP")}


@pytest.mark.parametrize("workload", sorted(QUADRATURE_WORKLOADS))
def test_one_block_of_quadrature_ops_passes_the_benchmark_checks(
        tmp_path, monkeypatch, capsys, workload):
    # the configs as the benchmark writes them, old keys included: the fit
    # bounds and closed forms of renvol, the wedge gaps and warnings of wedge
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    command, make_ops, per_block = QUADRATURE_WORKLOADS[workload]
    ops = getattr(workloads, make_ops)(1)[:len(getattr(workloads, per_block))]
    config = tmp_path / "op.json"
    for op in ops:
        config.write_text(json.dumps(op["config"]), encoding="utf-8")
        assert main([command, "--config", str(config)]) == 0, op["kind"]
        checks.CHECKS[command](op, capsys.readouterr().out)
