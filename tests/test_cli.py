import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corevol import cli, pleated, renvol
from corevol.cli import COMMANDS, main, parse_config, ConfigError
from corevol.renvol import Convention, closed_volume
from corevol.schottky import SchottkyError

ROOT = Path(__file__).resolve().parents[1]

BTZ_CONFIG = {
    "mode": "fuchsian_group",
    "name": "btz",
    "generators": [{"p": -1.0, "q": 1.0, "length": 2.0}],
    "convention": "both",
}

G2_CONFIG = {
    "mode": "fuchsian_group",
    "name": "g2_adjacent",
    "circles": [
        {"center": -3.0, "radius": 0.4},
        {"center": -1.0, "radius": 0.4},
        {"center": 1.0, "radius": 0.4},
        {"center": 3.0, "radius": 0.4},
    ],
    "pairings": [],  # filled below
}

WEDGE_CONFIG = {
    "mode": "pleated_core",
    "name": "one_leaf",
    "core_volume": 5.0,
    "leaves": [{"length": 2.0, "theta": math.pi / 2.0}],
    "boundary_genus": 2,
}

ANOMALY_CONFIG = {
    "mode": "anomaly_check",
    "name": "cyl",
    "mesh": {"tag": "hyperbolic_cylinder", "t_extent": 2.0,
             "circumference": 2.0 * math.pi, "n_t": 65, "n_theta": 32},
    "field": {"kind": "theta_mode", "k": 1, "amplitude": 0.2},
}


def _fill_g2():
    from conftest import pairing_from_circles
    from corevol.schottky import Circle

    circles = [Circle(c["center"], c["radius"]) for c in G2_CONFIG["circles"]]
    pairs = []
    for i, j in [(0, 1), (2, 3)]:
        m = pairing_from_circles(circles[i], circles[j])
        pairs.append({"source": i, "target": j, "matrix": [m.a, m.b, m.c, m.d]})
    G2_CONFIG["pairings"] = pairs


_fill_g2()


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def report_dict(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_validate_command(tmp_path, capsys):
    code = main(["validate", "--config", write_config(tmp_path, BTZ_CONFIG)])
    assert code == 0
    report = report_dict(capsys.readouterr().out)
    assert report["valid"] == "true"
    assert report["group.genus_handlebody"] == "1"


def test_validate_reports_overlap_as_json(tmp_path, capsys):
    bad = {
        "mode": "fuchsian_group",
        "circles": [{"center": -1.0, "radius": 1.5}, {"center": 1.0, "radius": 1.5}],
        "pairings": [{"source": 0, "target": 1, "matrix": [1.0, 0.0, 0.0, 1.0]}],
    }
    code = main(["validate", "--config", write_config(tmp_path, bad)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "overlapping_disks"
    assert payload["error"]["circles"] == [0, 1]


def _validate_g2(tmp_path, mutate):
    """`validate` on a copy of G2_CONFIG after `mutate` edits it in place."""
    config = json.loads(json.dumps(G2_CONFIG))
    mutate(config)
    return main(["validate", "--config", write_config(tmp_path, config)])


@pytest.mark.parametrize("kind, mutate", [
    ("bad_count", lambda c: c["pairings"].pop()),
    ("bad_radius", lambda c: c["circles"][1].update(radius=-0.4)),
    ("overlapping_disks", lambda c: c["circles"][1].update(center=-2.5)),
    ("bad_index", lambda c: c["pairings"][1].update(target=7)),
    ("self_paired", lambda c: c["pairings"][1].update(target=2)),
    ("reused_circle", lambda c: c["pairings"][1].update(source=1)),
    ("circle_mismatch", lambda c: c["pairings"][0].update(matrix=[1.0, 0.0, 0.0, 1.0])),
    # z -> z + 2 carries circle 0 onto circle 1 but fixes infinity
    ("exterior_not_contracted",
     lambda c: c["pairings"][0].update(matrix=[1.0, 2.0, 0.0, 1.0])),
])
def test_every_group_error_kind_is_one_json_object(tmp_path, capsys, kind, mutate):
    assert _validate_g2(tmp_path, mutate) == 2
    assert _one_error(capsys)["kind"] == kind


@pytest.mark.parametrize("matrix", [[1e200, 1e200, 1e200, 1e200], [1e200, 0.0, 0.0, 1e200]])
def test_overflowing_pairing_matrix_is_a_value_error(tmp_path, capsys, matrix):
    # the determinant overflows to nan or inf: not a valid map, and not a
    # fault of the circles
    assert _validate_g2(tmp_path, lambda c: c["pairings"][0].update(matrix=matrix)) == 2
    error = _one_error(capsys)
    assert error["kind"] == "value"
    assert "is not finite" in error["message"]


def test_surface_info_command(tmp_path, capsys):
    code = main(["surface-info", "--config", write_config(tmp_path, G2_CONFIG)])
    assert code == 0
    report = report_dict(capsys.readouterr().out)
    assert report["surface.ends"] == "3"
    assert report["surface.genus"] == "0"


def test_renvol_pipeline_report(tmp_path, capsys):
    code = main([
        "renvol", "--config", write_config(tmp_path, BTZ_CONFIG),
        "--out", str(tmp_path / "out"), "--csv",
    ])
    assert code == 0
    report = report_dict(capsys.readouterr().out)
    assert float(report["closed.paper.V"]) == pytest.approx(-2.0 * math.pi)
    assert float(report["closed.derived.V"]) == pytest.approx(-math.pi)
    assert float(report["fit.V"]) == pytest.approx(-math.pi, abs=1e-4)
    assert "warning.1" in report
    out = tmp_path / "out"
    assert (out / "report.txt").exists()
    csv_text = (out / "profile_quadrature.csv").read_text()
    assert csv_text.splitlines()[0] == "epsilon,lambda,vol,provenance"
    assert csv_text.count("quadrature") == 12


README_G2_CONFIG = {
    "mode": "fuchsian_group",
    "circles": [{"center": -3.0, "radius": 0.4}, {"center": -1.0, "radius": 0.4},
                {"center": 1.0, "radius": 0.4}, {"center": 3.0, "radius": 0.4}],
    "pairings": [{"source": 0, "target": 1, "matrix": [-2.5, -7.9, 2.5, 7.5]},
                 {"source": 2, "target": 3, "matrix": [7.5, -7.9, 2.5, -2.5]}],
}


def test_coarse_quad_tol_does_not_blame_the_derived_convention(tmp_path, capsys):
    # the oracle once ran at a settable tolerance, and a coarse one made the
    # fit blame the derived convention; every slab is at rounding level now
    code = main(["renvol", "--config", write_config(tmp_path, README_G2_CONFIG),
                 "--convention", "derived"])
    assert code == 0
    text = capsys.readouterr().out
    assert float(report_dict(text)["discrepancy.fit_vs_derived.V"]) <= 1e-8
    assert "does not support" not in text


README_PLEATED_CONFIG = {"mode": "pleated_core", "core_volume": 5.0,
                         "leaves": [{"length": 2.0, "theta": 1.5707963267948966}],
                         "boundary_genus": 2}
README_ANOMALY_CONFIG = {
    "mode": "anomaly_check",
    "mesh": {"tag": "hyperbolic_cylinder", "t_extent": 2.0,
             "circumference": 6.283185307179586, "n_t": 129, "n_theta": 128},
    "field": {"kind": "theta_mode", "k": 1, "amplitude": 0.2},
}
# runs `main` on each (command, config path) of argv[1] in one fresh
# interpreter and prints one JSON object: after `import corevol`, after
# `import corevol.cli` and after each command, which watched modules are
# loaded, and for each watched module the module whose code imported it
IMPORT_PROBE = """
import contextlib, io, json, sys

WATCHED = ("numpy", "scipy", "dataclasses", "inspect", "hashlib", "argparse")
importers = {}


class Witness:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name in WATCHED and name not in importers:
            frame = sys._getframe(1)
            while frame.f_code.co_filename.startswith("<frozen importlib"):
                frame = frame.f_back
            importers[name] = frame.f_globals.get("__name__")
        return None


sys.meta_path.insert(0, Witness)
steps = []


def step(name):
    steps.append([name, [m for m in WATCHED if m in sys.modules]])


step("start")
import corevol
step("import corevol")
import corevol.cli
step("import corevol.cli")
for command, path in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = corevol.cli.main([command, "--config", path])
    step(f"{command} {code}")
print(json.dumps({"steps": steps, "importers": importers}))
"""


def test_only_anomaly_loads_numpy(tmp_path):
    # the README configs: every Fuchsian and pleated command runs without
    # numpy, and anomaly, which needs it, still runs after them.  scipy and
    # dataclasses are never loaded; inspect is loaded only by numpy's own
    # import (numpy._core.overrides imports it), so not before anomaly.
    # hashlib is never loaded: a csv field read once in a process is parsed
    # without the field cache's hashing; argparse is never loaded: the command
    # line is parsed from the OPTIONS table
    mesh = README_ANOMALY_CONFIG["mesh"]
    field = tmp_path / "field.csv"
    field.write_text("n_t,n_theta,t_extent,circumference,tag\n"
                     f"{mesh['n_t']},{mesh['n_theta']},{mesh['t_extent']!r},"
                     f"{mesh['circumference']!r},{mesh['tag']}\n"
                     + f"{','.join(['0.25'] * mesh['n_theta'])}\n" * mesh["n_t"],
                     encoding="utf-8")
    csv_config = dict(README_ANOMALY_CONFIG, field={"kind": "csv", "path": str(field)})
    runs = [(command, write_config(tmp_path, config, f"{k}.json"))
            for k, (command, config) in enumerate([
                ("validate", BTZ_CONFIG), ("surface-info", README_G2_CONFIG),
                ("renvol", BTZ_CONFIG), ("renvol", README_G2_CONFIG),
                ("wedge", README_PLEATED_CONFIG), ("anomaly", README_ANOMALY_CONFIG),
                ("anomaly", csv_config)])]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(runs)], env=env,
                         check=True, capture_output=True, text=True).stdout
    probe = json.loads(out)
    assert probe["steps"] == [
        ["start", []], ["import corevol", []], ["import corevol.cli", []],
        ["validate 0", []], ["surface-info 0", []], ["renvol 0", []], ["renvol 0", []],
        ["wedge 0", []], ["anomaly 0", ["numpy", "inspect"]],
        ["anomaly 0", ["numpy", "inspect"]],
    ]
    importers = probe["importers"]
    assert sorted(importers) == ["inspect", "numpy"]
    assert importers["numpy"].startswith("corevol.")
    assert importers["inspect"].startswith("numpy.")


# pathlib cannot join WATCHED: the interpreter's site module may already have
# loaded it through a .pth file, so the import statements are checked instead
def test_no_module_imports_argparse_or_pathlib():
    package = Path(cli.__file__).resolve().parent
    imported = set()
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((source.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add((source.name, node.module.split(".")[0]))
    assert "cli.py" in {name for name, _ in imported}
    assert sorted(m for m in imported if m[1] in ("argparse", "pathlib")) == []


def test_renvol_single_convention_flag(tmp_path, capsys):
    code = main([
        "renvol", "--config", write_config(tmp_path, BTZ_CONFIG),
        "--convention", "derived",
    ])
    assert code == 0
    report = report_dict(capsys.readouterr().out)
    assert "closed.derived.V" in report
    assert "closed.paper.V" not in report


def test_wedge_flat_leaf_returns_core_volume(tmp_path, capsys):
    config = {
        "mode": "pleated_core",
        "name": "flat",
        "core_volume": 5.0,
        "leaves": [{"length": 2.0, "theta": math.pi}],
        "boundary_genus": 2,
    }
    code = main(["wedge", "--config", write_config(tmp_path, config)])
    assert code == 0
    report = report_dict(capsys.readouterr().out)
    assert float(report["closed.paper.V"]) == pytest.approx(5.0)
    assert float(report["closed.derived.V"]) == pytest.approx(5.0)
    assert float(report["leaf.0.wedge_quadrature_at_eps_check"]) == 0.0


@pytest.mark.parametrize("csv", [False, True])
def test_wedge_without_bending_or_boundary(tmp_path, capsys, csv):
    # the profile is constant: the core volume at every eps
    config = {"mode": "pleated_core", "core_volume": 2.0,
              "leaves": [{"length": 1.0, "theta": math.pi}]}
    out = tmp_path / "out"
    flags = ["--out", str(out), "--csv"] if csv else []
    assert main(["wedge", "--config", write_config(tmp_path, config)] + flags) == 0
    report = report_dict(capsys.readouterr().out)
    assert report["closed.paper.V"] == report["closed.derived.V"] == "2.0"
    for conv in ("paper", "derived") if csv else ():
        rows = (out / f"profile_closed_form_{conv}.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["2.0"] * 12


def test_wedge_makes_one_quadrature_batch_call(tmp_path, capsys, monkeypatch):
    batches, cells = [], []
    sector_areas, cell = pleated._sector_areas, renvol._cell

    def batched(eps_values, thetas):
        batches.append(list(thetas))
        return sector_areas(eps_values, thetas)

    def counted(f, left, right):
        cells.append(f.__name__)
        return cell(f, left, right)

    # the wedge slices are integrated by renvol's sector oracle, every leaf
    # in one batch, and the report counts the cells that batch evaluated
    monkeypatch.setattr(pleated, "_sector_areas", batched)
    monkeypatch.setattr(renvol, "_cell", counted)
    leaves = [{"length": 1.0, "theta": theta} for theta in (0.0, 1.0, 2.0, math.pi)]
    config = dict(WEDGE_CONFIG, leaves=leaves)
    assert main(["wedge", "--config", write_config(tmp_path, config)]) == 0
    report = report_dict(capsys.readouterr().out)
    assert batches == [[0.0, 1.0, 2.0, math.pi]]
    assert report["quadrature.cells"] == str(len(cells))
    # theta = 0 has two arc cells, 1 and 2 a cubic and an arc, pi neither
    assert cells == ["_arc", "_arc", "_cubic", "_arc", "_cubic", "_arc"]
    for i in range(len(leaves)):
        assert float(report[f"leaf.{i}.wedge_quadrature_err_est"]) >= 0.0


@pytest.mark.parametrize("grid", [{"min": 1e-150, "max": 0.3},  # eps check 5.5e-76
                                  {"min": 1e-5, "max": 0.1},
                                  {"min": 0.02, "max": 0.5}])
def test_wedge_theta_near_zero_is_quiet_and_equals_theta_zero(tmp_path, grid):
    # slope = cot(1e-300) times x up to sinh(lam) overflows to inf, which
    # picks the arc exactly as theta = 0 does, and warns nothing
    leaves = [{"length": 1.0, "theta": 1e-300}, {"length": 1.0, "theta": 0.0}]
    config = dict(WEDGE_CONFIG, leaves=leaves, epsilon_grid=dict(grid, count=12))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "corevol.cli", "wedge", "--config",
                          write_config(tmp_path, config)],
                         env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    report = report_dict(run.stdout)
    for key in ("wedge_derived_at_eps_check", "wedge_quadrature_at_eps_check",
                "wedge_quadrature_err_est"):
        assert report[f"leaf.0.{key}"] == report[f"leaf.1.{key}"]


def test_wedge_worked_example(tmp_path, capsys):
    code = main(["wedge", "--config", write_config(tmp_path, WEDGE_CONFIG)])
    assert code == 0
    report = report_dict(capsys.readouterr().out)
    assert float(report["closed.paper.V"]) == pytest.approx(5.0 - math.pi / 2.0)
    assert float(report["closed.derived.V"]) == pytest.approx(5.0 - math.pi / 4.0)
    quad = float(report["leaf.0.wedge_quadrature_at_eps_check"])
    derived = float(report["leaf.0.wedge_derived_at_eps_check"])
    assert quad == pytest.approx(derived, rel=1e-5)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(leaves=st.lists(st.tuples(st.floats(0.0, math.pi),
                                 st.floats(0.0, 50.0, exclude_min=True)), min_size=1, max_size=4),
       ends=st.lists(st.floats(cli.EPS_FLOOR, 1.0, exclude_max=True), min_size=2, max_size=2,
                     unique=True))
def test_wedge_derived_is_each_leaf_closed_form(tmp_path_factory, leaves, ends):
    # the report takes every leaf's closed form from one unit wedge per op;
    # each must be the closed_volume of that leaf's own wedge term, bit for bit
    config = dict(WEDGE_CONFIG, leaves=[{"length": length, "theta": theta}
                                        for theta, length in leaves],
                  epsilon_grid={"min": min(ends), "max": max(ends)})
    path = tmp_path_factory.mktemp("wedge") / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["wedge", "--config", str(path)]) == 0
    report = report_dict(out.getvalue())
    eps_check = float(report["eps.check"])
    for i, (theta, length) in enumerate(leaves):
        wedge = [("wedge", (math.pi - theta) * length)]
        assert report[f"leaf.{i}.wedge_derived_at_eps_check"] == repr(
            closed_volume(wedge, eps_check, Convention.DERIVED))


IDENTITY_PAIRING = {"source": 0, "target": 1, "matrix": [1.0, 0.0, 0.0, 1.0]}


@pytest.mark.parametrize("command, config, keys", [
    ("validate", dict(BTZ_CONFIG, pairings=[IDENTITY_PAIRING]), ("pairings", "generators")),
    ("validate", dict(BTZ_CONFIG, circles=G2_CONFIG["circles"]), ("circles", "generators")),
    ("wedge", dict(WEDGE_CONFIG, boundary_area=1.0, boundary_genus=3),
     ("boundary_area", "boundary_genus")),
], ids=["generators_pairings", "generators_circles", "boundary_area_genus"])
@pytest.mark.parametrize("echo", [False, True])
def test_contradictory_keys_are_a_config_error(tmp_path, capsys, command, config, keys, echo):
    # neither key of a contradictory pair is dropped in silence
    argv = [command, "--config", write_config(tmp_path, config)]
    assert main(argv + ["--echo-config"] * echo) == 1
    error = _one_error(capsys)
    assert error["kind"] == "config"
    assert all(key in error["message"] for key in keys)


def test_wedge_genus_three_boundary_area(tmp_path, capsys):
    config = dict(WEDGE_CONFIG, boundary_genus=3)
    assert main(["wedge", "--config", write_config(tmp_path, config)]) == 0
    report = report_dict(capsys.readouterr().out)
    assert float(report["core.boundary_area"]) == pytest.approx(8.0 * math.pi, rel=1e-15)


def test_anomaly_command(tmp_path, capsys):
    code = main(["anomaly", "--config", write_config(tmp_path, ANOMALY_CONFIG)])
    assert code == 0
    report = report_dict(capsys.readouterr().out)
    assert float(report["integration_by_parts_defect"]) <= 1e-8
    assert float(report["mesh.area"]) == pytest.approx(
        float(report["mesh.analytic_area"]), rel=1e-3
    )
    assert float(report["jensen_energy_normalized"]) >= -1e-8


def test_rerun_is_byte_identical(tmp_path, capsys):
    config = write_config(tmp_path, BTZ_CONFIG)
    outputs = []
    for name in ("a", "b"):
        code = main(["renvol", "--config", config, "--out",
                     str(tmp_path / name), "--csv"])
        assert code == 0
        capsys.readouterr()
    for fname in ("report.txt", "profile_quadrature.csv",
                  "profile_closed_form_paper.csv", "profile_closed_form_derived.csv"):
        a = (tmp_path / "a" / fname).read_bytes()
        b = (tmp_path / "b" / fname).read_bytes()
        assert a == b, fname


def test_echo_config_roundtrip(tmp_path, capsys):
    code = main(["renvol", "--config", write_config(tmp_path, G2_CONFIG),
                 "--echo-config"])
    assert code == 0
    echoed = json.loads(capsys.readouterr().out)
    assert parse_config(echoed) == echoed


def test_flag_overrides_apply(tmp_path, capsys):
    # the file's grid is invalid on its own; the flags are checked after
    # they are merged in, so they can repair it
    config = dict(BTZ_CONFIG, epsilon_grid={"count": 4})
    code = main(["renvol", "--config", write_config(tmp_path, config),
                 "--eps-min", "0.002", "--eps-max", "0.25", "--eps-count", "9",
                 "--echo-config"])
    assert code == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["epsilon_grid"] == {"min": 0.002, "max": 0.25, "count": 9}


@pytest.mark.parametrize("tol", [-1.0, 0.0, 1e-9, 1e300, "coarse"])
def test_old_quadrature_tol_key_is_dropped_like_any_unknown_key(tmp_path, capsys, tol):
    # the oracle has one accuracy, rounding level: an old config's
    # quadrature_tol runs, and changes neither the config nor the report
    plain = main(["renvol", "--config", write_config(tmp_path, BTZ_CONFIG)])
    report = capsys.readouterr().out
    old = write_config(tmp_path, dict(BTZ_CONFIG, quadrature_tol=tol), name="old.json")
    assert (plain, main(["renvol", "--config", old])) == (0, 0)
    assert capsys.readouterr().out == report
    assert "quadrature.tol" not in report
    assert main(["renvol", "--config", old, "--echo-config"]) == 0
    assert "quadrature_tol" not in json.loads(capsys.readouterr().out)


def test_quad_tol_flag_is_a_usage_error(tmp_path, capsys):
    assert main(["renvol", "--config", write_config(tmp_path, BTZ_CONFIG),
                 "--quad-tol", "1e-8"]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out) == {
        "error": {"kind": "usage", "message": "unknown option '--quad-tol'"}}


# name -> (argv, with CONFIG standing for the path of a valid config, and a
# fragment of the usage message); only the command line is at fault
BAD_ARGV = {
    "no_arguments": ([], "missing command"),
    "unknown_command": (["renvolume", "--config", "CONFIG"], "unknown command 'renvolume'"),
    "empty_command": (["", "--config", "CONFIG"], "unknown command ''"),
    "second_command": (["renvol", "wedge", "--config", "CONFIG"],
                       "unexpected argument 'wedge'"),
    "unknown_option": (["renvol", "--config", "CONFIG", "--quad-tol", "1e-8"],
                       "unknown option '--quad-tol'"),
    "short_option": (["renvol", "-c", "CONFIG"], "unexpected argument '-c'"),
    "abbreviated_option": (["renvol", "--conf", "CONFIG"], "unknown option '--conf'"),
    "abbreviated_option_with_equals": (["renvol", "--conf=CONFIG"],
                                       "unknown option '--conf'"),
    "missing_command": (["--config", "CONFIG"], "missing command"),
    "missing_config": (["renvol"], "missing option --config"),
    "missing_config_with_flags": (["renvol", "--csv", "--eps-count", "9"],
                                  "missing option --config"),
    "config_value_at_end": (["renvol", "--config"], "option --config needs a value"),
    "config_value_is_an_option": (["renvol", "--config", "--echo-config"],
                                  "option --config needs a value"),
    "config_value_is_help": (["renvol", "--out", "--help", "--config", "CONFIG"],
                             "option --out needs a value"),
    "eps_min_value_at_end": (["renvol", "--config", "CONFIG", "--eps-min"],
                             "option --eps-min needs a value"),
    "eps_min_not_a_float": (["renvol", "--config", "CONFIG", "--eps-min", "small"],
                            "option --eps-min: could not convert"),
    "eps_max_empty": (["renvol", "--config", "CONFIG", "--eps-max="],
                      "option --eps-max: could not convert"),
    "eps_count_not_an_int": (["renvol", "--config", "CONFIG", "--eps-count", "12.0"],
                             "option --eps-count: invalid literal for int()"),
    "eps_count_past_the_digit_limit": (
        ["renvol", "--config", "CONFIG", "--eps-count", "1" * 5000],
        "option --eps-count: Exceeds the limit (4300 digits)"),
    "convention_outside_the_table": (
        ["renvol", "--config", "CONFIG", "--convention", "mine"],
        "option --convention: must be one of paper, derived, both, got 'mine'"),
    "value_for_a_flag": (["renvol", "--config", "CONFIG", "--echo-config=yes"],
                         "option --echo-config takes no value"),
    "empty_value_for_a_flag": (["renvol", "--config", "CONFIG", "--out", "x", "--csv="],
                               "option --csv takes no value"),
    "option_twice": (["renvol", "--config", "CONFIG", "--config", "CONFIG"],
                     "option --config given twice"),
    "option_twice_in_both_forms": (
        ["renvol", "--eps-min", "0.01", "--config", "CONFIG", "--eps-min=0.02"],
        "option --eps-min given twice"),
    "flag_twice": (["renvol", "--config", "CONFIG", "--echo-config", "--echo-config"],
                   "option --echo-config given twice"),
    "csv_without_out": (["renvol", "--config", "CONFIG", "--csv"],
                        "option --csv needs --out to know where to write"),
}


@pytest.mark.parametrize("name", sorted(BAD_ARGV))
def test_malformed_command_line_is_one_usage_error(tmp_path, capsys, name):
    argv, fragment = BAD_ARGV[name]
    config = write_config(tmp_path, BTZ_CONFIG)
    argv = [config if arg == "CONFIG" else arg.replace("=CONFIG", "=" + config)
            for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # what argparse did
        pytest.fail(f"main raised SystemExit({exc.code})")
    assert code == 2
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.count("\n") == 1
    error = json.loads(out.out)["error"]
    assert sorted(error) == ["kind", "message"]
    assert error["kind"] == "usage"
    assert fragment in error["message"]


def test_main_reads_sys_argv_and_the_module_exits_with_its_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["corevol"])
    assert main() == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "usage"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "corevol.cli"], env=env,
                         capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (2, "")
    assert run.stdout.count("\n") == 1
    assert json.loads(run.stdout)["error"]["kind"] == "usage"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["renvol", "--help"],
                                  ["--config", "missing.json", "wedge", "-h"],
                                  ["--eps-count", "9", "--help", "--bogus"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (cli.HELP, "")


def test_help_names_every_command_and_option():
    assert cli.HELP.startswith("usage: corevol ")
    words = set(cli.HELP.replace(",", " ").replace("{", " ").replace("}", " ")
                .replace("|", " ").split())
    missing = [name for name in [*COMMANDS, *cli.OPTIONS, "-h", "--help"] if name not in words]
    assert missing == []


# each argv spells `renvol --config PATH --eps-count 9 --convention paper
# --out DIR --csv` another way
SAME_COMMAND_LINE = [
    ["renvol", "--config", "CONFIG", "--eps-count", "9", "--convention", "paper",
     "--out", "OUT", "--csv"],
    ["renvol", "--config=CONFIG", "--eps-count=9", "--convention=paper", "--out=OUT", "--csv"],
    ["--config", "CONFIG", "--eps-count", "9", "--convention", "paper", "--out", "OUT",
     "--csv", "renvol"],
    ["--csv", "--convention=paper", "--out", "OUT", "renvol", "--eps-count", "9",
     "--config=CONFIG"],
]


def test_equals_form_and_option_order_give_the_same_report(tmp_path, capsys):
    config = write_config(tmp_path, BTZ_CONFIG)
    outputs = []
    for k, argv in enumerate(SAME_COMMAND_LINE):
        out = tmp_path / f"out{k}"
        argv = [arg.replace("CONFIG", config).replace("OUT", str(out)) for arg in argv]
        assert main(argv) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((capsys.readouterr().out, files))
    assert sorted(outputs[0][1]) == ["profile_closed_form_paper.csv",
                                     "profile_quadrature.csv", "report.txt"]
    assert outputs[0][1]["report.txt"] == outputs[0][0].encode("utf-8")
    assert all(output == outputs[0] for output in outputs[1:])


@pytest.mark.parametrize("flag", [["--eps-min", "-1e-3"], ["--eps-min=-1e-3"]])
def test_a_negative_number_is_a_value_not_an_option(tmp_path, capsys, flag):
    assert main(["renvol", "--config", write_config(tmp_path, BTZ_CONFIG), *flag]) == 1
    assert _one_error(capsys) == {"kind": "config",
                                  "message": "config.epsilon_grid: need 0 < min < max < 1"}


def test_parse_errors_are_positioned(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"mode": "fuchsian_group",}', encoding="utf-8")
    code = main(["validate", "--config", str(path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "parse"
    assert "broken.json:1:" in payload["error"]["message"]


AXIS_TEXT = b'"generators": [{"p": -1.0, "q": 1.0, "length": 2.0}]'


# json keeps the last of two equal keys; the config reader keeps neither, at
# any depth: the top level, epsilon_grid, a leaves item
@pytest.mark.parametrize("content, kind, fragment", [
    (None, "io", "No such file"),
    (b"\xff\xfe{}", "parse", "not UTF-8 text at byte 0"),
    (b'{"mode": "pleated_core", "mode": "fuchsian_group", ' + AXIS_TEXT + b"}",
     "config", "key 'mode' given twice"),
    (b'{"mode": "fuchsian_group", ' + AXIS_TEXT + b', "epsilon_grid": {"count": 12, "count": 16}}',
     "config", "key 'count' given twice"),
    (b'{"mode": "pleated_core", "leaves": [{"length": 1.0, "theta": 1.0, "theta": 2.0}]}',
     "config", "key 'theta' given twice"),
])
def test_unreadable_config_is_one_json_error(tmp_path, capsys, content, kind, fragment):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_bytes(content)
    code = main(["validate", "--config", str(path)])
    assert code == 1
    error = _one_error(capsys)
    assert error["kind"] == kind
    assert fragment in error["message"]


# broken config texts, each written with LF and with CRLF line ends
BROKEN_TEXTS = {
    "trailing_comma": '{\n  "mode": "fuchsian_group",\n  "name": "x",\n}\n',
    "missing_comma": '{\n  "mode": "fuchsian_group"\n  "name": "x"\n}\n',
    "line_break_in_a_string": '{\n  "mode": "fuchsian_group",\n  "name": "x\n"}\n',
    "text_ends": '{\n  "mode": "fuchsian_group",\n  "name": \n',
}


@pytest.mark.parametrize("name", sorted(BROKEN_TEXTS))
def test_crlf_config_parse_error_has_the_lf_position(tmp_path, capsys, name):
    messages = []
    for eol in ("\n", "\r\n"):
        path = tmp_path / f"{len(eol)}.json"
        path.write_bytes(BROKEN_TEXTS[name].replace("\n", eol).encode("utf-8"))
        assert main(["validate", "--config", str(path)]) == 1
        error = _one_error(capsys)
        assert error["kind"] == "parse"
        messages.append(error["message"].removeprefix(str(path)))
    assert messages[0] == messages[1]
    assert not messages[0].startswith(":1:")


def test_a_lone_cr_is_not_a_line_break_in_parse_positions(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{\r"mode": "fuchsian_group",\r}')
    assert main(["validate", "--config", str(path)]) == 1
    assert _one_error(capsys) == {
        "kind": "parse",
        "message": f"{path}:1:29: Expecting property name enclosed in double quotes"}


# the byte where the text stops being UTF-8 is counted from the start of the
# file, also past the first 8 KiB: a lone 0xff, and a three-byte sequence cut
# short across the 8 KiB mark
@pytest.mark.parametrize("offset, bad", [(10000, b"\xff"), (8191, b"\xe2\x82")])
def test_non_utf8_byte_is_reported_at_its_offset_in_the_file(tmp_path, capsys, offset, bad):
    head = b'{"mode": "fuchsian_group", "name": "'
    data = head + b"a" * (offset - len(head)) + bad + b'"}'
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert main(["validate", "--config", str(path)]) == 1
    assert _one_error(capsys) == {"kind": "parse",
                                  "message": f"{path}: not UTF-8 text at byte {offset}"}


def test_utf8_bom_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(BTZ_CONFIG).encode("utf-8"))
    assert main(["validate", "--config", str(path)]) == 1
    assert _one_error(capsys) == {
        "kind": "parse", "message": f"{path}:1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)"}


@pytest.mark.parametrize("name, reason", [
    ("missing.json", "No such file or directory"),
    ("directory", "Is a directory"),
    ("a\0b.json", "a path cannot hold a NUL byte"),
    ("\ud800.json", "a path cannot hold a lone surrogate"),
], ids=["missing", "directory", "nul", "lone_surrogate"])
def test_config_path_that_cannot_be_read_is_an_io_error(tmp_path, capsys, name, reason):
    (tmp_path / "directory").mkdir()
    path = str(tmp_path / name)
    assert main(["validate", "--config", path]) == 1
    assert _one_error(capsys) == {"kind": "io",
                                  "message": f"cannot read config file {path}: {reason}"}


CIRCLE_PAIR = [{"center": -1.0, "radius": 0.5}, {"center": 1.0, "radius": 0.5}]

# stands for the bare JSON number 1e400 in a config text, which json reads as inf
TOO_BIG = "@1e400"
# JSON text of a number that is not finite -> (the value put in the config,
# how the error message shows it)
NON_FINITE = {"NaN": (math.nan, "nan"), "Infinity": (math.inf, "inf"),
              "-Infinity": (-math.inf, "-inf"), "1e400": (TOO_BIG, "inf")}
# key -> edit that puts a value at that key of the example group config
NUMBER_KEYS = {
    "leaves[0].length": lambda c, x: c.update(mode="pleated_core",
                                              leaves=[{"length": x, "theta": 1.0}]),
    "leaves[0].theta": lambda c, x: c.update(mode="pleated_core",
                                             leaves=[{"length": 1.0, "theta": x}]),
    "core_volume": lambda c, x: c.update(mode="pleated_core", core_volume=x),
    "circles[0].radius": lambda c, x: c.update(
        generators=[], circles=[dict(CIRCLE_PAIR[0], radius=x), CIRCLE_PAIR[1]],
        pairings=[IDENTITY_PAIRING]),
    "pairings[0].matrix[1]": lambda c, x: c.update(
        generators=[], circles=CIRCLE_PAIR,
        pairings=[dict(IDENTITY_PAIRING, matrix=[1.0, x, 0.0, 1.0])]),
}
NON_FINITE_ROWS = [
    pytest.param(lambda c, edit=edit, value=value: edit(c, value),
                 f"config.{key}: expected a finite number, got {shown}", id=f"{key}={text}")
    for key, edit in NUMBER_KEYS.items() for text, (value, shown) in NON_FINITE.items()
]


# `mutate` edits the config in place and may return override flags
@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.update(mode="weird"), "unknown mode"),
        (lambda c: c.update(epsilon_grid={"min": 0.5, "max": 0.3}), "min < max"),
        (lambda c: c.update(epsilon_grid={"count": 4}), "at least 8"),
        (lambda c: c.update(convention="mine"), "paper, derived or both"),
        (lambda c: c.update(epsilon_grid={"min": math.nan}), "expected a finite number, got nan"),
        (lambda c: ["--eps-count", "4"], "epsilon_grid.count: need at least 8"),
        (lambda c: c.update(epsilon_grid={"count": [9]}), "expected an integer, got [9]"),
        (lambda c: c.update(epsilon_grid={"count": 9.7}), "expected an integer, got 9.7"),
        (lambda c: c.update(mode="pleated_core", leaves=5), "leaves: expected a list"),
        (lambda c: c.update(mode="pleated_core"),
         "command needs mode fuchsian_group, config has pleated_core"),
        (
            lambda c: c.update(generators=[], circles=CIRCLE_PAIR, pairings=[
                {"source": [0], "target": 1, "matrix": [1.0, 0.0, 0.0, 1.0]}]),
            "pairings[0].source: expected an integer",
        ),
        *NON_FINITE_ROWS,
    ],
)
def test_config_validation_messages(tmp_path, capsys, mutate, fragment):
    config = json.loads(json.dumps(BTZ_CONFIG))
    flags = mutate(config) or []
    text = json.dumps(config).replace(json.dumps(TOO_BIG), "1e400")
    code = main(["validate", "--config", _config_text(tmp_path, text), *flags])
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["error"]["kind"] == "config"
    assert fragment in payload["error"]["message"]


def test_huge_axis_length_is_a_value_error(tmp_path, capsys):
    config = dict(BTZ_CONFIG, generators=[{"p": -1.0, "q": 1.0, "length": 2000.0}])
    code = main(["validate", "--config", write_config(tmp_path, config)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "value"
    assert "too large" in payload["error"]["message"]


def test_far_apart_axis_endpoints_are_a_value_error(tmp_path, capsys):
    config = dict(BTZ_CONFIG, generators=[{"p": -1e308, "q": 1e308, "length": 2.0}])
    code = main(["validate", "--config", write_config(tmp_path, config)])
    assert code == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "value"
    assert "axis endpoints -1e+308 and 1e+308" in error["message"]


def test_missing_key_is_path_annotated():
    with pytest.raises(ConfigError, match=r"generators\[0\].*length"):
        parse_config({
            "mode": "fuchsian_group",
            "generators": [{"p": -1.0, "q": 1.0}],
        })


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8,
)
NEAR_VALID = st.sampled_from([0, 1, 2, 9, 9.0, 9.5, 0.25, -1.0, 64, "paper", "zero", [], {}])
FLAG_SETS = [[], ["--eps-count", "4"], ["--eps-min", "0.01", "--eps-count", "9"],
             ["--eps-min", "nan"], ["--convention", "paper"]]


def _paths(value, prefix=()):
    """Every (key or index) path into a JSON value, the value itself first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, prefix + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def mutated_examples(draw, bases=(BTZ_CONFIG, G2_CONFIG, WEDGE_CONFIG, ANOMALY_CONFIG)):
    """One of the example configs with up to three values replaced by
    arbitrary JSON or deleted (values close to valid ones are drawn often, so
    that edits which keep the config valid are common too)."""
    config = json.loads(json.dumps(draw(st.sampled_from(bases))))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        paths = list(_paths(config))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = _at(config, path[:-1])
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(NEAR_VALID | JSON_VALUES)
    return config


NUMBERS = st.floats(-16.0, 16.0) | st.sampled_from([0, 1, 2, 4, 9, 64, 1e-3, 0.3, 0.9])


@st.composite
def perturbed_examples(draw, bases):
    """One of the example configs with up to three of its numbers replaced by
    other numbers, so that most of them pass the config check and run."""
    config = json.loads(json.dumps(draw(st.sampled_from(bases))))
    numbers = [path for path in _paths(config)
               if path and type(_at(config, path)) in (int, float)]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        path = draw(st.sampled_from(numbers))
        _at(config, path[:-1])[path[-1]] = draw(NUMBERS)
    return config


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=mutated_examples() | JSON_VALUES, flags=st.sampled_from(FLAG_SETS))
def test_echo_config_is_one_json_object(tmp_path_factory, config, flags):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--config", str(path), "--echo-config", *flags])
        assert code in (0, 1)
        payload = json.loads(out.getvalue())
        assert isinstance(payload, dict)
        if code == 0:
            assert parse_config(payload) == payload
        else:
            assert payload["error"]["kind"] == "config"


# the fuzzed commands run on small grids and meshes only
SMALL_RUN_FLAGS = ["--eps-count", "8"]
SMALL_MESH_NODES = 129 * 128


def _small_enough(config) -> bool:
    try:
        cfg = parse_config(config)
    except ConfigError:
        return True
    if cfg["mode"] != "anomaly_check":
        return True
    # a mesh with a side below 4 is rejected before anything is allocated
    n_t, n_theta = cfg["mesh"]["n_t"], cfg["mesh"]["n_theta"]
    return min(n_t, n_theta) < 4 or n_t * n_theta <= SMALL_MESH_NODES


# command -> the example configs its fuzzed runs start from
FUZZ_BASES = {"renvol": (BTZ_CONFIG, G2_CONFIG), "wedge": (WEDGE_CONFIG,),
              "anomaly": (ANOMALY_CONFIG,)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(FUZZ_BASES)).flatmap(
    lambda command: st.tuples(st.just(command), mutated_examples(FUZZ_BASES[command])
                              | perturbed_examples(FUZZ_BASES[command]))))
def test_commands_give_a_report_or_one_json_error(tmp_path_factory, case):
    command, config = case
    assume(_small_enough(config))
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--config", str(path), *SMALL_RUN_FLAGS])
    assert code in (0, 1, 2)
    text = out.getvalue()
    if code == 0:
        report = report_dict(text)
        assert report["command"] == command
        assert len(report) == text.count("\n")
    else:
        assert text.count("\n") == 1
        error = json.loads(text)["error"]
        assert isinstance(error["kind"], str) and isinstance(error["message"], str)


def _one_error(capsys):
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    return json.loads(out)["error"]


@pytest.mark.parametrize("command, config", [("renvol", BTZ_CONFIG), ("wedge", WEDGE_CONFIG)])
@pytest.mark.parametrize("eps_min", [1e-160, 1e-300])
@pytest.mark.parametrize("from_flag", [False, True])
def test_eps_min_below_floor_is_a_config_error(tmp_path, capsys, command, config,
                                               eps_min, from_flag):
    # eps ** -2 overflows a double below about 1e-154
    flags = ["--eps-min", repr(eps_min)] if from_flag else []
    if not from_flag:
        config = dict(config, epsilon_grid={"min": eps_min, "max": 0.3, "count": 12})
    code = main([command, "--config", write_config(tmp_path, config), *flags])
    assert code == 1
    error = _one_error(capsys)
    assert error["kind"] == "config"
    assert "epsilon_grid.min: must be at least 1e-150" in error["message"]


LARGEST = 1.7976931348623157e308


REPEATED_GRID = {"min": 0.9999999999999, "max": 0.99999999999999, "count": 1024}


@pytest.mark.parametrize("command, config, flags, code, kind, fragment", [
    # a leaf this long makes both closed-form V's -inf before the oracle runs
    ("wedge", dict(WEDGE_CONFIG, leaves=[{"length": LARGEST, "theta": math.pi / 2.0}]), [],
     2, "value", "report value closed.paper.V = -inf leaves the float64 range"),
    # an integral float passes as a genus, and 4 pi (g - 1) overflows
    ("wedge", dict(WEDGE_CONFIG, boundary_genus=LARGEST), [],
     2, "value", "report value core.boundary_area = inf leaves the float64 range"),
    # an integer past the float64 range is refused before it is used as a
    # genus, an index, a mesh size or a mode
    ("wedge", dict(WEDGE_CONFIG, boundary_genus=10 ** 400), [],
     1, "config", "config.boundary_genus: expected a finite number, got 1000"),
    ("validate", dict(G2_CONFIG, pairings=[dict(G2_CONFIG["pairings"][0], source=10 ** 400),
                                           G2_CONFIG["pairings"][1]]), [],
     1, "config", "config.pairings[0].source: expected a finite number, got 1000"),
    ("anomaly", dict(ANOMALY_CONFIG, mesh=dict(ANOMALY_CONFIG["mesh"], n_t=10 ** 400)), [],
     1, "config", "config.mesh.n_t: expected a finite number, got 1000"),
    ("anomaly", dict(ANOMALY_CONFIG, field={"kind": "theta_mode", "k": 10 ** 400}), [],
     1, "config", "config.field.k: expected a finite number, got 1000"),
    # 2^53 levels would ask numpy for a 64 PiB grid
    ("renvol", BTZ_CONFIG, ["--eps-count", str(2 ** 53)],
     1, "config", "config.epsilon_grid.count: need at least 8 for fitting and at most 1024, "
                  "got 9007199254740992"),
    # int exp(2u) underflows to 0, and at -360 to a subnormal mean whose
    # log gave a negative Jensen energy
    ("anomaly", dict(ANOMALY_CONFIG, mesh=dict(ANOMALY_CONFIG["mesh"], n_t=33),
                     field={"kind": "constant", "value": -400}), [],
     2, "value", "leave the float64 range on this mesh and field (the mean of exp(2u) is 0.0, "
                 "below the normal range)"),
    ("anomaly", dict(ANOMALY_CONFIG, mesh=dict(ANOMALY_CONFIG["mesh"], n_t=33),
                     field={"kind": "constant", "value": -360}), [],
     2, "value", "leave the float64 range on this mesh and field (the mean of exp(2u) is 2."),
    # 2 pi k / circumference is inf, whose sine is a domain error
    ("anomaly", dict(ANOMALY_CONFIG, field={"kind": "theta_mode", "k": 1e308}), [],
     2, "value", "(the frequency 2 pi k / circumference = inf overflows)"),
    # 1024 levels 9e-14 apart in eps: adjacent ones round to one float
    ("renvol", dict(BTZ_CONFIG, epsilon_grid=REPEATED_GRID), [],
     2, "value", "an eps grid of count 1024 from max 0.99999999999999 to min 0.9999999999999 "
                 "repeats a level in float64"),
    ("wedge", dict(WEDGE_CONFIG, epsilon_grid=REPEATED_GRID), ["--out", "out", "--csv"],
     2, "value", "an eps grid of count 1024 from max 0.99999999999999 to min 0.9999999999999 "
                 "repeats a level in float64"),
], ids=["leaf_length", "boundary_genus", "boundary_genus_int", "pairing_source_int",
        "mesh_n_t_int", "field_k_int", "eps_count", "jensen_mean_zero", "jensen_mean_subnormal",
        "theta_mode_frequency", "repeated_grid_renvol", "repeated_grid_wedge_csv"])
def test_extreme_config_ends_in_one_error_line(tmp_path, capsys, monkeypatch, command, config,
                                               flags, code, kind, fragment):
    # no report with inf or nan, no warning (the suite makes warnings errors)
    # and no traceback: one JSON error line and nothing on stderr; an --out
    # directory is relative to tmp_path and is not written
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", write_config(tmp_path, config), *flags]) == code
    assert not (tmp_path / "out").exists()
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.count("\n") == 1
    error = json.loads(out.out)["error"]
    assert error["kind"] == kind
    assert fragment in error["message"]


@pytest.mark.parametrize("count, code", [(1024, 0), (1025, 1)])
def test_eps_count_limit(tmp_path, capsys, count, code):
    assert main(["renvol", "--config", write_config(tmp_path, BTZ_CONFIG),
                 "--eps-count", str(count), "--echo-config"]) == code
    capsys.readouterr()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, [1.0, math.nan]])
def test_report_rejects_non_finite_values_by_key(value):
    with pytest.raises(ValueError, match="report value surface.end_lengths = .* leaves"):
        cli.Report().add("surface.end_lengths", value)


def test_core_slab_past_the_float64_range_is_a_quadrature_error(tmp_path, capsys, monkeypatch):
    # EPS_FLOOR keeps every config short of it; lowered, a README genus 2
    # grid down past the range is one value error naming its deepest level:
    # at 1e-154 the volume leaves the range, and below 7.5e-155 the end
    # slices' eps^-2 does, before the core slab's cosh^2 can (past x =
    # 355.58, eps 3.7e-155; a no-end surface shows that in test_renvol)
    monkeypatch.setattr(cli, "EPS_FLOOR", 1e-300)
    for eps_min, message in [
            ("1e-154", "the truncated volume leaves the float64 range at eps = 1e-154"),
            ("1e-160", "eps^-2 leaves the float64 range at eps = 1e-160")]:
        assert main(["renvol", "--config", write_config(tmp_path, README_G2_CONFIG),
                     "--eps-min", eps_min]) == 2
        assert _one_error(capsys) == {"kind": "value", "message": message}


@pytest.mark.parametrize("command, config", [("validate", BTZ_CONFIG), ("renvol", BTZ_CONFIG),
                                             ("wedge", WEDGE_CONFIG)])
@pytest.mark.parametrize("message", ["", "Unable to allocate 64.0 PiB"])
def test_memory_error_in_any_command_is_a_value_error(tmp_path, capsys, monkeypatch,
                                                      command, config, message):
    def exhausted(cfg, report):
        raise MemoryError(message)

    monkeypatch.setitem(COMMANDS, command, (exhausted, COMMANDS[command][1]))
    assert main([command, "--config", write_config(tmp_path, config)]) == 2
    error = _one_error(capsys)
    assert error["kind"] == "value"
    assert error["message"] == ("out of memory: " + message if message else "out of memory")


@pytest.mark.parametrize("command", ["surface-info", "renvol"])
def test_endpoint_mismatch_is_a_surface_topology_error(tmp_path, capsys, monkeypatch, command):
    # validation would reject this group; built past it, the end trace
    # finds that circle 1's endpoint image misses circle 0's endpoint
    from corevol import Circle, Mobius, Pairing, ValidatedGroup

    group = ValidatedGroup((Circle(-2.0, 0.5), Circle(2.0, 0.5)),
                           (Pairing(0, 1, Mobius(1.5, -1.0, 1.0, 0.0)),))
    monkeypatch.setattr(cli, "build_group", lambda cfg: group)
    assert main([command, "--config", write_config(tmp_path, BTZ_CONFIG)]) == 2
    error = _one_error(capsys)
    assert error["kind"] == "surface_topology"
    assert "misses its partner's endpoint" in error["message"]


def _readme_exit_kinds() -> dict:
    """kind -> exit code, as README's "Exit codes." list gives them: each
    sub-item of an "- exit N:" item starts with its kinds, before a colon."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("Exit codes.", 1)[1].split("\n\n", 2)[1]
    kinds, code = {}, None
    for item in re.split(r"\n(?= *- )", section):
        if head := re.match(r"- exit (\d):", item):
            code = int(head[1])
        elif head := re.match(r"  - ([^:]*):", item):
            kinds.update(dict.fromkeys(re.findall(r"`(\w+)`", head[1]), code))
    return kinds


def _schottky_kinds() -> set:
    """The kinds of every SchottkyError that corevol.schottky raises."""
    tree = ast.parse((ROOT / "src" / "corevol" / "schottky.py").read_text(encoding="utf-8"))
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SchottkyError"}


def test_readme_exit_codes_match_the_failure_table():
    table = {kind: code for kind, code in cli.FAILURES.values() if kind is not None}
    assert len(_schottky_kinds()) == 8
    table.update(dict.fromkeys(_schottky_kinds(), cli.FAILURES[SchottkyError][1]))
    assert _readme_exit_kinds() == table


def test_missing_field_file_is_an_io_error(tmp_path, capsys):
    config = dict(ANOMALY_CONFIG, field={"kind": "csv", "path": str(tmp_path / "none.csv")})
    code = main(["anomaly", "--config", write_config(tmp_path, config)])
    assert code == 1
    error = _one_error(capsys)
    assert error["kind"] == "io"
    assert "none.csv" in error["message"]


def test_out_naming_a_file_is_an_io_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    code = main(["validate", "--config", write_config(tmp_path, BTZ_CONFIG),
                 "--out", str(taken)])
    assert code == 1
    assert _one_error(capsys)["kind"] == "io"
    assert taken.read_text(encoding="utf-8") == "not a directory"


def _config_text(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _field_file(tmp_path, **changes):
    """A zero csv field on the example mesh, with `changes` to its parameters."""
    mesh = {**ANOMALY_CONFIG["mesh"], **changes}
    row = ",".join(["0.0"] * mesh["n_theta"]) + "\n"
    path = tmp_path / "field.csv"
    path.write_text("n_t,n_theta,t_extent,circumference,tag\n"
                    f"{mesh['n_t']},{mesh['n_theta']},{mesh['t_extent']!r},"
                    f"{mesh['circumference']!r},{mesh['tag']}\n" + row * mesh["n_t"],
                    encoding="utf-8")
    return str(path)


def _another_mesh(**changes):
    """An UNREADABLE row: the anomaly config with a field file whose mesh
    differs from the configured one by `changes`."""
    def argv(tmp):
        field = {"kind": "csv", "path": _field_file(tmp, **changes)}
        return ["anomaly", "--config", write_config(tmp, dict(ANOMALY_CONFIG, field=field))]

    return argv, "config", "field.csv does not match the configured mesh"


# name -> (argv in tmp_path, error kind, message fragment): config text the
# JSON decoder refuses with a plain ValueError or a RecursionError is a
# parse error, a path that no file can have (or an empty one) is an io error,
# and a field file made for another mesh is a config error, exit 1 all
UNREADABLE = {
    "integer_past_the_digit_limit": (
        lambda tmp: ["wedge", "--config", _config_text(
            tmp, '{"mode": "pleated_core", "boundary_genus": 1' + "0" * 5000 + "}")],
        "parse", "Exceeds the limit (4300 digits)"),
    "array_nested_200000_deep": (
        lambda tmp: ["wedge", "--config", _config_text(tmp, "[" * 200000 + "]" * 200000)],
        "parse", "maximum recursion depth exceeded"),
    "config_path_with_nul": (
        lambda tmp: ["wedge", "--config", str(tmp / "a\0b.json")],
        "io", "a path cannot hold a NUL byte"),
    "out_path_with_nul": (
        lambda tmp: ["wedge", "--config", write_config(tmp, WEDGE_CONFIG),
                     "--out", str(tmp / "o\0ut")],
        "io", "a path cannot hold a NUL byte"),
    "csv_path_with_lone_surrogate": (
        lambda tmp: ["anomaly", "--config", write_config(
            tmp, dict(ANOMALY_CONFIG, field={"kind": "csv", "path": "\ud800.csv"}))],
        "io", "a path cannot hold a lone surrogate"),
    "empty_out_path": (
        lambda tmp: ["validate", "--config", write_config(tmp, BTZ_CONFIG), "--out="],
        "io", "No such file or directory: ''"),
    "field_file_for_another_mesh": _another_mesh(n_t=33),
    "field_file_for_another_mesh_t_extent": _another_mesh(t_extent=6.0),
    "field_file_for_another_mesh_circumference": _another_mesh(circumference=2.0 * math.pi + 1e-12),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unusable_config_text_or_path_is_one_json_error(tmp_path, capsys, name):
    argv, kind, fragment = UNREADABLE[name]
    assert main(argv(tmp_path)) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.count("\n") == 1
    error = json.loads(out.out)["error"]
    assert error["kind"] == kind
    assert fragment in error["message"]
    if kind == "parse":
        assert error["message"].startswith(str(tmp_path / "config.json") + ": ")


# error class raised in cli.py -> (error kind, exit code)
CLI_ERRORS = {"UsageError": ("usage", 2), "ConfigError": ("config", 1), "ParseError": ("parse", 1)}


def _cli_raise_sites() -> dict:
    """template -> (error class, regex) of every raise of a CLI_ERRORS class
    in cli.py.  The template is the message with each formatted value as {},
    the regex the message with each formatted value as (.*)."""
    tree = ast.parse((ROOT / "src" / "corevol" / "cli.py").read_text(encoding="utf-8"))
    sites = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) in CLI_ERRORS):
            continue
        message = node.exc.args[0]
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        texts = [part.value if isinstance(part, ast.Constant) else None for part in parts]
        template = "".join("{}" if text is None else text for text in texts)
        assert template not in sites, f"two raise sites give {template!r}"
        sites[template] = (node.exc.func.id, "".join(
            "(.*)" if text is None else re.escape(text) for text in texts))
    return sites


def _with_config(config, *flags, command="validate"):
    return lambda tmp: [command, "--config", write_config(tmp, config), *flags]


def _with_bytes(data, command="validate"):
    def argv(tmp):
        (tmp / "config.json").write_bytes(data)
        return [command, "--config", str(tmp / "config.json")]
    return argv


def _wedge_with(**keys):
    return _with_config(dict(WEDGE_CONFIG, **keys), command="wedge")


def _group_with(**keys):
    return _with_config(dict(BTZ_CONFIG, **keys))


def _anomaly_with(field):
    return lambda tmp: ["anomaly", "--config", write_config(
        tmp, dict(ANOMALY_CONFIG, field=field(tmp) if callable(field) else field))]


# raise site template -> argv in tmp_path of one bad input that reaches it
RAISE_SITE_ROWS = {
    # the config file
    "{}:{}:{}: {}": _with_bytes(b"\xef\xbb\xbf" + json.dumps(BTZ_CONFIG).encode("utf-8")),
    "{}: not UTF-8 text at byte {}": _with_bytes(b"\xff"),
    "{}: {}": _with_bytes(b'{"mode": "pleated_core", "boundary_genus": 1' + b"0" * 5000 + b"}",
                          command="wedge"),
    "config: key {} given twice in one object": _with_bytes(
        b'{"mode": "fuchsian_group", "mode": "pleated_core"}'),
    # the config's values
    "{}: top level must be an object": _with_bytes(b"[]"),
    "{}: missing required key {}": _wedge_with(leaves=[{"length": 1.0}]),
    "{}: expected a number, got {}": _wedge_with(core_volume="5"),
    "{}: expected a finite number, got {}": _wedge_with(core_volume=math.nan),
    "{}: expected an integer, got {}": _wedge_with(boundary_genus=2.5),
    "{}: expected a string, got {}": _group_with(name=5),
    "{}: expected [a, b, c, d] row-major": _group_with(
        generators=[], circles=CIRCLE_PAIR, pairings=[dict(IDENTITY_PAIRING, matrix=[1.0])]),
    "{}: expected an object, got {}": _wedge_with(leaves=[5]),
    "{}.{}: expected a list, got {}": _wedge_with(leaves=5),
    "{}: expected an object with a 'kind'": _anomaly_with({}),
    "{}.kind: unknown field kind {}": _anomaly_with({"kind": "mine"}),
    "{}.mode: unknown mode {}": _group_with(mode="weird"),
    "{}.convention: must be paper, derived or both": _group_with(convention="mine"),
    "{}.epsilon_grid: need 0 < min < max < 1": _group_with(
        epsilon_grid={"min": 0.5, "max": 0.3}),
    "{}.epsilon_grid.min: must be at least {}, got {}": _group_with(
        epsilon_grid={"min": 1e-160}),
    "{}.epsilon_grid.count: need at least 8 for fitting and at most {}, got {}": _group_with(
        epsilon_grid={"count": 4}),
    "{}: give either circles+pairings or axis generators, not both": _group_with(
        circles=CIRCLE_PAIR),
    "{}: fuchsian_group needs circles and pairings": _group_with(generators=[]),
    "{}: give either boundary_area or boundary_genus, not both": _wedge_with(
        boundary_area=1.0),
    "command needs mode {}, config has {}": _with_config(WEDGE_CONFIG),
    "field file {} does not match the configured mesh": _anomaly_with(
        lambda tmp: {"kind": "csv", "path": _field_file(tmp, n_t=33)}),
    # the command line
    "missing command; commands: {}": lambda tmp: ["--config", write_config(tmp, BTZ_CONFIG)],
    "missing option --config": lambda tmp: ["validate"],
    "option --csv needs --out to know where to write": _with_config(BTZ_CONFIG, "--csv"),
    "unknown option {}": _with_config(BTZ_CONFIG, "--quad-tol", "1e-8"),
    "option {} given twice": _with_config(BTZ_CONFIG, "--csv", "--csv"),
    "unexpected argument {} after the command": _with_config(BTZ_CONFIG, "renvol"),
    "unknown command {}; commands: {}": _with_config(BTZ_CONFIG, command="renvolume"),
    "option {} takes no value": _with_config(BTZ_CONFIG, "--csv=yes"),
    "option {} needs a value": _with_config(BTZ_CONFIG, "--out"),
    "option {}: {}": _with_config(BTZ_CONFIG, "--eps-min", "small"),
}


def test_every_cli_raise_site_has_a_row():
    # a new raise of a usage, config or parse error needs a row in
    # RAISE_SITE_ROWS, and a row whose raise is gone goes with it
    assert sorted(_cli_raise_sites()) == sorted(RAISE_SITE_ROWS)


@pytest.mark.parametrize("template", sorted(RAISE_SITE_ROWS))
def test_each_cli_raise_site_gives_one_json_error(tmp_path, capsys, template):
    sites = _cli_raise_sites()
    kind, code = CLI_ERRORS[sites[template][0]]
    assert main(RAISE_SITE_ROWS[template](tmp_path)) == code
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.count("\n") == 1
    error = json.loads(out.out)["error"]
    assert error == {"kind": kind, "message": error["message"]}
    # the site that raised is the most specific template its message matches
    matches = [t for t, (_, regex) in sites.items()
               if re.fullmatch(regex, error["message"], re.DOTALL)]
    assert max(matches, key=lambda t: len(t.replace("{}", ""))) == template


@pytest.mark.parametrize("theta", [math.pi / 2.0 - 1e-4, math.pi / 2.0 + 1e-4,
                                   math.pi / 2.0 - 1e-7, math.pi / 2.0 + 1e-7,
                                   1.5707963, math.pi / 2.0, 3.14159, math.pi - 1e-9])
def test_wedge_near_a_right_angle_or_flat_is_within_its_bound(tmp_path, capsys, theta):
    # a leaf just below a right angle once left its kink interval nearly
    # empty and failed its own relative tolerance there (exit 2)
    config = dict(WEDGE_CONFIG, leaves=[{"length": 2.0, "theta": theta}])
    assert main(["wedge", "--config", write_config(tmp_path, config)]) == 0
    report = report_dict(capsys.readouterr().out)
    eps = float(report["eps.check"])
    with mpmath.workdps(50):
        lam = -mpmath.log(mpmath.mpf(eps))
        exact = (mpmath.pi - mpmath.mpf(theta)) * 2 * mpmath.sinh(lam) ** 2 / 2
    quad = float(report["leaf.0.wedge_quadrature_at_eps_check"])
    assert abs(quad - exact) <= float(report["leaf.0.wedge_quadrature_err_est"])


def test_wedge_theta_zero_leaf(tmp_path, capsys):
    config = dict(WEDGE_CONFIG, leaves=[{"length": 2.0, "theta": 0.0}])
    code = main(["wedge", "--config", write_config(tmp_path, config)])
    assert code == 0
    out = capsys.readouterr().out
    assert "disagrees" not in out
    report = report_dict(out)
    quad = float(report["leaf.0.wedge_quadrature_at_eps_check"])
    derived = float(report["leaf.0.wedge_derived_at_eps_check"])
    assert quad == pytest.approx(derived, rel=1e-8)


@pytest.mark.parametrize("eps_min", ["1e-100", "1e-150"])
def test_fit_overflow_is_named_without_a_warning(tmp_path, capsys, eps_min):
    # above the eps floor, but the norm of the eps^-2 column overflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["renvol", "--config", write_config(tmp_path, BTZ_CONFIG),
                     "--eps-min", eps_min])
    assert code == 2
    assert caught == []
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.count("\n") == 1
    error = json.loads(out.out)["error"]
    assert error["kind"] == "value"
    assert "eps^-2 column overflows" in error["message"]


@pytest.mark.parametrize("mesh, field", [
    ({"t_extent": 1.1598632708189148e-87}, {}),        # residual ** 2 overflows
    ({"t_extent": 2.896519918125844e-242}, {}),        # a spacing underflows to 0
    ({}, {"amplitude": 3.972625161888269e+289}),       # the energy overflows
])
def test_anomaly_out_of_float_range_is_a_value_error(tmp_path, capsys, mesh, field):
    config = dict(ANOMALY_CONFIG, mesh={**ANOMALY_CONFIG["mesh"], **mesh},
                  field={**ANOMALY_CONFIG["field"], **field})
    code = main(["anomaly", "--config", write_config(tmp_path, config)])
    assert code == 2
    error = _one_error(capsys)
    assert error["kind"] == "value"
    assert "leave the float64 range" in error["message"]


@pytest.mark.parametrize("tag, mesh, name", [
    ("flat_cylinder", {"circumference": 1e300}, "theta"),
    ("hyperbolic_cylinder", {"circumference": 1e300}, "theta"),
    ("flat_cylinder", {"t_extent": 1e300}, "t"),
])
def test_anomaly_spacing_overflow_names_the_spacing(tmp_path, capsys, tag, mesh, name):
    config = dict(ANOMALY_CONFIG, mesh={**ANOMALY_CONFIG["mesh"], "tag": tag, **mesh})
    assert main(["anomaly", "--config", write_config(tmp_path, config)]) == 2
    error = _one_error(capsys)
    assert error["kind"] == "value"
    assert f"(the square of the {name} spacing " in error["message"]
    assert "(34," not in error["message"]


@pytest.mark.parametrize("tag", ["hyperbolic_cylinder", "flat_cylinder"])
@pytest.mark.parametrize("field", [
    {"kind": "zero"},
    {"kind": "constant", "value": 0.5},
    {"kind": "theta_mode", "k": 2, "amplitude": 0.3},
    {"kind": "log_sech_t"},
    {"kind": "csv"},
], ids=lambda field: field["kind"])
def test_anomaly_mesh_too_large_to_allocate_is_a_value_error(tmp_path, capsys, tag, field):
    # 10^9 x 10^9 nodes (8 EB) fail to allocate at once, overcommit or not,
    # and the field is allocated before any 1-d profile of the mesh
    if field["kind"] == "csv":
        path = tmp_path / "huge.csv"
        path.write_text("n_t,n_theta,t_extent,circumference,tag\n"
                        f"1000000000,1000000000,2.0,6.0,{tag}\n0.1,0.2\n")
        field = {"kind": "csv", "path": str(path)}
    mesh = {**ANOMALY_CONFIG["mesh"], "tag": tag, "n_t": 1e9, "n_theta": 1e9}
    config = dict(ANOMALY_CONFIG, mesh=mesh, field=field)
    assert main(["anomaly", "--config", write_config(tmp_path, config)]) == 2
    error = _one_error(capsys)
    assert error["kind"] == "value"
    assert "a 1000000000 x 1000000000 field does not fit in memory" in error["message"]


def test_field_file_without_parameter_line_is_a_value_error(tmp_path, capsys):
    path = tmp_path / "header_only.csv"
    path.write_text("n_t,n_theta,t_extent,circumference,tag\n", encoding="utf-8")
    config = dict(ANOMALY_CONFIG, field={"kind": "csv", "path": str(path)})
    code = main(["anomaly", "--config", write_config(tmp_path, config)])
    assert code == 2
    error = _one_error(capsys)
    assert error["kind"] == "value"
    assert "header_only.csv: no parameter line" in error["message"]


@pytest.mark.parametrize("rows, fragment", [
    ("0.1,0.2\n0.3\n", "grid row 1 has 2 values"),  # ragged rows
    ("0.1,abc\n0.3,0.4\n", "could not convert string to float: 'abc'"),
    ("", "0 grid rows, not n_t = 65"),   # no data rows
])
def test_bad_field_file_rows_are_a_value_error(tmp_path, capsys, rows, fragment):
    mesh = ANOMALY_CONFIG["mesh"]
    path = tmp_path / "field.csv"
    path.write_text("n_t,n_theta,t_extent,circumference,tag\n"
                    f"{mesh['n_t']},{mesh['n_theta']},{mesh['t_extent']!r},"
                    f"{mesh['circumference']!r},{mesh['tag']}\n" + rows, encoding="utf-8")
    config = dict(ANOMALY_CONFIG, field={"kind": "csv", "path": str(path)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["anomaly", "--config", write_config(tmp_path, config)])
    assert code == 2
    assert caught == []
    error = _one_error(capsys)
    assert error["kind"] == "value"
    assert fragment in error["message"]
    assert str(path) in error["message"]


@pytest.mark.parametrize("entries", [["nan"], ["inf"], ["inf", "-inf"]],
                         ids=["nan", "inf", "inf_and_minus_inf"])
def test_non_finite_field_file_entry_is_a_value_error(tmp_path, capsys, entries):
    # the entries sit inside one grid row; +inf and -inf together sum to nan
    mesh = ANOMALY_CONFIG["mesh"]
    rows = [["0.1"] * mesh["n_theta"] for _ in range(mesh["n_t"])]
    rows[40][7:7 + len(entries)] = entries
    path = tmp_path / "field.csv"
    path.write_text("n_t,n_theta,t_extent,circumference,tag\n"
                    f"{mesh['n_t']},{mesh['n_theta']},{mesh['t_extent']!r},"
                    f"{mesh['circumference']!r},{mesh['tag']}\n"
                    + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    config = dict(ANOMALY_CONFIG, field={"kind": "csv", "path": str(path)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["anomaly", "--config", write_config(tmp_path, config)])
    assert code == 2
    assert caught == []
    error = _one_error(capsys)
    assert error["kind"] == "value"
    assert error["message"] == "field has non-finite entries"


@pytest.mark.parametrize("tag", ["hyperbolic_cylinder", "flat_cylinder"])
def test_anomaly_finite_field_whose_sums_overflow_is_a_value_error(tmp_path, capsys, tag):
    config = dict(ANOMALY_CONFIG, mesh={**ANOMALY_CONFIG["mesh"], "tag": tag},
                  field={"kind": "constant", "value": 1e308})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["anomaly", "--config", write_config(tmp_path, config)])
    assert code == 2
    assert caught == []
    error = _one_error(capsys)
    assert error["kind"] == "value"
    assert "leave the float64 range" in error["message"]


# a message that is only the text of a libm or errno failure, which names
# neither the value nor the key at fault
BARE_LIBM = re.compile(r"math (domain|range) error|\(\d+, '[^']*'\)")


def test_extreme_anomaly_meshes_and_fields_give_a_report_or_a_named_error(tmp_path, capsys):
    # 360 configs on 9x4 meshes, in process: exit 0, or one JSON error line
    # whose message is more than a bare libm text (warnings are errors here)
    fields = [{"kind": "constant", "value": 400}, {"kind": "constant", "value": -400},
              {"kind": "constant", "value": -360}, {"kind": "theta_mode", "k": 1e308},
              {"kind": "theta_mode", "k": 1e20}, {"kind": "log_sech_t"}]
    bare = []
    for tag in ("hyperbolic_cylinder", "flat_cylinder"):
        for t_extent in (1e-300, 1e-8, 2.0, 300.0, 700.0, 1e6):
            for circumference in (1e-300, 1e-8, 6.28, 1e8, 1e300):
                for field in fields:
                    mesh = {"tag": tag, "t_extent": t_extent, "circumference": circumference,
                            "n_t": 9, "n_theta": 4}
                    config = dict(ANOMALY_CONFIG, mesh=mesh, field=field)
                    code = main(["anomaly", "--config", write_config(tmp_path, config)])
                    out = capsys.readouterr()
                    assert out.err == ""
                    if code:
                        assert out.out.count("\n") == 1
                        message = json.loads(out.out)["error"]["message"]
                        if BARE_LIBM.fullmatch(message):
                            bare.append((mesh, field, message))
    assert bare == []


@pytest.mark.parametrize("command, config", [
    # 2 pi k / circumference is large but finite
    ("anomaly", dict(ANOMALY_CONFIG, field={"kind": "theta_mode", "k": 1e20})),
    # without --csv a wedge never builds the grid, only eps_check
    ("wedge", dict(WEDGE_CONFIG, epsilon_grid=REPEATED_GRID)),
], ids=["theta_mode_k_1e20", "repeated_grid_wedge"])
def test_finite_extremes_next_to_a_named_error_give_a_report(tmp_path, capsys, command, config):
    assert main([command, "--config", write_config(tmp_path, config)]) == 0
    assert capsys.readouterr().out.startswith(f"command = {command}\n")
