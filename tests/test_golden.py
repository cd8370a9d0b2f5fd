"""Pinned reports: report.txt of the README genus-1 and genus-2 examples, of
a crossed genus-3 row group (core slab and ends) on a 16-level grid and of a
three-leaf wedge core, and the anomaly report of the README hyperbolic
mesh, of a 1025x1024 hyperbolic mesh, of a flat cylinder, of a log sech t
field, of a constant field and of a field read from a CSV file, compared
byte for byte.  Also pinned: the sha256 of the `float.hex` list that
`limit_set_sample` returns for three fixed groups (`golden/limit_set.json`),
and the sha256 of report.txt and of every profile CSV that `--csv` writes
for the renvol and wedge cases under each `--convention`
(`golden/csv_profiles.json`).

Regenerate them (after a change that moves report digits on purpose) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from corevol import Circle, Mobius, Pairing, SchottkyData, anomaly, validate
from corevol.anomaly import SurfaceMesh
from corevol.cli import main
from corevol.schottky import limit_set_sample

from conftest import field_to_csv, make_row_group

GOLDEN = Path(__file__).resolve().parent / "golden"


def group_config(group) -> dict:
    """The circles and pairings of a validated group, as config keys."""
    return {
        "circles": [{"center": c.center, "radius": c.radius} for c in group.circles],
        "pairings": [{"source": p.source, "target": p.target,
                      "matrix": [p.map.a, p.map.b, p.map.c, p.map.d]}
                     for p in group.pairings],
    }


CASES = {
    "readme_genus1": ("renvol", {
        "mode": "fuchsian_group",
        "name": "btz",
        "generators": [{"p": -1.0, "q": 1.0, "length": 2.0}],
        "convention": "both",
        "epsilon_grid": {"min": 1e-3, "max": 0.3, "count": 12},
    }),
    "readme_genus2": ("renvol", {
        "mode": "fuchsian_group",
        "circles": [{"center": -3.0, "radius": 0.4}, {"center": -1.0, "radius": 0.4},
                    {"center": 1.0, "radius": 0.4}, {"center": 3.0, "radius": 0.4}],
        "pairings": [{"source": 0, "target": 1, "matrix": [-2.5, -7.9, 2.5, 7.5]},
                     {"source": 2, "target": 3, "matrix": [7.5, -7.9, 2.5, -2.5]}],
    }),
    "g3_crossed": ("renvol", {
        "mode": "fuchsian_group",
        "name": "g3_crossed",
        **group_config(make_row_group((-5, -3, -1, 1, 3, 5), 0.4,
                                      [(0, 3), (1, 4), (2, 5)])),
        "epsilon_grid": {"min": 1e-3, "max": 0.3, "count": 16},
    }),
    "wedge_three_leaves": ("wedge", {
        "mode": "pleated_core",
        "name": "three_leaves",
        "core_volume": 5.0,
        "leaves": [{"length": 1.0, "theta": 0.0},
                   {"length": 2.0, "theta": math.pi / 3.0},
                   {"length": 3.0, "theta": 2.0 * math.pi / 3.0}],
        "boundary_genus": 2,
    }),
    "readme_anomaly": ("anomaly", {
        "mode": "anomaly_check",
        "mesh": {"tag": "hyperbolic_cylinder", "t_extent": 2.0,
                 "circumference": 2.0 * math.pi, "n_t": 129, "n_theta": 128},
        "field": {"kind": "theta_mode", "k": 1, "amplitude": 0.2},
    }),
    "anomaly_flat": ("anomaly", {
        "mode": "anomaly_check",
        "name": "flat",
        "mesh": {"tag": "flat_cylinder", "t_extent": 1.5,
                 "circumference": 3.0, "n_t": 65, "n_theta": 48},
        "field": {"kind": "theta_mode", "k": 2, "amplitude": 0.3},
    }),
    "anomaly_big": ("anomaly", {
        "mode": "anomaly_check",
        "name": "big",
        "mesh": {"tag": "hyperbolic_cylinder", "t_extent": 2.0,
                 "circumference": 2.0 * math.pi, "n_t": 1025, "n_theta": 1024},
        "field": {"kind": "theta_mode", "k": 3, "amplitude": 0.5},
    }),
    "anomaly_log_sech": ("anomaly", {
        "mode": "anomaly_check",
        "name": "log_sech",
        "mesh": {"tag": "hyperbolic_cylinder", "t_extent": 2.5,
                 "circumference": 2.0 * math.pi, "n_t": 257, "n_theta": 256},
        "field": {"kind": "log_sech_t"},
    }),
    # the field file is written by run_case, with csv_field's values
    "anomaly_csv": ("anomaly", {
        "mode": "anomaly_check",
        "name": "csv",
        "mesh": {"tag": "hyperbolic_cylinder", "t_extent": 2.0,
                 "circumference": 2.0 * math.pi, "n_t": 65, "n_theta": 64},
        "field": {"kind": "csv"},
    }),
    "anomaly_constant": ("anomaly", {
        "mode": "anomaly_check",
        "name": "constant",
        "mesh": {"tag": "hyperbolic_cylinder", "t_extent": 2.0,
                 "circumference": 3.0, "n_t": 129, "n_theta": 128},
        "field": {"kind": "constant", "value": 0.3},
    }),
}


# (group, depth): the README's explicit-circles genus-2 example, a crossed
# genus-2 row and a genus-3 row.
LIMIT_SET_CASES = {
    "readme_genus2_d8": (validate(SchottkyData(
        tuple(Circle(c, 0.4) for c in (-3.0, -1.0, 1.0, 3.0)),
        (Pairing(0, 1, Mobius(-2.5, -7.9, 2.5, 7.5)),
         Pairing(2, 3, Mobius(7.5, -7.9, 2.5, -2.5))))), 8),
    "g2_crossed_d7": (make_row_group((-3, -1, 1, 3), 0.4, [(0, 2), (1, 3)]), 7),
    "g3_row_d5": (make_row_group((-5, -3, -1, 1, 3, 5), 0.4, [(0, 1), (2, 3), (4, 5)]), 5),
}


def limit_set_digest(name: str) -> dict:
    group, depth = LIMIT_SET_CASES[name]
    points = limit_set_sample(group, depth)
    text = "\n".join(float.hex(p) for p in points)
    return {"points": len(points), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def csv_field(mesh) -> list:
    """0.2 sin(2 theta + 0.4 t) / cosh t + 0.1 cos(theta) tanh t + 0.05 at
    every node of mesh, with math."""
    ts = [-mesh.t_extent + 2.0 * mesh.t_extent * i / (mesh.n_t - 1) for i in range(mesh.n_t)]
    thetas = [2.0 * math.pi * j / mesh.n_theta for j in range(mesh.n_theta)]
    return [[0.2 * math.sin(2.0 * theta + 0.4 * t) / math.cosh(t)
             + 0.1 * math.cos(theta) * math.tanh(t) + 0.05 for theta in thetas] for t in ts]


def run_case(name: str, tmp_dir: Path, *options: str) -> Path:
    """The --out directory of the case's command, run with `options`."""
    command, config = CASES[name]
    if config.get("field", {}).get("kind") == "csv":
        mesh = SurfaceMesh(**config["mesh"])
        field_path = tmp_dir / f"{name}_field.csv"
        field_to_csv(mesh, csv_field(mesh), field_path)
        config = {**config, "field": {"kind": "csv", "path": str(field_path)}}
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_dir / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(path), "--out", str(out), *options]) == 0
    return out


def report_text(name: str, tmp_dir: Path) -> bytes:
    return (run_case(name, tmp_dir) / "report.txt").read_bytes()


CSV_CASES = ("g3_crossed", "readme_genus1", "readme_genus2", "wedge_three_leaves")
CSV_CONVENTIONS = ("both", "derived", "paper")


def csv_digests(name: str, tmp_dir: Path) -> dict:
    """convention -> file name -> sha256 of every file that --out --csv
    writes for the case under that --convention."""
    digests = {}
    for convention in CSV_CONVENTIONS:
        (tmp_dir / convention).mkdir(exist_ok=True)
        out = run_case(name, tmp_dir / convention, "--csv", "--convention", convention)
        digests[convention] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                               for path in sorted(out.iterdir())}
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(tmp_path, name):
    assert report_text(name, tmp_path) == (GOLDEN / f"{name}.txt").read_bytes()


def test_csv_report_matches_golden_on_each_read_of_the_cache(tmp_path, monkeypatch):
    # the first read parses without the cache, the second parses and keeps
    # the field, the third is a hit
    monkeypatch.setattr(anomaly, "_FIELD_CACHE", anomaly._FieldCache())
    parse, parses = anomaly._parse_field, []
    monkeypatch.setattr(anomaly, "_parse_field",
                        lambda *args: parses.append(args) or parse(*args))
    golden = (GOLDEN / "anomaly_csv.txt").read_bytes()
    for call, parsed, kept in (("first", 1, 0), ("miss", 2, 1), ("hit", 2, 1)):
        # one directory: the field file is written again in place, as one file
        assert report_text("anomaly_csv", tmp_path) == golden, call
        fields = [entry for entry in anomaly._FIELD_CACHE.values() if entry is not None]
        assert (len(parses), len(fields)) == (parsed, kept), call


@pytest.mark.parametrize("name", CSV_CASES)
def test_csv_profiles_match_golden(tmp_path, name):
    golden = json.loads((GOLDEN / "csv_profiles.json").read_text(encoding="utf-8"))
    assert csv_digests(name, tmp_path) == golden[name]


# every pinned report: the renvol and wedge ones use no numpy, and the
# anomaly fields' 1-d profiles and the CSV field's values are built with math
CPU_INDEPENDENT = tuple(sorted(CASES))
# name -> (environment, the numpy CPU features it needs): other CPU paths
# that numpy and OpenBLAS can take on an x86-64 CPU with AVX-512
CPU_PATHS = {
    "x86_v4_disabled": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4"}, ("X86_V4",)),
    "openblas_haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, ("X86_V3",)),
    "both": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4", "OPENBLAS_CORETYPE": "Haswell"},
             ("X86_V4",)),
}
COMPARE = """
import json
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_golden
for name in test_golden.CPU_INDEPENDENT:
    text = test_golden.report_text(name, Path(sys.argv[2]))
    print(name, text == (test_golden.GOLDEN / f"{name}.txt").read_bytes())
golden = json.loads((test_golden.GOLDEN / "csv_profiles.json").read_text(encoding="utf-8"))
for name in test_golden.CSV_CASES:
    print(f"csv:{name}", test_golden.csv_digests(name, Path(sys.argv[2])) == golden[name])
"""


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.parametrize("path", sorted(CPU_PATHS))
def test_numpy_free_goldens_on_other_cpu_paths(tmp_path, path):
    """Every golden report is byte-identical when numpy and OpenBLAS take
    another CPU path.  The renvol and wedge reports are computed with `math`
    and plain floats only; the anomaly fields' 1-d profiles (`theta_mode`,
    `log_sech_t`) and the CSV field are built with `math` too, since numpy's
    SIMD transcendentals move with the CPU.  The mesh functionals of these
    fields do not move on these paths, although a row sum of numpy's can
    move by an ulp, which a report value that cancels would show.  A path is skipped only on a CPU without the
    features it needs.  Out of scope: another libm, glibc's own CPU dispatch
    inside libm (no environment variable switches it), and another numpy
    major version."""
    env, needs = CPU_PATHS[path]
    missing = [feature for feature in needs if not _cpu_features().get(feature)]
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(missing)}")
    src = str(Path(__file__).resolve().parents[1] / "src")
    child_env = dict(os.environ, PYTHONPATH=src, **env)
    out = subprocess.run([sys.executable, "-c", COMPARE, str(Path(__file__).parent),
                          str(tmp_path)], env=child_env, check=True,
                         capture_output=True, text=True).stdout
    names = [*CPU_INDEPENDENT, *(f"csv:{name}" for name in CSV_CASES)]
    assert out.split() == [word for name in names for word in (name, "True")]


def placeholder_key(key: str) -> str:
    """The key with a convention name as `<conv>` and an index as `<i>`:
    closed.paper.V -> closed.<conv>.V, discrepancy.fit_vs_derived.V ->
    discrepancy.fit_vs_<conv>.V, leaf.2.theta -> leaf.<i>.theta."""
    key = re.sub(r"(?<=[._])(paper|derived)(?=\.)", "<conv>", key)
    return re.sub(r"(?<=\.)[0-9]+(?=\.|$)", "<i>", key)


def test_readme_names_every_golden_key():
    # a key is named when README has it in backticks, as itself (such as
    # discrepancy.paper_vs_derived.V) or in its placeholder form
    readme = (GOLDEN.parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`([^`\s]+)`", readme))
    keys = {line.split(" = ", 1)[0] for path in GOLDEN.glob("*.txt")
            for line in path.read_text(encoding="utf-8").splitlines()}
    assert len(keys) > 50
    assert sorted(key for key in keys if not {key, placeholder_key(key)} & named) == []


@pytest.mark.parametrize("name", sorted(LIMIT_SET_CASES))
def test_limit_set_matches_golden(name):
    golden = json.loads((GOLDEN / "limit_set.json").read_text(encoding="utf-8"))
    assert limit_set_digest(name) == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.txt").write_bytes(report_text(case, Path(tmp)))
            print(f"wrote {GOLDEN / case}.txt", file=sys.stderr)
    digests = {case: limit_set_digest(case) for case in sorted(LIMIT_SET_CASES)}
    (GOLDEN / "limit_set.json").write_text(json.dumps(digests, indent=2) + "\n",
                                           encoding="utf-8")
    print(f"wrote {GOLDEN / 'limit_set.json'}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        digests = {case: csv_digests(case, Path(tmp)) for case in CSV_CASES}
    (GOLDEN / "csv_profiles.json").write_text(json.dumps(digests, indent=2) + "\n",
                                              encoding="utf-8")
    print(f"wrote {GOLDEN / 'csv_profiles.json'}", file=sys.stderr)
