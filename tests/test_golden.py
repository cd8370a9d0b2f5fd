"""Pinned reports: report.txt of the README genus-1 and genus-2 examples and
of a three-leaf wedge core, and the anomaly report of the README hyperbolic
mesh and of a flat cylinder, compared byte for byte.  Also pinned: the sha256
of the `float.hex` list that `limit_set_sample` returns for three fixed
groups (`golden/limit_set.json`).

Regenerate them (after a change that moves report digits on purpose) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from corevol import Circle, Mobius, Pairing, SchottkyData, validate
from corevol.cli import main
from corevol.schottky import limit_set_sample

from conftest import make_row_group

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "readme_genus1": ("renvol", {
        "mode": "fuchsian_group",
        "name": "btz",
        "generators": [{"p": -1.0, "q": 1.0, "length": 2.0}],
        "convention": "both",
        "epsilon_grid": {"min": 1e-3, "max": 0.3, "count": 12},
        "quadrature_tol": 1e-9,
    }),
    "readme_genus2": ("renvol", {
        "mode": "fuchsian_group",
        "circles": [{"center": -3.0, "radius": 0.4}, {"center": -1.0, "radius": 0.4},
                    {"center": 1.0, "radius": 0.4}, {"center": 3.0, "radius": 0.4}],
        "pairings": [{"source": 0, "target": 1, "matrix": [-2.5, -7.9, 2.5, 7.5]},
                     {"source": 2, "target": 3, "matrix": [7.5, -7.9, 2.5, -2.5]}],
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


def report_text(name: str, tmp_dir: Path) -> bytes:
    command, config = CASES[name]
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_dir / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return (out / "report.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(tmp_path, name):
    assert report_text(name, tmp_path) == (GOLDEN / f"{name}.txt").read_bytes()


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
