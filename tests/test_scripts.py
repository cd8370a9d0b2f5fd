"""Smoke tests for the worked-example scripts: each is imported from
`scripts/` and its `run()` is called as the command line would."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_btz_example(tmp_path, capsys):
    load("btz_example").run(tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ends=2 genus=0 handlebody_genus=1"
    assert lines[1] == "end lengths: (2.0, 2.0)  core area: 0.0"
    fit = next(line for line in lines if line.startswith("quadrature profile fit"))
    assert float(fit.split()[-1]) == pytest.approx(-math.pi, abs=1e-6)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["btz_closed_form_derived.csv", "btz_closed_form_paper.csv",
                     "btz_quadrature.csv"]


def test_pairing_dichotomy(capsys):
    load("pairing_dichotomy").run()
    rows = {}
    for line in capsys.readouterr().out.splitlines()[1:3]:
        label, ends, genus, _, ratio = line.rsplit(maxsplit=4)
        rows[label.split()[0]] = (int(ends), int(genus), float(ratio))
    assert sorted(rows) == ["adjacent", "crossed"]
    assert rows["adjacent"][:2] == (3, 0)
    assert rows["crossed"][:2] == (1, 1)
    for _, _, ratio in rows.values():
        assert abs(ratio - (-math.pi / 4.0)) <= 1e-6
