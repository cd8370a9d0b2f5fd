"""Config-fuzz gate: mutated golden configs, and raw config text made from
them, through `corevol.cli.main`.

Every run must end in exit 0 with a report whose every number is finite, or
in exit 1 or 2 with exactly one JSON error line, and must print nothing on
stderr.  All examples run in one child process whose address space is
capped (RLIMIT_AS), so that an allocation too large for the machine is a
MemoryError rather than a risk to it, and in which every warning is raised
as an error.
"""

import json
import math
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corevol import cli
from corevol.cli import COMMANDS, parse_config
from test_cli import _at, _paths
from test_golden import CASES

# the child's address-space cap, about seven times the 150 MB its examples reach
ADDRESS_SPACE_LIMIT = 1 << 30
# seconds one example may take before the child counts as hung
ANSWER_TIMEOUT = 60.0

# Reads one {"command", "config"} JSON object per line, the config file's
# bytes in hex, runs `main` on it and answers with one JSON line: the exit code with what went to stdout and
# stderr, or the traceback of anything `main` let escape.
CHILD = """
import contextlib, io, json, resource, sys, traceback, warnings
from pathlib import Path

limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
warnings.simplefilter("error")
from corevol.cli import main

path = Path(sys.argv[2])
for line in sys.stdin:
    request = json.loads(line)
    path.write_bytes(bytes.fromhex(request["config"]))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([request["command"], "--config", str(path)])
        answer = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    except Exception:
        answer = {"escaped": traceback.format_exc()}
    print(json.dumps(answer), flush=True)
"""


class Child:
    """The one process every example runs in; started again only if an
    example killed it, so that hypothesis can still shrink that example."""

    def __init__(self, tmp_dir: Path):
        self.tmp_dir = tmp_dir
        self.stderr = open(tmp_dir / "child.stderr", "w+", encoding="utf-8")
        self.proc = None

    def start(self):
        self.stop()
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(ADDRESS_SPACE_LIMIT),
             str(self.tmp_dir / "config.json")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True, env=env)

    def stop(self):
        if self.proc is None:
            return
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def run(self, command: str, config) -> dict:
        """The answer to `command` on a config: a JSON value, or the raw
        bytes of a config file."""
        if self.proc is None or self.proc.poll() is not None:
            self.start()
        text = config if isinstance(config, bytes) else json.dumps(config).encode()
        request = {"command": command, "config": text.hex()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        # the child writes one line per request, so nothing is left buffered
        if not select.select([self.proc.stdout], [], [], ANSWER_TIMEOUT)[0]:
            self.proc.kill()
            pytest.fail(f"no answer within {ANSWER_TIMEOUT} s")
        line = self.proc.stdout.readline()
        if not line:
            self.stderr.seek(0)
            pytest.fail(f"the child died with exit {self.proc.wait()}: {self.stderr.read()}")
        return json.loads(line)


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    runner = Child(tmp_path_factory.mktemp("config_fuzz"))
    yield runner
    runner.stop()
    runner.stderr.close()


# command -> the golden configs it runs on, every one but the 1025x1024
# mesh and the CSV field (its file exists only while its golden runs),
# normalized so that the keys left to their defaults are there to
# mutate too; a renvol golden also runs through the other fuchsian commands
BASES = {command: [parse_config(config) for name, (golden_command, config) in CASES.items()
                   if COMMANDS[golden_command][1] == mode
                   and name not in ("anomaly_big", "anomaly_csv")]
         for command, (_, mode) in COMMANDS.items()}
# integers stop at 256, so a mutated mesh stays at most 257x256 nodes; the
# large floats make counts no machine can allocate
VALUES = st.sampled_from([
    0, -0.0, -1, 1, 2, 3, 5e-324, 1e-300, 1e-150, 1e-10, 0.5, math.pi, 9.7, 1e16,
    1e300, -1e300, sys.float_info.max, -sys.float_info.max, math.inf, math.nan,
]) | st.integers(-2, 256)
# a float may also be scaled, which keeps more configs valid and running
SCALES = st.sampled_from([-1.0, 0.5, 0.9, 1.1, 2.0, 10.0])


@st.composite
def mutated_goldens(draw):
    """A command and a golden config of its mode with one to three of its
    numbers replaced."""
    command = draw(st.sampled_from(sorted(BASES)))
    config = json.loads(json.dumps(draw(st.sampled_from(BASES[command]))))
    numbers = [path for path in _paths(config)
               if path and type(_at(config, path)) in (int, float)]
    for path in draw(st.lists(st.sampled_from(numbers), min_size=1, max_size=3)):
        parent, value = _at(config, path[:-1]), _at(config, path)
        scaled = SCALES.map(lambda scale: scale * value)
        parent[path[-1]] = draw(VALUES if isinstance(value, int) else VALUES | scaled)
    return command, config


def _non_finite_values(report: str) -> list:
    """The lines of a report with a value, or a list item, that reads as a
    float and is not finite.  Whole values only: "nan" also occurs inside
    words such as the provenance labels."""
    bad = []
    for line in report.splitlines():
        _, _, value = line.partition(" = ")
        for item in value.split(", "):
            try:
                number = float(item)
            except ValueError:
                continue
            if not math.isfinite(number):
                bad.append(line)
    return bad


# the four inputs a scratch fuzz found ending in inf or nan, a warning or a
# traceback (ROADMAP item 14), and a genus too large for a float, run on
# every pass
GENUS1 = parse_config(CASES["readme_genus1"][1])
WEDGE = parse_config(CASES["wedge_three_leaves"][1])
HUGE = sys.float_info.max


def _assert_report_or_one_error(answer: dict, command: str):
    assert "escaped" not in answer, answer.get("escaped")
    assert answer["stderr"] == ""
    out = answer["stdout"]
    if answer["code"] == 0:
        assert out.startswith(f"command = {command}\n")
        assert all(" = " in line for line in out.splitlines())
        assert _non_finite_values(out) == []
    else:
        assert answer["code"] in (1, 2)
        assert out.count("\n") == 1 and out.endswith("\n")
        error = json.loads(out)["error"]
        assert isinstance(error["kind"], str) and isinstance(error["message"], str)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=mutated_goldens())
@example(case=("wedge", {**WEDGE, "leaves": [{"length": HUGE, "theta": 0.0}]}))
@example(case=("wedge", {**WEDGE, "boundary_genus": HUGE}))
@example(case=("wedge", {**WEDGE, "boundary_genus": 10 ** 400}))
@example(case=("renvol", {**GENUS1, "quadrature_tol": HUGE}))
@example(case=("renvol", {**GENUS1, "epsilon_grid": {**GENUS1["epsilon_grid"],
                                                     "count": 2 ** 53}}))
def test_mutated_golden_configs_give_a_finite_report_or_one_json_error(child, case):
    command, config = case
    _assert_report_or_one_error(child.run(command, config), command)


NUMBER = re.compile(rb"-?\d+(\.\d+)?([eE][-+]?\d+)?")
KEY = re.compile(rb'"\w+": ')
# bytes no UTF-8 decoder accepts: a lone continuation byte, a truncated
# sequence, an overlong encoding, and a surrogate encoded as UTF-8
INVALID_UTF8 = [b"\x80", b"\xff", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80"]


@st.composite
def raw_golden_texts(draw):
    """A command and the bytes of a golden config file of its mode, edited
    as text: a number swapped for a long digit string or wrapped in deep
    nesting, invalid UTF-8 or an escaped lone surrogate inserted, a key
    given twice, or the file cut at a random byte."""
    command = draw(st.sampled_from(sorted(BASES)))
    text = json.dumps(draw(st.sampled_from(BASES[command]))).encode()
    for _ in range(draw(st.integers(1, 2))):
        numbers, keys = list(NUMBER.finditer(text)), list(KEY.finditer(text))
        edit = draw(st.sampled_from(["digits", "nesting", "utf8", "surrogate", "twice",
                                     "cut"]))
        if edit in ("digits", "nesting") and numbers:
            number = draw(st.sampled_from(numbers))
            if edit == "digits":
                new = b"1" + b"0" * draw(st.sampled_from([400, 4299, 4300, 5000]))
            else:
                depth = draw(st.sampled_from([1, 900, 1000, 200000]))
                new = b"[" * depth + number.group() + b"]" * depth
            text = text[:number.start()] + new + text[number.end():]
        elif edit in ("utf8", "surrogate"):
            # after an opening quote the insert lands inside a string
            quotes = [k + 1 for k, byte in enumerate(text) if byte == ord('"')]
            at = draw(st.integers(0, len(text)) | st.sampled_from(quotes or [0]))
            insert = draw(st.sampled_from(INVALID_UTF8)) if edit == "utf8" else b"\\ud800"
            text = text[:at] + insert + text[at:]
        elif edit == "twice" and keys:
            # the key again, with a value of its own, just before itself
            key = draw(st.sampled_from(keys))
            text = text[:key.start()] + key.group() + b"0, " + text[key.start():]
        else:
            text = text[:draw(st.integers(0, len(text)))]
    return command, text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=raw_golden_texts())
@example(case=("wedge", json.dumps({**WEDGE, "boundary_genus": 1}).encode().replace(
    b'"boundary_genus": 1', b'"boundary_genus": 1' + b"0" * 5000)))
@example(case=("wedge", b"[" * 200000 + b"]" * 200000))
def test_raw_config_text_gives_a_report_or_one_json_error(child, case):
    command, text = case
    _assert_report_or_one_error(child.run(command, text), command)


# Where numpy's arithmetic gave inf, math raises OverflowError, which is not a
# ValueError.  Each such input keeps the exit code and error kind it had.
MATH_OVERFLOWS = {
    # every square of the fit's eps^-2 column is finite, their sum is not,
    # and math.fsum raises where numpy's norm was inf
    "fit_column_norm": ("renvol", {**GENUS1, "epsilon_grid": {"min": 9e-78, "max": 0.3,
                                                              "count": 1024}}, "value"),
}


@pytest.mark.parametrize("name", sorted(MATH_OVERFLOWS))
def test_math_overflow_keeps_its_error_kind(child, name):
    command, config, kind = MATH_OVERFLOWS[name]
    answer = child.run(command, config)
    assert "escaped" not in answer, answer.get("escaped")
    assert answer["stderr"] == ""
    assert answer["code"] == 2
    assert json.loads(answer["stdout"])["error"]["kind"] == kind
