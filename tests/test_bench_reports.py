"""Pinned benchmark reports: the exit code and stdout of every seed-1
`renvol_sweep` and `wedge_leaves` op of perfbench/workloads.py (264 ops),
run through `cli.main` in process and compared by one sha256.
`golden/bench_reports.json` also keeps a 16-bit hash of every report line,
so a mismatch names the first op and line that moved.

Regenerate it (after a change that moves report digits on purpose) with

    PYTHONPATH=src python tests/test_bench_reports.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from corevol.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "bench_reports.json"
SEED = 1


def seed_ops() -> list:
    """The seed-1 renvol and wedge ops, from the benchmark's own generators."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.renvol_ops(SEED) + workloads.wedge_ops(SEED)


def run_ops(ops, tmp_dir: Path) -> list:
    """(exit code, stdout) of each op."""
    path = tmp_dir / "op.json"
    results = []
    for op in ops:
        path.write_text(json.dumps(op["config"]), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([op["command"], "--config", str(path)])
        results.append((code, out.getvalue()))
    return results


def digest(results) -> str:
    h = hashlib.sha256()
    for code, text in results:
        h.update(f"{code}\n{len(text)}\n{text}".encode())
    return h.hexdigest()


def _line_hash(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:4]


def op_lines(code: int, text: str) -> str:
    """The exit code and the hash of each line of one op's stdout."""
    return f"{code}:" + "".join(map(_line_hash, text.splitlines()))


def first_difference(ops, results, pinned) -> str:
    """Where the results first move from the pinned line hashes."""
    for k, (op, (code, text), kept) in enumerate(zip(ops, results, pinned)):
        where = f"op {k} ({op['command']} {op['config']['name']})"
        kept_code, kept_hashes = kept.split(":")
        if code != int(kept_code):
            return f"{where}: exit code {code}, pinned {kept_code}"
        lines = text.splitlines()
        for n, line in enumerate(lines):
            if kept_hashes[4 * n:4 * n + 4] != _line_hash(line):
                return f"{where}, line {n + 1}: {line!r}"
        if len(kept_hashes) != 4 * len(lines):
            return f"{where}: {len(lines)} lines, pinned {len(kept_hashes) // 4}"
    if len(results) != len(pinned):
        return f"{len(results)} ops, pinned {len(pinned)}"
    return "every line hash matches; only the sha256 differs"


def test_seed_1_bench_reports_match_their_digest(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    ops = seed_ops()
    results = run_ops(ops, tmp_path)
    assert digest(results) == golden["sha256"], first_difference(ops, results, golden["ops"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results = run_ops(seed_ops(), Path(tmp))
    golden = {"sha256": digest(results), "ops": [op_lines(*r) for r in results]}
    GOLDEN.write_text(json.dumps(golden, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
