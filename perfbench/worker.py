"""One workload run as a closed loop in a fresh interpreter.

usage: python3 worker.py SPEC.json RESULT.json

run.py writes SPEC (the generated ops, the run length, the trace flag and
the module whose import is set-up), starts this script with numpy/BLAS
threads pinned to 1 and corevol on the path, and reads RESULT back.  One
client, concurrency 1: the next op starts when the previous one has
returned and its output has been checked.  Op wall time covers only the
call into the program; checks and set-up timings run between ops.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import subprocess
import sys
from time import perf_counter

import numpy as np

import corevol
import corevol.cli
from corevol import schottky, surface
from corevol.mobius import Mobius

from checks import CHECKS, CheckFailed
from tracer import Tracer

# Set-up is timed SETUP_SAMPLES times, spread evenly through the loop, and
# once after it, so its median sees the same stretch of machine time as the
# ops.  Each timing is scaled by the start-up time of a bare interpreter
# (`python -c pass`) timed just before it, which follows the machine's speed
# at starting processes: setup_ref = t(import) * PASS_REF_S / t(pass).
SETUP_SAMPLES = 6
PASS_REF_S = 0.05
# A run whose loop would pass this multiple of its nominal length stops
# early, before the block that would take it past; the op count is fixed
# otherwise.  Whole blocks only, so the mix of ops (and the share of ops that
# fail) stays that of a block.
WALL_CAP = 1.7
# The machine's speed drifts by up to ~2x over tens of seconds (a shared
# host), and the program's run time follows it.  So a short fixed loop is
# timed between every two ops, and each op's time is reported scaled to a
# reference speed, at which the loop takes CAL_REF_S:
# dt_ref = dt * CAL_REF_S / (mean of the loop times just before and after).
# The loop does the kind of work the workload's ops spend their time in,
# written independently of the program: small numpy calls from Python for
# the quadrature and word workloads, a 513x512 five-point stencil for the
# meshes.  Of the loops tried (also pure-Python integer and float
# arithmetic, and large-array numpy), these followed the drift of op times
# best; the small-call loop overcorrects mesh ops by up to 25%.
CAL_REF_S = {"small_calls": 3.0e-3, "stencil": 3.0e-3}
_CAL_X = np.linspace(-1.0, 1.0, 15)
_CAL_W = np.full(15, 1.0 / 15)
_CAL_GRID: list[np.ndarray] = []  # (u, lap), made on first use


class OpFailed(Exception):
    pass


def cal_small_calls() -> float:
    t0 = perf_counter()
    acc = 0.0
    for i in range(1600):
        acc += float(np.dot(np.exp(_CAL_X * (1.0 + i * 1e-4)), _CAL_W))
    return perf_counter() - t0


def cal_stencil() -> float:
    """In place, on arrays made once: temporaries would move the worker's
    peak memory, which is a metric of its own."""
    if not _CAL_GRID:
        u = np.random.default_rng(0).random((513, 512))
        _CAL_GRID.extend((u, np.empty_like(u)))
    u, lap = _CAL_GRID
    t0 = perf_counter()
    for _ in range(2):
        np.multiply(u, -4.0, out=lap)
        lap[1:] += u[:-1]
        lap[:-1] += u[1:]
        lap[:, 1:] += u[:, :-1]
        lap[:, :-1] += u[:, 1:]
        np.multiply(lap, u, out=lap)
        float(lap.sum())
    return perf_counter() - t0


CALIBRATIONS = {"small_calls": cal_small_calls, "stencil": cal_stencil}


def time_python(code: str) -> float:
    """Wall time for a fresh interpreter to run `code`.  No timeout:
    waiting with one polls in steps of up to 50 ms, which would round the
    time up; run.py's timeout on this worker bounds a hung interpreter."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return perf_counter() - t0


def time_setup(module: str) -> dict:
    """Wall time for a fresh interpreter to import `module`, raw and scaled
    by the start-up time of a bare one."""
    bare = time_python("pass")
    dt = time_python(f"import {module}")
    return {"dt": dt, "dt_ref": dt * PASS_REF_S / bare, "bare_s": bare}


def run_cli(op: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = corevol.cli.main([op["command"], "--config", op["path"]])
    if rc != 0:
        try:
            kind = json.loads(buf.getvalue())["error"]["kind"]
        except (ValueError, KeyError, TypeError):
            kind = "unknown"
        raise OpFailed(f"exit_{rc}:{kind}")
    return buf.getvalue()


def run_group_words(op: dict) -> dict:
    cfg = op["config"]
    circles = tuple(schottky.Circle(c["center"], c["radius"]) for c in cfg["circles"])
    pairings = tuple(schottky.Pairing(p["source"], p["target"], Mobius(*p["matrix"]))
                     for p in cfg["pairings"])
    group = schottky.validate(schottky.SchottkyData(circles, pairings))
    surf = surface.surface_invariants(group)
    points = schottky.limit_set_sample(group, cfg["depth"])
    return {"genus": group.genus, "ends": surf.ends, "surface_genus": surf.genus,
            "end_lengths": list(surf.end_lengths), "points": points}


class Loop:
    def __init__(self, spec: dict):
        self.ops = spec["ops"]
        self.run = run_group_words if spec["workload"] == "group_words" else run_cli
        self.records: list[dict] = []
        self.first_error: dict[str, str] = {}
        self.calibration: list[float] = []
        self.cal_kind = "stencil" if spec["workload"] == "anomaly_mesh" else "small_calls"

    def calibrate(self) -> float:
        self.calibration.append(CALIBRATIONS[self.cal_kind]())
        return self.calibration[-1]

    def to_ref(self, dt: float, before: float) -> float:
        """`dt` scaled to the reference speed by the loop times around it."""
        return dt * 2.0 * CAL_REF_S[self.cal_kind] / (before + self.calibrate())

    def attempt(self, index: int, record: bool = True) -> dict:
        op = self.ops[index % len(self.ops)]
        before = self.calibration[-1] if self.calibration else self.calibrate()
        t0 = perf_counter()
        try:
            out = self.run(op)
            error = None
        except OpFailed as exc:
            out, error, message = None, str(exc), str(exc)
        except Exception as exc:  # a failing op is a measurement, not a stop
            out, error, message = None, f"raised:{type(exc).__name__}", repr(exc)
        dt = perf_counter() - t0
        rec = {"op": index % len(self.ops), "kind": op["kind"], "dt": dt, "error": error}
        if error is None:
            text = out if isinstance(out, str) else json.dumps(out)
            rec["sha256"] = hashlib.sha256(text.encode()).hexdigest()
            rec["bytes"] = len(text)
            try:
                rec["figures"] = CHECKS[op["command"]](op, out)
            except CheckFailed as exc:
                rec["error"] = error = "check"
                rec["wrong"] = True
                message = str(exc)
        if error is not None:
            self.first_error.setdefault(error, f"op {rec['op']} ({op['kind']}): {message}")
        if record:
            self.records.append(rec)
        # every op starts from a collected heap, so neither peak memory nor a
        # collection pause depends on which ops ran before it
        gc.collect()
        rec["dt_ref"] = self.to_ref(dt, before)
        return rec


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    loop = Loop(spec)
    block, seconds = spec["block"], spec["seconds"]
    for i in range(3):  # warm up lazy imports and caches on a succeeding op; not recorded
        if loop.attempt(i, record=False)["error"] is None:
            break

    result: dict = {}
    t_start = perf_counter()
    if not spec["trace"]:
        # a fixed number of whole blocks, so every run attempts the same
        # ops, the failing ones included
        n_ops = spec["blocks"] * block
        setup_at = {n_ops * k // SETUP_SAMPLES for k in range(SETUP_SAMPLES)}
        setup = []
        for i in range(n_ops):
            if i and i % block == 0:
                elapsed = perf_counter() - t_start
                if elapsed * (i + block) / i > WALL_CAP * seconds:
                    break
            if i in setup_at:
                setup.append(time_setup(spec["setup_module"]))
            loop.attempt(i)
        result["setup_s"] = setup + [time_setup(spec["setup_module"])]
    else:
        tracer = Tracer()
        plain_run = loop.run

        def traced_run(op):  # the root span covers the call into the program only
            tracer.push("op")
            try:
                return plain_run(op)
            finally:
                tracer.pop()

        tracer.install()
        tracer.keep_spans = True
        loop.run = traced_run
        for i in range(block):  # fixed op set: its counts repeat exactly
            tracer.op_id = i
            loop.attempt(i)
        loop.run = plain_run
        tracer.keep_spans = False
        result["trace"] = {
            "functions": tracer.function_table(),
            "counts": dict(tracer.counts),
            "layer_self_s": tracer.layer_sums(tracer.self_time),
            "layer_calls": tracer.layer_sums(tracer.calls),
            "op_s": tracer.total["op"],
            "absent": tracer.absent,
        }
        tracer.save_spans(spec["spans_path"])
        # paired untraced/traced repeats of the same op for the overhead
        ratios, i = [], block
        while perf_counter() - t_start < seconds or (not ratios and i < 3 * block):
            tracer.uninstall()
            plain = loop.attempt(i, record=False)
            tracer.install()
            traced = loop.attempt(i, record=False)
            if plain["error"] is None and traced["error"] is None:
                ratios.append(traced["dt"] / plain["dt"])
            i += 1
        tracer.uninstall()
        result["trace"]["overhead_ratios"] = ratios
    result["loop_s"] = perf_counter() - t_start

    # byte-identical output on a re-run of the first op that succeeded
    first_ok = next((r for r in loop.records if r["error"] is None), None)
    if first_ok is not None:
        again = loop.attempt(first_ok["op"], record=False)
        result["rerun"] = {"op": first_ok["op"],
                           "identical": again.get("sha256") == first_ok["sha256"]}
    digest = hashlib.sha256()
    for rec in loop.records[:block]:
        digest.update((rec.get("sha256") or rec["error"]).encode())
    result.update(
        records=loop.records,
        first_error=loop.first_error,
        digest=digest.hexdigest(),
        digest_ops=min(block, len(loop.records)),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        calibration_s=loop.calibration,
        cal_kind=loop.cal_kind,
        cal_ref_s=CAL_REF_S[loop.cal_kind],
        env={"python": platform.python_version(), "numpy": np.__version__,
             "corevol": getattr(corevol, "__version__", "?")},
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
