#!/usr/bin/env python3
"""corevol benchmark: four seeded workloads, timed end to end and per module.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a corevol checkout.  Each run generates its workload's
configs from the seed, then runs the ops in a fresh worker process as a
closed loop (one client, concurrency 1, numpy/BLAS threads pinned to 1),
timing set-up (fresh interpreters importing what the workload calls)
between ops, checks every output against the benchmark's own references,
and prints a table followed by one JSON line.  --trace 0 reports the end-to-end metrics;
--trace 1 is a separate run whose wrappers record spans and counts and
report the per-layer metrics.  `--workload all` runs every workload both
ways and prints every table; a held-out seed is a second invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
WORKER_GRACE_S = 120

def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def prepare(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the generated inputs (configs, CSV fields) under `work`."""
    csv_paths = {}
    if workload == "anomaly_mesh":
        for n_t, tag in workloads.CSV_FIELDS:
            path = work / f"field_{n_t}_{tag}.csv"
            path.write_text(workloads.csv_field_text(workloads.csv_mesh(seed, n_t, tag)),
                            encoding="utf-8")
            csv_paths[(n_t, tag)] = path
    ops = workloads.generate(workload, seed, csv_paths)
    if workload != "group_words":
        for k, op in enumerate(ops):
            op["path"] = str(work / f"op{k:04d}.json")
            Path(op["path"]).write_text(json.dumps(op["config"]), encoding="utf-8")
    return ops


def latency_stats(lat: list[float]) -> dict:
    """Median and the highest percentile with at least 10 samples beyond it."""
    lat = sorted(lat)
    n = len(lat)
    if n > 10:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = lat[-1], 100.0
    return {"p50": statistics.median(lat), "tail": tail, "tail_pct": pct, "n": n}


def end_to_end(res: dict) -> tuple[dict, list]:
    """The metrics from op and set-up times scaled to the reference speed
    (worker.CAL_REF_S); the notes give the same figures from raw wall time."""
    recs = res["records"]
    ok = [r for r in recs if r["error"] is None]
    setup = res["setup_s"]

    def figures(key):
        st = latency_stats([r[key] for r in ok])
        return st, {
            "latency_p50_s": (st["p50"], "s", st["n"]),
            "latency_tail_s": (st["tail"], "s", st["n"]),
            "throughput_ops_s": (len(ok) / sum(r[key] for r in recs), "1/s", st["n"]),
            "setup_s": (statistics.median(s[key] for s in setup), "s", len(setup)),
            "peak_rss_mb": (res["peak_rss_mb"], "MiB", 1),
        }

    st, metrics = figures("dt_ref")
    _, raw = figures("dt")
    cal = res["calibration_s"]
    notes = [f"latency_tail_s is p{st['tail_pct']:.1f} of N={st['n']}",
             f"failed_frac = {(len(recs) - len(ok)) / len(recs)!r} (1) "
             f"= {len(recs) - len(ok)}/{len(recs)} attempted",
             f"busy_s = {sum(r['dt'] for r in recs)!r} of loop_s = {res['loop_s']!r}",
             f"times scaled to the reference speed: calibration loop median "
             f"{statistics.median(cal)!r} s here, {res['cal_ref_s']!r} s at reference",
             "raw wall time: " + ", ".join(f"{k} {v!r}" for k, (v, _, _) in raw.items()
                                           if k != "peak_rss_mb")]
    return metrics, notes


def _max_fig(recs, key):
    return max((r["figures"].get(key, 0.0) for r in recs if "figures" in r), default=0.0)


def _sum_fig(recs, key):
    return sum(r["figures"].get(key, 0) for r in recs if "figures" in r)


def per_layer(res: dict) -> dict:
    tr = res["trace"]
    fn, counts, layers = tr["functions"], tr["counts"], tr["layer_calls"]
    recs = res["records"]  # the traced block only

    # The tracer has an entry for every name it wrapped, zero if never
    # called, and none for a name the program lacks: a metric whose lookup
    # raises KeyError is left out.
    def calls(name):
        return fn[name]["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    formulas = {
        "adaptive_quad.calls": (lambda: calls("adaptive_quad"), "count"),
        "integrand.calls": (lambda: calls("integrand"), "count"),
        "integrand.evals": (lambda: counts["integrand.evals"], "count"),
        "evals_per_integrand_call": (
            lambda: ratio(counts["integrand.evals"], calls("integrand")), "evals/call"),
        "cells_evaluated": (lambda: counts["integrand.evals"] // 15, "count"),
        "err_est_max": (lambda: counts["err_est_max"], "1"),
        "quadrature.failures": (lambda: counts["quadrature.failures"], "count"),
        "truncated_volume_quadrature.calls": (
            lambda: calls("truncated_volume_quadrature"), "count"),
        "fit_expansion.calls": (lambda: calls("fit_expansion"), "count"),
        "fit_V_abs_err_max": (lambda: _max_fig(recs, "fit_V_abs_err"), "1"),
        "fit_err_over_bound_max": (lambda: _max_fig(recs, "fit_err_over_bound"), "1"),
        "fit_condition_max": (lambda: _max_fig(recs, "fit_condition"), "1"),
        "warnings": (lambda: _sum_fig(recs, "warnings"), "count"),
        "wedge_volume_quadrature.calls": (lambda: calls("wedge_volume_quadrature"), "count"),
        "wedge_rel_gap_max": (lambda: _max_fig(recs, "wedge_rel_gap"), "1"),
        "anomaly.calls": (lambda: layers["anomaly"], "count"),
        "nodes": (lambda: _sum_fig(recs, "nodes"), "count"),
        "bytes_computed": (lambda: counts["bytes_computed"], "B"),
        "ibp_defect_max": (lambda: _max_fig(recs, "ibp_defect"), "1"),
        "validate.calls": (lambda: calls("validate"), "count"),
        "surface_invariants.calls": (lambda: calls("surface_invariants"), "count"),
        "limit_set_sample.calls": (lambda: calls("limit_set_sample"), "count"),
        "words": (lambda: counts["words"], "count"),
        "points_per_word": (  # points kept per nonempty word, over the ops that succeeded
            lambda: ratio(_sum_fig(recs, "points"), _sum_fig(recs, "nonempty_words")), "1"),
        "word_mobius.calls": (lambda: counts["word_mobius.calls"], "count"),
        "mobius.compose.calls": (lambda: counts["compose.calls"], "count"),
        "mobius.apply.calls": (lambda: counts["apply.calls"], "count"),
        "main.calls": (lambda: calls("main"), "count"),
        "report_bytes": (lambda: sum(r.get("bytes", 0) for r in recs), "B"),
        "block_ops": (lambda: len(recs), "count"),
    }
    m = {}
    for name, (value, unit) in formulas.items():
        try:
            m[name] = (value(), unit)
        except KeyError:
            pass
    for layer, self_s in tr["layer_self_s"].items():
        m[f"{layer}.self_share"] = (100.0 * self_s / tr["op_s"], "%")
    if tr["overhead_ratios"]:
        m["trace.overhead_frac"] = (statistics.median(tr["overhead_ratios"]) - 1.0, "1")
    return m


def print_trace_tables(res: dict):
    tr = res["trace"]
    print(f"{'function':<30}{'calls':>10}{'total_s':>14}{'self_s':>14}")
    for name, row in tr["functions"].items():
        print(f"{name:<30}{row['calls']:>10}{row['total_s']:>14.6f}{row['self_s']:>14.6f}")
    for name in ("word_mobius", "compose", "apply"):
        print(f"{name + '.calls':<30}{tr['counts'].get(name + '.calls', 0):>10}")
    wq = tr["functions"].get("wedge_volume_quadrature")
    if wq and wq["calls"]:
        print(f"wedge_s_per_leaf = {wq['total_s'] / wq['calls']!r} s")
    if tr["absent"]:
        print("absent:", ", ".join(tr["absent"]))


def run_one(args) -> int:
    if not (ROOT / "src" / "corevol" / "cli.py").is_file():
        print(f"perfbench: no corevol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload, trace = args.workload, bool(args.trace)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = child_env()
    try:
        t0 = perf_counter()
        ops = prepare(workload, args.seed, work)
        gen_s = perf_counter() - t0
        module = "corevol" if workload == "group_words" else "corevol.cli"
        # one untimed import first warms the file cache and, unless the
        # caller set PYTHONDONTWRITEBYTECODE, writes the bytecode cache
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True,
                       timeout=60)
        spec, result = work / "spec.json", work / "result.json"
        spec.write_text(json.dumps({
            "workload": workload, "ops": ops, "seconds": args.seconds, "trace": trace,
            "setup_module": module,
            "block": workloads.BLOCK_OPS[workload],
            "blocks": max(1, round(args.seconds / workloads.NOMINAL_BLOCK_S[workload])),
            "spans_path": str(OUT / f"{workload}-spans.npz"),
        }), encoding="utf-8")
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec), str(result)],
                       env=env, stdout=sys.stderr, check=True,
                       timeout=args.seconds + WORKER_GRACE_S)
        res = json.loads(result.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    recs = res["records"]
    ok = [r for r in recs if r["error"] is None]
    if not ok:
        print(f"perfbench: no op succeeded: {res['first_error']}", file=sys.stderr)
        return 1
    wrong = [r for r in recs if r.get("wrong")]
    failed = [r for r in recs if r["error"] is not None and not r.get("wrong")]
    expected = {r["op"]: checks.expected_failure(ops[r["op"]]) for r in failed}
    unexpected = [r for r in failed if expected[r["op"]] is None]
    rerun_ok = res.get("rerun", {}).get("identical", False)
    correct = not wrong and not unexpected and rerun_ok

    print(f"== perfbench workload={workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(trace)}")
    why = {w["name"]: w["why"] for w in
           json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    print(f"why: {why.get(workload, '')}")
    print("loop: closed, 1 client, concurrency 1, in-process calls, threads pinned to 1")
    print("env:", json.dumps({"nproc": os.cpu_count(), "cpu": cpu_model(), **res["env"],
                              "threads": PINNED}))
    cal = res["calibration_s"]
    print(f"calibration_s: median {statistics.median(cal)!r} "
          f"(min {min(cal)!r}, max {max(cal)!r}, {len(cal)} repeats, one between every two ops)")
    print("traffic:", json.dumps(workloads.traffic_summary(workload, [ops[r["op"]] for r in recs])))
    print(f"inputs generated in {gen_s:.3f} s; ops attempted {len(recs)}, "
          f"failed {len(recs) - len(ok)}")
    failures = {}
    for r in recs:
        if r["error"] is not None:
            failures[r["error"]] = failures.get(r["error"], 0) + 1
    print("failures by kind:", json.dumps(failures), json.dumps(res["first_error"]))
    print(f"failures known from the inputs: {len(failed) - len(unexpected)} "
          f"({', '.join(sorted(set(filter(None, expected.values())))) or 'none'}); "
          f"unexpected: {len(unexpected)}; wrong outputs: {len(wrong)}")
    print(f"fingerprint: digest of first {res['digest_ops']} reports {res['digest']}; "
          f"re-run of op {res.get('rerun', {}).get('op')} byte-identical: {rerun_ok}")
    if trace:
        print_trace_tables(res)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer(res).items()}
        for k, v in metrics.items():
            print(f"{k:<36}{v['value']!r:>24} {v['unit']}")
    else:
        table, notes = end_to_end(res)
        print(f"{'metric':<20}{'value':>24} {'unit':<6}{'N':>6}")
        for k, (v, u, n) in table.items():
            print(f"{k:<20}{v!r:>24} {u:<6}{n:>6}")
        for note in notes:
            print(note)
        by_kind = {}
        for r in ok:
            by_kind.setdefault(r["kind"], []).append(r["dt"])
        print("p50_s by kind:", json.dumps({k: round(statistics.median(v), 6)
                                           for k, v in sorted(by_kind.items())}))
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in table.items()}
    (OUT / f"{workload}-seed{args.seed}-trace{int(trace)}.json").write_text(
        json.dumps({"metrics": metrics, **res}), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": len(recs),
                      "failed": len(recs) - len(ok), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, timeout=args.seconds + 3 * WORKER_GRACE_S)
            if proc.returncode != 0:
                return proc.returncode
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
