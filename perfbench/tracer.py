"""Spans and counters recorded from outside the program.

The tracer replaces public functions with wrappers at the names the program
looks them up by (a module global, or a class attribute for methods), so
calls made inside the program are seen too.  Spans are (name, start, end,
parent span, op id); self time is a span's duration minus the time its
child spans cover.  Every wrapped name starts with zero calls and zero
counts, so a name the program no longer has is missing from the results:
it is listed as absent, its metrics are left out, and it never stops a run.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# kind "span": timed span; "quad": timed span around adaptive_quad that also
# wraps its integrand; "count": call count only (too fine-grained to span).
TARGETS = [
    ("corevol.cli", "main", "span"),
    ("corevol.cli", "parse_config", "span"),
    ("corevol.cli", "validate", "span"),
    ("corevol.cli", "surface_invariants", "span"),
    ("corevol.cli", "profile_quadrature", "span"),
    ("corevol.cli", "wedge_volume_quadrature", "span"),
    ("corevol.cli", "pleated_profile", "span"),
    ("corevol.renvol", "truncated_volume_quadrature", "span"),
    ("corevol.renvol", "fit_expansion", "span"),
    ("corevol.renvol", "adaptive_quad", "quad"),
    ("corevol.pleated", "adaptive_quad", "quad"),
    ("corevol.anomaly", "laplacian", "span"),
    ("corevol.anomaly", "gradient_form", "span"),
    ("corevol.anomaly", "integrate", "span"),
    ("corevol.anomaly", "normalize_area", "span"),
    ("corevol.anomaly", "liouville_residual", "span"),
    ("corevol.anomaly", "boundary_flux", "span"),
    ("corevol.anomaly", "jensen_energy", "span"),
    ("corevol.anomaly", "field_from_csv", "span"),
    ("corevol.anomaly:SurfaceMesh", "from_function", "span"),
    ("corevol.schottky", "validate", "span"),
    ("corevol.schottky", "limit_set_sample", "span"),
    ("corevol.schottky", "enumerate_words", "span"),
    ("corevol.schottky", "word_mobius", "count"),
    ("corevol.surface", "surface_invariants", "span"),
    ("corevol.mobius:Mobius", "compose", "count"),
    ("corevol.mobius:Mobius", "apply", "count"),
]

LAYERS = {
    "quadrature": ("adaptive_quad", "integrand"),
    "renvol": ("truncated_volume_quadrature", "profile_quadrature", "fit_expansion"),
    "pleated": ("wedge_volume_quadrature", "pleated_profile"),
    "anomaly": ("laplacian", "gradient_form", "integrate", "normalize_area",
                "liouville_residual", "boundary_flux", "jensen_energy",
                "field_from_csv", "from_function"),
    "schottky": ("validate", "limit_set_sample", "enumerate_words"),
    "surface": ("surface_invariants",),
    "cli": ("main", "parse_config"),
}
ANOMALY_FUNCS = set(LAYERS["anomaly"])


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)   # outermost spans of each name only
        self.self_time = defaultdict(float)
        self.counts = Counter()  # also holds "err_est_max", a running maximum
        self.spans: list[tuple] = []
        self.names: dict[str, int] = {}
        self.keep_spans = False
        self.op_id = -1
        self._stack: list[list] = []
        self._open = Counter()
        self._next_id = 0
        self.absent: list[str] = []
        self.wrappers: list[tuple] = []
        for path, attr, kind in TARGETS:
            try:
                owner = _owner(path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{path}.{attr}")
                continue
            self.wrappers.append((owner, attr, original, self._wrap(attr, kind, original)))

    # -- installing ----------------------------------------------------------

    def install(self):
        for owner, attr, _, wrapper in self.wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.wrappers:
            setattr(owner, attr, original)

    # -- spans ---------------------------------------------------------------

    def push(self, name: str):
        self._open[name] += 1
        self._next_id += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id])

    def pop(self):
        end = perf_counter()
        name, start, child, span_id = self._stack.pop()
        dur = end - start
        self._open[name] -= 1
        self.calls[name] += 1
        if not self._open[name]:
            self.total[name] += dur
        self.self_time[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if self.keep_spans:
            idx = self.names.setdefault(name, len(self.names))
            self.spans.append((idx, start, end,
                               parent[3] if parent else 0, self.op_id, span_id))

    def _wrap(self, name: str, kind: str, fn):
        tracer = self
        if kind == "count":
            self.counts[f"{name}.calls"] = 0
            def counted(*args, **kwargs):
                tracer.counts[f"{name}.calls"] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "quad":
            return self._wrap_quad(fn)
        self.calls[name] = 0
        if name in ANOMALY_FUNCS:
            self.counts["bytes_computed"] = 0
        elif name == "enumerate_words":
            self.counts["words"] = 0

        def spanned(*args, **kwargs):
            tracer.push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.pop()
            if name in ANOMALY_FUNCS:
                # bytes of the arrays the call reads and returns: computed from
                # array sizes, not measured traffic
                extra = out if isinstance(out, tuple) else (out,)
                tracer.counts["bytes_computed"] += _nbytes(args) + _nbytes(extra)
            elif name == "enumerate_words":
                tracer.counts["words"] += len(out)
            return out
        return spanned

    def _wrap_quad(self, fn):
        tracer = self
        self.calls["adaptive_quad"] = self.calls["integrand"] = 0
        self.counts["integrand.evals"] = self.counts["quadrature.failures"] = 0
        self.counts["err_est_max"] = 0.0

        def adaptive_quad(f, *args, **kwargs):
            def integrand(x):
                tracer.counts["integrand.evals"] += np.size(x)
                tracer.push("integrand")
                try:
                    return f(x)
                finally:
                    tracer.pop()

            tracer.push("adaptive_quad")
            try:
                value, err = fn(integrand, *args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "QuadratureError":
                    tracer.counts["quadrature.failures"] += 1
                raise
            finally:
                tracer.pop()
            if value:
                tracer.counts["err_est_max"] = max(tracer.counts["err_est_max"],
                                                   abs(err / value))
            return value, err
        return adaptive_quad

    # -- results -------------------------------------------------------------

    def function_table(self) -> dict:
        return {name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]} for name in sorted(self.calls)}

    def layer_sums(self, table) -> dict:
        """Per layer, the sum over its names that were wrapped."""
        return {layer: sum(table[n] for n in names if n in self.calls)
                for layer, names in LAYERS.items() if any(n in self.calls for n in names)}

    def save_spans(self, path):
        arr = np.array(self.spans, dtype=float).reshape(-1, 6)
        np.savez_compressed(path, names=np.array(list(self.names)), name=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
                            op=arr[:, 4].astype(np.int32), id=arr[:, 5].astype(np.int64))
