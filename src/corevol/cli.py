"""Batch front end: JSON configs in, key-value reports and CSV profiles out.

Commands: validate, surface-info, renvol, wedge, anomaly.  Reports are
deterministic (no timestamps); validation failures, and a malformed command
line, exit nonzero with a machine-readable JSON error object on stdout.
"""

from __future__ import annotations

import errno
import json
import math
import os
import sys

from .mobius import Mobius
from .pleated import PleatedCoreData, PleatLeaf, wedge_volume_quadrature
from . import renvol  # fit_expansion is called where perfbench/tracer.py wraps it
from .renvol import (
    Convention,
    PROVENANCE_QUADRATURE,
    _finite_volume,
    closed_profile,
    closed_volume,
    default_eps_grid,
    profile_quadrature,
    renormalized_volume,
    surface_terms,
)
from .schottky import (
    Circle,
    Pairing,
    SchottkyData,
    SchottkyError,
    generator_from_axis,
    validate,
)
from .surface import SurfaceTopologyError, surface_invariants

DISCREPANCY_THRESHOLD = 1e-4
# smallest epsilon_grid.min: the closed forms take eps ** -2 and sinh(2 lambda),
# which overflow a double below about 1e-154
EPS_FLOOR = 1e-150
EPS_COUNT_MAX = 1024  # largest epsilon_grid.count, checked before the grid is allocated

CONVENTIONS = {
    "paper": (Convention.PAPER,),
    "derived": (Convention.DERIVED,),
    "both": (Convention.PAPER, Convention.DERIVED),
}


class ConfigError(ValueError):
    pass


class ParseError(ValueError):
    pass


def _unique_keys(pairs) -> dict:
    """json object_pairs_hook: a key given twice in one object is a config
    error, not a silent choice of its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config: key {key!r} given twice in one object")
        obj[key] = value
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _need(raw: dict, key: str, where: str):
    if key not in raw:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return raw[key]


def _number(value, where: str) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _integer(value, where: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    _number(value, where)  # an int past the float64 range is not finite either
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _matrix(value, where: str) -> list:
    if not isinstance(value, list) or len(value) != 4:
        raise ConfigError(f"{where}: expected [a, b, c, d] row-major")
    return [_number(x, f"{where}[{k}]") for k, x in enumerate(value)]


def _record(raw, where: str, checks: dict, defaults: dict | None = None) -> dict:
    """Typed record: the value of every key in `checks` (or its default),
    checked; keys outside `checks` are dropped."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {raw!r}")
    raw = {**(defaults or {}), **raw}
    return {key: check(_need(raw, key, where), f"{where}.{key}")
            for key, check in checks.items()}


def _records(raw: dict, key: str, where: str, checks: dict) -> list:
    items = raw.get(key, [])
    if not isinstance(items, list):
        raise ConfigError(f"{where}.{key}: expected a list, got {items!r}")
    return [_record(item, f"{where}.{key}[{k}]", checks) for k, item in enumerate(items)]


GRID = {"min": _number, "max": _number, "count": _integer}
GRID_DEFAULTS = {"min": 1e-3, "max": 0.3, "count": 12}
AXIS = {"p": _number, "q": _number, "length": _number}
CIRCLE = {"center": _number, "radius": _number}
PAIRING = {"source": _integer, "target": _integer, "matrix": _matrix}
LEAF = {"length": _number, "theta": _number}
MESH = {"tag": _string, "t_extent": _number, "circumference": _number,
        "n_t": _integer, "n_theta": _integer}
# field kind -> (parameter checks, parameter defaults)
FIELD_KINDS = {
    "zero": ({}, {}),
    "constant": ({"value": _number}, {"value": 0.0}),
    "theta_mode": ({"k": _integer, "amplitude": _number}, {"k": 1, "amplitude": 1.0}),
    "log_sech_t": ({}, {}),
    "csv": ({"path": _string}, {}),
}


def _field(raw, where: str) -> dict:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"{where}: expected an object with a 'kind'")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in FIELD_KINDS:
        raise ConfigError(f"{where}.kind: unknown field kind {kind!r}")
    return {"kind": kind, **_record(raw, where, *FIELD_KINDS[kind])}


def parse_config(raw) -> dict:
    """Check a raw config and return it normalized: defaults filled in,
    numbers finite floats, counts ints, unknown keys dropped.  The result is
    what --echo-config prints and what every command reads, and parsing it
    again returns it unchanged."""
    where = "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: top level must be an object")
    mode = _need(raw, "mode", where)
    if mode not in ("fuchsian_group", "pleated_core", "anomaly_check"):
        raise ConfigError(f"{where}.mode: unknown mode {mode!r}")
    name = _string(raw.get("name", "group"), f"{where}.name")
    convention = raw.get("convention", "both")
    if not isinstance(convention, str) or convention not in CONVENTIONS:
        raise ConfigError(f"{where}.convention: must be paper, derived or both")
    grid = _record(raw.get("epsilon_grid", {}), f"{where}.epsilon_grid", GRID, GRID_DEFAULTS)
    if not (0.0 < grid["min"] < grid["max"] < 1.0):
        raise ConfigError(f"{where}.epsilon_grid: need 0 < min < max < 1")
    if grid["min"] < EPS_FLOOR:
        raise ConfigError(f"{where}.epsilon_grid.min: must be at least {EPS_FLOOR!r}, "
                          f"got {grid['min']!r}")
    if not 8 <= grid["count"] <= EPS_COUNT_MAX:
        raise ConfigError(f"{where}.epsilon_grid.count: need at least 8 for fitting and "
                          f"at most {EPS_COUNT_MAX}, got {grid['count']!r}")
    cfg = {
        "mode": mode,
        "name": name,
        "convention": convention,
        "epsilon_grid": grid,
    }

    if mode == "fuchsian_group":
        generators = _records(raw, "generators", where, AXIS)
        circles = _records(raw, "circles", where, CIRCLE)
        pairings = _records(raw, "pairings", where, PAIRING)
        if generators and (circles or pairings):
            raise ConfigError(
                f"{where}: give either circles+pairings or axis generators, not both"
            )
        if generators:
            cfg["generators"] = generators
        elif circles and pairings:
            cfg["circles"], cfg["pairings"] = circles, pairings
        else:
            raise ConfigError(f"{where}: fuchsian_group needs circles and pairings")
    elif mode == "pleated_core":
        cfg["core_volume"] = _number(raw.get("core_volume", 0.0), f"{where}.core_volume")
        cfg["leaves"] = _records(raw, "leaves", where, LEAF)
        if "boundary_area" in raw and "boundary_genus" in raw:
            raise ConfigError(f"{where}: give either boundary_area or boundary_genus, not both")
        if "boundary_area" in raw:
            cfg["boundary_area"] = _number(raw["boundary_area"], f"{where}.boundary_area")
        if "boundary_genus" in raw:
            cfg["boundary_genus"] = _integer(raw["boundary_genus"], f"{where}.boundary_genus")
    else:
        cfg["mesh"] = _record(_need(raw, "mesh", where), f"{where}.mesh", MESH)
        cfg["field"] = _field(raw.get("field", {"kind": "zero"}), f"{where}.field")
    return cfg


def build_group(cfg: dict):
    if "generators" in cfg:
        circles, pairings = [], []
        for gen in cfg["generators"]:
            mob, src, tgt = generator_from_axis(**gen)
            pairings.append(Pairing(len(circles), len(circles) + 1, mob))
            circles.extend((src, tgt))
    else:
        circles = [Circle(**c) for c in cfg["circles"]]
        pairings = [Pairing(p["source"], p["target"], Mobius(*p["matrix"]))
                    for p in cfg["pairings"]]
    return validate(SchottkyData(tuple(circles), tuple(pairings)))


def _fmt(value, key: str) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"report value {key} = {value!r} leaves the float64 range")
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v, key) for v in value)
    return str(value)


class Report:
    def __init__(self):
        self.lines: list[tuple[str, str]] = []
        self._warnings = 0

    def add(self, key: str, value):
        if type(value) is float and math.isfinite(value):
            self.lines.append((key, repr(value)))
        else:
            self.lines.append((key, _fmt(value, key)))

    def warn(self, message: str):
        self._warnings += 1
        self.lines.append((f"warning.{self._warnings}", message))

    def text(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.lines) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def write_profile_csv(profile, path: str) -> None:
    lines = ["epsilon,lambda,vol,provenance"]
    for eps, vol in profile.samples:
        lines.append(f"{eps!r},{-math.log(eps)!r},{vol!r},{profile.provenance}")
    _write_text(path, "\n".join(lines) + "\n")


def _fs_path(path: str) -> str:
    """path, or an OSError naming it when no file can have it: a NUL byte or
    a lone surrogate, which the file functions report as a ValueError."""
    if "\0" in path:
        raise OSError(errno.EINVAL, "a path cannot hold a NUL byte", path)
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise OSError(errno.EINVAL, "a path cannot hold a lone surrogate", path) from None
    return path


def _csv_profiles(cfg: dict, terms, oracle_profiles) -> list:
    """The profiles --csv writes: the closed form of `terms`, if any, under
    each convention of the config, on its eps grid, then the oracle's."""
    grid = cfg["epsilon_grid"]
    eps_grid = default_eps_grid(grid["min"], grid["max"], grid["count"])
    conventions = CONVENTIONS[cfg["convention"]] if terms else ()
    return [*(closed_profile(terms, eps_grid, conv) for conv in conventions), *oracle_profiles]


def _emit(report: Report, out, profiles) -> None:
    # files first: if --out cannot be written, the JSON error is all that prints
    if out is not None:
        os.makedirs(_fs_path(out), exist_ok=True)
        _write_text(os.path.join(out, "report.txt"), report.text())
        for profile in profiles:
            write_profile_csv(profile, os.path.join(out, f"profile_{profile.provenance}.csv"))
    sys.stdout.write(report.text())


def _group_summary(report: Report, group):
    report.add("group.genus_handlebody", group.genus)
    report.add("group.circles", len(group.circles))


def _surface_summary(report: Report, surface):
    report.add("surface.ends", surface.ends)
    report.add("surface.genus", surface.genus)
    report.add("surface.end_lengths", list(surface.end_lengths))
    report.add("surface.total_end_length", surface.total_end_length)
    report.add("surface.core_area", surface.core_area)


def _paper_vs_derived(report: Report, closed_v: dict, why: str):
    if Convention.PAPER in closed_v and Convention.DERIVED in closed_v:
        gap = abs(closed_v[Convention.PAPER] - closed_v[Convention.DERIVED])
        report.add("discrepancy.paper_vs_derived.V", gap)
        if gap > DISCREPANCY_THRESHOLD:
            report.warn(f"{why}; paper and derived conventions disagree on V")


def cmd_validate(cfg: dict, report: Report):
    group = build_group(cfg)
    report.add("valid", "true")
    _group_summary(report, group)
    return (), ()


def cmd_surface_info(cfg: dict, report: Report):
    group = build_group(cfg)
    _group_summary(report, group)
    _surface_summary(report, surface_invariants(group))
    return (), ()


def cmd_renvol(cfg: dict, report: Report):
    group = build_group(cfg)
    surface = surface_invariants(group)
    conventions = CONVENTIONS[cfg["convention"]]
    grid = cfg["epsilon_grid"]
    eps_grid = default_eps_grid(grid["min"], grid["max"], grid["count"])

    _group_summary(report, group)
    _surface_summary(report, surface)
    report.add("eps.min", grid["min"])
    report.add("eps.max", grid["max"])
    report.add("eps.count", grid["count"])

    terms = surface_terms(surface)
    closed_v = {conv: renormalized_volume(terms, conv) for conv in conventions}
    for conv, v in closed_v.items():
        report.add(f"closed.{conv.value}.V", v)
        report.add(f"closed.{conv.value}.vol_at_eps_max", closed_volume(terms, grid["max"], conv))

    quad_profile = profile_quadrature(surface, eps_grid)
    report.add("quadrature.cells", quad_profile.cells)
    rel_bounds = [b / abs(v) for (_, v), b in zip(quad_profile.samples, quad_profile.bounds) if v]
    report.add("quadrature.rel_bound_max", max(rel_bounds, default=0.0))
    fit = renvol.fit_expansion(*zip(*quad_profile.samples))
    report.add("fit.provenance", PROVENANCE_QUADRATURE)
    report.add("fit.c_eps_m2", fit.c_m2)
    report.add("fit.c_log", fit.c_log)
    report.add("fit.V", fit.v)
    report.add("fit.c_eps_2", fit.c_2)
    report.add("fit.residual", fit.residual)
    report.add("fit.condition", fit.condition)

    for conv, v in closed_v.items():
        gap = abs(fit.v - v)
        report.add(f"discrepancy.fit_vs_{conv.value}.V", gap)
        if gap > DISCREPANCY_THRESHOLD:
            report.warn(
                f"fitted V differs from the {conv.value} closed form by {gap!r}; "
                "the quadrature oracle does not support that convention's constants"
            )
    _paper_vs_derived(report, closed_v,
                      "printed end-cylinder coefficient is twice the induced-metric value")
    return terms, [quad_profile]


def _build_core(cfg: dict) -> PleatedCoreData:
    leaves = tuple(PleatLeaf(**leaf) for leaf in cfg["leaves"])
    if "boundary_genus" in cfg:
        return PleatedCoreData.from_genus(cfg["core_volume"], leaves, cfg["boundary_genus"])
    return PleatedCoreData(cfg["core_volume"], leaves, cfg.get("boundary_area", 0.0))


def cmd_wedge(cfg: dict, report: Report):
    core = _build_core(cfg)
    conventions = CONVENTIONS[cfg["convention"]]
    grid = cfg["epsilon_grid"]
    eps_check = math.sqrt(grid["min"] * grid["max"])

    report.add("core.volume", core.core_volume)
    report.add("core.boundary_area", core.boundary_area)
    report.add("core.leaves", len(core.leaves))
    for i, leaf in enumerate(core.leaves):
        report.add(f"leaf.{i}.length", leaf.length)
        report.add(f"leaf.{i}.theta", leaf.theta)

    terms = core.terms
    closed_v = {conv: renormalized_volume(terms, conv) for conv in conventions}
    for conv, v in closed_v.items():
        report.add(f"closed.{conv.value}.V", v)
    quads, errs, cells = wedge_volume_quadrature(core.leaves, eps_check)
    report.add("quadrature.cells", cells)
    # a leaf's closed form is its bending times the unit wedge's: for the
    # one term, closed_volume's sum fsum([w * unit]) is w * unit itself
    unit = closed_volume([("wedge", 1.0)], eps_check, Convention.DERIVED)
    for i, (leaf, quad, err) in enumerate(zip(core.leaves, quads, errs)):
        derived = _finite_volume((math.pi - leaf.theta) * leaf.length * unit, eps_check)
        report.add(f"leaf.{i}.wedge_derived_at_eps_check", derived)
        report.add(f"leaf.{i}.wedge_quadrature_at_eps_check", quad)
        report.add(f"leaf.{i}.wedge_quadrature_err_est", err)
        gap = abs(quad - derived) / max(abs(derived), 1e-300)
        if derived != 0.0 and gap > 1e-5:
            report.warn(
                f"leaf {i}: wedge quadrature disagrees with the derived closed "
                f"form (relative gap {gap!r})"
            )
    _paper_vs_derived(report, closed_v, "printed wedge profile uses a first power of eps "
                      "where the squared form is implied")
    report.add("eps.check", eps_check)
    return terms, ()


def _build_field(mesh, field: dict):
    import numpy as np

    from .anomaly import field_from_csv

    kind = field["kind"]
    if kind != "csv":
        # a generated field is a read-only broadcast of its 1-d profile and
        # is never materialized: `anomaly_functionals` reads it a block at a
        # time.  A mesh whose field would not fit in memory is still an
        # error, checked before the profile (which would itself be
        # gigabytes).  The profile is built with math, whose results do not
        # move with numpy's SIMD paths
        mesh.check_fits()
        if kind == "theta_mode":
            omega = 2.0 * math.pi * field["k"] / mesh.circumference
            if not math.isfinite(omega):
                raise OverflowError(f"the frequency 2 pi k / circumference = {omega!r} overflows")
            amplitude = field["amplitude"]
            profile = np.array([amplitude * math.sin(omega * theta)
                                for theta in mesh.theta.tolist()])
        elif kind == "log_sech_t":
            # -log cosh t; past |t| = acosh(largest float) = 710.4758600739439,
            # where cosh t overflows, its equal log 2 - |t| - log1p(exp(-2|t|))
            profile = np.array([-math.log(math.cosh(t)) if abs(t) <= 710.4758600739439
                                else math.log(2.0) - abs(t) - math.log1p(math.exp(-2.0 * abs(t)))
                                for t in mesh.t.tolist()])[:, None]
        else:  # zero or constant
            profile = float(field.get("value", 0.0))
        return np.broadcast_to(profile, (mesh.n_t, mesh.n_theta))
    path = field["path"]
    file_mesh, u = field_from_csv(_fs_path(path))
    if any(getattr(file_mesh, key) != getattr(mesh, key) for key in MESH):
        raise ConfigError(f"field file {path} does not match the configured mesh")
    return u


def cmd_anomaly(cfg: dict, report: Report):
    # numpy and the mesh functionals load here only: no other command needs them
    import numpy as np

    from .anomaly import SurfaceMesh, anomaly_functionals

    # a mesh or field extreme enough that a functional leaves the float64
    # range is a value error, not a report of inf or nan
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            mesh = SurfaceMesh(**cfg["mesh"])
            values = anomaly_functionals(mesh, _build_field(mesh, cfg["field"]))
            report.add("mesh.tag", mesh.tag)
            report.add("mesh.n_t", mesh.n_t)
            report.add("mesh.n_theta", mesh.n_theta)
            report.add("mesh.area", values.pop("mesh.area"))
            report.add("mesh.analytic_area", mesh.analytic_area)
            report.add("field.kind", cfg["field"]["kind"])
            for key, value in values.items():
                report.add(key, value)
    except ArithmeticError as exc:
        raise ValueError(
            f"the anomaly functionals leave the float64 range on this mesh and field ({exc})"
        ) from None
    return (), ()


# command -> (handler, the config mode it needs); a handler takes (cfg, report),
# adds its lines to the report that `main` heads and emits, and returns its
# closed form's (term, weight) pairs, if it has one, and its oracle profiles,
# from which `_csv_profiles` makes what --csv writes
COMMANDS = {
    "validate": (cmd_validate, "fuchsian_group"),
    "surface-info": (cmd_surface_info, "fuchsian_group"),
    "renvol": (cmd_renvol, "fuchsian_group"),
    "wedge": (cmd_wedge, "pleated_core"),
    "anomaly": (cmd_anomaly, "anomaly_check"),
}


def _convention(value: str) -> str:
    if value not in CONVENTIONS:
        raise ValueError(f"must be one of {', '.join(CONVENTIONS)}, got {value!r}")
    return value


# flag -> (field, converter, metavar, help); a flag without a converter takes
# no value and sets its field to True
OPTIONS = {
    "--config": ("config", str, "PATH", "path to a JSON config (required)"),
    "--out": ("out", str, "DIR", "directory for report.txt and CSV output"),
    "--csv": ("csv", None, "", "write profile CSVs to --out"),
    "--convention": ("convention", _convention, "NAME",
                     f"override the config convention: {', '.join(CONVENTIONS)}"),
    "--eps-min": ("eps_min", float, "X", "override epsilon grid minimum"),
    "--eps-max": ("eps_max", float, "X", "override epsilon grid maximum"),
    "--eps-count": ("eps_count", int, "N", "override epsilon grid size"),
    "--echo-config": ("echo_config", None, "", "print the normalized config as JSON and exit"),
}
HELP_FLAGS = ("-h", "--help")

HELP = "\n".join([
    "usage: corevol {" + "|".join(COMMANDS) + "} --config PATH [options]",
    "",
    "Renormalized volumes of Schottky hyperbolic 3-manifolds normalized by the",
    "distance to the convex core.",
    "",
    "options, as --opt value or --opt=value, each at most once, before or after",
    "the command:",
    *(f"  {f'{flag} {metavar}'.rstrip():20} {text}"
      for flag, (_, _, metavar, text) in OPTIONS.items()),
    f"  {', '.join(HELP_FLAGS):20} print this help and exit",
]) + "\n"


class UsageError(ValueError):
    pass


def _is_option(arg: str) -> bool:
    return arg.startswith("--") or arg in HELP_FLAGS


def _parse_argv(argv) -> dict | None:
    """The command line as {field: value} for "command" and every OPTIONS
    field (None, or False for a flag, when not given), or None when it asks
    for help.  A malformed command line raises UsageError."""
    args = {field: None if convert else False for field, convert, *_ in OPTIONS.values()}
    args["command"] = None
    seen = set()
    rest = iter(argv)
    for arg in rest:
        if not _is_option(arg):
            if args["command"] is not None:
                raise UsageError(f"unexpected argument {arg!r} after the command")
            if arg not in COMMANDS:
                raise UsageError(f"unknown command {arg!r}; commands: {', '.join(COMMANDS)}")
            args["command"] = arg
            continue
        flag, eq, value = arg.partition("=")
        if flag in HELP_FLAGS:
            return None
        if flag not in OPTIONS:
            raise UsageError(f"unknown option {flag!r}")
        if flag in seen:
            raise UsageError(f"option {flag} given twice")
        seen.add(flag)
        field, convert, *_ = OPTIONS[flag]
        if convert is None:
            if eq:
                raise UsageError(f"option {flag} takes no value")
            args[field] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None or _is_option(value):
                raise UsageError(f"option {flag} needs a value")
        try:
            args[field] = convert(value)
        except ValueError as exc:
            raise UsageError(f"option {flag}: {exc}") from None
    if args["command"] is None:
        raise UsageError(f"missing command; commands: {', '.join(COMMANDS)}")
    if args["config"] is None:
        raise UsageError("missing option --config")
    if args["csv"] and args["out"] is None:
        raise UsageError("option --csv needs --out to know where to write")
    return args


def _with_overrides(raw, args: dict):
    """The raw config with the override flags written into it, so they pass
    through parse_config exactly like keys of the file."""
    if not isinstance(raw, dict):
        return raw
    raw = dict(raw)
    if args["convention"] is not None:
        raw["convention"] = args["convention"]
    grid = raw.get("epsilon_grid", {})
    if isinstance(grid, dict):
        flags = (("min", args["eps_min"]), ("max", args["eps_max"]),
                 ("count", args["eps_count"]))
        raw["epsilon_grid"] = {**grid, **{k: v for k, v in flags if v is not None}}
    return raw


def _read_config(path: str):
    """The JSON value in the config file at `path`.  A file that cannot be
    read is an OSError, and text that is not JSON a ParseError, each naming
    the path; a key given twice in one object is a ConfigError."""
    try:
        # bytes, read whole and decoded at once: no newline translation,
        # and a decode error's offset is the byte's offset in the file
        with open(_fs_path(path), "rb", buffering=0) as f:
            text = f.readall().decode("utf-8")
        if text.startswith("\ufeff"):  # json.loads's check, which decode() skips
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:
        # an integer past the decoder's digit limit, or nesting past its depth
        raise ParseError(f"{path}: {exc}") from None


# type raised -> (error kind, exit code), subclasses before their bases: the
# first type that matches rules.  A SchottkyError (kind None) names its own
# kind and adds its detail
FAILURES = {
    UsageError: ("usage", 2),
    ConfigError: ("config", 1),
    ParseError: ("parse", 1),
    OSError: ("io", 1),
    SchottkyError: (None, 2),
    SurfaceTopologyError: ("surface_topology", 2),
    ValueError: ("value", 2),
    MemoryError: ("value", 2),
}


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(HELP)
            return 0
        cfg = parse_config(_with_overrides(_read_config(args["config"]), args))
        if args["echo_config"]:
            print(json.dumps(cfg, sort_keys=True, indent=2))
            return 0
        command, mode = COMMANDS[args["command"]]
        if cfg["mode"] != mode:
            raise ConfigError(f"command needs mode {mode}, config has {cfg['mode']}")
        report = Report()
        report.add("command", args["command"])
        report.add("name", cfg["name"])
        terms, profiles = command(cfg, report)
        # built before any file is written, so a profile that fails leaves none
        _emit(report, args["out"], _csv_profiles(cfg, terms, profiles) if args["csv"] else ())
        return 0
    except tuple(FAILURES) as exc:
        kind, code = next(row for raised, row in FAILURES.items() if isinstance(exc, raised))
        message, detail = str(exc), {}
        if kind is None:
            kind, detail = exc.kind, exc.detail
        if isinstance(exc, MemoryError):
            message = f"out of memory: {message}" if message else "out of memory"
        print(json.dumps({"error": {"kind": kind, "message": message, **detail}}, sort_keys=True))
        return code


if __name__ == "__main__":
    sys.exit(main())
