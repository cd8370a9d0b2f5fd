"""Output checks against references the benchmark computes itself from the
generated inputs.  Nothing here imports the program under test.

Each check takes the op and the program's output and returns a dict of
measured accuracy figures; it raises CheckFailed when the output is wrong.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import word_count

U = np.finfo(float).eps


class CheckFailed(AssertionError):
    pass


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise CheckFailed(f"malformed report line {line!r}")
        out[key] = value
    return out


def _num(report: dict, key: str) -> float:
    if key not in report:
        raise CheckFailed(f"report has no {key!r}")
    return float(report[key])


def _close(what: str, got: float, want: float, rel: float, abs_: float = 0.0):
    if not abs(got - want) <= max(abs_, rel * abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


# --- topology of a row of real circles ---------------------------------------

def translation_length(m) -> float:
    a, b, c, d = m
    det = a * d - b * c
    return 2.0 * math.acosh(abs(a + d) / (2.0 * math.sqrt(det)))


def _matmul(m, n):
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def _inverse(m):
    return (m[3], -m[1], -m[2], m[0])


def end_structure(circles: list[dict], pairings: list[dict]):
    """(ends, surface genus, sorted end lengths) of the quotient surface.

    With the disks sorted along the line, arc j runs from disk j to disk
    j + 1 (cyclically).  An orientation-preserving pairing sends the left
    point of its disk to the right point of the partner, so following arc j
    to its end and through the pairing lands on the arc leaving the partner
    of disk j + 1.  The cycles of that permutation are the ends; each end's
    length comes from the trace of the product of the maps along it.
    """
    n = len(circles)
    order = sorted(range(n), key=lambda i: circles[i]["center"])
    pos = {c: k for k, c in enumerate(order)}
    partner, outward = {}, {}
    for p in pairings:
        m = tuple(p["matrix"])
        partner[p["source"]], partner[p["target"]] = p["target"], p["source"]
        outward[p["source"]], outward[p["target"]] = m, _inverse(m)
    seen, lengths = set(), []
    for start in range(n):
        if start in seen:
            continue
        hol, j = (1.0, 0.0, 0.0, 1.0), start
        while j not in seen:
            seen.add(j)
            nxt = order[(j + 1) % n]
            hol = _matmul(outward[nxt], hol)
            j = pos[partner[nxt]]
        lengths.append(translation_length(hol))
    ends = len(lengths)
    genus2 = len(pairings) + 1 - ends
    return ends, genus2 // 2, sorted(lengths)


def _fuchsian_topology(cfg: dict):
    if "generators" in cfg:
        # one hyperbolic axis generator: an annulus, both ends the axis geodesic
        length = cfg["generators"][0]["length"]
        return 2, 0, [length, length], 1
    ends, genus, lengths = end_structure(cfg["circles"], cfg["pairings"])
    return ends, genus, lengths, len(cfg["pairings"])


# --- renvol ------------------------------------------------------------------

# Fit coefficients of the exact four-term model, in design-column order
FIT_KEYS = ("fit.c_eps_m2", "fit.c_log", "fit.V", "fit.c_eps_2")
# Share of the requested quadrature tolerance each sample may use up.  The
# quadrature today lands within ~1e-2 of it (the fit errors sit at 1e-5 to
# 1.2e-2 of the full propagated bound), so a tenth leaves ~10x headroom and
# still fails an engine that is 10x less accurate than today's.
QUAD_SHARE = 0.1


def fit_reference(total_length: float, core_area: float) -> np.ndarray:
    """Closed-form coefficients of eps^-2, log eps, 1, eps^2 in the derived
    truncated volume 2A(lam/2 + sinh(2 lam)/4) + (pi/2) sinh^2(lam) sum L."""
    a, s = core_area, math.pi / 8.0 * total_length
    return np.array([a / 4.0 + s, -a, -2.0 * s, -a / 4.0 + s])


def fit_bounds(cfg: dict, total_length: float, core_area: float) -> np.ndarray:
    """Bound on each fitted coefficient from the per-sample tolerance.

    A sample with relative error QUAD_SHARE * tol plus a few units of
    roundoff, pushed through row j of the pseudo-inverse, moves coefficient
    j by at most sum_i |P_ji| (QUAD_SHARE tol + 64 u) |vol_i|.  The bound on
    V grows like eps_min^-2, the magnitude of the samples it comes from."""
    grid = cfg["epsilon_grid"]
    eps = np.geomspace(grid["max"], grid["min"], grid["count"])
    design = np.column_stack([eps ** -2, np.log(eps), np.ones_like(eps), eps ** 2])
    vol = design @ fit_reference(total_length, core_area)
    return (np.abs(np.linalg.pinv(design)) @ np.abs(vol)) * (
        QUAD_SHARE * cfg["quadrature_tol"] + 64.0 * U)


def check_renvol(op: dict, text: str) -> dict:
    cfg = op["config"]
    r = parse_report(text)
    ends, genus, lengths, g = _fuchsian_topology(cfg)
    if (int(r["surface.ends"]), int(r["surface.genus"]),
            int(r["group.genus_handlebody"])) != (ends, genus, g):
        raise CheckFailed(f"topology {r['surface.ends']}/{r['surface.genus']} "
                          f"expected {ends}/{genus}")
    got = sorted(float(x) for x in r["surface.end_lengths"].split(", "))
    for a, b in zip(got, lengths):
        _close("end length", a, b, 1e-8)
    total = sum(lengths)
    core_area = 2.0 * math.pi * (g - 1)
    _close("surface.core_area", _num(r, "surface.core_area"), core_area, 1e-12, 1e-12)
    _close("closed.derived.V", _num(r, "closed.derived.V"), -math.pi / 4 * total, 1e-8)
    _close("closed.paper.V", _num(r, "closed.paper.V"), -math.pi / 2 * total, 1e-8)
    ref = fit_reference(total, core_area)
    err = np.abs(np.array([_num(r, k) for k in FIT_KEYS]) - ref)
    bound = fit_bounds(cfg, total, core_area)
    for key, e, b in zip(FIT_KEYS, err, bound):
        if not e <= b:
            raise CheckFailed(f"{key} off its closed form by {e!r}, bound {b!r}")
    return {"fit_V_abs_err": float(err[2]), "fit_err_over_bound": float(np.max(err / bound)),
            "fit_condition": _num(r, "fit.condition"),
            "warnings": sum(1 for k in r if k.startswith("warning."))}


# --- wedge -------------------------------------------------------------------

def check_wedge(op: dict, text: str) -> dict:
    cfg = op["config"]
    r = parse_report(text)
    leaves = cfg["leaves"]
    grid = cfg["epsilon_grid"]
    eps_check = math.sqrt(grid["min"] * grid["max"])
    _close("eps.check", _num(r, "eps.check"), eps_check, 1e-15)
    sinh2 = math.sinh(-math.log(eps_check)) ** 2
    worst = 0.0
    for i, leaf in enumerate(leaves):
        derived = (math.pi - leaf["theta"]) * leaf["length"] * sinh2 / 2.0
        _close(f"leaf.{i} derived wedge", _num(r, f"leaf.{i}.wedge_derived_at_eps_check"),
               derived, 1e-12)
        quad = _num(r, f"leaf.{i}.wedge_quadrature_at_eps_check")
        gap = abs(quad - derived) / derived if derived else abs(quad)
        if not gap <= 1e-5:
            raise CheckFailed(f"leaf {i}: wedge quadrature relative gap {gap!r}")
        worst = max(worst, gap)
    bend = sum((math.pi - x["theta"]) * x["length"] for x in leaves)
    core = cfg["core_volume"]
    _close("closed.derived.V", _num(r, "closed.derived.V"), core - bend / 4.0, 1e-12, 1e-12)
    _close("closed.paper.V", _num(r, "closed.paper.V"), core - bend / 2.0, 1e-12, 1e-12)
    if any("wedge quadrature disagrees" in v for k, v in r.items() if k.startswith("warning.")):
        raise CheckFailed("report warns that the wedge quadrature disagrees")
    return {"wedge_rel_gap": worst, "leaves": len(leaves),
            "warnings": sum(1 for k in r if k.startswith("warning."))}


# --- anomaly -----------------------------------------------------------------

def check_anomaly(op: dict, text: str) -> dict:
    mesh = op["config"]["mesh"]
    r = parse_report(text)
    n_t, n_theta, T = mesh["n_t"], mesh["n_theta"], mesh["t_extent"]
    nodes = n_t * n_theta
    if (int(r["mesh.n_t"]), int(r["mesh.n_theta"])) != (n_t, n_theta):
        raise CheckFailed("mesh size differs from the config")
    hyperbolic = mesh["tag"] == "hyperbolic_cylinder"
    analytic = 2.0 * mesh["circumference"] * (math.sinh(T) if hyperbolic else T)
    _close("mesh.analytic_area", _num(r, "mesh.analytic_area"), analytic, 1e-12)
    # trapezoid rule in t: error dt^2 / 12 * int cosh'' = dt^2 / 12 * area on
    # the hyperbolic tag, exact (f = 1) on the flat one
    dt = 2.0 * T / (n_t - 1)
    area_err = abs(_num(r, "mesh.area") - analytic)
    area_bound = ((dt * dt / 6.0 if hyperbolic else 0.0) + 1e3 * U) * analytic
    if not area_err <= area_bound:
        raise CheckFailed(f"area off analytic by {area_err!r} > {area_bound!r}")
    # integration by parts holds to roundoff: scale by the size of its terms
    energy = abs(_num(r, "gradient_energy"))
    defect = _num(r, "integration_by_parts_defect")
    ibp_bound = 64.0 * U * math.sqrt(nodes) * max(energy, 1.0)
    if not defect <= ibp_bound:
        raise CheckFailed(f"integration-by-parts defect {defect!r} > {ibp_bound!r}")
    if hyperbolic:
        jensen = _num(r, "jensen_energy_normalized")
        if not jensen >= -64.0 * U * math.sqrt(nodes) * max(energy, 1.0):
            raise CheckFailed(f"Jensen energy {jensen!r} is negative")
    kind = op["config"]["field"]["kind"]
    if kind in ("zero", "constant") and energy != 0.0:
        raise CheckFailed(f"{kind} field has gradient energy {energy!r}")
    for key in ("liouville.residual_max", "liouville.residual_rms", "conformal_change_term"):
        if not math.isfinite(_num(r, key)):
            raise CheckFailed(f"{key} is not finite")
    return {"ibp_defect": defect, "nodes": nodes}


# --- group words -------------------------------------------------------------

def check_words(op: dict, result: dict) -> dict:
    cfg = op["config"]
    ends, genus, lengths = end_structure(cfg["circles"], cfg["pairings"])
    if result["genus"] != len(cfg["pairings"]):
        raise CheckFailed(f"validated genus {result['genus']}")
    if (result["ends"], result["surface_genus"]) != (ends, genus):
        raise CheckFailed(f"topology {result['ends']}/{result['surface_genus']} "
                          f"expected {ends}/{genus}")
    for a, b in zip(result["end_lengths"], lengths):
        _close("end length", a, b, 1e-8)
    pts = np.asarray(result["points"], dtype=float)
    if pts.size == 0 or not np.all(np.isfinite(pts)):
        raise CheckFailed("limit set sample is empty or not finite")
    if not np.all(np.diff(pts) > 0.0):
        raise CheckFailed("limit set sample is not strictly sorted")
    centers = np.array([c["center"] for c in cfg["circles"]])
    radii = np.array([c["radius"] for c in cfg["circles"]])
    dist = np.abs(pts[:, None] - centers[None, :]) - radii[None, :] * (1.0 + 1e-9)
    if not np.all((dist <= 0.0).any(axis=1)):
        raise CheckFailed("limit set point outside every disk")
    words = word_count(cfg)
    if len(pts) > words - 1:
        raise CheckFailed(f"{len(pts)} points from {words - 1} nonempty words")
    return {"points": int(len(pts)), "nonempty_words": words - 1}


# --- failures known from the inputs -------------------------------------------

def word_entry_max(cfg: dict, stop: float = math.inf) -> float:
    """Largest entry over the products of all reduced words of length <=
    depth, letters multiplied in written order, each generator scaled to
    determinant 1.  Returns early once the entry passes `stop`."""
    letters = []
    for p in cfg["pairings"]:
        m = np.array(p["matrix"], dtype=float).reshape(2, 2)
        m /= math.sqrt(np.linalg.det(m))
        letters += [m, np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])]
    letters = np.array(letters)  # letters 2i and 2i + 1 are inverse
    prod, last = letters, np.arange(len(letters))
    best = float(np.abs(prod).max())
    for _ in range(cfg["depth"] - 1):
        if best > stop:
            break
        nxt = np.array([(j, k) for j, lj in enumerate(last) for k in range(len(letters))
                        if k != lj ^ 1])
        prod, last = prod[nxt[:, 0]] @ letters[nxt[:, 1]], nxt[:, 1]
        best = max(best, float(np.abs(prod).max()))
    return best


# A real Mobius product is rejected when its computed determinant drops to
# 1e-12, and that determinant carries a roundoff of about u * entry^2.  No
# product has failed with u * entry^2 below 1; the margin is 10x.
CANCEL_SHARE = 0.1


def expected_failure(op: dict) -> str | None:
    """Why the program is known to fail on this op's input, or None."""
    cfg = op["config"]
    if op["command"] == "wedge" and any(leaf["theta"] == 0.0 for leaf in cfg["leaves"]):
        return "theta = 0 leaf"
    if op["command"] == "group_words":
        stop = math.sqrt(CANCEL_SHARE / U)
        if word_entry_max(cfg, stop) > stop:
            return "word products cancel their determinant"
    return None


CHECKS = {"renvol": check_renvol, "wedge": check_wedge, "anomaly": check_anomaly,
          "group_words": check_words}
