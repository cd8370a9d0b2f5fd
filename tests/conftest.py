import math

import numpy as np
import pytest

from corevol import (
    Circle,
    Pairing,
    SchottkyData,
    cyclic_group,
    pairing_from_circles,
    surface_invariants,
    validate,
)
from corevol import anomaly


def make_cyclic(s: float):
    """Genus-1 group whose generator is [[cosh s, sinh s], [sinh s, cosh s]];
    both quotient ends have length 2s."""
    return validate(cyclic_group(-1.0, 1.0, 2.0 * s))


def make_row_group(centers, radius, pairs):
    """Disjoint circles in a row on the real line, paired as requested."""
    circles = tuple(Circle(float(c), radius) for c in centers)
    pairings = tuple(
        Pairing(i, j, pairing_from_circles(circles[i], circles[j])) for i, j in pairs
    )
    return validate(SchottkyData(circles, pairings))


def level_set_area(surface, lam: float) -> float:
    """Area of the distance-lambda level surface, the reference of the
    coarea tests: two copies of the core scaled by cosh^2(lambda) plus one
    flat cylinder of area pi L_i sinh(lambda) cosh(lambda) per end."""
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    cylinders = math.pi * math.sinh(lam) * math.cosh(lam) * surface.total_end_length
    return 2.0 * surface.core_area * math.cosh(lam) ** 2 + cylinders


@pytest.fixture(scope="session")
def cyclic_s1():
    return make_cyclic(1.0)


@pytest.fixture(scope="session")
def g2_adjacent():
    return make_row_group((-3.0, -1.0, 1.0, 3.0), 0.4, [(0, 1), (2, 3)])


@pytest.fixture(scope="session")
def g2_crossed():
    return make_row_group((-3.0, -1.0, 1.0, 3.0), 0.4, [(0, 2), (1, 3)])


@pytest.fixture(scope="session")
def g3_row():
    return make_row_group((-5.0, -3.0, -1.0, 1.0, 3.0, 5.0), 0.4,
                          [(0, 1), (2, 3), (4, 5)])


@pytest.fixture(scope="session")
def surface_s1(cyclic_s1):
    return surface_invariants(cyclic_s1)


@pytest.fixture(scope="session")
def surface_adjacent(g2_adjacent):
    return surface_invariants(g2_adjacent)


@pytest.fixture(scope="session")
def surface_crossed(g2_crossed):
    return surface_invariants(g2_crossed)


def assert_close(actual, expected, tol=1e-12, rel=0.0):
    bound = max(tol, rel * abs(expected))
    assert abs(actual - expected) <= bound, f"{actual} != {expected} (tol {bound})"


EXP = math.exp(1.0)


def same_isometry(m, n, tol=1e-9):
    """Entrywise equality of two Mobius maps up to the global sign."""
    plus = max(abs(x - y) for x, y in zip(m.entries, n.entries))
    minus = max(abs(x + y) for x, y in zip(m.entries, n.entries))
    return min(plus, minus) <= tol


def field_to_csv(mesh, u, path):
    """Write the field u (rows of floats) of mesh to a file in the layout
    `field_from_csv` reads, each value as its repr."""
    lines = ["n_t,n_theta,t_extent,circumference,tag",
             f"{mesh.n_t},{mesh.n_theta},{mesh.t_extent!r},{mesh.circumference!r},{mesh.tag}"]
    lines += [",".join(repr(float(x)) for x in row) for row in u]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# Whole-mesh anomaly references: plain numpy over every node for the sums,
# and the private Laplacian kernel on one block of all rows for the nodal
# values, as `anomaly_functionals` calls it on a mesh of one block.

def on_mesh(mesh, f):
    """f(t, theta) evaluated at every node."""
    tt, hh = np.meshgrid(mesh.t, mesh.theta, indexing="ij")
    return np.asarray(f(tt, hh), dtype=float)


def node_weights(mesh):
    """Area weight of each row's nodes: sqrt(det) times the trapezoid rule in
    t and the periodic rule in theta."""
    hyperbolic = mesh.tag == anomaly.TAG_HYPERBOLIC
    weights = np.cosh(mesh.t) if hyperbolic else np.ones(mesh.n_t)
    weights[[0, -1]] *= 0.5
    return weights * mesh.dt * mesh.dtheta


def integrate(mesh, f):
    """Area integral of a nodal field, or of 1.0 for the area, as one sum."""
    nodal = np.broadcast_to(f, (mesh.n_t, mesh.n_theta))
    return float((nodal * node_weights(mesh)[:, None]).sum())


def laplacian(mesh, u):
    lam = anomaly._boundary_operator(mesh, u)
    work = np.empty((3, mesh.n_t + 1, mesh.n_theta))
    anomaly._t_diff(u, 0, mesh.n_t - 1, work[2])
    return anomaly._laplacian(mesh, u, 0, mesh.n_t, lam, work)


def liouville_residual(mesh, u):
    """lap(u) + 1 - exp(2u) on the hyperbolic tag, lap(u) - exp(2u) when flat."""
    residual = laplacian(mesh, u)
    if mesh.tag == anomaly.TAG_HYPERBOLIC:
        residual += 1.0
    return np.subtract(residual, np.exp(2.0 * u), out=residual)
