#!/usr/bin/env python3
"""Same four circles, two side pairings, two different surfaces.

Pairing neighbouring circles gives a 3-ended planar surface; pairing across
gives a 1-ended genus-1 surface.  Both bound genus-2 handlebodies, and in
both cases the fitted renormalized volume divided by the total end length
lands on the same constant.
"""

import argparse
import math

from corevol import (
    Circle,
    Pairing,
    SchottkyData,
    default_eps_grid,
    expansion_fit,
    pairing_from_circles,
    profile_quadrature,
    surface_invariants,
    validate,
)


def build(pairs, radius=0.4):
    circles = tuple(Circle(c, radius) for c in (-3.0, -1.0, 1.0, 3.0))
    pairings = tuple(
        Pairing(i, j, pairing_from_circles(circles[i], circles[j])) for i, j in pairs
    )
    return validate(SchottkyData(circles, pairings))


def run(tol=1e-9):
    cases = {
        "adjacent (1-2, 3-4)": [(0, 1), (2, 3)],
        "crossed  (1-3, 2-4)": [(0, 2), (1, 3)],
    }
    print(f"{'pairing':<22} {'e':>2} {'k':>2} {'sum L':>10} {'fit V / sum L':>14}")
    for label, pairs in cases.items():
        group = build(pairs)
        surface = surface_invariants(group)
        fit = expansion_fit(profile_quadrature(surface, default_eps_grid(), tol=tol))
        ratio = fit.v / surface.total_end_length
        print(f"{label:<22} {surface.ends:>2} {surface.genus:>2} "
              f"{surface.total_end_length:>10.5f} {ratio:>14.9f}")
    print(f"{'reference -pi/4':<22} {'':>2} {'':>2} {'':>10} {-math.pi / 4:>14.9f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quad-tol", type=float, default=1e-9)
    run(parser.parse_args().quad_tol)
