#!/usr/bin/env python3
"""Worked example: the genus-1 cyclic group (Euclidean non-rotating BTZ).

Builds the group generated by the axis (-1, 1) with translation length 2,
derives the quotient topology, and compares the renormalized volume three
ways: printed closed form, re-derived closed form, and the fit of the
quadrature profile.
"""

import argparse
import math
from pathlib import Path

from corevol import (
    Convention,
    cyclic_group,
    default_eps_grid,
    expansion_fit,
    profile_closed,
    profile_quadrature,
    renormalized_volume_fuchsian,
    surface_invariants,
    validate,
)
from corevol.cli import write_profile_csv


def run(out_dir=None, tol=1e-9):
    group = validate(cyclic_group(-1.0, 1.0, 2.0))
    surface = surface_invariants(group)
    print(f"ends={surface.ends} genus={surface.genus} "
          f"handlebody_genus={surface.handlebody_genus}")
    print(f"end lengths: {surface.end_lengths}  core area: {surface.core_area}")

    grid = default_eps_grid()
    quad = profile_quadrature(surface, grid, tol=tol)
    fit = expansion_fit(quad)

    print(f"{'route':<28} {'V':>20}")
    for conv in Convention:
        v = renormalized_volume_fuchsian(surface, conv)
        label = f"closed form ({conv.value})"
        print(f"{label:<28} {v:>20.12f}")
    print(f"{'quadrature profile fit':<28} {fit.v:>20.12f}")
    print(f"fit residual {fit.residual:.3e}, condition {fit.condition:.1f}")
    print(f"reference: -pi = {-math.pi:.12f}, -2 pi = {-2 * math.pi:.12f}")

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for profile in (
            profile_closed(surface, grid, Convention.PAPER),
            profile_closed(surface, grid, Convention.DERIVED),
            quad,
        ):
            path = out / f"btz_{profile.provenance}.csv"
            write_profile_csv(profile, path)
            print(f"wrote {path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="directory for profile CSVs")
    parser.add_argument("--quad-tol", type=float, default=1e-9)
    args = parser.parse_args()
    run(args.out, args.quad_tol)
