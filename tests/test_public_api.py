"""The public names of corevol, read from the source of its `__init__.py`.

The names are those that `__init__.py` imports, found with `ast`, so neither
test order nor a submodule imported lazily can change them.  A change that
adds or drops a public name must edit PUBLIC_NAMES on purpose.
"""

import ast
from pathlib import Path

INIT = Path(__file__).resolve().parents[1] / "src" / "corevol" / "__init__.py"

PUBLIC_NAMES = [
    "CLOSED_FORMS",
    "Circle",
    "Convention",
    "ExpansionFit",
    "Mobius",
    "Pairing",
    "PleatLeaf",
    "PleatedCoreData",
    "SchottkyData",
    "SchottkyError",
    "SurfaceInfo",
    "SurfaceTopologyError",
    "ValidatedGroup",
    "VolumeProfile",
    "closed_profile",
    "closed_volume",
    "default_eps_grid",
    "fit_expansion",
    "generator_from_axis",
    "limit_set_sample",
    "profile_quadrature",
    "renormalized_volume",
    "surface_invariants",
    "surface_terms",
    "validate",
    "wedge_volume_quadrature",
]


def imported_names() -> list[str]:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names]


def test_public_names_are_pinned():
    names = imported_names()
    assert len(names) == len(set(names)), "a name is imported twice"
    assert sorted(names) == PUBLIC_NAMES
