"""Import direction: what a module must never import, at any depth.

Layering: ``repro.core`` / ``sqldb`` / ``vg`` / ``dsl`` / ``obs`` are what
``repro.serve`` and ``repro.api`` are built on; an ``import`` the other
way round (at module level or inside a function) makes the lower layer
unusable without the upper one. Worker purity (PUR003): the modules a
shard task drags into a worker process must not pull in the
coordinator's pools, engines and tracers. Docstring cross-references are
fine — only the AST's import nodes are read.
"""

from __future__ import annotations

import pytest

from contracts import COORDINATOR, SRC, WORKER, forbidden_imports, modules

DIRECTIONS = {
    "layering": (("core", "sqldb", "vg", "dsl", "obs"), ("repro.serve", "repro.api")),
    "worker purity": (WORKER, COORDINATOR),
}


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
def test_modules_do_not_import_what_sits_above_them(direction):
    names, forbidden = DIRECTIONS[direction]
    paths = modules(*names)
    assert paths
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in paths
        for line, _ in forbidden_imports(path.read_text(), forbidden)
    ]
    assert offenders == []
