"""The package's public names are the ones its documented callers import.

Callers are the README's code blocks, the demos and the benchmark. Every name
they import from chronorank must be exported, and every exported name must be
one of those or named in the README. Submodules (`from chronorank import
cli`) are imported as modules and are not part of __all__.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

import chronorank

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text()


def imported_from_chronorank(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "chronorank" and node.level == 0
        for alias in node.names
    }


def caller_imports() -> set[str]:
    sources = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    sources += [path.read_text() for folder in ("demos", "bench") for path in sorted((ROOT / folder).glob("*.py"))]
    names = set().union(*map(imported_from_chronorank, sources))
    return {name for name in names if importlib.util.find_spec(f"chronorank.{name}") is None}


def test_every_name_callers_import_is_exported():
    needed = caller_imports()
    assert {"Granularity", "rank", "final_score", "oracle_rank", "parse_entity_catalog"} <= needed
    assert needed <= set(chronorank.__all__), needed - set(chronorank.__all__)


def test_every_exported_name_is_imported_by_a_caller_or_named_in_the_readme():
    readme_names = set(re.findall(r"`([A-Za-z_]\w*)", README))
    extra = set(chronorank.__all__) - caller_imports() - readme_names
    assert not extra, f"exported but neither imported by a caller nor named in the README: {sorted(extra)}"
    assert all(hasattr(chronorank, name) for name in chronorank.__all__)
    assert len(chronorank.__all__) == len(set(chronorank.__all__))
