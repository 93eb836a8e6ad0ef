"""Package hygiene, checked with the standard library alone.

Every name the package exports resolves, and no module imports a name it
never uses, so a deletion cannot leave an import behind. An import kept on
purpose carries `# noqa` on its line: the stats bindings of los_phase and
nlos_ray_phases, which the benchmark's tracer wraps there.
"""

import ast
from pathlib import Path

import pytest

import nfmimo

MODULES = sorted(p for p in Path(nfmimo.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py")


def test_every_exported_name_resolves():
    assert [name for name in nfmimo.__all__ if not hasattr(nfmimo, name)] == []


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded, except on lines marked # noqa."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted annotations such as "Vec3" name types without an ast.Name node.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return sorted(name for name, line in imported.items() if name not in used and "# noqa" not in lines[line - 1])


def test_unused_import_scan_flags_only_unmarked_unused_names():
    source = "import os\nimport sys\nfrom math import pi, tau  # noqa\nfrom json import dumps\nsys.exit(dumps)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
