"""No module imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule (F401) over the package,
the demos and the tests (the benchmark is left out). A name counts as used
if the module reads it or names it in ``__all__``; an import line marked
``# noqa: F401`` is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for folder in ("src", "demos", "tests") for p in (ROOT / folder).rglob("*.py")
)


def _imported(tree: ast.Module, lines: list[str]):
    """(bound name, line) of every import not marked ``# noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                yield alias.asname or alias.name.split(".")[0], alias.lineno


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree, source.splitlines())
              if name not in used]
    assert unused == []
