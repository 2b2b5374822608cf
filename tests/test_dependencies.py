"""NumPy is the only runtime dependency of the library (see pyproject.toml)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thzirs"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(tree):
    """Root module of every absolute import in ``tree``, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_library_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    stray = [
        f"{path.name}:{line} imports {root}"
        for path in modules
        for line, root in _absolute_imports(ast.parse(path.read_text(), filename=str(path)))
        if root not in ALLOWED
    ]
    assert not stray, stray
