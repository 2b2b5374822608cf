"""NumPy is the only runtime dependency of the library (see pyproject.toml), and
``import thzirs`` stays free of the modules only some entry points need."""

import ast
import subprocess
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


def test_importing_the_library_loads_no_pool_or_parser_module():
    # a multi-worker run_experiment imports its pool on use and only `plan` loads the
    # CLI's parser, so no other process start pays for them (benchmark setup_s included)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "before = set(sys.modules)\n"
        "import thzirs\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "thzirs" in loaded
    assert not loaded & {"multiprocessing", "concurrent.futures", "argparse"}
