"""NumPy is the only runtime dependency of the library (see pyproject.toml),
``import thzirs`` stays free of the modules only some entry points need,
every private helper of the library serves the library (test oracles live
under ``tests/``), every parameter of the library's functions is read, and
so is every module-level constant."""

import ast
import re
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


def _private_definitions(tree):
    """Each module-level private function or class of ``tree``: name -> node."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def test_library_uses_every_private_function_and_class_it_defines():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    defined = {(path, name): node for path, tree in trees.items()
               for name, node in _private_definitions(tree).items()}
    assert defined
    used = set()
    for path, tree in trees.items():
        # a helper's own body, a recursive call say, does not count as a use
        own = {id(inner): name for name, node in _private_definitions(tree).items()
               for inner in ast.walk(node)}
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and own.get(id(node)) != name:
                used.add(name)
    unused = sorted(f"{path.name}: {name}" for path, name in defined if name not in used)
    assert not unused, unused


def test_every_parameter_of_the_library_is_read():
    # a parameter its body never reads is a dead knob; self and cls excepted
    functions = 0
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            functions += 1
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(arg for arg in (args.vararg, args.kwarg) if arg is not None)]
            read = {inner.id for statement in node.body for inner in ast.walk(statement)
                    if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {node.name}({param.arg})" for param in params
                       if param.arg not in read and param.arg not in ("self", "cls")]
    assert functions > 100
    assert not unread, unread


def test_every_constant_of_the_library_is_read():
    # a module-level UPPER_CASE name, _-prefixed or not, that no module reads
    # is a dead knob; its own assignment is a store, not a read
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.rglob("*.py"))]
    constants = {target.id for tree in trees for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert len(constants) > 30
    assert not sorted(constants - read), sorted(constants - read)
