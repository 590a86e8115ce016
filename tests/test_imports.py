"""Every name a module imports is used in that module, no module takes
an underscore name from another, each module imports on its own,
importing every module pulls in no process pool, only
`csp.materialize_cap_default` reads the environment, and only
`Csp.__post_init__` writes a frozen object.

Stdlib-only, so the check needs no linter. The package `__init__` is
skipped: it imports nothing and holds only `__version__`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "llltool"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_check_flags_an_unused_name():
    source = "import os\nfrom json import dumps, loads\nprint(loads)\n"
    assert unused_imports(source) == ["dumps (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore names a module takes from another: imported by name, or
    read as an attribute of a module imported from the package."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.startswith("_")]
            if node.level and not node.module:
                modules.update(alias.asname or alias.name for alias in node.names)
    found += [f"{n.value.id}.{n.attr} (line {n.lineno})" for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and n.attr.startswith("_")
              and isinstance(n.value, ast.Name) and n.value.id in modules]
    return found


def test_the_check_flags_a_private_import():
    source = (
        "from .exact import _iroot, pow_compare\nfrom . import csp\n"
        "from os import path\nprint(_iroot, csp._row_reader, csp.Csp, path._x)\n"
    )
    assert private_imports(source) == ["_iroot (line 1)", "csp._row_reader (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def environment_reads(source: str) -> list[tuple[str, int]]:
    """(enclosing function or "<module>", line) of each os.environ or os.getenv."""
    names = {"environ", "getenv"}
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr in names
                and isinstance(child.value, ast.Name)
                and child.value.id == "os"
            ) or (
                isinstance(child, ast.ImportFrom)
                and child.module == "os"
                and any(alias.name in names for alias in child.names)
            ):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_finds_every_environment_read():
    source = (
        "import os\nfrom os import getenv\nX = os.environ\n"
        "class C:\n    def f(self):\n        return os.getenv('A')\n"
    )
    assert environment_reads(source) == [("<module>", 2), ("<module>", 3), ("f", 6)]


def test_only_the_materialization_cap_reads_the_environment():
    # LLLTOOL_MATERIALIZE_CAP is the one knob the environment sets
    owners = {
        (path.name, owner)
        for path in SRC.glob("*.py")
        for owner, _ in environment_reads(path.read_text(encoding="utf-8"))
    }
    assert owners == {("csp.py", "materialize_cap_default")}


def frozen_writes(source: str) -> list[tuple[str, int]]:
    """(enclosing qualified name or "<module>", line) of each object.__setattr__."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "__setattr__"
                and isinstance(child.value, ast.Name)
                and child.value.id == "object"
            ):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_finds_every_frozen_write():
    source = (
        "put = object.__setattr__\nclass C:\n    def __post_init__(self):\n"
        "        object.__setattr__(self, 'a', 1)\n    def f(self):\n"
        "        def g():\n            object.__setattr__(self, 'b', 2)\n"
        "        setattr(self, 'c', 3)\n"
    )
    assert frozen_writes(source) == [
        ("<module>", 1), ("C.__post_init__", 4), ("C.f.g", 7)
    ]


def test_only_problem_construction_writes_a_frozen_object():
    # A problem's derived data is built once, at construction; nothing
    # fills a frozen object in later.
    owners = {
        (path.name, owner)
        for path in SRC.glob("*.py")
        for owner, _ in frozen_writes(path.read_text(encoding="utf-8"))
    }
    assert owners == {("csp.py", "Csp.__post_init__")}


def run_python(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter that imports from `src/`."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_each_module_imports_on_its_own(path):
    # Importers name the modules, in no fixed order, so an import cycle
    # must not hide behind the order of some other importer.
    run_python(f"import llltool.{path.stem}")


def test_importing_the_package_leaves_the_process_pool_out():
    # `mt_monte_carlo` imports the pool only when it runs with jobs > 1
    imports = "; ".join(f"import llltool.{path.stem}" for path in MODULES)
    out = run_python(f"import sys; {imports}; "
                     "print('concurrent.futures.process' in sys.modules)")
    assert out.strip() == "False"
