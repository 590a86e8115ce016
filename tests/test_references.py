"""Every function, class and method the package defines is used somewhere.

A definition counts as used when its name is loaded, as a bare name or as
an attribute, anywhere in `src/`, `tests/` or `perfbench/` outside its own
body. The package `__init__` is not read: a re-export is not a use. Names
are matched without types, so the check finds helpers that nothing names,
not every dead method. Dunder methods are called implicitly and skipped.
Stdlib-only, so the check needs no linter.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "llltool"
SOURCES = sorted(
    p
    for top in ("src", "tests", "perfbench")
    for p in (ROOT / top).rglob("*.py")
    if p != PACKAGE / "__init__.py"
)


def names_used(node) -> list[str]:
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def definitions(tree):
    """(qualified name, node) of each top-level function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def unreferenced(defining: list[str], sources: list[str]) -> list[str]:
    """Definitions in `defining` whose name `sources` use only in their own body."""
    used = Counter(name for text in sources for name in names_used(ast.parse(text)))
    return sorted(
        qualname
        for text in defining
        for qualname, node in definitions(ast.parse(text))
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == names_used(node).count(node.name)
    )


def test_the_check_flags_only_unreferenced_definitions():
    module = (
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Box:\n"
        "    def __init__(self):\n        self.open()\n"
        "    def open(self):\n        pass\n"
        "    def spare(self):\n        pass\n"
    )
    caller = "print(used(), Box())\n"
    assert unreferenced([module], [module, caller]) == ["Box.spare", "recursive"]


def test_every_package_definition_is_referenced():
    texts = {p: p.read_text(encoding="utf-8") for p in SOURCES}
    package = [text for p, text in texts.items() if p.parent == PACKAGE]
    assert unreferenced(package, list(texts.values())) == []
