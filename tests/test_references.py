"""Every function, class and method the package defines is used by the program.

A function or class counts as used when its name is loaded, as a bare
name or as an attribute, anywhere in `src/` or `perfbench/` outside its
own body; a method only when it is loaded as an attribute there, since a
bare name of the same spelling cannot call it. Either also counts as used
when it is the last part of a name in the `SPANS` or `COUNTED` tables of
`perfbench/run.py`, which the tracer looks up by name. A use from `tests/`
does not count: code that only tests call belongs in the tests, as the
oracles in `tests/conftest.py` do. The package `__init__` is not read: a
re-export is not a use. Attributes are matched without types, so a
method still counts as used when another class's attribute shares its
name. Dunder methods are called implicitly and skipped. Stdlib-only, so
the check needs no linter.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"
# Definitions named only from tests/. The set must equal what the check
# flags, so it can only shrink; it is empty.
EXEMPT: set[str] = set()


def names_used(node, attributes_only: bool = False) -> list[str]:
    """Attribute names loaded under `node`, and bare names unless
    `attributes_only`."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Name) and not attributes_only
    ]


def traced_names(text: str) -> list[str]:
    """The last part of each `SPANS` key and `COUNTED` entry in a module."""
    out = []
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTED")
            for t in node.targets
        ):
            value = node.value
            keys = value.keys if isinstance(value, ast.Dict) else value.elts
            out += [key.value.rsplit(".", 1)[-1] for key in keys]
    return out


def definitions(tree):
    """(qualified name, node) of each top-level function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def unreferenced(defining: list[str], sources: list[str], traced=()) -> list[str]:
    """Definitions in `defining` that neither `sources`, outside their own
    body, nor `traced` name; methods by attribute only."""
    trees = [ast.parse(text) for text in sources]
    used = {
        method: Counter(name for tree in trees for name in names_used(tree, method))
        for method in (False, True)
    }
    for counter in used.values():
        counter.update(traced)
    flagged = []
    for text in defining:
        for qualname, node in definitions(ast.parse(text)):
            method = "." in qualname
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if used[method][node.name] == names_used(node, method).count(node.name):
                flagged.append(qualname)
    return sorted(flagged)


def check(root: Path, exempt: set[str]) -> tuple[list[str], list[str]]:
    """Flagged definitions that `exempt` lacks, and entries of `exempt` not flagged.

    Reads the package under `root/src/llltool` against the modules of
    `root/src` and `root/perfbench` and the names `perfbench/run.py` traces.
    """
    package = root / "src" / "llltool"
    texts = {
        p: p.read_text(encoding="utf-8")
        for top in ("src", "perfbench")
        for p in sorted((root / top).rglob("*.py"))
        if p != package / "__init__.py"
    }
    defining = [text for p, text in texts.items() if p.parent == package]
    traced = traced_names(texts[root / "perfbench" / "run.py"])
    flagged = set(unreferenced(defining, list(texts.values()), traced))
    return sorted(flagged - exempt), sorted(exempt - flagged)


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


def test_a_bare_name_does_not_save_a_method():
    module = (
        "def degree():\n    return 0\n"
        "class Graph:\n"
        "    def degree(self, v):\n        return v\n"
        "    def size(self):\n        return 1\n"
        "    def order(self):\n        return 2\n"
    )
    # `degree` and `size` are loaded only as bare names, `order` as an
    # attribute; the function `degree` is used, the method of that name not.
    caller = "size = 3\nprint(degree(), size, Graph().order())\n"
    assert unreferenced([module], [module, caller]) == ["Graph.degree", "Graph.size"]
    # An attribute load saves a function, and any method of its name.
    caller = "import mod\nprint(mod.degree(), Graph().size(), Graph().order())\n"
    assert unreferenced([module], [module, caller]) == []


def test_the_check_counts_traced_names_and_not_test_uses(tmp_path):
    files = {
        "src/llltool/__init__.py": "from .mod import oracle, span\n",
        "src/llltool/mod.py": (
            "def used():\n    return 0\n"
            "def oracle():\n    return 1\n"
            "def span():\n    return 2\n"
        ),
        "perfbench/run.py": (
            'SPANS = {"mod.span": (None, None)}\n'
            'COUNTED = ["mod.used"]\n'
        ),
        "tests/test_mod.py": (
            "from llltool.mod import oracle\n\n"
            "def test_oracle():\n    assert oracle() == 1\n"
        ),
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    # Named only from a test module: flagged. Named only as a traced name: not.
    assert check(tmp_path, set()) == (["oracle"], [])
    assert check(tmp_path, {"oracle"}) == ([], [])
    # An exemption that nothing needs any more is stale, and fails.
    assert check(tmp_path, {"oracle", "span"}) == ([], ["span"])


def test_every_package_definition_is_referenced():
    assert traced_names(RUN_PY.read_text(encoding="utf-8"))
    assert check(ROOT, EXEMPT) == ([], [])
