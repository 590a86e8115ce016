"""Every function, class and method the package defines is used by the program.

A definition counts as used when its name is loaded, as a bare name or as
an attribute, anywhere in `src/` or `perfbench/` outside its own body, or
when it is the last part of a name in the `SPANS` or `COUNTED` tables of
`perfbench/run.py`, which the tracer looks up by name. A use from `tests/`
does not count: code that only tests call belongs in the tests, as the
oracles in `tests/conftest.py` do. The package `__init__` is not read: a
re-export is not a use. Names are matched without types, so the check
finds helpers that nothing names, not every dead method. Dunder methods
are called implicitly and skipped. Stdlib-only, so the check needs no
linter.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"
# Named only from tests/. ROADMAP item 1 still edits it, and may give it
# a caller in `src/`. The set must equal what the check flags, so it can
# only shrink.
EXEMPT = {"lg_degree_check"}


def names_used(node) -> list[str]:
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
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
    body, nor `traced` name."""
    used = Counter(name for text in sources for name in names_used(ast.parse(text)))
    used.update(traced)
    return sorted(
        qualname
        for text in defining
        for qualname, node in definitions(ast.parse(text))
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == names_used(node).count(node.name)
    )


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
