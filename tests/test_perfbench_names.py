"""The benchmark finds llltool functions by name.

`perfbench/tracer.install` looks up every name in the `SPANS` and
`COUNTED` lists of `perfbench/run.py` with getattr, and the jobs in
`perfbench/workloads.py` call llltool functions as `<module>.<name>`, so
a refactor that renames or drops one of them breaks the benchmark. These
tests read those files and leave `perfbench/` untouched.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_PY = PERFBENCH / "run.py"
WORKLOADS_PY = PERFBENCH / "workloads.py"


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_llltool():
    run = load_run_module()
    names = list(run.SPANS) + list(run.COUNTED)
    assert names
    missing = []
    for name in names:
        module_name, *attrs = name.split(".")
        owner = importlib.import_module(f"llltool.{module_name}")
        if len(attrs) == 2:  # "module.Class.method", wrapped on the class
            owner = getattr(owner, attrs[0], None)
            found = owner is not None and attrs[1] in vars(owner)
        else:
            found = callable(getattr(owner, attrs[0], None))
        if not found:
            missing.append(name)
    assert missing == []


def test_every_llltool_name_the_workloads_read_resolves():
    """`perfbench/workloads.py` reads `<module>.<name>` off llltool modules."""
    tree = ast.parse(WORKLOADS_PY.read_text(encoding="utf-8"))
    modules = {"llltool": "llltool"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "llltool":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"llltool.{alias.name}"
    paths = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            paths.add((node.id, tuple(reversed(chain))))
    assert ("witness", ("full_witness_digraph",)) in paths
    assert ("csp", ("build_dependency_graph",)) in paths
    missing = []
    for name, attrs in sorted(paths):
        owner = importlib.import_module(modules[name])
        for attr in attrs:
            if not hasattr(owner, attr):
                missing.append(".".join((name,) + attrs))
                break
            owner = getattr(owner, attr)
    assert missing == []
