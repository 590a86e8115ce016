"""The benchmark's traced run finds llltool functions by name.

`perfbench/tracer.install` looks up every name in the `SPANS` and
`COUNTED` lists of `perfbench/run.py` with getattr, so a refactor that
renames or drops one of those functions breaks `--trace 1` runs. This
test reads the lists and leaves `perfbench/` untouched.
"""

import importlib
import importlib.util
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


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
