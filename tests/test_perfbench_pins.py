"""Every benchmark job passes its own check, pinned outputs included.

`perfbench/workloads.py` checks each job's output and, at DEFAULT_SEED,
compares its fingerprint with the value pinned in PINS. Running every job
once here makes a change that moves a pin fail the suite, instead of
showing only as `outputs_incorrect` in a benchmark run. The module is
loaded by path, as `tests/test_perfbench_names.py` loads `run.py`, and
nothing under `perfbench/` is changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads_module()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_job_passes_its_check_and_pin(workload, tmp_path, monkeypatch):
    # Reports embed the input paths relative to the working directory, as
    # `perfbench/run.py` writes them from the checkout root.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LLLTOOL_MATERIALIZE_CAP", raising=False)
    workloads.WORKDIR.mkdir()
    jobs = workloads.WORKLOADS[workload](workloads.DEFAULT_SEED)
    assert jobs
    for job in jobs:
        job.check(job.run())
