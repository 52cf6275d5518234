"""The library surface the benchmark's workloads use.

``perfbench/workloads.py`` draws its job pools through cmreg's API
(session parsing, ideals, finiteness and gcd checks, coefficient lookup)
and checks the reports ``cmreg.cli.main`` writes.  Each workload's seed-1
pool is drawn here and its first job run, so an API change that breaks the
benchmark's set-up fails the suite.  The workloads file is only read.
"""

import importlib.util
import json
import random
import sys
import types
from pathlib import Path

import pytest

import cmreg.cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _cmreg_modules():
    """cmreg's submodules by short name, as the benchmark passes them."""
    return types.SimpleNamespace(**{
        name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
        if name.startswith("cmreg.")})


@pytest.mark.parametrize("name", ["powers-primary", "fibers-proj",
                                  "twovars-binary"])
def test_workload_pool_and_first_job_run(name, monkeypatch, tmp_path, capsys):
    workload = _load_workloads(monkeypatch).WORKLOADS[name]
    jobs = workload.make_jobs(random.Random(1), _cmreg_modules())
    assert jobs
    job = jobs[0]
    path = tmp_path / f"{job.name}.reg"
    path.write_text(job.text, encoding="utf-8")
    capsys.readouterr()
    code = cmreg.cli.main([job.args[0], str(path), *job.args[1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert workload.check(json.loads(out)["result"]) is None
