"""The benchmark's own checks on each of its workloads, run once.

A traced run through perfbench/launch.py must pass the workload's output
check and meet every `expected_counts` entry, the two reasons besides a
slower metric for which the benchmark refuses a change.  perfbench/ is read
only: no bytecode is written there, and configs and outputs go to tmp_path.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOAD_NAMES = ("simulate-m1", "scan-m0", "spectrum-n128", "regimes-poly")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's workloads and tracer modules, imported without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("tracer")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_passes_its_check_and_expected_counts(name, perfbench, tmp_path):
    workloads, tracer = perfbench
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)
    w = workloads.WORKLOADS[name]
    outdir, marks = tmp_path / "out", tmp_path / "marks.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{w.config}\nseed = 0\noutput_dir = {outdir}\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "launch.py"), str(marks), "trace",
                           "--", w.command[0], str(cfg), *w.command[1:]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert w.check(w, outdir, proc.stdout, w.reference()) == []
    metrics, _ = tracer.layer_metrics(json.loads(marks.read_text())["spans"])
    assert {k: metrics[k] for k in w.expected_counts} == w.expected_counts
