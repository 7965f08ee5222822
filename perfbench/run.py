"""platemem benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--threads T]

Every CLI run is a fresh process (perfbench/launch.py) that calls
`platemem.cli.main` as the `platemem` entry point does, with
PLATEMEM_THREADS=T (default 2) and one BLAS/OpenMP thread, so the fan-out
never oversubscribes a 2-core machine.  Every run's outputs are checked
(workloads.py) and hashed; a run that exits non-zero, fails its check or
hashes differently from the other runs of the same invocation counts as
failed.

--trace 0 first times set-up alone (spawn until the configuration is parsed)
in a few short processes, then repeats the workload until S seconds are
spent, and reports medians of wall_s, setup_s and peak_rss_mb.
--trace 1 runs the workload once traced and once untraced: per-layer metrics
come from the traced run, trace.overhead_s is the difference of the two wall
times, and the two runs must write byte-identical outputs.

The last line of standard output is the JSON result; the full record (every
run, the environment, the per-(span, dim) table) is written to
perfbench/_work/<workload>-seed<N>-trace<0|1>-threads<T>/result.json.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:            # before numpy loads its BLAS
    os.environ[_var] = "1"

import numpy as np                       # noqa: E402

from tracer import layer_metrics                # noqa: E402
from workloads import WORKLOADS, Workload       # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 10
DEADLINE_S = 170.0          # the whole invocation must end within 180 s


@dataclass
class Run:
    mode: str
    exit_code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PLATEMEM_THREADS=str(threads))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def digest(outdir: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in sorted(outdir.iterdir()) if outdir.is_dir() else ():
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def launch(w: Workload, mode: str, workdir: Path, seed: int, threads: int,
           deadline: float, ref: dict | None) -> tuple[Run, dict]:
    """One CLI process; returns the run and the launcher's record (marks, spans)."""
    outdir = workdir / f"out-{mode}"
    shutil.rmtree(outdir, ignore_errors=True)
    cfg = workdir / "run.cfg"
    cfg.write_text(f"{w.config}\nseed = {seed}\noutput_dir = {outdir}\n")
    marks_path = workdir / f"marks-{mode}.json"
    marks_path.unlink(missing_ok=True)
    stdout_path, stderr_path = workdir / "stdout.txt", workdir / "stderr.txt"
    argv = [sys.executable, str(HERE / "launch.py"), str(marks_path), mode, "--",
            w.command[0], str(cfg), *w.command[1:]]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(threads), stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        except BaseException:           # interrupted or terminated: stop the child too
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(marks_path.read_text())
    except (OSError, ValueError):       # the process died before writing it
        record = {}
    loaded = record.get("marks", {}).get("config_loaded")
    run = Run(mode=mode, exit_code=proc.returncode, wall_s=wall,
              setup_s=None if loaded is None else loaded - t0,
              rss_mb=usage.ru_maxrss / 1024.0)
    if run.exit_code != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        run.problems.append(f"exit code {run.exit_code}: {' | '.join(tail)}")
    elif mode != "setup":
        stdout = stdout_path.read_text()
        run.problems += w.check(w, outdir, stdout, ref)
        run.digest = digest(outdir, stdout)
    return run, record


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def blas_info(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(seed: int, threads: int) -> dict:
    import scipy
    env = child_env(threads)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numpy_blas": blas_info(np),
        "scipy_blas": blas_info(scipy),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in ("PLATEMEM_THREADS", *BLAS_THREAD_VARS)},
        "seed": seed,
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def mark_divergent(runs: list[Run]) -> None:
    """Runs of one workload and seed must hash identically (criterion 9)."""
    digests = collections.Counter(r.digest for r in runs if r.exit_code == 0)
    if not digests:
        return
    common = digests.most_common(1)[0][0]
    for r in runs:
        if r.exit_code == 0 and r.digest != common:
            r.problems.append(f"outputs hash {r.digest[:12]}, other runs {common[:12]}")


def measure(w: Workload, workdir: Path, seed: int, seconds: int, threads: int,
            deadline: float, ref: dict | None) -> tuple[list[Run], dict, dict]:
    """Set-up probes, then repeated runs for `seconds`; end-to-end medians."""
    setups = []
    for _ in range(SETUP_PROBES):
        probe, _ = launch(w, "setup", workdir, seed, threads, deadline, ref)
        if probe.failed or probe.setup_s is None:
            raise SystemExit(f"set-up probe failed: {probe.problems}")
        setups.append(probe.setup_s)
    runs: list[Run] = []
    start = time.monotonic()
    while not runs or (time.monotonic() - start
                       + statistics.median(r.wall_s for r in runs) <= seconds
                       and time.monotonic() < deadline - 30.0):
        run, _ = launch(w, "run", workdir, seed, threads, deadline, ref)
        runs.append(run)
    mark_divergent(runs)
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }
    return runs, metrics, {"setup_samples_s": setups}


def trace(w: Workload, workdir: Path, seed: int, threads: int,
          deadline: float, ref: dict | None) -> tuple[list[Run], dict, dict]:
    """One traced and one untraced run; per-layer metrics and exact-count checks."""
    traced, record = launch(w, "trace", workdir, seed, threads, deadline, ref)
    plain, _ = launch(w, "run", workdir, seed, threads, deadline, ref)
    spans = record.get("spans", [])
    metrics, table = layer_metrics(spans)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    if traced.exit_code == 0 and plain.exit_code == 0 and traced.digest != plain.digest:
        traced.problems.append("traced run wrote different outputs from the untraced run")
    for name, expected in w.expected_counts.items():
        if metrics[name] != expected:
            traced.problems.append(f"{name} = {metrics[name]}, expected {expected} "
                                   f"(missed wrapper, or the program changed this count)")
    details = {"sites": record.get("sites", {}), "spans": len(spans), "by_span_and_dim": table,
               "wall_traced_s": traced.wall_s, "wall_untraced_s": plain.wall_s}
    return [traced, plain], metrics, details


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, default=2,
                    help="PLATEMEM_THREADS for the CLI runs (1 gives the single-threaded baseline)")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "platemem" / "cli.py").is_file():
        print(f"error: no platemem source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.threads < 1:
        print("error: --seconds and --threads must be positive", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    ref = w.reference()
    workdir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-threads{args.threads}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    if args.trace:
        runs, metrics, details = trace(w, workdir, args.seed, args.threads, deadline, ref)
        kind = "per_layer"
    else:
        runs, metrics, details = measure(w, workdir, args.seed, args.seconds, args.threads,
                                         deadline, ref)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    failed = sum(r.failed for r in runs)
    env = environment(args.seed, args.threads)
    record = {"workload": w.name, "trace": args.trace, "environment": env,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
              "failed_frac": failed / len(runs),
              "runs": [vars(r) for r in runs], **details}
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {w.name}: seed {args.seed}, PLATEMEM_THREADS={args.threads}, "
          f"{len(runs)} runs, {failed} failed")
    for r in runs:
        for problem in r.problems:
            print(f"  FAILED {r.mode} run: {problem}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':40s} {failed / len(runs):.6g} (failed/attempted runs)")
    if args.trace:
        print("  self time by span and pencil dim (top 12):")
        for row in details["by_span_and_dim"][:12]:
            print(f"    {row['span']:34s} dim {row['dim']:4d} {row['calls']:7d} calls "
                  f"{row['self_s']:9.4f} s")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
