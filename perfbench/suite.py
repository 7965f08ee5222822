"""Run every workload and print the end-to-end metrics as one table.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--threads T] [--trace] [--record FILE]

Each workload is a separate `run.py` invocation (untraced, then traced with
--trace).  --threads 1 gives the single-threaded baseline; --record writes
every invocation's full record (environment, runs, per-layer metrics) to
FILE as JSON.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORK
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def invoke(workload: str, seed: int, seconds: int, trace: int, threads: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--threads", str(threads)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = WORK / f"{workload}-seed{seed}-trace{trace}-threads{threads}" / "result.json"
    return json.loads(result.read_text())


def main() -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--trace", action="store_true", help="also make the traced run")
    ap.add_argument("--record", type=Path, help="write every record to this JSON file")
    args = ap.parse_args()

    names = [w["name"] for w in benchmark["end_to_end"]]
    units = {w["name"]: w["unit"] for w in benchmark["end_to_end"]}
    print(f"PLATEMEM_THREADS={args.threads}, seed {args.seed}, {args.seconds} s per workload")
    print(f"{'workload':16s}" + "".join(f"{f'{n} ({units[n]})':>20s}" for n in names)
          + f"{'failed_frac':>14s}")
    records = {}
    for w in WORKLOADS:
        records[w] = {"untraced": invoke(w, args.seed, args.seconds, 0, args.threads)}
        rec = records[w]["untraced"]
        runs = len(rec["runs"])
        failed = round(rec["failed_frac"] * runs)
        print(f"{w:16s}" + "".join(f"{rec['metrics'][n]['value']:20.4f}" for n in names)
              + f"{f'{failed}/{runs}':>14s}")
        if args.trace:
            records[w]["traced"] = invoke(w, args.seed, args.seconds, 1, args.threads)
    if args.trace:
        layers = [m["name"] for m in benchmark["per_layer"]]
        print(f"\nper-layer metrics, traced run (PLATEMEM_THREADS={args.threads})")
        print(f"{'metric':38s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
        for name in layers:
            print(f"{name:38s}" + "".join(
                f"{records[w]['traced']['metrics'][name]['value']:16.6g}" for w in WORKLOADS))
        print(f"{'failed_frac (traced + untraced)':38s}"
              + "".join(f"{records[w]['traced']['failed_frac']:16.6g}" for w in WORKLOADS))
    if args.record:
        args.record.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
