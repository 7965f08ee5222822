"""Record the reference values the output checks compare against.

    python3 perfbench/make_reference.py

Runs scan-m0, spectrum-n128 and regimes-poly once each at the benchmark's
thread settings and writes perfbench/reference/<workload>.json.  Run it only
at a commit whose outputs are known to be right: the checks then hold later
commits to these values within the tolerances in workloads.py.
"""
from __future__ import annotations

import dataclasses
import json
import re
import sys
import time

from run import WORK, launch
from workloads import REFERENCE_DIR, WORKLOADS, report_checks


def csv_columns(path):
    lines = path.read_text().splitlines()[1:]
    return [list(map(float, col)) for col in zip(*(line.split(",") for line in lines))]


def scan(w, outdir, stdout):
    cols = {k: csv_columns(outdir / f"resolvent_mode{k}.csv") for k in w.modes()}
    exps = dict(re.findall(r"^mode (\d+): fitted growth exponent (\S+) ", stdout, re.M))
    return {"lambdas": {k: c[0] for k, c in cols.items()},
            "norms": {k: c[1] for k, c in cols.items()},
            "exponents": {k: float(exps[str(k)]) for k in w.modes()}}


def spectrum(w, outdir, stdout):
    cols = {k: csv_columns(outdir / f"spectrum_mode{k}.csv") for k in w.modes()}
    summary = csv_columns(outdir / "spectrum_summary.csv")
    return {"re": {k: c[0] for k, c in cols.items()},
            "im": {k: c[1] for k, c in cols.items()},
            "summary": [list(row) for row in zip(*summary)]}


def regimes(w, outdir, stdout):
    report = (outdir / "regime_report.txt").read_text()
    return {"predicted": report.splitlines()[0], "checks": report_checks(report)}


EXTRACT = {"scan-m0": scan, "spectrum-n128": spectrum, "regimes-poly": regimes}


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, extract in EXTRACT.items():
        w = dataclasses.replace(WORKLOADS[name], check=lambda *args: [])
        workdir = WORK / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        run, _ = launch(w, "run", workdir, 0, 2, time.monotonic() + 600.0, None)
        if run.failed:
            print(f"{name}: {run.problems}", file=sys.stderr)
            return 1
        ref = extract(w, workdir / "out-run", (workdir / "stdout.txt").read_text())
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref) + "\n")
        print(f"{name}: reference written ({run.wall_s:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
