"""The benchmark's workloads and the checks on their outputs.

Each workload is one `platemem` CLI command on a fixed configuration; the
benchmark's seed goes into the configuration's `seed` key.  A check returns
the list of problems it found in one run's outputs (empty when the run is
correct).  Tolerances absorb round-off reordering (a different BLAS
blocking, a different but exact factorization) and still catch a wrong
answer: a 0.1% change of the plate damping moves the n=128 spectrum by
3.7e-4 max|lambda| and the n=64 resolvent norms by up to 1.7e-4 relative,
while an unrelated exact algorithm (eigvals of M^-1 A, smallest singular
value of i*lam - F M^-1 A F^-1) agrees with the recorded values to 2e-8
max|lambda| and 6e-11 relative.  See README.md for why each workload exists.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

TRACE_HEADER = ("t,energy,E_bend,E_kin_plate,E_rot,E_thermal,E_mem_pot,E_mem_kin,"
                "D_struct,D_thermal_bulk,D_thermal_bdry,D_membrane,residual")
ENERGY_TOL = 1e-10          # criterion 1: |residual| <= tol E0/dt, E_{k+1} - E_k <= tol E0
SPECTRUM_TOL = 1e-6         # nearest-eigenvalue distance, relative to max |lambda|
RESOLVENT_RTOL = 1e-6       # per-sample resolvent norm
EXPONENT_ATOL = 1e-5        # fitted log-log growth exponent
NO_REFERENCE = "no reference values recorded; run perfbench/make_reference.py"
NUMBER = re.compile(r"[-+]?\d+\.\d+e[-+]\d+")


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]     # CLI arguments before the config path
    config: str                  # config text; seed and output_dir are appended
    check: Callable[["Workload", Path, str, dict | None], list[str]]
    # counts that repeat exactly at the commit that defined the benchmark;
    # a traced run that reads anything else missed a wrapper (or the program
    # changed them on purpose, and this table must follow in its own change)
    expected_counts: dict[str, int] = field(default_factory=dict)

    def setting(self, key: str) -> float:
        return float(dict(line.split(" = ") for line in self.config.splitlines())[key])

    def modes(self) -> range:
        return range(int(self.setting("mode_min")), int(self.setting("mode_max")) + 1)

    def reference(self) -> dict | None:
        path = REFERENCE_DIR / f"{self.name}.json"
        return json.loads(path.read_text()) if path.exists() else None


def _expect_files(outdir: Path, names: list[str]) -> list[str]:
    found = sorted(p.name for p in outdir.iterdir()) if outdir.is_dir() else []
    return [] if found == sorted(names) else [f"output files {found}, expected {sorted(names)}"]


def _csv(path: Path) -> tuple[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip()
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def check_simulate(w: Workload, outdir: Path, stdout: str, ref: dict | None) -> list[str]:
    """Energy identities that hold for every seed (acceptance criterion 1)."""
    dt, t_end = w.setting("dt"), w.setting("t_end")
    steps = round(t_end / dt)
    names = [f"trace_mode{k}.csv" for k in w.modes()]
    problems = _expect_files(outdir, names)
    if problems:
        return problems
    for name in names:
        header, data = _csv(outdir / name)
        if header != TRACE_HEADER:
            problems.append(f"{name}: header {header!r}")
            continue
        if data.shape != (steps + 1, 13):
            problems.append(f"{name}: shape {data.shape}, expected {(steps + 1, 13)}")
            continue
        t, e, parts, diss, res = data[:, 0], data[:, 1], data[:, 2:8], data[:, 8:12], data[:, 12]
        e0 = e[0]
        if np.abs(t - dt * np.arange(steps + 1)).max() > 1e-9 * t_end:
            problems.append(f"{name}: time column is not k*dt")
        if abs(e0 - 0.5) > 1e-12:
            problems.append(f"{name}: initial energy {e0!r}, expected 0.5")
        if np.abs(parts.sum(axis=1) - e).max() > ENERGY_TOL * e0:
            problems.append(f"{name}: energy parts do not sum to the energy")
        if diss.min() < -ENERGY_TOL * e0:
            problems.append(f"{name}: negative dissipation channel {diss.min()!r}")
        if np.abs(res).max() > ENERGY_TOL * e0 / dt:
            problems.append(f"{name}: energy-identity residual {np.abs(res).max()!r} "
                            f"above {ENERGY_TOL} E0/dt")
        if np.diff(e).max() > ENERGY_TOL * e0:
            problems.append(f"{name}: energy increases by {np.diff(e).max()!r}")
        if not e[-1] < e0:
            problems.append(f"{name}: no energy decay in a damped cell")
    return problems


def check_scan(w: Workload, outdir: Path, stdout: str, ref: dict | None) -> list[str]:
    """Resolvent norms and fitted exponents against the recorded reference."""
    if ref is None:
        return [NO_REFERENCE]
    names = [f"resolvent_mode{k}.csv" for k in w.modes()]
    problems = _expect_files(outdir, names)
    if problems:
        return problems
    exponents = dict(re.findall(r"^mode (\d+): fitted growth exponent (\S+) ", stdout, re.M))
    for k, name in zip(w.modes(), names):
        header, data = _csv(outdir / name)
        lam_ref = np.array(ref["lambdas"][str(k)])
        norm_ref = np.array(ref["norms"][str(k)])
        if header != "lambda,norm" or data.shape != (len(lam_ref), 2):
            problems.append(f"{name}: header {header!r}, shape {data.shape}")
            continue
        # a sample on an eigenvalue is nudged by 1e-9 of the range
        if np.abs(data[:, 0] - lam_ref).max() > 1e-8 * np.abs(lam_ref).max():
            problems.append(f"{name}: sample points differ from the reference")
        dev = np.abs(data[:, 1] - norm_ref) / norm_ref
        if dev.max() > RESOLVENT_RTOL:
            problems.append(f"{name}: resolvent norm off by {dev.max():.3e} relative "
                            f"at lambda={data[dev.argmax(), 0]!r}")
        got = exponents.get(str(k))
        if got is None or abs(float(got) - ref["exponents"][str(k)]) > EXPONENT_ATOL:
            problems.append(f"mode {k}: growth exponent {got}, reference "
                            f"{ref['exponents'][str(k)]!r}")
    return problems


def _nearest(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from a point of either set to the other set."""
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def check_spectrum(w: Workload, outdir: Path, stdout: str, ref: dict | None) -> list[str]:
    """Eigenvalues (as sets) and the summary against the recorded reference."""
    if ref is None:
        return [NO_REFERENCE]
    names = [f"spectrum_mode{k}.csv" for k in w.modes()] + ["spectrum_summary.csv"]
    problems = _expect_files(outdir, names)
    if problems:
        return problems
    scale = 0.0
    for k in w.modes():
        name = f"spectrum_mode{k}.csv"
        header, data = _csv(outdir / name)
        lam_ref = np.array(ref["re"][str(k)]) + 1j * np.array(ref["im"][str(k)])
        mx = float(np.abs(lam_ref).max())
        scale = max(scale, mx)
        if header != "re,im" or data.shape != (len(lam_ref), 2):
            problems.append(f"{name}: header {header!r}, shape {data.shape}, "
                            f"expected {len(lam_ref)} eigenvalues")
            continue
        if not np.all(np.diff(data[:, 1]) >= 0.0):
            problems.append(f"{name}: eigenvalues not sorted by imaginary part")
        dist = _nearest(data[:, 0] + 1j * data[:, 1], lam_ref)
        if dist > SPECTRUM_TOL * mx:
            problems.append(f"{name}: eigenvalues off by {dist / mx:.3e} max|lambda|")
    header, summary = _csv(outdir / "spectrum_summary.csv")
    ref_summary = np.array(ref["summary"])
    if header != "mode,abscissa,imag_axis_gap,zero_ok" or summary.shape != ref_summary.shape:
        problems.append(f"spectrum_summary.csv: header {header!r}, shape {summary.shape}")
    else:
        if not np.array_equal(summary[:, [0, 3]], ref_summary[:, [0, 3]]):
            problems.append("spectrum_summary.csv: modes or zero_ok differ from the reference")
        if np.abs(summary[:, 1:3] - ref_summary[:, 1:3]).max() > SPECTRUM_TOL * scale:
            problems.append("spectrum_summary.csv: abscissa or axis gap off the reference")
    return problems


def report_checks(report: str) -> list[str]:
    """PASS/FAIL lines of a regime report with the measured numbers masked."""
    return [NUMBER.sub("#", line) for line in report.splitlines()
            if line.startswith(("PASS ", "FAIL "))]


def check_regimes(w: Workload, outdir: Path, stdout: str, ref: dict | None) -> list[str]:
    """Verdict `consistent` with the same PASS lines as the reference."""
    if ref is None:
        return [NO_REFERENCE]
    problems = _expect_files(outdir, ["regime_report.txt"])
    if problems:
        return problems
    report = (outdir / "regime_report.txt").read_text()
    if report != stdout:
        problems.append("printed report differs from regime_report.txt")
    if "experiment incomplete" in report:
        problems.append("report says the experiment is incomplete")
    if report.splitlines()[0] != ref["predicted"]:
        problems.append(f"first line {report.splitlines()[0]!r}, expected {ref['predicted']!r}")
    if "verdict: consistent" not in report.splitlines():
        problems.append("verdict is not consistent")
    if report_checks(report) != ref["checks"]:
        problems.append(f"checks {report_checks(report)}, expected {ref['checks']}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        name="simulate-m1",
        command=("simulate",),
        config="m = 1\nrho = 1\nn_plate = 64\nn_mem = 64\nmode_min = 0\nmode_max = 3\n"
               "dt = 0.01\nt_end = 5\nprofiles = plate_bump,rough",
        check=check_simulate,
        expected_counts={"semigroup.simulate.calls": 4, "semigroup.cn_steps": 4 * 500},
    ),
    Workload(
        name="scan-m0",
        command=("scan", "--lmin", "0.25", "--lmax", "115", "--n", "60"),
        config="m = 0\nrho = 1\nn_plate = 64\nn_mem = 64\nmode_min = 0\nmode_max = 1",
        check=check_scan,
        expected_counts={"spectral.resolvent_norm.calls": 120, "spectral.eigenvalues.solves": 2},
    ),
    Workload(
        name="spectrum-n128",
        command=("spectrum",),
        config="m = 0\nrho = 1\nn_plate = 128\nn_mem = 128\nmode_min = 0\nmode_max = 3",
        check=check_spectrum,
        expected_counts={"spectral.eigenvalues.solves": 4, "pencil.assemble.calls": 4},
    ),
    Workload(
        name="regimes-poly",
        command=("regimes",),
        config="m = 0\nrho = 1\nn_plate = 16\nn_mem = 16\nmode_min = 0\nmode_max = 2\n"
               "dt = 0.05\nt_end = 60\nprofiles = membrane_bump,plate_bump",
        check=check_regimes,
        expected_counts={"pencil.assemble.calls": 16, "pencil.assemble.distinct": 8,
                         "spectral.eigenvalues.solves": 10,
                         "spectral.resolvent_norm.calls": 320},
    ),
)}
