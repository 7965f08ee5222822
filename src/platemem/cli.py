"""Command-line front end.

Subcommands: simulate, spectrum, scan, regimes, check-geometry, render.
All floating-point output is printed with 17 significant digits, so CSVs
round-trip bit-exactly.  Exit codes: 0 success/consistent, 1 error (usage
errors too), 2 inconsistent, 3 inconclusive.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import math
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .grid import build_radial_grid
from .model import ValidationError, check_geometric_condition, classify_regime
from .pencil import MEMBRANE_FIELDS, assemble_mode_pencil
from .semigroup import TRACE_ROWS, default_dt, energy, final_state, make_initial_data, simulate
from .spectral import eigenvalues, resolvent_scan, zero_in_resolvent
from .stability import NOT_EXP_LABELS, run_regime_experiment
from .util import fmt, output_file, parallel_map, write_csv

TRACE_HEADER = ("t", *TRACE_ROWS, "residual")
RENDER_N_THETA = 128

# The interpreter's teardown collects every object still tracked.  Frozen,
# they are skipped: main's return to process end on the simulate-m1 config
# took 6.0-11.5 ms (median 6.5) against 21.3-29.1 ms (24.1) without the
# freeze, and 10.9-19.9 ms (12.9) with a collection before it (12
# alternating runs each, one BLAS thread, 2 vCPUs).  The freeze runs at
# exit, not in main, so a process that calls main many times still frees
# each call's garbage.
atexit.register(gc.freeze)


def _default_t_end(cfg: RunConfig) -> float:
    if cfg.t_end is not None:
        return cfg.t_end
    return 500.0 if classify_regime(cfg.params, cfg.geometry) in NOT_EXP_LABELS else 50.0


def _pencil(cfg: RunConfig, mode: int):
    grid = build_radial_grid(cfg.geometry, cfg.n_plate, cfg.n_mem, mode)
    return assemble_mode_pencil(cfg.params, grid)


def _initial(pencil, cfg: RunConfig) -> np.ndarray:
    """Unit-energy superposition of the configured profiles."""
    w = np.zeros(pencil.dim)
    for profile in cfg.profiles:
        w += make_initial_data(pencil, profile, seed=cfg.seed)
    e0 = sum(energy(pencil, w).values())
    if e0 <= 0.0:
        raise ValidationError("configured profiles sum to a zero-energy state")
    return w / math.sqrt(2.0 * e0)


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    t_end = _default_t_end(cfg)

    def run(mode: int):
        pencil = _pencil(cfg, mode)
        trace = simulate(pencil, _initial(pencil, cfg), cfg.dt or default_dt(pencil, t_end), t_end)
        return mode, trace

    for mode, trace in [run(m) for m in cfg.modes]:
        write_csv(os.path.join(cfg.output_dir, f"trace_mode{mode}.csv"), TRACE_HEADER,
                  np.column_stack((trace.times, trace.values.T, trace.residuals)))
    return 0


def cmd_spectrum(cfg: RunConfig, args: argparse.Namespace) -> int:
    results = parallel_map(lambda m: eigenvalues(_pencil(cfg, m)), list(cfg.modes))
    summary = []
    for mode, lam in zip(cfg.modes, results):
        write_csv(os.path.join(cfg.output_dir, f"spectrum_mode{mode}.csv"), ("re", "im"),
                  np.column_stack((lam.real, lam.imag)))
        summary.append((mode, lam.real.max(), np.abs(lam.real).min(), zero_in_resolvent(lam)))
    write_csv(os.path.join(cfg.output_dir, "spectrum_summary.csv"),
              ("mode", "abscissa", "imag_axis_gap", "zero_ok"), np.array(summary, dtype=float))
    return 0


def cmd_scan(cfg: RunConfig, args: argparse.Namespace) -> int:
    results = [(m, resolvent_scan(_pencil(cfg, m), args.lmin, args.lmax, args.n))
               for m in cfg.modes]
    for mode, scan in results:
        write_csv(os.path.join(cfg.output_dir, f"resolvent_mode{mode}.csv"), ("lambda", "norm"),
                  np.column_stack((scan.lambdas, scan.norms)))
        print(f"mode {mode}: fitted growth exponent {fmt(scan.growth_exponent)} "
              f"(sup {fmt(scan.norms.max())})")
    return 0


def cmd_regimes(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.n_plate != cfg.n_mem:
        raise ConfigError(f"regimes runs both grids at one resolution: n_plate={cfg.n_plate} "
                          f"and n_mem={cfg.n_mem} must be equal")
    t_end = _default_t_end(cfg)
    report = run_regime_experiment(cfg.params, cfg.geometry, cfg.n_plate,
                                   cfg.modes, cfg.profiles, t_end, dt=cfg.dt,
                                   seed=cfg.seed)
    with open(output_file(os.path.join(cfg.output_dir, "regime_report.txt")), "w") as fh:
        fh.write(report.render())
    print(report.render(), end="")
    return {"consistent": 0, "inconsistent": 2, "inconclusive": 3}[report.verdict]


def cmd_check_geometry(cfg: RunConfig, args: argparse.Namespace) -> int:
    best = check_geometric_condition(cfg.geometry)
    print(f"{'satisfied' if best <= 0.0 else 'violated'}, max q·nu = {fmt(best)}")
    return 0


def cmd_render(cfg: RunConfig, args: argparse.Namespace) -> int:
    t = args.t
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"--t must be finite and non-negative, got {t}")

    def run(mode: int):
        pencil = _pencil(cfg, mode)
        w = _initial(pencil, cfg)
        if t > 0.0:
            w = final_state(pencil, w, cfg.dt or default_dt(pencil, t), t)
        return mode, pencil, w

    states = [run(m) for m in cfg.modes]
    thetas = np.linspace(0.0, 2.0 * np.pi, RENDER_N_THETA, endpoint=False)
    grid0 = states[0][1].grid
    for fname in ("u", "theta", "v"):
        radii = grid0.membrane_nodes if fname in MEMBRANE_FIELDS else grid0.plate_nodes
        vals = sum(np.real(np.outer(w[pencil.block(fname)], np.exp(1j * mode * thetas)))
                   for mode, pencil, w in states)
        write_csv(os.path.join(cfg.output_dir, f"field_{fname}.csv"), ("x", "y", "value"),
                  np.column_stack((np.outer(radii, np.cos(thetas)).ravel(),
                                   np.outer(radii, np.sin(thetas)).ravel(), vals.ravel())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="platemem",
        description="Numerical laboratory for the coupled thermoelastic "
                    "plate-membrane transmission system.")
    sub = ap.add_subparsers(dest="command", required=True)
    # name, handler, help, required flags after the config path
    for name, run, help_, flags in (
            ("simulate", cmd_simulate, "time-integrate and write per-mode energy traces", ()),
            ("spectrum", cmd_spectrum, "write per-mode spectra and a summary", ()),
            ("regimes", cmd_regimes, "run the regime experiment and write a report", ()),
            ("check-geometry", cmd_check_geometry,
             "evaluate the interface geometric condition", ()),
            ("scan", cmd_scan, "resolvent norms along the imaginary axis",
             (("--lmin", float), ("--lmax", float), ("--n", int))),
            ("render", cmd_render, "reconstruct 2D fields at a given time", (("--t", float),))):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("config", help="path to a key = value configuration file")
        for flag, type_ in flags:
            sp.add_argument(flag, type=type_, required=True)
        sp.set_defaults(run=run)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:     # argparse's usage error is 2, which means inconsistent here
        return 1 if exc.code else 0
    try:
        return args.run(load_config(args.config), args)
    except (ConfigError, ValidationError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
