"""Command-line front end.

Subcommands: simulate, spectrum, scan, regimes, check-geometry, render.
All floating-point output is printed with 17 significant digits, so CSVs
round-trip bit-exactly.  Exit codes: 0 success/consistent, 1 error,
2 inconsistent, 3 inconclusive.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .grid import build_radial_grid
from .model import ValidationError, check_geometric_condition, classify_regime
from .pencil import DISSIPATION_CHANNELS, ENERGY_PARTS, MEMBRANE_FIELDS, assemble_mode_pencil
from .semigroup import default_dt, energy, final_state, make_initial_data, simulate
from .spectral import eigenvalues, resolvent_scan
from .stability import NOT_EXP_LABELS, run_regime_experiment
from .util import fmt, parallel_map, write_csv

TRACE_HEADER = ("t", "energy", *ENERGY_PARTS, *DISSIPATION_CHANNELS, "residual")

RENDER_N_THETA = 128


def _default_t_end(cfg: RunConfig) -> float:
    if cfg.t_end is not None:
        return cfg.t_end
    return 500.0 if classify_regime(cfg.params, cfg.geometry) in NOT_EXP_LABELS else 50.0


def _default_dt(cfg: RunConfig, pencil, t_end: float) -> float:
    if cfg.dt is not None:
        return cfg.dt
    return default_dt(pencil, t_end)


def _pencil(cfg: RunConfig, mode: int):
    grid = build_radial_grid(cfg.geometry, cfg.n_plate, cfg.n_mem, mode)
    return assemble_mode_pencil(cfg.params, grid)


def _initial(pencil, cfg: RunConfig) -> np.ndarray:
    """Unit-energy superposition of the configured profiles."""
    w = np.zeros(pencil.dim, dtype=complex)
    for profile in cfg.profiles:
        w += make_initial_data(pencil, profile, seed=cfg.seed)
    e0 = energy(pencil, w).total
    if e0 <= 0.0:
        raise ValidationError("configured profiles sum to a zero-energy state")
    return w / math.sqrt(2.0 * e0)


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def cmd_simulate(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    t_end = _default_t_end(cfg)

    def run(mode: int):
        pencil = _pencil(cfg, mode)
        dt = _default_dt(cfg, pencil, t_end)
        trace = simulate(pencil, _initial(pencil, cfg), dt, t_end)
        return mode, trace

    for mode, trace in parallel_map(run, list(cfg.modes)):
        rows = np.column_stack((trace.times, trace.energy,
                                *(trace.breakdown[k] for k in ENERGY_PARTS),
                                *(trace.dissipation[k] for k in DISSIPATION_CHANNELS),
                                trace.residuals)).tolist()
        write_csv(os.path.join(out, f"trace_mode{mode}.csv"), TRACE_HEADER, rows)
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    results = parallel_map(lambda m: eigenvalues(_pencil(cfg, m)), list(cfg.modes))
    summary = []
    for spec in results:
        write_csv(os.path.join(out, f"spectrum_mode{spec.mode}.csv"), ("re", "im"),
                  [[float(z.real), float(z.imag)] for z in spec.eigenvalues])
        summary.append([spec.mode, spec.spectral_abscissa, spec.imag_axis_gap,
                        int(spec.zero_in_resolvent)])
    write_csv(os.path.join(out, "spectrum_summary.csv"),
              ("mode", "abscissa", "imag_axis_gap", "zero_ok"), summary)
    return 0


def cmd_scan(cfg: RunConfig, lmin: float, lmax: float, n: int) -> int:
    out = _outdir(cfg)
    results = parallel_map(lambda m: (m, resolvent_scan(_pencil(cfg, m), lmin, lmax, n)),
                           list(cfg.modes))
    for mode, scan in results:
        write_csv(os.path.join(out, f"resolvent_mode{mode}.csv"), ("lambda", "norm"),
                  [[float(l), float(s)] for l, s in zip(scan.lambdas, scan.norms)])
        print(f"mode {mode}: fitted growth exponent {fmt(scan.growth_exponent)} "
              f"(sup {fmt(scan.sup_norm)})")
    return 0


def cmd_regimes(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    t_end = _default_t_end(cfg)
    report = run_regime_experiment(cfg.params, cfg.geometry, min(cfg.n_plate, cfg.n_mem),
                                   cfg.modes, cfg.profiles, t_end, dt=cfg.dt,
                                   seed=cfg.seed)
    with open(os.path.join(out, "regime_report.txt"), "w") as fh:
        fh.write(report.render())
    print(report.render(), end="")
    return {"consistent": 0, "inconsistent": 2, "inconclusive": 3}[report.verdict]


def cmd_check_geometry(cfg: RunConfig) -> int:
    check = check_geometric_condition(cfg.geometry)
    word = "satisfied" if check.satisfied else "violated"
    print(f"{word}, max q·nu = {fmt(check.max_q_dot_nu)}")
    return 0


def cmd_render(cfg: RunConfig, t: float) -> int:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"--t must be finite and non-negative, got {t}")
    out = _outdir(cfg)

    def run(mode: int):
        pencil = _pencil(cfg, mode)
        w = _initial(pencil, cfg)
        if t > 0.0:
            w = final_state(pencil, w, _default_dt(cfg, pencil, t), t)
        return mode, pencil, w

    states = parallel_map(run, list(cfg.modes))
    thetas = np.linspace(0.0, 2.0 * np.pi, RENDER_N_THETA, endpoint=False)
    for fname in ("u", "theta", "v"):
        rows = []
        grid0 = states[0][1].grid
        radii = grid0.membrane_nodes if fname in MEMBRANE_FIELDS else grid0.plate_nodes
        vals = np.zeros((len(radii), len(thetas)))
        for mode, pencil, w in states:
            coef = w[pencil.block(fname)]
            phase = np.exp(1j * mode * thetas)
            vals += np.real(np.outer(coef, phase))
        for i, r in enumerate(radii):
            for j, th in enumerate(thetas):
                rows.append([float(r * math.cos(th)), float(r * math.sin(th)),
                             float(vals[i, j])])
        write_csv(os.path.join(out, f"field_{fname}.csv"), ("x", "y", "value"), rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="platemem",
        description="Numerical laboratory for the coupled thermoelastic "
                    "plate-membrane transmission system.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (("simulate", "time-integrate and write per-mode energy traces"),
                        ("spectrum", "write per-mode spectra and a summary"),
                        ("regimes", "run the regime experiment and write a report"),
                        ("check-geometry", "evaluate the interface geometric condition"),
                        ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("config", help="path to a key = value configuration file")
    sp = sub.add_parser("scan", help="resolvent norms along the imaginary axis")
    sp.add_argument("config")
    sp.add_argument("--lmin", type=float, required=True)
    sp.add_argument("--lmax", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp = sub.add_parser("render", help="reconstruct 2D fields at a given time")
    sp.add_argument("config")
    sp.add_argument("--t", type=float, required=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "scan":
            return cmd_scan(cfg, args.lmin, args.lmax, args.n)
        if args.command == "regimes":
            return cmd_regimes(cfg)
        if args.command == "check-geometry":
            return cmd_check_geometry(cfg)
        if args.command == "render":
            return cmd_render(cfg, args.t)
        raise RuntimeError(f"unhandled command {args.command}")
    except (ConfigError, ValidationError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
