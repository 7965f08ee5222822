"""Regime experiments: decay-law fitting and theorem-table verdicts.

An experiment simulates the configured modes and profiles, fits exponential
or polynomial decay laws to the energy row of each profile's combined trace
(the modes' trace tables summed), cross-checks the fits against eigenvalue
and resolvent evidence, and grades the result against the regime predicted
from the damping constants.  The geometry's x0 enters only that prediction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import build_radial_grid
from .model import AnnulusGeometry, PhysicalParams, RegimeLabel, classify_regime
from .pencil import AssemblyError, assemble_mode_pencil
from .semigroup import SimulationTrace, default_dt, make_initial_data, simulate
from .spectral import (membrane_band_edge, project_resolvable, resolvent_scan,
                       spectral_abscissa_sweep)

EXPONENTIAL_LABELS = (RegimeLabel.EXPONENTIAL_RHO_DAMPED, RegimeLabel.EXPONENTIAL_THERMAL_ONLY)
NOT_EXP_LABELS = (
    RegimeLabel.NOT_EXPONENTIAL_POLYNOMIAL,
    RegimeLabel.NOT_EXPONENTIAL_GEOMETRY_FAILS,
    RegimeLabel.NOT_EXPONENTIAL_NO_RATE,
)

RATE_MATCH_RTOL = 0.10        # fitted exponential rate vs |abscissa|
SUP_MATCH_RTOL = 0.10         # scan sup at doubled resolution
SHRINK_FACTOR = 2.0           # band abscissa shrink on doubling
POLY_R2_MIN = 0.95
GROWTH_EXP_CEILING = 24.0     # weak sanity ceiling on the fitted exponent
EXP_FIT_TAIL = 0.5            # exponential fits read the trailing half of the trace


class FitError(ValueError):
    """Raised when a trace cannot support the requested decay fit."""


@dataclass(frozen=True)
class DecayFit:
    model: str                 # "exponential" | "polynomial"
    rate: float                # delta (E ~ C exp(-2 delta t)) or alpha (||w|| ~ C t^-alpha)
    prefactor: float
    r_squared: float


def _decay_fit(model: str, t: np.ndarray, e: np.ndarray) -> DecayFit:
    """Least-squares line of the model on the fit window (t, E): (t, log E)
    for "exponential", (log t, log ||w||) with ||w|| = sqrt(2 E) for
    "polynomial"."""
    if len(t) < 8:
        raise FitError(f"fit window has {len(t)} samples, need at least 8")
    if np.any(e <= 0.0):
        raise FitError("nonpositive energies in the fit window")
    if model == "exponential":
        x, y, rate_per_slope = t, np.log(e), -0.5
    else:
        x, y, rate_per_slope = np.log(t), 0.5 * np.log(2.0 * e), -1.0
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return DecayFit(model=model, rate=rate_per_slope * float(slope),
                    prefactor=float(np.exp(intercept)),
                    r_squared=1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0)


def fit_exponential_rate(trace: SimulationTrace) -> DecayFit:
    """Least-squares line on (t, log E) over the trailing EXP_FIT_TAIL of the trace.

    The decay rate is delta with E ~ C exp(-2 delta t), i.e. minus half the
    fitted slope: ||S(t)|| <= C exp(-delta t) squares into the energy.
    """
    n = len(trace.times)
    start = min(n - 1, int(math.ceil((1.0 - EXP_FIT_TAIL) * n)))
    return _decay_fit("exponential", trace.times[start:], trace.energy[start:])


def fit_polynomial_rate(trace: SimulationTrace) -> DecayFit:
    """Least-squares line on (log t, log ||w||), ||w|| = sqrt(2 E), over
    t in [t_end/10, t_end] (one decade).  alpha is minus the slope.  The norm
    is fitted as recorded, not normalized, so its initial value only shifts
    the prefactor."""
    t_end = float(trace.times[-1])
    lo = t_end / 10.0
    positive = trace.times[trace.times > 0.0]
    if len(positive) == 0 or positive[0] > lo:
        raise FitError("fit window must span at least one decade of time")
    sel = trace.times >= lo
    return _decay_fit("polynomial", trace.times[sel], trace.energy[sel])


@dataclass
class RegimeReport:
    predicted: RegimeLabel
    verdict: str                       # "consistent" | "inconsistent" | "inconclusive"
    lines: list[str] = field(default_factory=list)

    def render(self) -> str:
        out = [f"predicted regime: {self.predicted.value}", ""]
        out += self.lines
        out += ["", f"verdict: {self.verdict}"]
        return "\n".join(out) + "\n"


def _combined_trace(p: PhysicalParams, g: AnnulusGeometry, resolution: int,
                    modes: list[int], profile: str, dt: float, t_end: float,
                    seed: int, filter_undamped: bool) -> SimulationTrace:
    """One profile's traces of the modes as one: rows summed, largest |residual| per step."""
    def one(mode: int) -> SimulationTrace:
        grid = build_radial_grid(g, resolution, resolution, mode)
        pencil = assemble_mode_pencil(p, grid)
        w = make_initial_data(pencil, profile, seed=seed)
        if filter_undamped:
            w = project_resolvable(pencil, w)
        return simulate(pencil, w, dt, t_end)

    traces = [one(m) for m in modes]
    return SimulationTrace(times=traces[0].times,
                           values=np.sum([tr.values for tr in traces], axis=0),
                           residuals=np.max([np.abs(tr.residuals) for tr in traces], axis=0))


def run_regime_experiment(p: PhysicalParams, g: AnnulusGeometry, resolution: int,
                          modes: range, profiles: list[str], t_end: float,
                          dt: float | None = None, seed: int = 0) -> RegimeReport:
    """End-to-end regime check; see module docstring for the verdict rules."""
    predicted = classify_regime(p, g)
    report = RegimeReport(predicted=predicted, verdict="inconclusive")
    lines = report.lines
    mode_list = list(modes)
    try:
        spectra, spectra_fine = spectral_abscissa_sweep(p, g, resolution, modes)
        grid0 = build_radial_grid(g, resolution, resolution, mode_list[0])
        pencil0 = assemble_mode_pencil(p, grid0)
        # scan the lowest configured mode up to 90% of the membrane band edge
        lam_max = 0.9 * membrane_band_edge(pencil0)
        scan = resolvent_scan(pencil0, 0.25, lam_max, 160)
        grid0f = build_radial_grid(g, 2 * resolution, 2 * resolution, mode_list[0])
        pencil0f = assemble_mode_pencil(p, grid0f)
        scan_fine = resolvent_scan(pencil0f, 0.25, lam_max, 160)

        if dt is None:
            dt = default_dt(pencil0, t_end)
        fits: dict[str, DecayFit] = {}
        poly_fits: dict[str, DecayFit] = {}
        max_residual = 0.0
        for profile in profiles:
            trace = _combined_trace(p, g, resolution, mode_list, profile, dt, t_end,
                                    seed, filter_undamped=predicted in NOT_EXP_LABELS)
            max_residual = max(max_residual, float(np.abs(trace.residuals).max()))
            try:
                fits[profile] = fit_exponential_rate(trace)
            except FitError as exc:
                lines.append(f"profile {profile}: exponential fit skipped ({exc})")
            if predicted in NOT_EXP_LABELS:
                poly_fits[profile] = fit_polynomial_rate(trace)
    except AssemblyError:
        raise   # a malformed operator is a bug, though it is a RuntimeError
    except (FitError, np.linalg.LinAlgError, RuntimeError) as exc:
        # partial evidence: inconclusive; any other exception is a bug and raises
        lines.append(f"experiment incomplete: {type(exc).__name__}: {exc}")
        return report

    absc = max(s.spectral_abscissa for s in spectra)
    band = max(s.resolved_abscissa for s in spectra)
    band_fine = max(s.resolved_abscissa for s in spectra_fine)
    gap_ok = all(s.imag_axis_gap > 0.0 for s in spectra)
    zero_ok = all(s.zero_in_resolvent for s in spectra)
    sup_dev = abs(scan_fine.sup_norm - scan.sup_norm) / scan.sup_norm
    lines.append(f"global spectral abscissa (modes {mode_list[0]}..{mode_list[-1]}, "
                 f"n={resolution}): {absc:.6e}")
    lines.append(f"resolved abscissa: {band:.6e} (doubled: {band_fine:.6e})")
    lines.append(f"resolvent scan sup: {scan.sup_norm:.6e} "
                 f"(doubled resolution: {scan_fine.sup_norm:.6e}, deviation {sup_dev:.1%})")
    lines.append(f"resolvent growth exponent: {scan.growth_exponent:+.3f}")
    lines.append(f"max energy-balance residual over runs: {max_residual:.3e}")
    for profile, fitted in fits.items():
        lines.append(f"profile {profile}: exponential rate {fitted.rate:.6f} "
                     f"(r2 {fitted.r_squared:.4f})")
    for profile, fitted in poly_fits.items():
        lines.append(f"profile {profile}: polynomial alpha {fitted.rate:.4f} "
                     f"(r2 {fitted.r_squared:.4f})")

    checks: list[tuple[str, bool]] = [("0 in the resolvent set for every mode", zero_ok)]
    if predicted in EXPONENTIAL_LABELS:
        checks.append(("negative spectral abscissa", absc < 0.0))
        checks.append((f"bounded resolvent scan (sup deviation <= {SUP_MATCH_RTOL:.0%})",
                       sup_dev <= SUP_MATCH_RTOL))
        if fits:
            slowest = min(f.rate for f in fits.values())
            dev = abs(slowest - (-absc)) / abs(absc)
            checks.append((f"slowest fitted rate within {RATE_MATCH_RTOL:.0%} of |abscissa| "
                           f"(got {dev:.1%})", dev <= RATE_MATCH_RTOL))
        else:
            checks.append(("an exponential fit was obtained", False))
        checks.append(("positive imaginary-axis gap (m > 0)", gap_ok))
    elif predicted is RegimeLabel.STRONG_ONLY_UNPROVEN:
        ok = absc <= 1e-8 and gap_ok and zero_ok
        report.verdict = "consistent" if ok else "inconclusive"
        lines.append("stability rate unproven for this cell; only spectral predicates checked")
        return report
    else:
        shrunk = abs(band_fine) <= abs(band) / SHRINK_FACTOR
        checks.append((f"resolved abscissa magnitude shrinks >= {SHRINK_FACTOR}x on doubling "
                       f"({abs(band):.3e} -> {abs(band_fine):.3e})", shrunk))
        grow_ok = (np.isfinite(scan.growth_exponent)
                   and 0.0 < scan.growth_exponent <= GROWTH_EXP_CEILING)
        checks.append((f"resolvent growth exponent in (0, {GROWTH_EXP_CEILING:.0f}]", grow_ok))
        if predicted is RegimeLabel.NOT_EXPONENTIAL_POLYNOMIAL:
            alphas_ok = bool(poly_fits) and all(f.rate > 0.0 for f in poly_fits.values())
            r2_ok = bool(poly_fits) and any(f.r_squared >= POLY_R2_MIN for f in poly_fits.values())
            checks.append(("positive polynomial alpha for every profile", alphas_ok))
            checks.append((f"some profile fits with r2 >= {POLY_R2_MIN}", r2_ok))

    for desc, ok in checks:
        lines.append(("PASS " if ok else "FAIL ") + desc)
    report.verdict = "consistent" if all(ok for _, ok in checks) else "inconsistent"
    return report
