"""Acceptance suite: one test per criterion, one PASS line each.

Tolerances are pinned here, not computed; runtime budgets are asserted.
The per-criterion lines bypass pytest's capture so they always reach the
terminal (and any tee'd log), pass or fail.
"""
import sys
import time

import numpy as np
import pytest


ANNOUNCEMENTS: list[str] = []


def announce(line: str) -> None:
    # kept for the terminal-summary hook (pytest's fd capture eats stdout)
    ANNOUNCEMENTS.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def criterion(number: int, summary: str):
    import functools

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                announce(f"FAIL criterion {number}: {summary}")
                raise
        return run
    return wrap

from platemem import (AnnulusGeometry, PhysicalParams, assemble_mode_pencil,
                      build_radial_grid, energy, eigenvalues, fit_exponential_rate,
                      fit_polynomial_rate, make_initial_data,
                      parse_config, resolvent_scan, simulate, spectral_abscissa_sweep,
                      step_crank_nicolson)
from platemem.cli import main
from platemem.semigroup import DENSE_STEP_DIM, TRACE_ROWS, SimulationTrace
from platemem.spectral import AXIS_TOL_REL, project_resolvable

from oracles import bessel_j0_zeros, matrix_exponential_reference, membrane_subpencil

GEO = AnnulusGeometry()
GEO_OFFCENTER = AnnulusGeometry(x0=(2.0, 0.0))

CELLS6 = {
    "ExponentialRhoDamped": (PhysicalParams(m_damp=1.0, rho_damp=1.0), GEO),
    "ExponentialThermalOnly": (PhysicalParams(m_damp=1.0), GEO),
    "StrongOnlyUnproven": (PhysicalParams(m_damp=1.0, gamma=1.0), GEO),
    "NotExponentialPolynomial": (PhysicalParams(rho_damp=1.0), GEO),
    "NotExponentialGeometryFails": (PhysicalParams(rho_damp=1.0), GEO_OFFCENTER),
    "NotExponentialNoRate": (PhysicalParams(), GEO),
}

EXP_CELLS = {
    "m=1 rho=1 gamma=0": PhysicalParams(m_damp=1.0, rho_damp=1.0),
    "m=1 rho=1 gamma=1": PhysicalParams(m_damp=1.0, rho_damp=1.0, gamma=1.0),
    "m=1 rho=0 gamma=0 mu=1": PhysicalParams(m_damp=1.0),
}

M0_CELLS = {
    "m=0 rho=1": PhysicalParams(rho_damp=1.0),
    "m=0 rho=0": PhysicalParams(),
}


def make_pencil(p, geo, res, mode):
    return assemble_mode_pencil(p, build_radial_grid(geo, res, res, mode))


def all_profile_state(pencil, seed=7):
    w = np.zeros(pencil.dim)
    for profile in ("plate_bump", "membrane_bump", "thermal_pulse", "rough"):
        w += make_initial_data(pencil, profile, seed=seed)
    return w / np.sqrt(2.0 * energy(pencil, w).total)


def combined_trace(p, geo, res, modes, profiles, dt, t_end, filter_undamped=False):
    traces = []
    for mode in modes:
        pencil = make_pencil(p, geo, res, mode)
        w = np.zeros(pencil.dim)
        for profile in profiles:
            w += make_initial_data(pencil, profile, seed=7)
        if filter_undamped:
            w = project_resolvable(pencil, w)
        w /= np.sqrt(2.0 * energy(pencil, w).total)
        traces.append(simulate(pencil, w, dt, t_end))
    return SimulationTrace(times=traces[0].times,
                           values=np.sum([t.values for t in traces], axis=0),
                           residuals=np.max([np.abs(t.residuals) for t in traces], axis=0))


@criterion(1, "discrete dissipativity and energy balance")
def test_criterion_1_dissipativity_and_energy_balance():
    t0 = time.time()
    dt, t_end = 0.01, 1.5
    for name, (p, geo) in CELLS6.items():
        for mode in (0, 1, 2, 4):
            for res in (32, 64):
                pencil = make_pencil(p, geo, res, mode)
                trace = simulate(pencil, all_profile_state(pencil), dt, t_end)
                e0 = trace.energy[0]
                assert np.abs(trace.residuals).max() <= 1e-10 * e0 / dt, (name, mode, res)
                assert np.all(np.diff(trace.energy) <= 1e-10 * e0), (name, mode, res)
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    announce(f"PASS criterion 1: exact energy identity (<=1e-10 E0/dt) and nonincreasing "
          f"energy, 6 cells x modes {{0,1,2,4}} x n {{32,64}} [{elapsed:.0f}s]")


@criterion(1, "energy balance at n = 256")
def test_criterion_1_energy_balance_at_n256():
    # criterion 1's bound at four times its resolution, 50 steps: it needs the
    # energy summed from its parts, as a float64 w* G w rounds at G's h^-4 scale
    t0 = time.time()
    dt, t_end = 0.01, 0.5
    for name, (p, geo) in CELLS6.items():
        for mode in (0, 4):
            pencil = make_pencil(p, geo, 256, mode)
            trace = simulate(pencil, all_profile_state(pencil), dt, t_end)
            e0 = trace.energy[0]
            assert np.abs(trace.residuals).max() <= 1e-10 * e0 / dt, (name, mode)
            assert np.all(np.diff(trace.energy) <= 1e-10 * e0), (name, mode)
    elapsed = time.time() - t0
    announce(f"PASS criterion 1 at n=256: exact energy identity (<=1e-10 E0/dt), 6 cells x "
             f"modes {{0,4}}, 50 steps of dt=0.01 [{elapsed:.0f}s]")


@criterion(1, "energy balance on the dense step at its cap")
def test_criterion_1_energy_balance_on_the_dense_step_at_its_cap():
    # dim 255, the largest pencil under DENSE_STEP_DIM, at long steps: the
    # propagator (M - dt/2 A)^-1 (M + dt/2 A) is one dense product per step
    t0 = time.time()
    for name, (p, geo) in CELLS6.items():
        pencil = make_pencil(p, geo, 51, 1)
        assert pencil.dim == 255 <= DENSE_STEP_DIM
        for dt in (0.1, 1.0):
            trace = simulate(pencil, all_profile_state(pencil), dt, 40 * dt)
            e0 = trace.energy[0]
            assert np.abs(trace.residuals).max() <= 1e-10 * e0 / dt, (name, dt)
            assert np.all(np.diff(trace.energy) <= 1e-10 * e0), (name, dt)
    elapsed = time.time() - t0
    announce(f"PASS criterion 1 on the dense step: exact energy identity (<=1e-10 E0/dt), "
             f"6 cells at dim 255, 40 steps of dt 0.1 and 1 [{elapsed:.0f}s]")


@criterion(2, "Crank-Nicolson vs matrix-exponential oracle")
def test_criterion_2_crank_nicolson_vs_matrix_exponential():
    t0 = time.time()
    pencil = make_pencil(PhysicalParams(m_damp=1.0, rho_damp=1.0), GEO, 8, 0)
    assert pencil.dim <= 40
    rng = np.random.default_rng(11)
    w0 = rng.standard_normal(pencil.dim)
    ref = matrix_exponential_reference(pencil, 1.0) @ w0

    def err(dt):
        st = w0
        for _ in range(int(round(1.0 / dt))):
            st = step_crank_nicolson(pencil, st, dt)
        d = st - ref
        return float(np.sqrt(d @ (pencil.G @ d)))

    errs = [err(dt) for dt in (4e-3, 2e-3, 1e-3)]   # the last is 1000 steps
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2, (errs, orders)
    elapsed = time.time() - t0
    assert elapsed <= 10.0
    announce(f"PASS criterion 2: CN vs matrix-exponential oracle, observed orders "
          f"{orders[0]:.2f}, {orders[1]:.2f} in 2.0 +- 0.2 [{elapsed:.1f}s]")


@criterion(3, "Bessel-frequency validation")
def test_criterion_3_bessel_frequency_validation():
    t0 = time.time()
    grid = build_radial_grid(GEO, 8, 128, 0)
    sub = membrane_subpencil(PhysicalParams(), grid)
    spec = eigenvalues(sub)
    freqs = np.unique(np.round(np.abs(spec.eigenvalues.imag), 10))
    freqs = freqs[freqs > 1e-9]
    refs = bessel_j0_zeros(3)
    assert abs(refs[0] - 2.404826) < 1e-6
    devs = []
    for got, ref in zip(freqs[:3], refs):
        scaled = np.sqrt(1.0 / 1.0) * ref / GEO.r_interface
        devs.append(abs(got - scaled) / scaled)
        assert devs[-1] < 5e-3
    elapsed = time.time() - t0
    assert elapsed <= 5.0
    announce(f"PASS criterion 3: membrane frequencies at j0k/r within 0.5% "
          f"(max dev {max(devs):.2e}) at n_mem=128 [{elapsed:.1f}s]")


@criterion(4, "spectral predicates")
def test_criterion_4_spectral_predicates():
    t0 = time.time()
    for name, (p, geo) in CELLS6.items():
        for mode in range(0, 9):
            spec = eigenvalues(make_pencil(p, geo, 32, mode))
            mx = np.abs(spec.eigenvalues).max()
            assert spec.spectral_abscissa <= 1e-8 * mx, (name, mode)
            assert np.abs(spec.eigenvalues).min() > AXIS_TOL_REL * mx, (name, mode)
            if p.m_damp > 0:
                assert spec.imag_axis_gap > 0.0, (name, mode)
    elapsed = time.time() - t0
    announce(f"PASS criterion 4: dissipativity bound, 0 in resolvent set, and "
          f"m>0 axis gap, 6 cells x modes 0..8 [{elapsed:.0f}s]")


@criterion(5, "exponential regimes")
def test_criterion_5_exponential_regimes():
    t0 = time.time()
    lmax = 0.9 * 2.0 * 32  # 90% of the coarse membrane band edge
    for name, p in EXP_CELLS.items():
        spectra, _ = spectral_abscissa_sweep(p, GEO, 32, range(0, 5))
        absc = max(s.spectral_abscissa for s in spectra)
        assert absc < 0.0, name
        sups = []
        for res in (32, 64):
            pencil = make_pencil(p, GEO, res, 0)
            sups.append(resolvent_scan(pencil, 0.25, lmax, 120).sup_norm)
        dev_sup = abs(sups[1] - sups[0]) / sups[0]
        assert dev_sup <= 0.10, (name, sups)
        trace = combined_trace(p, GEO, 32, range(0, 5),
                               ["plate_bump", "membrane_bump"], 0.01, 60.0)
        fit = fit_exponential_rate(trace)
        dev_rate = abs(fit.rate - (-absc)) / abs(absc)
        assert dev_rate <= 0.10, (name, fit.rate, absc)
        announce(f"  {name}: abscissa {absc:+.4f}, scan sup dev {dev_sup:.2%}, "
              f"rate dev {dev_rate:.2%}")
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    announce(f"PASS criterion 5: abscissa < 0, bounded scans (<=10%), fitted rate "
          f"within 10% of |abscissa| for the three exponential cells [{elapsed:.0f}s]")


@criterion(6, "non-exponential diagnostics")
def test_criterion_6_non_exponential_diagnostics():
    t0 = time.time()
    lmax = 0.9 * 2.0 * 32
    for name, p in M0_CELLS.items():
        spectra, spectra_fine = spectral_abscissa_sweep(p, GEO, 32, range(0, 3))
        coarse = abs(max(s.resolved_abscissa for s in spectra))
        fine = abs(max(s.resolved_abscissa for s in spectra_fine))
        assert fine <= coarse / 2.0, (name, coarse, fine)
        scan = resolvent_scan(make_pencil(p, GEO, 32, 0), 0.25, lmax, 120)
        assert 0.0 < scan.growth_exponent <= 24.0, (name, scan.growth_exponent)
        announce(f"  {name}: resolved abscissa {coarse:.3e} -> {fine:.3e} "
              f"({coarse / fine:.1f}x), growth exponent {scan.growth_exponent:+.2f}")
    elapsed = time.time() - t0
    announce(f"PASS criterion 6: resolved abscissa shrinks >= 2x on doubling and "
          f"resolvent growth exponent in (0, 24] for m=0 cells [{elapsed:.0f}s]")


@criterion(7, "polynomial decay")
def test_criterion_7_polynomial_decay(tmp_path):
    t0 = time.time()
    p = PhysicalParams(rho_damp=1.0)
    trace = combined_trace(p, GEO, 48, range(0, 3), ["membrane_bump"], 0.02, 200.0,
                           filter_undamped=True)
    fit = fit_polynomial_rate(trace)
    assert fit.rate > 0.0
    assert fit.r_squared >= 0.95, fit

    cfg = tmp_path / "poly.cfg"
    cfg.write_text(
        "m = 0\nrho = 1\nn_plate = 48\nn_mem = 48\nmode_min = 0\nmode_max = 2\n"
        "dt = 0.02\nt_end = 200\nprofiles = membrane_bump\n"
        f"output_dir = {tmp_path / 'out'}\n")
    code = main(["regimes", str(cfg)])
    report = (tmp_path / "out" / "regime_report.txt").read_text()
    assert code == 0, report
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    announce(f"PASS criterion 7: polynomial fit alpha={fit.rate:.2f} with "
          f"r2={fit.r_squared:.3f} >= 0.95, regimes exit code 0 [{elapsed:.0f}s]")


@criterion(8, "fit correctness on synthetic traces")
def test_criterion_8_fit_correctness():
    def synth(times, energies):
        values = np.zeros((len(TRACE_ROWS), len(times)))
        values[0] = energies
        return SimulationTrace(times=times, values=values, residuals=np.zeros_like(times))

    t = np.linspace(0.0, 25.0, 300)
    fit_e = fit_exponential_rate(synth(t, 7.0 * np.exp(-1.3 * t)))
    assert fit_e.rate == pytest.approx(0.65, abs=1e-10)
    assert fit_e.r_squared >= 1.0 - 1e-9
    tp = np.linspace(5.0, 700.0, 500)
    fit_p = fit_polynomial_rate(synth(tp, 5.0 * tp ** -3.0))
    assert fit_p.rate == pytest.approx(1.5, abs=1e-10)
    assert fit_p.r_squared >= 1.0 - 1e-9
    announce("PASS criterion 8: synthetic exponential/polynomial traces recover "
          "their rates with r2 >= 1 - 1e-9")


@criterion(9, "determinism and I/O contract")
def test_criterion_9_determinism_and_io(tmp_path):
    base = ("n_plate = 16\nn_mem = 16\nmode_min = 0\nmode_max = 1\n"
            "dt = 0.02\nt_end = 40\nm = 1\nrho = 1\nprofiles = plate_bump,rough\n"
            "seed = 5\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(base + f"output_dir = {tmp_path / 'a'}\n")
    assert main(["simulate", str(cfg)]) == 0
    blobs = {f.name: f.read_bytes() for f in sorted((tmp_path / "a").iterdir())}
    assert main(["simulate", str(cfg)]) == 0
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == blobs[f.name], f.name

    # parse errors carry line numbers
    from platemem import ConfigError
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("m = 1\nnot a key value line")

    # exit-code contract: consistent / inconsistent-synthetic / invalid
    ok = tmp_path / "ok.cfg"
    ok.write_text(base + f"output_dir = {tmp_path / 'ok'}\n")
    assert main(["regimes", str(ok)]) == 0
    short = tmp_path / "short.cfg"
    short.write_text(base.replace("t_end = 40", "t_end = 4")
                     + f"output_dir = {tmp_path / 'short'}\n")
    assert main(["regimes", str(short)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("kappa = -1\n")
    assert main(["regimes", str(bad)]) == 1
    announce("PASS criterion 9: byte-identical reruns, line-tagged parse errors, "
          "exit codes 0/2/1 on the canned configs")
