import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platemem import (AnnulusGeometry, PhysicalParams, RegimeLabel,
                      fit_exponential_rate, fit_polynomial_rate, run_regime_experiment)
from platemem.semigroup import TRACE_ROWS, SimulationTrace
from platemem.stability import FitError

GEO = AnnulusGeometry()


def synth_trace(times, energies):
    """A trace whose energy row is energies and whose other rows are zero."""
    times = np.asarray(times, dtype=float)
    values = np.zeros((len(TRACE_ROWS), len(times)))
    values[0] = energies
    return SimulationTrace(times=times, values=values, residuals=np.zeros_like(times))


def test_exponential_fit_recovers_exact_rate():
    t = np.linspace(0.0, 12.0, 100)
    fit = fit_exponential_rate(synth_trace(t, 3.0 * np.exp(-0.8 * t)))
    assert fit.model == "exponential"
    assert fit.rate == pytest.approx(0.4, abs=1e-9)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-9)
    assert fit.r_squared >= 1.0 - 1e-9


def test_exponential_fit_constant_energy_rate_zero():
    t = np.linspace(0.0, 5.0, 64)
    fit = fit_exponential_rate(synth_trace(t, np.full_like(t, 2.5)))
    assert fit.rate == pytest.approx(0.0, abs=1e-12)


def test_polynomial_fit_recovers_exact_alpha():
    t = np.linspace(10.0, 1000.0, 400)
    fit = fit_polynomial_rate(synth_trace(t, 5.0 * t**-4.0))
    assert fit.model == "polynomial"
    assert fit.rate == pytest.approx(2.0, abs=1e-9)   # ||w|| ~ t^-2
    assert fit.r_squared >= 1.0 - 1e-9


def test_polynomial_fit_on_exponential_data_reports_r2():
    t = np.linspace(1.0, 50.0, 300)
    fit_p = fit_polynomial_rate(synth_trace(t, np.exp(-0.3 * t)))
    fit_e = fit_exponential_rate(synth_trace(t, np.exp(-0.3 * t)))
    assert fit_e.r_squared > fit_p.r_squared  # caller separates models by r2


def test_fit_errors():
    t = np.linspace(0.0, 1.0, 6)
    with pytest.raises(FitError, match="samples"):
        fit_exponential_rate(synth_trace(t, np.exp(-t)))
    t = np.linspace(0.0, 10.0, 50)
    e = np.exp(-t)
    e[-3] = -1.0
    with pytest.raises(FitError, match="nonpositive"):
        fit_exponential_rate(synth_trace(t, e))
    short = np.linspace(0.5, 2.0, 40)  # window spans less than a decade
    with pytest.raises(FitError, match="decade"):
        fit_polynomial_rate(synth_trace(short, np.exp(-short)))


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-6, 1e6), st.floats(0.05, 2.0))
def test_fit_scale_equivariance(c, rate):
    t = np.linspace(0.0, 20.0, 120)
    base = 2.0 * np.exp(-2.0 * rate * t)
    f1 = fit_exponential_rate(synth_trace(t, base))
    f2 = fit_exponential_rate(synth_trace(t, c * base))
    assert f2.rate == pytest.approx(f1.rate, rel=1e-9, abs=1e-12)
    assert f2.prefactor == pytest.approx(c * f1.prefactor, rel=1e-9)
    tp = np.linspace(2.0, 50.0, 200)
    basep = 4.0 * tp ** -1.5
    p1 = fit_polynomial_rate(synth_trace(tp, basep))
    p2 = fit_polynomial_rate(synth_trace(tp, c * basep))
    assert p2.rate == pytest.approx(p1.rate, rel=1e-9, abs=1e-12)
    assert p2.prefactor == pytest.approx(np.sqrt(c) * p1.prefactor, rel=1e-9)


def test_regime_experiment_exponential_cell_consistent():
    p = PhysicalParams(m_damp=1.0, rho_damp=1.0)
    report = run_regime_experiment(p, GEO, resolution=16, modes=range(0, 2),
                                   profiles=["plate_bump"], t_end=40.0, dt=0.02)
    assert report.predicted is RegimeLabel.EXPONENTIAL_RHO_DAMPED
    assert report.verdict == "consistent", "\n".join(report.lines)


def test_regime_experiment_short_horizon_is_inconsistent():
    p = PhysicalParams(m_damp=1.0, rho_damp=1.0)
    report = run_regime_experiment(p, GEO, resolution=16, modes=range(0, 2),
                                   profiles=["plate_bump"], t_end=4.0, dt=0.02)
    assert report.verdict == "inconsistent"


def test_regime_experiment_strong_only_never_inconsistent():
    p = PhysicalParams(m_damp=1.0, gamma=1.0)
    report = run_regime_experiment(p, GEO, resolution=16, modes=range(0, 2),
                                   profiles=["plate_bump"], t_end=20.0, dt=0.02)
    assert report.predicted is RegimeLabel.STRONG_ONLY_UNPROVEN
    assert report.verdict in ("consistent", "inconclusive")
    assert report.verdict == "consistent"


def test_verdict_survives_resolution_increase():
    # regression guard: improving resolution never flips consistent -> inconsistent
    p = PhysicalParams(m_damp=1.0, rho_damp=1.0)
    for res in (16, 24):
        report = run_regime_experiment(p, GEO, resolution=res, modes=range(0, 2),
                                       profiles=["plate_bump"], t_end=40.0, dt=0.02)
        assert report.verdict == "consistent", (res, report.lines)


def test_regime_report_render_mentions_verdict():
    p = PhysicalParams(m_damp=1.0, rho_damp=1.0)
    report = run_regime_experiment(p, GEO, resolution=16, modes=range(0, 1),
                                   profiles=["membrane_bump"], t_end=40.0, dt=0.02)
    text = report.render()
    assert text.startswith("predicted regime: ExponentialRhoDamped")
    assert f"verdict: {report.verdict}" in text


def test_regime_experiment_with_no_modes_raises_the_sweeps_error():
    # a named ValueError, not an "incomplete" (inconclusive) report
    with pytest.raises(ValueError, match="^the sweep needs at least one mode, got none$"):
        run_regime_experiment(PhysicalParams(rho_damp=1.0), GEO, 8, range(0),
                              ["plate_bump"], t_end=1.0, dt=0.1)
