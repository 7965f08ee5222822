import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from platemem import (AnnulusGeometry, PhysicalParams, RegimeLabel, ValidationError,
                      check_geometric_condition, classify_regime, validate_params)

ONES = PhysicalParams()
GEO = AnnulusGeometry()


def test_validate_all_ones_passes():
    assert validate_params(ONES, GEO) is None


def test_validate_reports_field_names():
    with pytest.raises(ValidationError, match="beta1"):
        validate_params(PhysicalParams(beta1=0.0), GEO)
    with pytest.raises(ValidationError, match="geometry"):
        validate_params(ONES, AnnulusGeometry(r_interface=3.0, r_outer=2.0))


def test_validate_reports_every_violation():
    with pytest.raises(ValidationError) as err:
        validate_params(PhysicalParams(beta1=-1.0, kappa=0.0, mu=-2.0), GEO)
    msg = str(err.value)
    assert "beta1" in msg and "kappa" in msg and "mu" in msg


def test_geometric_condition_centered():
    best = check_geometric_condition(AnnulusGeometry(x0=(0.0, 0.0)))
    assert best == pytest.approx(-1.0, abs=1e-14)


def test_geometric_condition_violated():
    best = check_geometric_condition(AnnulusGeometry(x0=(2.0, 0.0)))
    assert best == pytest.approx(1.0, abs=1e-14)


def test_geometric_condition_boundary_counts_as_satisfied():
    g = AnnulusGeometry(x0=(1.0, 0.0))
    assert check_geometric_condition(g) == pytest.approx(0.0, abs=1e-14)
    assert (classify_regime(PhysicalParams(rho_damp=1.0), g)
            is RegimeLabel.NOT_EXPONENTIAL_POLYNOMIAL)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 2.5))
def test_geometric_condition_matches_analytic_maximum(x, y, r):
    g = AnnulusGeometry(r_interface=r, r_outer=r + 1.0, x0=(x, y))
    best = check_geometric_condition(g)
    # oracle: q . nu = x0 . (cos t, sin t) - r sampled densely on the circle;
    # the samples never exceed the true maximum and miss it by at most
    # |x0| (1 - cos(pi / n)) with n angles
    n = 4096
    t = 2.0 * np.pi * np.arange(n) / n
    sampled = float(np.max(x * np.cos(t) + y * np.sin(t))) - r
    slack = math.hypot(x, y) * (1.0 - math.cos(math.pi / n)) + 1e-12
    assert sampled - 1e-12 <= best <= sampled + slack


def test_geometric_condition_is_exact_between_sample_angles():
    # x0 just outside the interface circle, half way between two of 256
    # equally spaced angles: a 256-angle sample reads max q . nu = -7.5e-5
    # (satisfied) while the exact maximum is +1e-7 (violated)
    t = math.pi / 256
    g = AnnulusGeometry(r_interface=1.0, x0=((1.0 + 1e-7) * math.cos(t),
                                              (1.0 + 1e-7) * math.sin(t)))
    assert check_geometric_condition(g) == pytest.approx(1e-7, rel=1e-6)
    assert (classify_regime(PhysicalParams(rho_damp=1.0), g)
            is RegimeLabel.NOT_EXPONENTIAL_GEOMETRY_FAILS)


@pytest.mark.parametrize("kw,label", [
    (dict(m_damp=1.0, rho_damp=1.0, gamma=0.5), RegimeLabel.EXPONENTIAL_RHO_DAMPED),
    (dict(m_damp=1.0), RegimeLabel.EXPONENTIAL_THERMAL_ONLY),
    (dict(m_damp=1.0, gamma=1.0), RegimeLabel.STRONG_ONLY_UNPROVEN),
    (dict(m_damp=1.0, mu=0.0), RegimeLabel.STRONG_ONLY_UNPROVEN),
    (dict(rho_damp=1.0), RegimeLabel.NOT_EXPONENTIAL_POLYNOMIAL),
    (dict(), RegimeLabel.NOT_EXPONENTIAL_NO_RATE),
])
def test_classify_regime_table(kw, label):
    assert classify_regime(PhysicalParams(**kw), GEO) is label


def test_classify_geometry_fails_cell():
    p = PhysicalParams(rho_damp=1.0)
    g = AnnulusGeometry(x0=(2.0, 0.0))
    assert classify_regime(p, g) is RegimeLabel.NOT_EXPONENTIAL_GEOMETRY_FAILS


@given(st.floats(0, 3), st.floats(0, 3), st.floats(0, 3), st.floats(0, 3),
       st.floats(-2, 2), st.floats(-2, 2))
def test_classify_total_and_membrane_damping_never_not_exponential(m, rho, gamma, mu, x, y):
    p = PhysicalParams(mu=mu, gamma=gamma, rho_damp=rho, m_damp=m)
    g = AnnulusGeometry(x0=(x, y))
    label = classify_regime(p, g)
    assert isinstance(label, RegimeLabel)
    if m > 0:
        assert "NotExponential" not in label.value
        # flipping m from 0 to positive never yields a NotExponential* label
        label0 = classify_regime(PhysicalParams(mu=mu, gamma=gamma, rho_damp=rho), g)
        assert isinstance(label0, RegimeLabel)
