"""Physical parameters, annulus geometry, and stability-regime classification.

The system couples a thermoelastic Kirchhoff plate on an annulus with an
elastic membrane on the enclosed disk.  Which long-time behaviour the
semigroup exhibits depends only on the damping constants (m, rho), the
rotational-inertia constant gamma, the thermal coupling mu, and (for the
undamped membrane) a geometric condition on the interface circle.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class ValidationError(ValueError):
    """Raised when parameters or geometry violate an invariant."""


@dataclass(frozen=True)
class PhysicalParams:
    """Material and damping constants of the coupled system.

    rho0, rho1, rho2 are the thermal/plate/membrane densities, beta0, beta1,
    beta2 the conductivity/bending/tension moduli.  mu >= 0 couples plate and
    temperature (0 = isothermal), gamma >= 0 is the rotational inertia,
    rho_damp >= 0 the structural plate damping, m_damp >= 0 the membrane
    damping, and kappa > 0 the Newton cooling constant on the outer boundary.
    """

    rho0: float = 1.0
    rho1: float = 1.0
    rho2: float = 1.0
    beta0: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    mu: float = 1.0
    gamma: float = 0.0
    rho_damp: float = 0.0
    m_damp: float = 0.0
    kappa: float = 1.0


@dataclass(frozen=True)
class AnnulusGeometry:
    """Concentric-disk geometry: membrane disk of radius r_interface inside
    the plate annulus (r_interface, r_outer); x0 is the reference point of the
    geometric condition."""

    r_interface: float = 1.0
    r_outer: float = 2.0
    x0: tuple[float, float] = (0.0, 0.0)


class RegimeLabel(enum.Enum):
    """Stability regime of the semigroup for a given parameter set."""

    EXPONENTIAL_RHO_DAMPED = "ExponentialRhoDamped"
    EXPONENTIAL_THERMAL_ONLY = "ExponentialThermalOnly"
    STRONG_ONLY_UNPROVEN = "StrongOnlyUnproven"
    NOT_EXPONENTIAL_POLYNOMIAL = "NotExponentialPolynomial"
    NOT_EXPONENTIAL_NO_RATE = "NotExponentialNoRate"
    NOT_EXPONENTIAL_GEOMETRY_FAILS = "NotExponentialGeometryFails"


@dataclass(frozen=True)
class GeometricCheck:
    satisfied: bool
    max_q_dot_nu: float


_POSITIVE = ("rho0", "rho1", "rho2", "beta0", "beta1", "beta2", "kappa")
_NONNEGATIVE = ("mu", "gamma", "rho_damp", "m_damp")


def validate_params(p: PhysicalParams, g: AnnulusGeometry) -> None:
    """Check every invariant; raise ValidationError naming all violations."""
    problems = []
    for name in _POSITIVE:
        v = getattr(p, name)
        if not (math.isfinite(v) and v > 0.0):
            problems.append(f"{name} must be strictly positive, got {v!r}")
    for name in _NONNEGATIVE:
        v = getattr(p, name)
        if not (math.isfinite(v) and v >= 0.0):
            problems.append(f"{name} must be nonnegative, got {v!r}")
    if not (math.isfinite(g.r_interface) and g.r_interface > 0.0):
        problems.append(f"geometry: r_interface must be positive, got {g.r_interface!r}")
    if not (math.isfinite(g.r_outer) and g.r_outer > 0.0):
        problems.append(f"geometry: r_outer must be positive, got {g.r_outer!r}")
    if g.r_interface > 0.0 and g.r_outer > 0.0 and not g.r_interface < g.r_outer:
        problems.append(
            "geometry: r_interface must be smaller than r_outer, got "
            f"r_interface={g.r_interface!r}, r_outer={g.r_outer!r}"
        )
    if not all(math.isfinite(c) for c in g.x0):
        problems.append(f"geometry: x0 must be finite, got {g.x0!r}")
    if problems:
        raise ValidationError("; ".join(problems))


def check_geometric_condition(g: AnnulusGeometry) -> GeometricCheck:
    """Test q . nu <= 0 on the interface circle with its exact maximum.

    On the interface, the outward normal of the annulus points toward the
    disk center, nu = -(cos t, sin t), so with q(x) = x - x0 the product is
    x0 . (cos t, sin t) - r_interface, largest when (cos t, sin t) is x0/|x0|:
    the maximum is |x0| - r_interface.  The equality case counts as satisfied
    (the condition is a non-strict inequality).
    """
    best = math.hypot(*g.x0) - g.r_interface
    return GeometricCheck(satisfied=best <= 0.0, max_q_dot_nu=best)


def classify_regime(p: PhysicalParams, g: AnnulusGeometry) -> RegimeLabel:
    """Total, deterministic regime labeling from (m, rho, gamma, mu, geometry).

    For a damped membrane (m > 0): structural damping rho > 0 gives
    exponential stability for any gamma; with rho = 0 only the thin
    thermoelastic plate (gamma = 0, mu > 0) is proved exponential, the other
    cells are only proved strongly stable.  For the undamped membrane
    (m = 0): never exponential; with rho > 0 and the geometric condition the
    decay is polynomial.
    """
    validate_params(p, g)
    if p.m_damp > 0.0:
        if p.rho_damp > 0.0:
            return RegimeLabel.EXPONENTIAL_RHO_DAMPED
        if p.gamma == 0.0 and p.mu > 0.0:
            return RegimeLabel.EXPONENTIAL_THERMAL_ONLY
        return RegimeLabel.STRONG_ONLY_UNPROVEN
    if p.rho_damp > 0.0:
        if check_geometric_condition(g).satisfied:
            return RegimeLabel.NOT_EXPONENTIAL_POLYNOMIAL
        return RegimeLabel.NOT_EXPONENTIAL_GEOMETRY_FAILS
    return RegimeLabel.NOT_EXPONENTIAL_NO_RATE
