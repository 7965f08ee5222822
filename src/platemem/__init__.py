"""Numerical laboratory for a coupled thermoelastic plate-membrane system.

Discretizes the transmission problem per angular Fourier mode on cell-centered
radial grids, realizes the generator as an energy-compatible pencil (M, A)
with Gram matrix G, and verifies dissipation, spectral location, resolvent
behaviour, and exponential vs polynomial decay across damping regimes.
"""
from .model import (AnnulusGeometry, GeometricCheck, PhysicalParams, RegimeLabel,
                    ValidationError, check_geometric_condition, classify_regime,
                    validate_params)
from .grid import RadialGrid, build_radial_grid, laplacian_mode
from .pencil import Forms, ModePencil, assemble_mode_pencil
from .semigroup import (FormReport, SimulationTrace, default_dt, dissipation, energy,
                        graph_norm, make_initial_data, pencil_dissipation, simulate,
                        step_crank_nicolson)
from .spectral import (ResolventScan, SpectrumResult, eigenvalues,
                       membrane_band_edge, project_resolvable, resolvent_norm,
                       resolvent_scan, spectral_abscissa_sweep)
from .stability import (DecayFit, FitError, RegimeReport, fit_exponential_rate,
                        fit_polynomial_rate, run_regime_experiment)
from .config import ConfigError, RunConfig, load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "AnnulusGeometry", "GeometricCheck", "PhysicalParams", "RegimeLabel",
    "ValidationError", "check_geometric_condition",
    "classify_regime", "validate_params",
    "RadialGrid", "build_radial_grid", "laplacian_mode",
    "Forms", "ModePencil", "assemble_mode_pencil",
    "FormReport", "SimulationTrace", "default_dt", "dissipation", "energy", "graph_norm",
    "make_initial_data", "pencil_dissipation", "simulate", "step_crank_nicolson",
    "ResolventScan", "SpectrumResult", "eigenvalues",
    "membrane_band_edge", "project_resolvable", "resolvent_norm",
    "resolvent_scan", "spectral_abscissa_sweep",
    "DecayFit", "FitError", "RegimeReport", "fit_exponential_rate",
    "fit_polynomial_rate", "run_regime_experiment",
    "ConfigError", "RunConfig", "load_config", "parse_config",
]
