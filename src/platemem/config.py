"""Plain `key = value` run configuration.

Unknown keys are rejected; missing keys fall back to the documented defaults
(all material constants 1, kappa = 1, gamma = rho = m = 0, mu = 1,
r_interface = 1, r_outer = 2, x0 = (0, 0), n_plate = n_mem = 64, modes 0..4).
Lines starting with `#` and blank lines are ignored.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import AnnulusGeometry, PhysicalParams, ValidationError, validate_params
from .semigroup import PROFILES


class ConfigError(ValueError):
    """Parse or validation failure, tagged with line (and column) numbers."""


_FLOAT_KEYS = {
    "rho0", "rho1", "rho2", "beta0", "beta1", "beta2", "mu", "gamma", "rho",
    "m", "kappa", "r_interface", "r_outer", "x0_x", "x0_y", "dt", "t_end",
}
_INT_KEYS = {"n_plate", "n_mem", "mode_min", "mode_max", "seed"}
_STR_KEYS = {"output_dir"}
_LIST_KEYS = {"profiles"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _LIST_KEYS

DEFAULTS: dict[str, object] = {
    "rho0": 1.0, "rho1": 1.0, "rho2": 1.0,
    "beta0": 1.0, "beta1": 1.0, "beta2": 1.0,
    "mu": 1.0, "gamma": 0.0, "rho": 0.0, "m": 0.0, "kappa": 1.0,
    "r_interface": 1.0, "r_outer": 2.0, "x0_x": 0.0, "x0_y": 0.0,
    "n_plate": 64, "n_mem": 64, "mode_min": 0, "mode_max": 4,
    "dt": None, "t_end": None,
    "profiles": ["plate_bump", "membrane_bump"],
    "output_dir": ".", "seed": 0,
}


@dataclass(frozen=True)
class RunConfig:
    params: PhysicalParams
    geometry: AnnulusGeometry
    n_plate: int
    n_mem: int
    mode_min: int
    mode_max: int
    dt: float | None
    t_end: float | None
    profiles: list[str] = field(default_factory=list)
    output_dir: str = "."
    seed: int = 0

    @property
    def modes(self) -> range:
        return range(self.mode_min, self.mode_max + 1)


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; errors carry 1-based line/column positions."""
    values: dict[str, object] = dict(DEFAULTS)
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = raw.partition("=")
        col = len(raw) - len(value.lstrip()) + 1   # 1-based start of the value
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if not value:
            raise ConfigError(f"line {lineno}, column {col}: empty value for {key!r}")
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}, column {col}: expected a number for {key!r}, got {value!r}"
                ) from None
        elif key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}, column {col}: expected an integer for {key!r}, got {value!r}"
                ) from None
            if key == "seed" and values[key] < 0:
                raise ConfigError(
                    f"line {lineno}, column {col}: seed must be non-negative, got {value!r}")
        elif key in _LIST_KEYS:
            names = [s.strip() for s in value.split(",") if s.strip()]
            if not names:
                raise ConfigError(f"line {lineno}, column {col}: empty profile list")
            for name in names:
                if name not in PROFILES:
                    raise ConfigError(
                        f"line {lineno}, column {col}: unknown profile {name!r}; "
                        f"expected one of {', '.join(PROFILES)}"
                    )
            values[key] = names
        else:
            values[key] = value

    params = PhysicalParams(
        rho0=values["rho0"], rho1=values["rho1"], rho2=values["rho2"],
        beta0=values["beta0"], beta1=values["beta1"], beta2=values["beta2"],
        mu=values["mu"], gamma=values["gamma"], rho_damp=values["rho"],
        m_damp=values["m"], kappa=values["kappa"],
    )
    geometry = AnnulusGeometry(
        r_interface=values["r_interface"], r_outer=values["r_outer"],
        x0=(values["x0_x"], values["x0_y"]),
    )
    try:
        validate_params(params, geometry)
    except ValidationError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from None
    if values["mode_min"] < 0 or values["mode_max"] < values["mode_min"]:
        raise ConfigError(
            f"invalid mode range {values['mode_min']}..{values['mode_max']}")
    for key in ("dt", "t_end"):
        v = values[key]
        if v is not None and not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"{key} must be positive and finite, got {v}")
    return RunConfig(
        params=params,
        geometry=geometry,
        n_plate=values["n_plate"],
        n_mem=values["n_mem"],
        mode_min=values["mode_min"],
        mode_max=values["mode_max"],
        dt=values["dt"],
        t_end=values["t_end"],
        profiles=list(values["profiles"]),
        output_dir=str(values["output_dir"]),
        seed=values["seed"],
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read())
