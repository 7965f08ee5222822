"""Plain `key = value` run configuration.

The material keys are the fields of `PhysicalParams` (config keys `rho` and
`m` set `rho_damp` and `m_damp`), the geometry keys are `r_interface`,
`r_outer`, `x0_x` and `x0_y` (the two components of `AnnulusGeometry.x0`), and
the run keys are the entries of `RUN_KEYS`.  Unknown keys are rejected; a
missing key takes its dataclass or `RUN_KEYS` default.  Lines starting with `#`
and blank lines are ignored.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .grid import MAX_MODE
from .model import AnnulusGeometry, PhysicalParams, ValidationError, validate_params
from .semigroup import PROFILES


class ConfigError(ValueError):
    """Parse or validation failure, tagged with line (and column) numbers."""


_ALIASES = {"rho_damp": "rho", "m_damp": "m"}    # PhysicalParams field -> config key
_PARAM_KEYS = {_ALIASES.get(f.name, f.name): f.name for f in fields(PhysicalParams)}
_RADII = ("r_interface", "r_outer")
_X0_KEYS = ("x0_x", "x0_y")                      # the components of AnnulusGeometry.x0

# run key -> (type, default); material and geometry keys are floats
RUN_KEYS: dict[str, tuple[type, object]] = {
    "n_plate": (int, 64), "n_mem": (int, 64), "mode_min": (int, 0), "mode_max": (int, 4),
    "dt": (float, None), "t_end": (float, None),
    "profiles": (list, ["plate_bump", "membrane_bump"]),
    "output_dir": (str, "."), "seed": (int, 0),
}
_KINDS = {**dict.fromkeys((*_PARAM_KEYS, *_RADII, *_X0_KEYS), float),
          **{key: kind for key, (kind, _) in RUN_KEYS.items()}}


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
    profiles: list[str]
    output_dir: str
    seed: int

    @property
    def modes(self) -> range:
        return range(self.mode_min, self.mode_max + 1)


def _value(kind: type, key: str, value: str, where: str):
    """`value` read as `kind`; `where` is the 'line L, column C' of a failure."""
    if kind is str:
        return value
    if kind is list:
        names = [s.strip() for s in value.split(",") if s.strip()]
        if not names:
            raise ConfigError(f"{where}: empty profile list")
        for name in names:
            if name not in PROFILES:
                raise ConfigError(f"{where}: unknown profile {name!r}; "
                                  f"expected one of {', '.join(PROFILES)}")
        return names
    try:
        return kind(value)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{where}: expected {noun} for {key!r}, got {value!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; errors carry 1-based line/column positions."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = raw.partition("=")
        col = len(raw) - len(value.lstrip()) + 1   # 1-based start of the value
        key, value = key.strip(), value.strip()
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        where = f"line {lineno}, column {col}"
        if not value:
            raise ConfigError(f"{where}: empty value for {key!r}")
        values[key] = _value(_KINDS[key], key, value, where)
        if key == "seed" and values[key] < 0:
            raise ConfigError(f"{where}: seed must be non-negative, got {value!r}")

    params = PhysicalParams(**{f: values[k] for k, f in _PARAM_KEYS.items() if k in values})
    x0 = tuple(values.get(k, d) for k, d in zip(_X0_KEYS, AnnulusGeometry().x0))
    geometry = AnnulusGeometry(**{k: values[k] for k in _RADII if k in values}, x0=x0)
    try:
        validate_params(params, geometry)
    except ValidationError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from None
    run = {k: values.get(k, default) for k, (_, default) in RUN_KEYS.items()}
    if not 0 <= run["mode_min"] <= run["mode_max"] <= MAX_MODE:
        raise ConfigError(f"invalid mode range {run['mode_min']}..{run['mode_max']}, expected "
                          f"0 <= mode_min <= mode_max <= {MAX_MODE}")
    for key in ("dt", "t_end"):
        if run[key] is not None and not (math.isfinite(run[key]) and run[key] > 0.0):
            raise ConfigError(f"{key} must be positive and finite, got {run[key]}")
    run["profiles"] = list(run["profiles"])   # a fresh list per config, never the default
    return RunConfig(params=params, geometry=geometry, **run)


def load_config(path: str) -> RunConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read())
