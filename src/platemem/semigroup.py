"""Time integration of M w' = A w, energy tracking, and reference oracles.

Crank-Nicolson is the only integrator: for a quadratic energy E = w* G w / 2
the trapezoidal step satisfies the exact identity

    (E_{k+1} - E_k)/dt = Re <M^-1 A w_mid, w_mid>_G,   w_mid = (w_k + w_{k+1})/2,

so with the energy-compatible pencil the per-step residual of that identity
is pure round-off and the energy can only decrease.

A state is the 1-D complex coefficient array w in the pencil's dof_layout
order.  M, A, G and every form are real, so a state is stepped and
evaluated as the two real columns [Re w, Im w].  A step is one solve with a
sparse LU of M - dt/2 A and one CSR product with M + dt/2 A, both with
their rows equilibrated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pencil import (DISSIPATION_CHANNELS, ENERGY_PARTS, MEMBRANE_FIELDS, ModePencil,
                     closed_laplacians, solve_mass)

MAX_DEFAULT_STEPS = 20000
# Crank-Nicolson does not damp the stiff heat modes, so theta needs this many
# steps at short horizons: 4e-4 relative error at t = 1.5e-3 on n = 64
MIN_DEFAULT_STEPS = 128
BLOCK_STEPS = 64                # states per bookkeeping pass in simulate


@dataclass
class EnergyReport:
    total: float
    breakdown: dict[str, float]


@dataclass
class DissipationChannels:
    structural: float
    thermal_bulk: float
    thermal_boundary: float
    membrane: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.structural, self.thermal_bulk, self.thermal_boundary, self.membrane)

    @property
    def total(self) -> float:
        return sum(self.as_tuple())


@dataclass
class SimulationTrace:
    times: np.ndarray
    energy: np.ndarray
    breakdown: dict[str, np.ndarray]          # six energy components per step
    dissipation: dict[str, np.ndarray]        # four channels per step
    residuals: np.ndarray                     # energy-balance residual r_k per step
    graph_norm_initial: float


def _check_state(pencil: ModePencil, w: np.ndarray) -> np.ndarray:
    """The state as a dim x 2 float array [Re w, Im w]."""
    w = np.asarray(w)
    if w.shape != (pencil.dim,):
        raise ValueError(f"state length {w.shape} does not match pencil dimension {pencil.dim}")
    if not np.isfinite(w).all():
        raise ValueError("state has non-finite coefficients")
    return np.stack((w.real, w.imag), axis=1).astype(float, copy=False)


def _complex(X: np.ndarray) -> np.ndarray:
    return X[:, 0] + 1j * X[:, 1]


def _cn_factorization(pencil: ModePencil, dt: float):
    """(sparse LU of D (M - dt/2 A), CSR D (M + dt/2 A)), cached per pencil and dt.

    D scales every row of M - dt/2 A to a largest entry of one, so that
    partial pivoting compares entries on one scale: a u_t row carries
    dt/2 times the bending stiffness (~h^-4), a u row carries ones.  Without
    it the energy-identity residual reached 8.8e-10 E0/dt at n = 128 with
    splu's default ordering; with it, it stays at the dense LU's level.
    Columns are ordered by minimum degree on the pattern of Mm^T Mm, the
    fastest of splu's orderings on these pencils.  A dt for which
    0.5 dt max|A| overflows is rejected before either matrix is formed.
    """
    key = ("cn", float(dt))
    if key not in pencil._cache:
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        if not math.isfinite(0.5 * float(dt) * float(np.abs(pencil.A.data).max(initial=0.0))):
            raise ValueError(
                f"dt={dt} overflows the trapezoidal matrix: 0.5 dt max|A| is not finite")
        from scipy.sparse.linalg import splu

        Mm = (pencil.M - 0.5 * dt * pencil.A).tocsr()
        D = 1.0 / abs(Mm).max(axis=1).toarray()[:, None]
        try:
            lu = splu(Mm.multiply(D).tocsc(), permc_spec="MMD_ATA")
        except RuntimeError as exc:
            raise RuntimeError(f"singular trapezoidal matrix for dt={dt}") from exc
        if not (np.isfinite(lu.L.data).all() and np.isfinite(lu.U.data).all()):
            raise RuntimeError(f"singular trapezoidal matrix for dt={dt}")
        pencil._cache[key] = (lu, (pencil.M + 0.5 * dt * pencil.A).multiply(D).tocsr())
    return pencil._cache[key]


def _generator_apply(pencil: ModePencil, X: np.ndarray) -> np.ndarray:
    """M^-1 A X."""
    return solve_mass(pencil, pencil.A @ X)


def _cn_states(pencil: ModePencil, X: np.ndarray, dt: float, steps: int):
    """Crank-Nicolson states w_1, ..., w_steps from w_0, each as [Re w, Im w].

    The pencil is real, so both parts step as the two columns of one real
    solve.  The LU was checked for finiteness when it was factorized.
    """
    lu, Mp = _cn_factorization(pencil, dt)
    for _ in range(steps):
        X = lu.solve(Mp @ X)
        yield X


def step_crank_nicolson(pencil: ModePencil, w: np.ndarray, dt: float) -> np.ndarray:
    """One trapezoidal step: (M - dt/2 A) w+ = (M + dt/2 A) w."""
    return _complex(next(_cn_states(pencil, _check_state(pencil, w), dt, 1)))


# ---------------------------------------------------------------------------
# column evaluators: k states are a dim x 2k float array, state j in columns
# 2j (real part) and 2j+1 (imaginary part).  Every form is real, so its value
# at w is the sum of its values at Re w and Im w, in real arithmetic.

def _form_values(forms: dict, names: tuple[str, ...], X: np.ndarray,
                 Y: np.ndarray | None = None) -> np.ndarray:
    """Each named form's value per state (columns) for each name (rows):
    Re <F x, F y> for a factor F, sum d Re(x* y) for diagonal weights d, with
    y = x by default.  A form the pencil does not carry reads zero."""
    X = np.ascontiguousarray(X)         # a sparse product copies any other layout
    out = np.zeros((len(names), X.shape[1] // 2))
    for row, name in zip(out, names):
        if name in forms:
            F = forms[name]
            if F.ndim == 1:
                d = np.einsum("i,ij,ij->j", F, X, X if Y is None else Y)
            else:
                FX = F @ X
                d = np.einsum("ij,ij->j", FX, FX if Y is None else F @ Y)
            row[:] = d[0::2] + d[1::2]
    return out


def _energy_rows(pencil: ModePencil, X: np.ndarray) -> np.ndarray:
    """Rows: total energy, then its six parts; the total is their sum."""
    parts = 0.5 * _form_values(pencil.energy_parts, ENERGY_PARTS, X)
    return np.vstack((parts.sum(axis=0), parts))


def _pencil_dissipation_row(pencil: ModePencil, X: np.ndarray) -> np.ndarray:
    """-Re <M^-1 A w, w>_G per state, through the forms the energy sums."""
    return -_form_values(pencil.energy_parts, ENERGY_PARTS, _generator_apply(pencil, X),
                         X).sum(axis=0)


def energy(pencil: ModePencil, w: np.ndarray) -> EnergyReport:
    """Total energy w* G w / 2 as the sum of its six components."""
    e = _energy_rows(pencil, _check_state(pencil, w))[:, 0].tolist()
    return EnergyReport(total=e[0], breakdown=dict(zip(ENERGY_PARTS, e[1:])))


def dissipation(pencil: ModePencil, w: np.ndarray) -> DissipationChannels:
    """The four physical dissipation channels, with the Gram's own norms."""
    X = _check_state(pencil, w)
    channels = _form_values(pencil.dissipation_parts, DISSIPATION_CHANNELS, X)[:, 0]
    return DissipationChannels(*channels.tolist())


def pencil_dissipation(pencil: ModePencil, w: np.ndarray) -> float:
    """-Re <M^-1 A w, w>_G, the quadratic form of the exact step identity."""
    return float(_pencil_dissipation_row(pencil, _check_state(pencil, w))[0])


def graph_norm(pencil: ModePencil, w: np.ndarray) -> float:
    """||w||_G + ||M^-1 A w||_G (discrete domain-norm of the generator)."""
    X = _check_state(pencil, w)
    gn = lambda Y: math.sqrt(float(_form_values(pencil.energy_parts, ENERGY_PARTS, Y).sum()))
    return gn(X) + gn(_generator_apply(pencil, X))


def default_dt(pencil: ModePencil, t_end: float) -> float:
    """t_end / steps, steps from the accuracy heuristic min(h)^2/4 scaled by
    rho1/beta1 and floored at 1e-3, kept within [MIN_DEFAULT_STEPS,
    MAX_DEFAULT_STEPS].  The ratio is capped before rounding up, because
    t_end / dt overflows to inf on a horizon near the float maximum."""
    p = pencil.params
    h = min(pencil.grid.h_plate, pencil.grid.h_mem)
    dt = max(1e-3, h * h / 4.0 / max(1.0, p.beta1 / p.rho1))
    return t_end / max(MIN_DEFAULT_STEPS, math.ceil(min(MAX_DEFAULT_STEPS, t_end / dt)))


def _step_count(dt: float, t_end: float) -> int:
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    ratio = t_end / dt
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"t_end={t_end!r} is not an integer multiple of dt={dt!r}")
    return steps


def _check_finite(first_step: int, states: np.ndarray, values: np.ndarray,
                  residuals: np.ndarray) -> None:
    """Raise naming the first step whose state, trace values or residual are not finite."""
    ok = (np.isfinite(states).all(axis=0).reshape(-1, 2).all(axis=1)
          & np.isfinite(values).all(axis=0) & np.isfinite(residuals))
    if not ok.all():
        step = first_step + int(np.argmin(ok))
        raise ValueError(f"non-finite state, energy or residual at step {step}")


def simulate(pencil: ModePencil, initial: np.ndarray, dt: float, t_end: float) -> SimulationTrace:
    """Crank-Nicolson trajectory with energy/dissipation bookkeeping.

    t_end must be an integer multiple of dt.  The recorded residual is
    r_k = (E_{k+1} - E_k)/dt + D(w_mid) with D the pencil-consistent
    dissipation form; it is an algebraic identity of the trapezoidal rule and
    stays at round-off level.

    The states are bookkept BLOCK_STEPS at a time: one multi-column pass per
    block gives the energies, parts, channels and midpoint dissipations, so
    only one block of states is ever held.  A non-finite state, energy or
    residual raises ValueError naming its step.
    """
    n_steps = _step_count(dt, t_end)
    X = _check_state(pencil, initial)
    g0 = graph_norm(pencil, initial)
    n_e = 1 + len(ENERGY_PARTS)
    rows = lambda S: np.vstack((_energy_rows(pencil, S),
                                _form_values(pencil.dissipation_parts, DISSIPATION_CHANNELS, S)))
    values = np.empty((n_e + len(DISSIPATION_CHANNELS), n_steps + 1))
    residuals = np.zeros(n_steps + 1)
    values[:, :1] = rows(X)
    _check_finite(0, X, values[:, :1], residuals[:1])

    block = np.empty((pencil.dim, 2 * BLOCK_STEPS + 2))
    block[:, :2] = X
    first = 0                       # step of the state held in block[:, :2]
    for k, X in enumerate(_cn_states(pencil, X, dt, n_steps), 1):
        j = k - first
        block[:, 2 * j:2 * j + 2] = X
        if j < BLOCK_STEPS and k < n_steps:
            continue
        new, done = block[:, 2:2 * j + 2], slice(first + 1, k + 1)
        values[:, done] = rows(new)
        mid = 0.5 * (block[:, :2 * j] + new)
        residuals[done] = (np.diff(values[0, first:k + 1]) / dt
                           + _pencil_dissipation_row(pencil, mid))
        _check_finite(first + 1, new, values[:, done], residuals[done])
        block[:, :2] = X
        first = k

    return SimulationTrace(
        times=dt * np.arange(n_steps + 1),
        energy=values[0],
        breakdown=dict(zip(ENERGY_PARTS, values[1:n_e])),
        dissipation=dict(zip(DISSIPATION_CHANNELS, values[n_e:])),
        residuals=residuals,
        graph_norm_initial=g0,
    )


def final_state(pencil: ModePencil, initial: np.ndarray, dt: float, t_end: float) -> np.ndarray:
    """State at t_end without trace bookkeeping (used by field rendering)."""
    X = _check_state(pencil, initial)
    for X in _cn_states(pencil, X, dt, _step_count(dt, t_end)):
        pass
    return _complex(X)


# ---------------------------------------------------------------------------
# initial data

PROFILES = ("plate_bump", "membrane_bump", "thermal_pulse", "rough")


def _bump(x: np.ndarray, lo: float, hi: float, power: int = 3) -> np.ndarray:
    """Compactly supported polynomial bump (t(1-t))^power on (lo, hi)."""
    t = (x - lo) / (hi - lo)
    out = np.zeros_like(x, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    out[inside] = (t[inside] * (1.0 - t[inside])) ** power
    return out


def _smooth_field(L_closed: np.ndarray, h: float, x: np.ndarray, passes: int = 2) -> np.ndarray:
    """Implicit smoothing (I - (2h)^2 L)^-1 applied a few times (rough filter)."""
    S = np.eye(len(x)) - (2.0 * h) ** 2 * L_closed
    out = x
    for _ in range(passes):
        out = np.linalg.solve(S, out)
    return out


def make_initial_data(pencil: ModePencil, profile: str, seed: int = 0) -> np.ndarray:
    """Named radial profile, unit-energy normalized.

    Bump profiles are compactly supported inside their subdomain, so every
    eliminated boundary/transmission row already holds and the constraint
    projection is the identity here.  The rough profile is seeded noise on
    all dofs passed through a mild implicit smoothing filter (the heuristic
    stand-in for generator-domain smoothness).
    """
    grid = pencil.grid
    w = np.zeros(pencil.dim)
    if profile == "plate_bump":
        lo = grid.r_interface + 0.2 * (grid.r_outer - grid.r_interface)
        hi = grid.r_outer - 0.2 * (grid.r_outer - grid.r_interface)
        w[pencil.block("u")] = _bump(grid.plate_nodes, lo, hi)
    elif profile == "membrane_bump":
        w[pencil.block("v")] = _bump(grid.membrane_nodes, 0.15 * grid.r_interface,
                                     0.85 * grid.r_interface)
    elif profile == "thermal_pulse":
        lo = grid.r_interface + 0.25 * (grid.r_outer - grid.r_interface)
        hi = grid.r_outer - 0.25 * (grid.r_outer - grid.r_interface)
        w[pencil.block("theta")] = _bump(grid.plate_nodes, lo, hi)
    elif profile == "rough":
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(pencil.dim)
        stencils = closed_laplacians(grid, pencil.closures)
        for name, a, b in pencil.dof_layout:
            h = grid.h_mem if name in MEMBRANE_FIELDS else grid.h_plate
            w[a:b] = _smooth_field(stencils[name], h, raw[a:b])
    else:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")

    w = w.astype(complex)
    e0 = energy(pencil, w).total
    if e0 <= 0.0 or not np.isfinite(e0):
        raise ValueError(f"profile {profile!r} has zero energy after construction")
    return w / np.sqrt(2.0 * e0)
