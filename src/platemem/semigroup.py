"""Time integration of M w' = A w, energy tracking, and reference oracles.

Crank-Nicolson is the only integrator: for a quadratic energy E = w* G w / 2
the trapezoidal step satisfies the exact identity

    (E_{k+1} - E_k)/dt = Re <M^-1 A w_mid, w_mid>_G,   w_mid = (w_k + w_{k+1})/2,

for any A.  In the energy-compatible pencil its right side is minus the sum
of the DISSIPATION_CHANNELS, the energy law whose residual simulate records,
so the energy can only decrease.

A state is the 1-D complex coefficient array w in the pencil's dof_layout
order.  M, A, G and every form are real, so a state is stepped and
evaluated as the two real columns [Re w, Im w].  A step is one solve with a
sparse LU of M - dt/2 A and one CSR product with M + dt/2 A, both with
their rows equilibrated.  The energy, its parts and the dissipation channels
are read through the pencil's two Forms, for any number of states at once.
A SimulationTrace is one table of them per step, a row per TRACE_ROWS name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .pencil import (DISSIPATION_CHANNELS, ENERGY_PARTS, MEMBRANE_FIELDS, ModePencil,
                     closed_laplacians, solve_mass)

MAX_DEFAULT_STEPS = 20000
MAX_STEPS = 10**6               # a trace holds 13 doubles per step: 104 MB at the cap
# Crank-Nicolson does not damp the stiff heat modes, so theta needs this many
# steps at short horizons: 4e-4 relative error at t = 1.5e-3 on n = 64
MIN_DEFAULT_STEPS = 128
BLOCK_STEPS = 64                # states per bookkeeping pass in simulate
TRACE_ROWS = ("energy", *ENERGY_PARTS, *DISSIPATION_CHANNELS)


@dataclass
class FormReport:
    """A sum of named forms at one state: its total and each part by name."""
    total: float
    breakdown: dict[str, float]

    @classmethod
    def of(cls, names: tuple[str, ...], parts: np.ndarray) -> "FormReport":
        return cls(total=sum(parts.tolist()), breakdown=dict(zip(names, parts.tolist())))


@dataclass
class SimulationTrace:
    """Per-step bookkeeping: values[k] is TRACE_ROWS[k] at each of the times."""
    times: np.ndarray
    values: np.ndarray
    residuals: np.ndarray                     # energy-balance residual r_k per step

    @property
    def energy(self) -> np.ndarray:
        return self.values[0]

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in TRACE_ROWS:
            raise KeyError(f"unknown trace row {name!r}; expected one of {TRACE_ROWS}")
        return self.values[TRACE_ROWS.index(name)]


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
# 2j (real part) and 2j+1 (imaginary part); see Forms.values.

def _trace_rows(pencil: ModePencil, X: np.ndarray) -> np.ndarray:
    """The TRACE_ROWS per state; the total energy is the sum of its parts."""
    parts = 0.5 * pencil.energy_forms.values(X)
    return np.vstack((parts.sum(axis=0), parts, pencil.dissipation_forms.values(X)))


def energy(pencil: ModePencil, w: np.ndarray) -> FormReport:
    """Total energy w* G w / 2 as the sum of its ENERGY_PARTS."""
    X = _check_state(pencil, w)
    return FormReport.of(ENERGY_PARTS, 0.5 * pencil.energy_forms.values(X)[:, 0])


def dissipation(pencil: ModePencil, w: np.ndarray) -> FormReport:
    """The physical dissipation as the sum of its DISSIPATION_CHANNELS."""
    X = _check_state(pencil, w)
    return FormReport.of(DISSIPATION_CHANNELS, pencil.dissipation_forms.values(X)[:, 0])


def pencil_dissipation(pencil: ModePencil, w: np.ndarray) -> float:
    """-Re <M^-1 A w, w>_G through the energy factor F, G = F^T F: public as
    the tests' oracle for the channels' sum, and for the benchmark tracer."""
    F, X = pencil.energy_forms.F, _check_state(pencil, w)
    return -float(np.sum((F @ solve_mass(pencil, pencil.A @ X)) * (F @ X)))


def graph_norm(pencil: ModePencil, w: np.ndarray) -> float:
    """||w||_G + ||M^-1 A w||_G (discrete domain-norm of the generator):
    public as a test oracle, and for the benchmark tracer."""
    X = _check_state(pencil, w)
    gn = lambda Y: math.sqrt(float(pencil.energy_forms.values(Y).sum()))
    return gn(X) + gn(solve_mass(pencil, pencil.A @ X))


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
    """t_end / dt, which must be a whole number of steps no larger than MAX_STEPS."""
    if not (math.isfinite(dt) and math.isfinite(t_end)):
        raise ValueError(f"dt={dt!r} and t_end={t_end!r} must be finite")
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    ratio = t_end / dt
    if not ratio <= MAX_STEPS + 0.5:        # also an overflow to inf
        raise ValueError(f"t_end={t_end!r} / dt={dt!r} is {ratio:.3g} steps, "
                         f"above the cap of {MAX_STEPS}")
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

    t_end must be an integer multiple of dt.  The recorded residual is the
    energy law r_k = (E_{k+1} - E_k)/dt + D(w_mid), D the sum of the
    DISSIPATION_CHANNELS; it stays at round-off while A's damping and
    coupling blocks are the forms' weighted duals.

    The states are bookkept BLOCK_STEPS at a time: one pass of the two Forms
    per block gives the TRACE_ROWS and the midpoint dissipations, so only one
    block of states is ever held.  A non-finite state, energy or
    residual raises ValueError naming its step.
    """
    n_steps = _step_count(dt, t_end)
    X = _check_state(pencil, initial)
    values = np.empty((len(TRACE_ROWS), n_steps + 1))
    residuals = np.zeros(n_steps + 1)
    values[:, :1] = _trace_rows(pencil, X)
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
        values[:, done] = _trace_rows(pencil, new)
        mid = 0.5 * (block[:, :2 * j] + new)
        residuals[done] = (np.diff(values[0, first:k + 1]) / dt
                           + pencil.dissipation_forms.values(mid).sum(axis=0))
        _check_finite(first + 1, new, values[:, done], residuals[done])
        block[:, :2] = X
        first = k

    return SimulationTrace(times=dt * np.arange(n_steps + 1), values=values, residuals=residuals)


def final_state(pencil: ModePencil, initial: np.ndarray, dt: float, t_end: float) -> np.ndarray:
    """State at t_end without trace bookkeeping (used by field rendering)."""
    X = _check_state(pencil, initial)
    for X in _cn_states(pencil, X, dt, _step_count(dt, t_end)):
        pass
    return _complex(X)


# ---------------------------------------------------------------------------
# initial data

PROFILES = ("plate_bump", "membrane_bump", "thermal_pulse", "rough")


def _bump(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Compactly supported polynomial bump (t(1-t))^3 on (lo, hi)."""
    t = (x - lo) / (hi - lo)
    out = np.zeros_like(x, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    out[inside] = (t[inside] * (1.0 - t[inside])) ** 3
    return out


def _smooth_field(L_closed: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    """Implicit smoothing (I - (2h)^2 L)^-1 of the closed band L, twice (rough filter)."""
    S = -(2.0 * h) ** 2 * L_closed
    for _ in range(2):
        x, info = dgtsv(S[0, 1:], 1.0 + S[1], S[2, :-1], x)[3:]
        if info != 0:
            raise np.linalg.LinAlgError(f"dgtsv info {info} in the rough-profile smoothing")
    return x


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
