"""Time integration of M w' = A w, energy tracking, and reference oracles.

Crank-Nicolson is the only integrator: for a quadratic energy E = w^T G w / 2
the trapezoidal step satisfies the exact identity

    (E_{k+1} - E_k)/dt = <M^-1 A w_mid, w_mid>_G,   w_mid = (w_k + w_{k+1})/2,

for any A.  In the energy-compatible pencil its right side is minus the sum
of the DISSIPATION_CHANNELS, the energy law whose residual simulate records,
so the energy can only decrease.

A state is the 1-D real coefficient array w in the pencil's dof_layout
order.  M, A, G and every form are real, so a complex solution is two real
runs, one for each part.  A step is one CSR product with M + dt/2 A and one
solve with a LAPACK band LU of M - dt/2 A taken in node_order, both with
their rows equilibrated.  Up to DENSE_STEP_DIM it is instead one product with
the propagator (M - dt/2 A)^-1 (M + dt/2 A), made once from that LU: there the
per-call overhead of the solve and the product, not their arithmetic, is
the cost of a step.  Above the cap, making the propagator is repaid only
after hundreds of steps, and from dim 400 its product is no faster.
The energy, its parts and the dissipation channels
are read through the pencil's two Forms, for any number of states at once.
A SimulationTrace is one table of them per step, a row per TRACE_ROWS name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pencil import DISSIPATION_CHANNELS, ENERGY_PARTS, ModePencil, band_lu, node_order, solve_mass

MAX_DEFAULT_STEPS = 20000
MAX_STEPS = 10**6               # a trace holds 13 doubles per step: 104 MB at the cap
# Crank-Nicolson does not damp the stiff heat modes, so theta needs this many
# steps at short horizons: 4e-4 relative error at t = 1.5e-3 on n = 64
MIN_DEFAULT_STEPS = 128
BLOCK_STEPS = 64                # states per bookkeeping pass in simulate
# Largest pencil stepped by the dense propagator.  Per step (one BLAS thread,
# band / dense): 8 / 2 us at dim 80, 15 / 6-9 us at dim 240, 17-18 / 11-16 us
# at dim 320 and 21 / 18-24 us at dim 400.  Making it is repaid after 26-41
# steps at dim 80, 210-380 at dim 240 and 600-3000 at dim 320, so the
# benchmark's dim-80 decay runs take it and its dim-320 simulate does not.
DENSE_STEP_DIM = 256
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


def check_state(pencil: ModePencil, w: np.ndarray) -> np.ndarray:
    """The state as a 1-D float array; a complex array is rejected, never truncated."""
    w = np.asarray(w)
    if np.iscomplexobj(w):
        raise ValueError("states are real: a complex solution of this real pencil "
                         "is two real runs, one for each part")
    if w.shape != (pencil.dim,):
        raise ValueError(f"state length {w.shape} does not match pencil dimension {pencil.dim}")
    if not np.isfinite(w).all():
        raise ValueError("state has non-finite coefficients")
    return w.astype(float, copy=False)


def _cn_factorization(pencil: ModePencil, dt: float):
    """(solve, P D (M + dt/2 A)), solve(P D (M + dt/2 A) w) the next state, cached
    per pencil and dt; (None, the dense propagator) up to DENSE_STEP_DIM.

    solve is the band LU of D (M - dt/2 A) in node_order, whose permutation
    P also orders the rows of the product; it returns states in dof order.
    D scales every row of M - dt/2 A to a largest entry of one, so that
    partial pivoting compares entries on one scale: a u_t row carries dt/2
    times the bending stiffness (~h^-4), a u row carries ones.  Without D the
    worst energy-identity residual |r| dt/E0 (six cells, modes 0 and 4, 50
    steps of dt 0.01 from the all-profile state, one BLAS thread) read
    5.5e-11 / 2.3e-10 / 8.2e-10 at n = 64 / 128 / 256, against 1.2e-13 /
    1.6e-12 / 1.3e-11 with it; criterion 1 at n = 256 guards D.
    A dt for which 0.5 dt max|A| overflows is rejected before either matrix
    is formed.  The dense propagator is the band LU's solve of the dense
    P D (M + dt/2 A), not a dense LU, whose threaded getrf need not round
    alike at every BLAS thread count.
    """
    key = ("cn", float(dt))
    if key not in pencil._cache:
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        if not math.isfinite(0.5 * float(dt) * float(np.abs(pencil.A.data).max(initial=0.0))):
            raise ValueError(
                f"dt={dt} overflows the trapezoidal matrix: 0.5 dt max|A| is not finite")
        order = node_order(pencil)
        Mm = (pencil.M - 0.5 * dt * pencil.A).tocsr()[order][:, order]
        D = 1.0 / abs(Mm).max(axis=1).toarray()[:, None]
        try:
            lu = band_lu(Mm.multiply(D))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular trapezoidal matrix for dt={dt}") from exc
        back = np.argsort(order)
        solve = lambda b: lu(b)[back]
        Mp = (pencil.M + 0.5 * dt * pencil.A).tocsr()[order].multiply(D).tocsr()
        if pencil.dim <= DENSE_STEP_DIM:
            solve, Mp = None, solve(Mp.toarray())
            if not np.isfinite(Mp).all():
                raise RuntimeError(f"singular trapezoidal matrix for dt={dt}")
        pencil._cache[key] = (solve, Mp)
    return pencil._cache[key]


def _cn_states(pencil: ModePencil, w: np.ndarray, dt: float, steps: int):
    """Crank-Nicolson states w_1, ..., w_steps from w_0.

    The LU and the dense propagator were checked for finiteness when they
    were made.
    """
    solve, Mp = _cn_factorization(pencil, dt)
    for _ in range(steps):
        w = Mp @ w if solve is None else solve(Mp @ w)
        yield w


def step_crank_nicolson(pencil: ModePencil, w: np.ndarray, dt: float) -> np.ndarray:
    """One trapezoidal step: (M - dt/2 A) w+ = (M + dt/2 A) w."""
    return next(_cn_states(pencil, check_state(pencil, w), dt, 1))


# ---------------------------------------------------------------------------
# column evaluators: k states are a dim x k float array, state j in column j;
# see Forms.values.

def _trace_rows(pencil: ModePencil, X: np.ndarray) -> np.ndarray:
    """The TRACE_ROWS per state; the total energy is the sum of its parts."""
    parts = 0.5 * pencil.energy_forms.values(X)
    return np.vstack((parts.sum(axis=0), parts, pencil.dissipation_forms.values(X)))


def energy(pencil: ModePencil, w: np.ndarray) -> FormReport:
    """Total energy w^T G w / 2 as the sum of its ENERGY_PARTS."""
    return FormReport.of(ENERGY_PARTS, 0.5 * pencil.energy_forms.values(check_state(pencil, w)))


def dissipation(pencil: ModePencil, w: np.ndarray) -> FormReport:
    """The physical dissipation as the sum of its DISSIPATION_CHANNELS."""
    return FormReport.of(DISSIPATION_CHANNELS,
                         pencil.dissipation_forms.values(check_state(pencil, w)))


def pencil_dissipation(pencil: ModePencil, w: np.ndarray) -> float:
    """-<M^-1 A w, w>_G through the energy factor F, G = F^T F: public as
    the tests' oracle for the channels' sum, and for the benchmark tracer."""
    F, w = pencil.energy_forms.F, check_state(pencil, w)
    return -float(np.sum((F @ solve_mass(pencil, pencil.A @ w)) * (F @ w)))


def graph_norm(pencil: ModePencil, w: np.ndarray) -> float:
    """||w||_G + ||M^-1 A w||_G (discrete domain-norm of the generator):
    public as a test oracle, and for the benchmark tracer."""
    w = check_state(pencil, w)
    gn = lambda y: math.sqrt(float(pencil.energy_forms.values(y).sum()))
    return gn(w) + gn(solve_mass(pencil, pencil.A @ w))


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


def _check_finite(first_step: int, values: np.ndarray, residuals: np.ndarray) -> None:
    """Raise naming the first step whose trace values or residual are not finite.  A
    non-finite state shows here: G = F^T F is positive definite, so every dof has energy."""
    ok = np.isfinite(values).all(axis=0) & np.isfinite(residuals)
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
    X = check_state(pencil, initial)[:, None]     # one column per state
    values = np.empty((len(TRACE_ROWS), n_steps + 1))
    residuals = np.zeros(n_steps + 1)
    values[:, :1] = _trace_rows(pencil, X)
    _check_finite(0, values[:, :1], residuals[:1])

    states = _cn_states(pencil, X, dt, n_steps)
    for first in range(0, n_steps, BLOCK_STEPS):
        done = slice(first + 1, min(first + BLOCK_STEPS, n_steps) + 1)
        new = np.hstack([next(states) for _ in range(done.start, done.stop)])
        values[:, done] = _trace_rows(pencil, new)
        mid = np.hstack((X, new[:, :-1]))
        mid += new                  # in place: one block-sized temporary fewer at peak RSS
        mid *= 0.5
        residuals[done] = (np.diff(values[0, first:done.stop]) / dt
                           + pencil.dissipation_forms.values(mid).sum(axis=0))
        _check_finite(first + 1, values[:, done], residuals[done])
        X = new[:, -1:]

    return SimulationTrace(times=dt * np.arange(n_steps + 1), values=values, residuals=residuals)


def final_state(pencil: ModePencil, initial: np.ndarray, dt: float, t_end: float) -> np.ndarray:
    """State at t_end without trace bookkeeping (used by field rendering)."""
    w = check_state(pencil, initial)
    for w in _cn_states(pencil, w, dt, _step_count(dt, t_end)):
        pass
    return w


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


def make_initial_data(pencil: ModePencil, profile: str, seed: int = 0) -> np.ndarray:
    """Named radial profile, unit-energy normalized.

    Bump profiles are compactly supported inside their subdomain, so every
    eliminated boundary/transmission row already holds and the constraint
    projection is the identity here.  The rough profile is seeded
    standard-normal noise on every dof.  It is not generator-domain data:
    its graph-norm ratio ||M^-1 A w||_G / ||w||_G grows as h^-2.
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
        w = np.random.default_rng(seed).standard_normal(pencil.dim)
    else:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")

    e0 = energy(pencil, w).total
    if e0 <= 0.0 or not np.isfinite(e0):
        raise ValueError(f"profile {profile!r} has zero energy after construction")
    return w / np.sqrt(2.0 * e0)
