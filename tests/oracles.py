"""Independent numerical oracles used only by the tests.

These deliberately avoid the code paths they are used to check: Bessel zeros
come from a power series plus bisection, the propagator is scipy's dense
expm of the densified pencil instead of Crank-Nicolson, the exponential
cross-oracle for it is a scaled truncated Taylor series with repeated
squaring, the spectral oracles use the plain eigensolver and a dense solve
instead of the Schur form, and the energy and dissipation forms are dense
blocks made from the closed stencils (closed_laplacians) instead of the
pencil's sparse factors.
fake_pencil builds a pencil straight from given matrices, membrane_subpencil
slices the membrane block out of the coupled pencil, layout_state and
quadrature_weights place per-field arrays by the pencil's dof_layout, so no
test assumes an order of the fields, and closure_residuals
evaluates the eliminated boundary and transmission rows of a state on its
reconstructed ghost values.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla

EXPM_DIM_CAP = 400


def bessel_j0(x: float) -> float:
    """J0 by its power series; adequate in double precision for |x| <= 40."""
    term = 1.0
    total = 1.0
    q = -0.25 * x * x
    for m in range(1, 120):
        term *= q / (m * m)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def bessel_j0_zeros(count: int) -> list[float]:
    """First zeros of J0 by bisection in McMahon brackets (pi(k - 1/4) +- 1)."""
    zeros = []
    for k in range(1, count + 1):
        guess = np.pi * (k - 0.25)
        lo, hi = guess - 1.0, guess + 1.0
        flo = bessel_j0(lo)
        if flo * bessel_j0(hi) > 0:
            raise RuntimeError(f"bracket failed for zero {k}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = bessel_j0(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo < 1e-13:
                break
        zeros.append(0.5 * (lo + hi))
    return zeros


def matrix_exponential_reference(pencil, t: float) -> np.ndarray:
    """Dense propagator exp(t M^-1 A) of a pencil, capped at dim 400."""
    if pencil.dim > EXPM_DIM_CAP:
        raise ValueError(f"pencil dimension {pencil.dim} exceeds the dense cap {EXPM_DIM_CAP}")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return np.eye(pencil.dim)
    return sla.expm(t * np.linalg.solve(pencil.M.toarray(), pencil.A.toarray()))


def expm_series_squaring(X: np.ndarray, terms: int = 60) -> np.ndarray:
    """exp(X) = (series exp(X / 2^k))^(2^k), a cross-oracle for scipy's expm.

    k is the smallest count (at least 2) that brings the scaled 1-norm to 8
    or below.  Each squaring can double the relative round-off, so fewer
    squarings keep a stiff pencil's propagator at ~1e-12 relative (a scaled
    norm of 1/4 costs four more squarings and 1e-11 at dim 40).  At norm 8
    no series term exceeds 8^8/8! ~ 416, so cancellation costs under three
    digits, and 60 terms leave a truncation error below 1e-28."""
    norm = np.linalg.norm(X, 1)
    squarings = max(2, int(np.ceil(np.log2(max(norm, 1e-300) / 8.0))))
    Y = X / (2.0 ** squarings)
    P = np.eye(X.shape[0], dtype=Y.dtype)
    term = np.eye(X.shape[0], dtype=Y.dtype)
    for m in range(1, terms + 1):
        term = term @ Y / m
        P = P + term
    for _ in range(squarings):
        P = P @ P
    return P


def dense_eigenvalues_oracle(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Eigenvalues of M^-1 A by the plain dense solver (vs the Schur route)."""
    return np.linalg.eigvals(np.linalg.solve(M, A))


def resolvent_norm_dense_oracle(A: np.ndarray, M: np.ndarray, G: np.ndarray,
                                lam: float) -> float:
    """||(i lam - M^-1 A)^-1|| in the G norm by a dense solve and an SVD.

    The largest singular value of F (i lam M - A)^-1 M F^-1, with F the
    Cholesky factor of G (G = F^T F)."""
    F = np.linalg.cholesky(G).T
    R = np.linalg.solve(1j * lam * M - A, M.astype(complex))
    Y = sla.solve_triangular(F.T, R.T, lower=True).T    # Y = R F^-1
    return float(sla.svdvals(F @ Y)[0])


def dense_stencil(band: np.ndarray, ghosts: bool = False) -> np.ndarray:
    """A (3, n) stencil band as a dense matrix, row i holding band[k, i] at
    node i - 1 + k.  With ghosts its columns run over one ghost layer on each
    side as well, (n, n+2); without, the band must be closed (no ghost
    entries) and the matrix is n x n."""
    n = band.shape[1]
    i = np.arange(n)
    dense = np.zeros((n, n + 2))
    for k in range(3):
        dense[i, i + k] = band[k]
    if ghosts:
        return dense
    assert not dense[:, [0, -1]].any(), "a closed band has no ghost entries"
    return dense[:, 1:-1]


def closed_laplacians(grid, closures) -> dict[str, np.ndarray]:
    """Each field's Laplacian with its ghost closures folded in, as
    pencil._closed's band."""
    from platemem import laplacian_mode
    from platemem.pencil import MEMBRANE_FIELDS, _closed

    Lp = laplacian_mode(grid.plate_nodes, grid.h_plate, grid.mode)
    Lm = laplacian_mode(grid.membrane_nodes, grid.h_mem, grid.mode)
    return {name: _closed(Lm if name in MEMBRANE_FIELDS else Lp, *pairs)
            for name, pairs in closures.items()}


def _dual(L_closed: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Symmetrized Dirichlet form -W L of a conservatively closed Laplacian."""
    K = -(weights[:, None] * L_closed)
    return 0.5 * (K + K.T)


def dense_forms_reference(pencil) -> dict[str, np.ndarray]:
    """Each energy part and dissipation channel of a pencil as a dense
    dim x dim matrix, from its closed stencils: _dual for the gradient
    seminorms, Le^T W Le for bending, the Robin rim entry, and the
    interface jump (U - v[-1])^2 as an outer product."""
    from platemem import laplacian_mode
    from platemem.pencil import TRACE_U

    p, grid, closures = pencil.params, pencil.grid, pencil_closures(pencil)
    Wp, Wm = grid.plate_weights, grid.membrane_weights
    L = {name: dense_stencil(band) for name, band in closed_laplacians(grid, closures).items()}
    K2, Kth = _dual(L["u_t"], Wp), _dual(L["theta"], Wp)
    h, r = grid.h_plate, grid.plate_nodes
    robin = np.zeros_like(Kth)
    robin[-1, -1] = (Wp[-1] * (1.0 / h**2 + 1.0 / (2.0 * h * r[-1]))
                     * (1.0 - closures["theta"][1][-1]))
    # membrane: interior edges with a zero-flux interface closure, plus the
    # jump across the interface half-edge, on the dofs (u, v)
    Lm_ext = dense_stencil(laplacian_mode(grid.membrane_nodes, grid.h_mem, grid.mode),
                           ghosts=True)
    Lm = Lm_ext[:, 1:-1].copy()
    Lm[0, :2] += Lm_ext[0, 0] * np.asarray(closures["v"][0])
    Lm[-1, -2:] -= Lm_ext[-1, -1] * np.asarray(closures["v"][1])
    n_p = grid.n_plate
    mem = np.zeros((n_p + grid.n_mem,) * 2)
    mem[n_p:, n_p:] = _dual(Lm, Wm)
    jump = np.zeros(n_p + grid.n_mem)
    jump[:2] = TRACE_U
    jump[-1] = -1.0
    mem += 2.0 * 2.0 * np.pi * grid.r_interface / grid.h_mem * np.outer(jump, jump)
    u, ut, th, v, vt = (np.arange(*pencil.block(name).indices(pencil.dim))
                        for name in ("u", "u_t", "theta", "v", "v_t"))
    blocks = {
        "E_bend": (u, p.beta1 * L["u"].T @ (Wp[:, None] * L["u"])),
        "E_kin_plate": (ut, p.rho1 * np.diag(Wp)),
        "E_rot": (ut, p.gamma * K2),
        "E_thermal": (th, p.rho0 * np.diag(Wp)),
        "E_mem_pot": (np.concatenate([u, v]), p.beta2 * mem),
        "E_mem_kin": (vt, p.rho2 * np.diag(Wm)),
        "D_struct": (ut, p.rho_damp * K2),
        "D_thermal_bulk": (th, p.beta0 * (Kth - robin)),
        "D_thermal_bdry": (th, p.beta0 * robin),
        "D_membrane": (vt, p.m_damp * np.diag(Wm)),
    }
    forms = {}
    for name, (dofs, block) in blocks.items():
        forms[name] = np.zeros((pencil.dim, pencil.dim))
        forms[name][np.ix_(dofs, dofs)] = block
    return forms


def dense_similarity_eigenvalues_oracle(A: np.ndarray, M: np.ndarray,
                                        G: np.ndarray) -> np.ndarray:
    """Eigenvalues of F M^-1 A F^-1 with F the dense Cholesky factor of G
    (G = F^T F): the similarity the Schur route takes with a banded factor
    in a permuted order."""
    F = np.linalg.cholesky(G).T
    B = sla.solve_triangular(F, (F @ np.linalg.solve(M, A)).T, trans="T").T   # (F M^-1 A) F^-1
    return np.linalg.eigvals(B)


def fake_pencil(A, M=None, G=None):
    """A ModePencil of the dense A, M and G (identity by default) on one dof
    block, with no forms, for the stepping and spectral routes."""
    from scipy import sparse

    from platemem import AnnulusGeometry, ModePencil, PhysicalParams, build_radial_grid

    eye = np.eye(len(A))
    return ModePencil(mode=0, M=sparse.csr_array(eye if M is None else M), A=sparse.csr_array(A),
                      G=sparse.csr_array(eye if G is None else G), dof_layout=(("v", 0, len(A)),),
                      grid=build_radial_grid(AnnulusGeometry(), 8, 8, 0), params=PhysicalParams(),
                      energy_forms=None, dissipation_forms=None)


def membrane_subpencil(p, grid):
    """Membrane-only sub-pencil with the plate frozen (v = 0 on the interface).

    It is the (v, v_t) slice of the coupled pencil, in its dof_layout order:
    the rows and columns of M, A and G on those dofs, and the forms' columns
    on them.  Freezing u pins the shared trace to zero, so the jump term of
    E_mem_pot becomes the Dirichlet closure; used by the Bessel-frequency
    validation and the near-resonance resolvent checks.
    """
    from dataclasses import replace

    from platemem import ModePencil, assemble_mode_pencil
    from platemem.pencil import MEMBRANE_FIELDS

    pencil = assemble_mode_pencil(p, grid)
    blocks = [(name, a, b) for name, a, b in pencil.dof_layout if name in MEMBRANE_FIELDS]
    s = np.concatenate([np.arange(a, b) for _, a, b in blocks])
    stops = np.cumsum([b - a for _, a, b in blocks])
    sub = lambda X: X[s][:, s]
    return ModePencil(
        mode=grid.mode, M=sub(pencil.M), A=sub(pencil.A), G=sub(pencil.G),
        dof_layout=tuple((name, int(stop - (b - a)), int(stop))
                         for (name, a, b), stop in zip(blocks, stops)),
        grid=grid, params=p,
        energy_forms=replace(pencil.energy_forms, F=pencil.energy_forms.F[:, s]),
        dissipation_forms=replace(pencil.dissipation_forms, F=pencil.dissipation_forms.F[:, s]),
    )


def layout_state(pencil, fields: dict[str, np.ndarray]) -> np.ndarray:
    """The state with fields[name] on each named field's dofs, zero elsewhere."""
    w = np.zeros(pencil.dim)
    for name, values in fields.items():
        w[pencil.block(name)] = values
    return w


def quadrature_weights(pencil) -> np.ndarray:
    """Each dof's midpoint quadrature weight, the plate's or the membrane's
    by its field, in the pencil's dof_layout order."""
    from platemem.pencil import MEMBRANE_FIELDS

    grid = pencil.grid
    return layout_state(pencil, {
        name: grid.membrane_weights if name in MEMBRANE_FIELDS else grid.plate_weights
        for name, _, _ in pencil.dof_layout})


def pencil_closures(pencil):
    """The ghost closures the pencil was assembled with, built again."""
    from platemem.pencil import make_closures

    return make_closures(pencil.params, pencil.grid)


def interface_trace(pencil, w: np.ndarray) -> complex:
    """Shared interface value U (plate side owns it)."""
    from platemem.pencil import TRACE_U

    u = w[pencil.block("u")]
    return complex(np.dot(TRACE_U, u[:2]))


def _ghost_values(pencil, w: np.ndarray) -> dict[str, list[complex]]:
    """Eliminated [inner, outer] ghost values for each field of a state; the
    interface ghost of v adds 2 U to its frozen-plate closure."""
    g = {}
    for name, (inner, outer) in pencil_closures(pencil).items():
        x = w[pencil.block(name)]
        g[name] = [complex(np.dot(inner, x[:2])), complex(np.dot(outer, x[-2:]))]
    g["v"][1] += 2.0 * interface_trace(pencil, w)
    return g


def closure_residuals(pencil, w: np.ndarray) -> dict[str, float]:
    """Residuals of the eliminated boundary/transmission rows for a state.

    Each entry is |row residual| of the defining condition evaluated on the
    reconstructed extended field; exact elimination makes them round-off
    small relative to the state magnitude.
    """
    g = _ghost_values(pencil, w)
    hp, kappa = pencil.grid.h_plate, pencil.params.kappa
    u, ut, th, v = (w[pencil.block(name)] for name in ("u", "u_t", "theta", "v"))
    U = interface_trace(pencil, w)
    gi, go = g["u"]
    return {
        # clamped rim: (ghost, u[-1], u[-2]) lie on a cubic with value and
        # slope zero at the rim iff 9*ghost - 18 u[-1] + u[-2] = 0
        "u_rim_clamped": abs(9.0 * go - 18.0 * u[-1] + u[-2]),
        "u_interface_slope": abs(gi - u[0]),
        "ut_interface_slope": abs(g["u_t"][0] - ut[0]),
        "ut_rim_value": abs(g["u_t"][1] + ut[-1]),
        "theta_interface_value": abs(g["theta"][0] + th[0]),
        "theta_rim_robin": abs((g["theta"][1] - th[-1]) / hp + kappa * (g["theta"][1] + th[-1]) / 2.0),
        "v_origin_parity": abs(g["v"][0] - (v[0] if pencil.mode == 0 else -v[0])),
        "v_interface_continuity": abs((v[-1] + g["v"][1]) / 2.0 - U),
    }
