"""Per-mode generator pencil (M, A) and energy Gram matrix G.

State layout per mode: w = (u, u_t, theta, v, v_t) as contiguous blocks of
nodal values.  The first-order system is M w' = A w with

    M = diag(I, rho1*I - gamma*L2, rho0*I, I, rho2*I)

and A the block operator of the plate/heat/membrane equations.  A is
assembled in the weak (energy-compatible) arrangement: the conservative
pairs of blocks are exact quadrature-duals of the Gram forms, built from the
same centered stencils, ghost closures, and midpoint polar quadrature.  That
makes  Re <M^-1 A w, w>_G  equal, to round-off, to minus the four physical
dissipation channels, so the discrete semigroup is a contraction in the
G-norm by construction and Crank-Nicolson steps can never gain energy.

Ghost closures (one layer per field and end):
  u      mirror at the interface (d_r u = 0), clamped cubic at the rim
         (ghost = 2 u[-1] - u[-2]/9, the cubic with value and slope zero);
  u_t    mirror at the interface, odd reflection at the rim (u_t = 0);
  theta  odd reflection at the interface (theta = 0), Robin at the rim;
  v      parity at the origin (even for mode 0, odd otherwise; the stencil
         coefficient there vanishes anyway), shared-trace at the interface.
The interface value is owned by the plate side, U = (9 u[0] - u[1])/8, and
the membrane's interface half-edge gradient term in the Gram couples v's
last node to U; that single term carries both the u = v continuity and the
flux balance of the transmission conditions.

M, A and G are scipy.sparse CSR arrays: every block is built from
three-point stencils and closure rows, so a pencil has a few nonzeros per
row and a narrow band after reverse Cuthill-McKee.  The energy and
dissipation forms stay dense on their supports.  scipy.sparse is imported at
first use, so that importing the package does not load it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.linalg as sla

from .grid import TWO_PI, RadialGrid, laplacian_mode
from .model import PhysicalParams

if TYPE_CHECKING:
    from scipy.sparse import csr_array

FIELDS = ("u", "u_t", "theta", "v", "v_t")

ENERGY_PARTS = ("E_bend", "E_kin_plate", "E_rot", "E_thermal", "E_mem_pot", "E_mem_kin")
DISSIPATION_CHANNELS = ("D_struct", "D_thermal_bulk", "D_thermal_bdry", "D_membrane")


class AssemblyError(RuntimeError):
    """Raised when a pencil fails a structural check (symmetry, definiteness)."""


@dataclass(frozen=True)
class Closures:
    """Ghost-elimination rows: each ghost value as a row over interior dofs.

    Vectors act on the owning field's interior values; the membrane interface
    ghost additionally needs the plate trace row (over u)."""

    u_inner: np.ndarray
    u_outer: np.ndarray
    ut_inner: np.ndarray
    ut_outer: np.ndarray
    theta_inner: np.ndarray
    theta_outer: np.ndarray
    v_origin: np.ndarray
    v_interface_v: np.ndarray
    v_interface_u: np.ndarray
    trace_u: np.ndarray
    robin_ghost_factor: float


def make_closures(p: PhysicalParams, grid: RadialGrid) -> Closures:
    np_, nm = grid.n_plate, grid.n_mem
    hp = grid.h_plate

    def row(n, entries):
        r = np.zeros(n)
        for i, c in entries:
            r[i] = c
        return r

    robin = (1.0 / hp - p.kappa / 2.0) / (1.0 / hp + p.kappa / 2.0)
    trace_u = row(np_, [(0, 9.0 / 8.0), (1, -1.0 / 8.0)])
    return Closures(
        u_inner=row(np_, [(0, 1.0)]),
        u_outer=row(np_, [(np_ - 1, 2.0), (np_ - 2, -1.0 / 9.0)]),
        ut_inner=row(np_, [(0, 1.0)]),
        ut_outer=row(np_, [(np_ - 1, -1.0)]),
        theta_inner=row(np_, [(0, -1.0)]),
        theta_outer=row(np_, [(np_ - 1, robin)]),
        v_origin=row(nm, [(0, 1.0 if grid.mode == 0 else -1.0)]),
        v_interface_v=row(nm, [(nm - 1, -1.0)]),
        v_interface_u=2.0 * trace_u,
        trace_u=trace_u,
        robin_ghost_factor=robin,
    )


def _closed(L_ext: np.ndarray, inner_row: np.ndarray, outer_row: np.ndarray) -> np.ndarray:
    """Fold ghost columns into interior columns: L_ext is (n, n+2)."""
    n = L_ext.shape[0]
    L = L_ext[:, 1:n + 1].copy()
    L += np.outer(L_ext[:, 0], inner_row)
    L += np.outer(L_ext[:, n + 1], outer_row)
    return L


def closed_laplacians(grid: RadialGrid, closures: Closures) -> dict[str, np.ndarray]:
    """Each field's Laplacian with its ghost closures folded in.

    v and v_t share the origin parity and the interface row over v alone,
    which is the Dirichlet closure of a frozen plate (trace pinned to zero).
    """
    c = closures
    Lp = laplacian_mode(grid, "plate")
    Lm = _closed(laplacian_mode(grid, "membrane"), c.v_origin, c.v_interface_v)
    return {
        "u": _closed(Lp, c.u_inner, c.u_outer),
        "u_t": _closed(Lp, c.ut_inner, c.ut_outer),
        "theta": _closed(Lp, c.theta_inner, c.theta_outer),
        "v": Lm,
        "v_t": Lm,
    }


def _dual(L_closed: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Exact Dirichlet form -W L of a conservatively closed Laplacian."""
    K = -(weights[:, None] * L_closed)
    asym = np.abs(K - K.T).max()
    scale = max(np.abs(K).max(), 1.0)
    if asym > 1e-12 * scale:
        raise AssemblyError(f"weighted Laplacian not symmetric (asymmetry {asym:.2e})")
    return 0.5 * (K + K.T)


@dataclass(frozen=True)
class Form:
    """Quadratic form stored on its support: w* F w = w[support]* block w[support]."""

    support: np.ndarray
    block: np.ndarray


@dataclass
class ModePencil:
    """Discrete generator pencil, Gram matrix, and bookkeeping for one mode."""

    mode: int
    M: csr_array
    A: csr_array
    G: csr_array
    dof_layout: tuple[tuple[str, int, int], ...]
    grid: RadialGrid
    params: PhysicalParams
    closures: Closures
    energy_parts: dict[str, Form]
    dissipation_parts: dict[str, Form]
    _cache: dict[Any, Any] = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def block(self, name: str) -> slice:
        for fname, a, b in self.dof_layout:
            if fname == name:
                return slice(a, b)
        raise KeyError(name)


def _layout(grid: RadialGrid, fields: tuple[str, ...] = FIELDS) -> tuple[tuple[str, int, int], ...]:
    """(name, start, stop) of each field's contiguous block, in the given order."""
    sizes = [grid.n_mem if name in ("v", "v_t") else grid.n_plate for name in fields]
    stops = np.cumsum(sizes)
    return tuple((name, int(b - n), int(b)) for name, n, b in zip(fields, sizes, stops))


def _block(rows: np.ndarray, cols: np.ndarray, block: np.ndarray):
    """(row, col, value) triplets of the nonzero entries of a dense block
    placed on rows x cols."""
    i, j = np.nonzero(block)
    return rows[i], cols[j], block[i, j]


def _identity(rows: np.ndarray, cols: np.ndarray, value: float):
    """Triplets of value times the identity placed on rows x cols."""
    return rows, cols, np.full(len(rows), float(value))


def _csr(triplets, dim: int) -> csr_array:
    """dim x dim CSR array from (row, col, value) triplets, zeros dropped and
    repeated positions summed."""
    from scipy import sparse

    r, c, v = (np.concatenate(parts) for parts in zip(*triplets))
    keep = v != 0.0
    return sparse.csr_array((v[keep], (r[keep], c[keep])), shape=(dim, dim))


def gram_matrix(parts: dict[str, Form], dim: int) -> tuple[csr_array, csr_array]:
    """Discrete energy inner product from the energy parts.

    Returns (G, S): S is the parts scattered into one dim x dim matrix, and
    G = (S + S^T)/2 is the symmetric positive definite Gram matrix with
    w* G w equal to twice the physical energy.  The conservative rows of the
    generator read S, before symmetrization.  Both are CSR.  Entries that
    parts share are summed; the pencil's parts share an entry at most
    pairwise, and a sum of two does not depend on its order.
    """
    S = _csr([_block(f.support, f.support, f.block) for f in parts.values()], dim)
    return 0.5 * (S + S.T), S


def _energy_parts(p: PhysicalParams, grid: RadialGrid, closures: Closures,
                  index: dict[str, np.ndarray], Le: np.ndarray, K2: np.ndarray) -> dict[str, Form]:
    """The six quadratic terms of the inner product, each on its own support.

    Bending, plate kinetic, rotational, thermal, membrane potential, membrane
    kinetic; their sum is the Gram matrix G.  Gradient seminorms use the
    staggered edge quadrature dual to the conservative stencils, so each term
    is the exact dual of the matching operator block.  The membrane potential
    reads the plate dofs of the interface trace as well as v.
    """
    nm = grid.n_mem
    Wp, Wm = grid.plate_weights, grid.membrane_weights
    mirror = np.zeros(nm)
    mirror[nm - 1] = 1.0
    # zero-flux interface edge
    Lm0 = _closed(laplacian_mode(grid, "membrane"), closures.v_origin, mirror)
    # Km is the interior-edge Dirichlet form only; the interface half-edge
    # enters exclusively through the jump term below
    Km = _dual(Lm0, Wm)
    # membrane gradient: interior edges plus the interface half-edge, whose
    # boundary value is the plate-side trace U; the jump row is U(u) - v[-1]
    trace = np.flatnonzero(closures.trace_u)
    nt = len(trace)
    mem = np.zeros((nt + nm, nt + nm))
    mem[nt:, nt:] = Km
    ej = np.zeros(nt + nm)
    ej[:nt] = closures.trace_u[trace]
    ej[-1] = -1.0
    mem += (2.0 * TWO_PI * grid.r_interface / grid.h_mem) * np.outer(ej, ej)
    u, ut, th, v, vt = (index[name] for name in FIELDS)
    return {
        "E_bend": Form(u, p.beta1 * Le.T @ (Wp[:, None] * Le)),
        "E_kin_plate": Form(ut, p.rho1 * np.diag(Wp)),
        "E_rot": Form(ut, p.gamma * K2),
        "E_thermal": Form(th, p.rho0 * np.diag(Wp)),
        "E_mem_pot": Form(np.concatenate([u[trace], v]), p.beta2 * mem),
        "E_mem_kin": Form(vt, p.rho2 * np.diag(Wm)),
    }


def assemble_mode_pencil(p: PhysicalParams, grid: RadialGrid) -> ModePencil:
    """Build (M, A, G) for one Fourier mode."""
    np_ = grid.n_plate
    layout = _layout(grid)
    n = layout[-1][2]
    index = {name: np.arange(a, b) for name, a, b in layout}
    u, ut, th, v, vt = (index[name] for name in FIELDS)
    closures = make_closures(p, grid)
    Wp, Wm = grid.plate_weights, grid.membrane_weights
    stencils = closed_laplacians(grid, closures)
    L2, Lth = stencils["u_t"], stencils["theta"]
    K2 = _dual(L2, Wp)
    Kth = _dual(Lth, Wp)

    parts = _energy_parts(p, grid, closures, index, stencils["u"], K2)
    G, S = gram_matrix(parts, n)

    # velocity identities, structural damping and thermo-coupling on the
    # plate, membrane damping
    entries = [
        _identity(u, ut, 1.0),
        _identity(v, vt, 1.0),
        _block(ut, ut, p.rho_damp * L2),
        _block(ut, th, -p.mu * L2),
        _block(th, ut, p.mu * L2),
        _block(th, th, p.beta0 * Lth),
        _identity(vt, vt, -p.m_damp),
    ]
    # conservative rows: minus the weighted dual of the (w1, w4) pair form,
    # bending + membrane potential, which are the only parts on those rows
    Sc = S.tocoo()
    for src, dst, W in ((u, ut, Wp), (v, vt, Wm)):
        k = (Sc.row >= src[0]) & (Sc.row <= src[-1])
        r = Sc.row[k] - src[0]
        entries.append((dst[r], Sc.col[k], -(Sc.data[k] / W[r])))
    A = _csr(entries, n)

    M = _csr([
        _identity(u, u, 1.0),
        _block(ut, ut, p.rho1 * np.eye(np_) - p.gamma * L2),
        _identity(th, th, p.rho0),
        _identity(v, v, 1.0),
        _identity(vt, vt, p.rho2),
    ], n)

    # dissipation channel forms (exact split of -Re <M^-1 A w, w>_G)
    robin_edge = Wp[-1] * (1.0 / grid.h_plate**2 + 1.0 / (2.0 * grid.h_plate * grid.plate_nodes[-1]))
    robin_coef = robin_edge * (1.0 - closures.robin_ghost_factor)
    th_bdry = np.zeros((np_, np_))
    th_bdry[np_ - 1, np_ - 1] = robin_coef
    diss = {
        "D_struct": Form(ut, p.rho_damp * K2),
        "D_thermal_bulk": Form(th, p.beta0 * (Kth - th_bdry)),
        "D_thermal_bdry": Form(th, p.beta0 * th_bdry),
        "D_membrane": Form(vt, p.m_damp * np.diag(Wm)),
    }

    pencil = ModePencil(
        mode=grid.mode,
        M=M,
        A=A,
        G=G,
        dof_layout=layout,
        grid=grid,
        params=p,
        closures=closures,
        energy_parts=parts,
        dissipation_parts=diss,
    )
    _check_definiteness(pencil)
    return pencil


def _banded_cholesky(mat: csr_array, rank: np.ndarray, jitter: float) -> None:
    """Cholesky of mat + jitter I, symmetric, with row and column i moved to
    rank[i]; LinAlgError if it fails.  Stored as a band of the width the
    ordering gives, it costs O(dim band^2)."""
    c = mat.tocoo()
    i, j = rank[c.row], rank[c.col]
    upper = i <= j
    i, j = i[upper], j[upper]
    band = int((j - i).max(initial=0))
    ab = np.zeros((band + 1, mat.shape[0]))     # LAPACK upper band storage: ab[band + i - j, j]
    ab[band + i - j, j] = c.data[upper]
    ab[band] += jitter
    sla.cholesky_banded(ab)


def _check_definiteness(pencil: ModePencil) -> None:
    """G and the weighted M must factor (positive definiteness).

    Both factor as bands in the reverse Cuthill-McKee ordering of G, where
    each is a few entries wide (2 for G at n = 16 to 128).
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    grid = pencil.grid
    w = np.concatenate([grid.membrane_weights if name in ("v", "v_t") else grid.plate_weights
                        for name, _, _ in pencil.dof_layout])
    WM = pencil.M.multiply(w[:, None]).tocsr()
    WM = 0.5 * (WM + WM.T)
    rank = np.empty(pencil.dim, dtype=np.intp)
    rank[reverse_cuthill_mckee(pencil.G, symmetric_mode=True)] = np.arange(pencil.dim)
    jitter = 1e-13 * (pencil.G.trace() / pencil.dim)
    for name, mat in (("G", pencil.G), ("weighted M", WM)):
        try:
            _banded_cholesky(mat, rank, jitter)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(f"{name} is not positive definite for mode {pencil.mode}") from exc


def solve_mass(pencil: ModePencil, X: np.ndarray) -> np.ndarray:
    """M^-1 X for a real vector or dim x k array X.

    The sparse LU of M is made once per pencil and cached on it.
    """
    key = "m_lu"
    if key not in pencil._cache:
        from scipy.sparse.linalg import splu

        pencil._cache[key] = splu(pencil.M.tocsc())
    return pencil._cache[key].solve(X)


def interface_trace(pencil: ModePencil, w: np.ndarray) -> complex:
    """Shared interface value U (plate side owns it)."""
    u = w[pencil.block("u")]
    return complex(pencil.closures.trace_u @ u)


def _ghost_values(pencil: ModePencil, w: np.ndarray) -> dict[str, tuple[complex, complex]]:
    """Eliminated (inner, outer) ghost values for each field of a state."""
    c = pencil.closures
    u = w[pencil.block("u")]
    ut = w[pencil.block("u_t")]
    th = w[pencil.block("theta")]
    v = w[pencil.block("v")]
    return {
        "u": (complex(c.u_inner @ u), complex(c.u_outer @ u)),
        "u_t": (complex(c.ut_inner @ ut), complex(c.ut_outer @ ut)),
        "theta": (complex(c.theta_inner @ th), complex(c.theta_outer @ th)),
        "v": (complex(c.v_origin @ v), complex(c.v_interface_v @ v + c.v_interface_u @ u)),
    }


def closure_residuals(pencil: ModePencil, w: np.ndarray) -> dict[str, float]:
    """Residuals of the eliminated boundary/transmission rows for a state.

    Each entry is |row residual| of the defining condition evaluated on the
    reconstructed extended field; exact elimination makes them round-off
    small relative to the state magnitude.
    """
    g = _ghost_values(pencil, w)
    c = pencil.closures
    hp = pencil.grid.h_plate
    u = w[pencil.block("u")]
    ut = w[pencil.block("u_t")]
    th = w[pencil.block("theta")]
    v = w[pencil.block("v")]
    U = interface_trace(pencil, w)
    kappa = pencil.params.kappa
    gi, go = g["u"]
    res = {
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
    return res


def membrane_subpencil(p: PhysicalParams, grid: RadialGrid) -> ModePencil:
    """Membrane-only sub-pencil with the plate frozen (v = 0 on the interface).

    Freezing u pins the shared trace to zero, so the interface closure
    degenerates to a Dirichlet condition; used by the Bessel-frequency
    validation and the near-resonance resolvent checks.  Only the membrane
    energy parts and dissipation channel are present.
    """
    layout = _layout(grid, ("v", "v_t"))
    n = layout[-1][2]
    v, vt = (np.arange(a, b) for _, a, b in layout)
    Wm = grid.membrane_weights
    closures = make_closures(p, grid)
    LmD = closed_laplacians(grid, closures)["v"]

    A = _csr([_identity(v, vt, 1.0), _block(vt, v, p.beta2 * LmD),
              _identity(vt, vt, -p.m_damp)], n)
    M = _csr([_identity(v, v, 1.0), _identity(vt, vt, p.rho2)], n)
    parts = {
        "E_mem_pot": Form(v, p.beta2 * _dual(LmD, Wm)),
        "E_mem_kin": Form(vt, p.rho2 * np.diag(Wm)),
    }
    diss = {"D_membrane": Form(vt, p.m_damp * np.diag(Wm))}
    return ModePencil(
        mode=grid.mode, M=M, A=A, G=gram_matrix(parts, n)[0], dof_layout=layout, grid=grid,
        params=p, closures=closures, energy_parts=parts, dissipation_parts=diss,
    )
