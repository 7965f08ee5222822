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

Each closed Laplacian is its three diagonals with the ghost rows folded in.
The energy parts and the dissipation channels are two Forms, sums of
squares ||F_k w||^2 over row ranges of one CSR factor each, weights folded
in (a diagonal form c W |w|^2 is the rows sqrt(c W) on its dofs); G is
F^T F of the energy factor, and each block of A and M but the identities
is a form divided row by row by its dof's weight, placed as triplets, so
assembly makes no dense n x n array.  M, A and G are CSR arrays with a few
nonzeros per row, banded after reverse Cuthill-McKee.  scipy.sparse is
imported at first use, not with the package.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.linalg as sla

from .grid import TWO_PI, RadialGrid, laplacian_mode
from .model import AnnulusGeometry, PhysicalParams, validate_params

if TYPE_CHECKING:
    from scipy.sparse import csr_array

FIELDS = ("u", "u_t", "theta", "v", "v_t")
MEMBRANE_FIELDS = ("v", "v_t")      # on the membrane grid; the others on the plate grid

ENERGY_PARTS = ("E_bend", "E_kin_plate", "E_rot", "E_thermal", "E_mem_pot", "E_mem_kin")
DISSIPATION_CHANNELS = ("D_struct", "D_thermal_bulk", "D_thermal_bdry", "D_membrane")


class AssemblyError(RuntimeError):
    """Raised when a pencil fails a structural check (symmetry, definiteness)."""


@dataclass(frozen=True)
class Closures:
    """Ghost-elimination rows: ghosts[field] = (inner, outer) rows over the
    field's interior values, and the plate-side interface trace
    U = trace_u @ u.  The membrane rows are the frozen-plate (Dirichlet)
    closure; in a coupled state the interface ghost of v adds 2 U."""

    ghosts: dict[str, tuple[np.ndarray, np.ndarray]]
    trace_u: np.ndarray


def make_closures(p: PhysicalParams, grid: RadialGrid) -> Closures:
    np_, nm = grid.n_plate, grid.n_mem
    hp = grid.h_plate

    def row(n, entries):
        r = np.zeros(n)
        for i, c in entries:
            r[i] = c
        return r

    robin = (1.0 / hp - p.kappa / 2.0) / (1.0 / hp + p.kappa / 2.0)
    membrane = (row(nm, [(0, 1.0 if grid.mode == 0 else -1.0)]), row(nm, [(nm - 1, -1.0)]))
    return Closures(
        ghosts={
            "u": (row(np_, [(0, 1.0)]), row(np_, [(np_ - 1, 2.0), (np_ - 2, -1.0 / 9.0)])),
            "u_t": (row(np_, [(0, 1.0)]), row(np_, [(np_ - 1, -1.0)])),
            "theta": (row(np_, [(0, -1.0)]), row(np_, [(np_ - 1, robin)])),
            "v": membrane,
            "v_t": membrane,
        },
        trace_u=row(np_, [(0, 9.0 / 8.0), (1, -1.0 / 8.0)]),
    )


def _closed(S: np.ndarray, name: str, inner_row: np.ndarray, outer_row: np.ndarray) -> np.ndarray:
    """Fold the ghost entries of the (3, n) stencil band S into its first and
    last rows: row i of the closed Laplacian D holds D[k, i] at node i - 1 + k,
    and D[0, 0] and D[2, -1] are zero.  The inner ghost row may reach nodes 0
    and 1, the outer one nodes n-2 and n-1; a band cannot hold a row that
    reaches further, so AssemblyError names its field."""
    if inner_row[2:].any() or outer_row[:-2].any():
        raise AssemblyError(f"a ghost row of {name} reaches past the two nodes at its end")
    D = S.copy()
    D[1:, 0] += S[0, 0] * inner_row[:2]
    D[:2, -1] += S[2, -1] * outer_row[-2:]
    D[0, 0] = D[2, -1] = 0.0
    return D


def closed_laplacians(grid: RadialGrid, closures: Closures) -> dict[str, np.ndarray]:
    """Each field's Laplacian with its ghost closures folded in, as _closed's band."""
    Lp, Lm = laplacian_mode(grid, "plate"), laplacian_mode(grid, "membrane")
    return {name: _closed(Lm if name in MEMBRANE_FIELDS else Lp, name, *rows)
            for name, rows in closures.ghosts.items()}


def _gradient(name: str, r: np.ndarray, h: float, mode: int, ghosts: tuple[np.ndarray, ...]):
    """Edge-gradient factor F of field name's closed Laplacian on the nodes r,
    F^T F = -W L_closed, as (row, col, value) triplets on the field's nodes.

    Its rows are sqrt(2 pi r_e/h) (w[i+1] - w[i]) per interior edge, then
    sqrt(2 pi h m^2/r_i) w[i] per node, then sqrt(2 pi r_b/h (1 - a)) w[0]
    and the same at w[-1] for the ghosts a w[0] and a w[-1] of the two ends,
    whose outer radii are r_b.  The last triplet is the outer end's row.  A
    ghost row that reaches a second node raises AssemblyError naming its end.
    """
    for end, rest in (("inner", ghosts[0][1:]), ("outer", ghosts[1][:-1])):
        if rest.any():
            raise AssemblyError(f"the {end} ghost row of {name} reaches past its end node")
    n = len(r)
    i = np.arange(n)
    edge = np.sqrt(TWO_PI * (r[:-1] + 0.5 * h) / h)
    r_b = np.array([r[0] - 0.5 * h, r[-1] + 0.5 * h])
    a = np.array([ghosts[0][0], ghosts[1][-1]])
    rows = np.concatenate([i[:-1], i[:-1], n - 1 + i, [2 * n - 1, 2 * n]])
    cols = np.concatenate([i[:-1], i[1:], i, [0, n - 1]])
    vals = np.concatenate([-edge, edge, np.sqrt(TWO_PI * h * float(mode**2) / r),
                           np.sqrt(TWO_PI * r_b / h * (1.0 - a))])
    return rows, cols, vals


@dataclass(frozen=True)
class Forms:
    """Named forms ||F_k w||^2 over a pencil's dofs, F_k the rows of the CSR
    factor F from starts[k] to the next start: F^T F is their sum."""

    names: tuple[str, ...]
    F: csr_array
    starts: np.ndarray

    def _rows(self, name: str) -> slice:
        if name not in self.names:
            raise KeyError(f"unknown form {name!r}; expected one of {self.names}")
        k = self.names.index(name)
        return slice(self.starts[k], self.starts[k + 1] if k + 1 < len(self.starts) else None)

    def __getitem__(self, name: str) -> csr_array:
        return self.F[self._rows(name)]

    def values(self, X: np.ndarray) -> np.ndarray:
        """||F_k w||^2 per form (rows) and state (columns), for states given
        as [Re w, Im w] column pairs of X."""
        P = self.F @ np.ascontiguousarray(X)    # a sparse product copies any other layout
        P *= P
        P = P[:, 0::2] + P[:, 1::2]
        return np.array([P[self._rows(name)].sum(axis=0) for name in self.names])


def _stack_forms(forms: dict[str, tuple], n: int) -> Forms:
    """Forms of {name: (row count, triplets over those rows)} over n dofs."""
    counts = np.array([rows for rows, _ in forms.values()])
    starts = np.cumsum(counts) - counts
    F = _csr([(np.asarray(r) + a, c, v) for a, (_, triplets) in zip(starts, forms.values())
              for r, c, v in triplets], (int(counts.sum()), n))
    return Forms(tuple(forms), F, starts)


@dataclass
class ModePencil:
    """Discrete generator pencil, Gram matrix, and the forms of the
    ENERGY_PARTS and DISSIPATION_CHANNELS for one mode."""

    mode: int
    M: csr_array
    A: csr_array
    G: csr_array
    dof_layout: tuple[tuple[str, int, int], ...]
    grid: RadialGrid
    params: PhysicalParams
    closures: Closures
    energy_forms: Forms
    dissipation_forms: Forms
    _cache: dict[Any, Any] = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def block(self, name: str) -> slice:
        for fname, a, b in self.dof_layout:
            if fname == name:
                return slice(a, b)
        raise KeyError(name)


def _layout(grid: RadialGrid) -> tuple[tuple[str, int, int], ...]:
    """(name, start, stop) of each field's contiguous block, in FIELDS order."""
    sizes = [grid.n_mem if name in MEMBRANE_FIELDS else grid.n_plate for name in FIELDS]
    stops = np.cumsum(sizes)
    return tuple((name, int(b - n), int(b)) for name, n, b in zip(FIELDS, sizes, stops))


def _band(rows: np.ndarray, cols: np.ndarray, D: np.ndarray):
    """Triplets of a closed stencil band D (see _closed) placed on rows x cols."""
    j = np.arange(-1, len(rows) - 1) + np.arange(3)[:, None]
    ok = (j >= 0) & (j < len(rows))
    return np.broadcast_to(rows, D.shape)[ok], cols[j[ok]], D[ok]


def _identity(rows: np.ndarray, cols: np.ndarray, value: float):
    """Triplets of value times the identity placed on rows x cols."""
    return rows, cols, np.full(len(rows), float(value))


def _csr(triplets, shape: tuple[int, int]) -> csr_array:
    """CSR array from (row, col, value) triplets, zeros dropped and repeated
    positions summed; sorted here, so that scipy takes them as CSR directly."""
    from scipy import sparse

    r, c, v = (np.concatenate(parts) for parts in zip(*triplets))
    keep = np.flatnonzero(v)
    order = keep[np.lexsort((c[keep], r[keep]))]
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(r[order], minlength=shape[0]), out=indptr[1:])
    out = sparse.csr_array((v[order], c[order].astype(np.int32), indptr), shape=shape)
    out.sum_duplicates()
    return out


def assemble_mode_pencil(p: PhysicalParams, grid: RadialGrid) -> ModePencil:
    """Build (M, A, G) for one Fourier mode.

    Gradient seminorms use the staggered edge quadrature dual to the
    conservative stencils.  Every block of A and M but the identities is a
    form (of G, the dissipation factor, or K of u_t's gradient factor)
    divided row by row by its dof's quadrature weight W, so the energy
    identity has one source and W M = diag(W, rho1 W + gamma K, rho0 W, W,
    rho2 W) is positive definite once validate_params passes."""
    validate_params(p, AnnulusGeometry(grid.r_interface, grid.r_outer))   # forms are sums of squares
    np_, nm = grid.n_plate, grid.n_mem
    layout = _layout(grid)
    n = layout[-1][2]
    index = {name: np.arange(a, b) for name, a, b in layout}
    u, ut, th, v, vt = (index[name] for name in FIELDS)
    closures = make_closures(p, grid)
    Wp, Wm = grid.plate_weights, grid.membrane_weights
    w = np.concatenate([Wm if name in MEMBRANE_FIELDS else Wp for name in FIELDS])
    Le = _closed(laplacian_mode(grid, "plate"), "u", *closures.ghosts["u"])

    factor = lambda n_rows, *triplets: (n_rows, triplets)
    diagonal = lambda dofs, c, W: factor(len(dofs), (np.arange(len(dofs)), dofs, np.sqrt(c * W)))
    gradient = lambda name, r, h: _gradient(name, r, h, grid.mode, closures.ghosts[name])

    i_ut, j_ut, f_ut = gradient("u_t", grid.plate_nodes, grid.h_plate)
    i_th, j_th, f_th = gradient("theta", grid.plate_nodes, grid.h_plate)
    i_v, j_v, f_v = gradient("v", grid.membrane_nodes, grid.h_mem)
    # the membrane's interface row, f_v[-1] v[-1] for its Dirichlet ghost,
    # becomes f_v[-1] (v[-1] - U) once the plate-side trace U is added
    trace = np.flatnonzero(closures.trace_u)
    s2 = np.sqrt(p.beta2)
    energy = _stack_forms({
        "E_bend": factor(np_, _band(np.arange(np_), u, np.sqrt(p.beta1 * Wp) * Le)),
        "E_kin_plate": diagonal(ut, p.rho1, Wp),
        "E_rot": factor(2 * np_ + 1, (i_ut, ut[j_ut], np.sqrt(p.gamma) * f_ut)),
        "E_thermal": diagonal(th, p.rho0, Wp),
        "E_mem_pot": factor(2 * nm + 1, (i_v, v[j_v], s2 * f_v),
                            (np.full(len(trace), i_v[-1]), u[trace],
                             -s2 * f_v[-1] * closures.trace_u[trace])),
        "E_mem_kin": diagonal(vt, p.rho2, Wm),
    }, n)
    # exactly symmetric: (i, j) and (j, i) sum the same products in one order
    G = (energy.F.T @ energy.F).tocsr()
    # dissipation channels, an exact split of -Re <M^-1 A w, w>_G: the
    # thermal gradient's Robin row is the boundary channel
    dissipation = _stack_forms({
        "D_struct": factor(2 * np_ + 1, (i_ut, ut[j_ut], np.sqrt(p.rho_damp) * f_ut)),
        "D_thermal_bulk": factor(2 * np_,
                                 (i_th[:-1], th[j_th[:-1]], np.sqrt(p.beta0) * f_th[:-1])),
        "D_thermal_bdry": factor(1, ([0], th[-1:], np.sqrt(p.beta0) * f_th[-1:])),
        "D_membrane": diagonal(vt, p.m_damp, Wm),
    }, n)
    D = (dissipation.F.T @ dissipation.F).tocoo()
    F_ut = _csr([(i_ut, j_ut, f_ut)], (2 * np_ + 1, np_))
    K = (F_ut.T @ F_ut).tocoo()                     # -Wp L of u_t's closed band
    KW = K.data / Wp[K.row]

    # velocity identities, damping -(F_D^T F_D)/W and thermo-coupling +-mu K/W
    entries = [
        _identity(u, ut, 1.0),
        _identity(v, vt, 1.0),
        (D.row, D.col, -(D.data / w[D.row])),
        (ut[K.row], th[K.col], p.mu * KW),
        (th[K.row], ut[K.col], -p.mu * KW),
    ]
    # conservative rows: minus the weighted dual of the (w1, w4) pair form,
    # bending + membrane potential, which are the only parts on those rows
    Gc = G.tocoo()
    for src, dst in ((u, ut), (v, vt)):
        k = (Gc.row >= src[0]) & (Gc.row <= src[-1])
        entries.append((Gc.row[k] - src[0] + dst[0], Gc.col[k], -(Gc.data[k] / w[Gc.row[k]])))
    A = _csr(entries, (n, n))

    M = _csr([
        _identity(u, u, 1.0),
        _identity(ut, ut, p.rho1),
        (ut[K.row], ut[K.col], p.gamma * KW),
        _identity(th, th, p.rho0),
        _identity(v, v, 1.0),
        _identity(vt, vt, p.rho2),
    ], (n, n))

    pencil = ModePencil(mode=grid.mode, M=M, A=A, G=G, dof_layout=layout, grid=grid, params=p,
                        closures=closures, energy_forms=energy, dissipation_forms=dissipation)
    pencil._cache["gram_factor"] = _check_definiteness(pencil)
    return pencil


def _banded_cholesky(mat: csr_array, rank: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of the symmetric mat with row and column i moved
    to rank[i], in LAPACK upper band storage; LinAlgError if it fails.
    Stored as a band of the width the ordering gives, it costs O(dim band^2)."""
    c = mat.tocoo()
    i, j = rank[c.row], rank[c.col]
    upper = i <= j
    i, j = i[upper], j[upper]
    band = int((j - i).max(initial=0))
    ab = np.zeros((band + 1, mat.shape[0]))     # LAPACK upper band storage: ab[band + i - j, j]
    ab[band + i - j, j] = c.data[upper]
    return sla.cholesky_banded(ab, overwrite_ab=True)


def _factor_gram(G: csr_array) -> tuple[np.ndarray, np.ndarray]:
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    order = reverse_cuthill_mckee(G, symmetric_mode=True)
    return order, _banded_cholesky(G, np.argsort(order))


def _check_definiteness(pencil: ModePencil) -> tuple[np.ndarray, np.ndarray]:
    """G must factor (positive definiteness); returns its factor, a band a few
    entries wide in its reverse Cuthill-McKee ordering (2 at n = 16 to 400)."""
    try:
        return _factor_gram(pencil.G)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"G is not positive definite for mode {pencil.mode}") from exc


def gram_factor(pencil: ModePencil) -> tuple[np.ndarray, np.ndarray]:
    """(order, U): G[order][:, order] = U^T U for the reverse Cuthill-McKee
    order of G, U in LAPACK upper band storage, so ||x||_G = ||U x[order]||_2.
    Assembly keeps the check's factor; other pencils factor G on first use."""
    if "gram_factor" not in pencil._cache:
        pencil._cache["gram_factor"] = _factor_gram(pencil.G)
    return pencil._cache["gram_factor"]


def solve_mass(pencil: ModePencil, X: np.ndarray) -> np.ndarray:
    """M^-1 X for a real vector or dim x k array X.

    The sparse LU of M is made once per pencil and cached on it.
    """
    key = "m_lu"
    if key not in pencil._cache:
        from scipy.sparse.linalg import splu

        pencil._cache[key] = splu(pencil.M.tocsc())
    return pencil._cache[key].solve(X)


def membrane_subpencil(p: PhysicalParams, grid: RadialGrid) -> ModePencil:
    """Membrane-only sub-pencil with the plate frozen (v = 0 on the interface).

    It is the (v, v_t) slice of the coupled pencil: the rows and columns of
    M, A and G on those dofs, and the forms' columns on them.  Freezing u
    pins the shared trace to zero, so the jump term of E_mem_pot becomes the
    Dirichlet closure; used by the Bessel-frequency validation and the
    near-resonance resolvent checks.
    """
    pencil = assemble_mode_pencil(p, grid)
    start = pencil.block("v").start          # v and v_t are the last two blocks
    s = slice(start, pencil.dim)
    return ModePencil(
        mode=grid.mode, M=pencil.M[s, s], A=pencil.A[s, s], G=pencil.G[s, s],
        dof_layout=tuple((name, a - start, b - start)
                         for name, a, b in pencil.dof_layout if a >= start),
        grid=grid, params=p, closures=pencil.closures,
        energy_forms=replace(pencil.energy_forms, F=pencil.energy_forms.F[:, s]),
        dissipation_forms=replace(pencil.dissipation_forms, F=pencil.dissipation_forms.F[:, s]),
    )
