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

Each closed Laplacian is its three diagonals with the ghost rows folded in,
and blocks are placed from such bands and closure rows as triplets, so
assembly makes no dense n x n array.  M, A and G are CSR arrays with a few
nonzeros per row, banded after reverse Cuthill-McKee.  The energy parts and
the dissipation channels are two Forms, sums of squares ||F_k w||^2 over
row ranges of one CSR factor each, weights folded in (a diagonal form
c W |w|^2 is the rows sqrt(c W) on its dofs); G is F^T F of the energy
factor.  scipy.sparse is imported at first use, not with the package.
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


def _checked_gradient(grid: RadialGrid, name: str, L_closed: np.ndarray, ghosts):
    """_gradient of a plate field, checked against the closed stencil band A reads."""
    rows, cols, vals = _gradient(name, grid.plate_nodes, grid.h_plate, grid.mode, ghosts)
    F = _csr([(rows, cols, vals)], (rows[-1] + 1, grid.n_plate))
    K, FtF = grid.plate_weights * L_closed, F.T @ F
    off = FtF.diagonal(1)
    err = np.abs(K + [np.r_[0.0, off], FtF.diagonal(), np.r_[off, 0.0]]).max()
    if err > 1e-12 * max(np.abs(K).max(), 1.0):
        raise AssemblyError(f"weighted Laplacian of {name} is not its factor's form ({err:.2e})")
    return rows, cols, vals


@dataclass(frozen=True)
class Forms:
    """Named forms ||F_k w||^2 over a pencil's dofs, F_k the rows of the CSR
    factor F from starts[k] to the next start: F^T F is their sum."""

    names: tuple[str, ...]
    F: csr_array
    starts: np.ndarray

    def __getitem__(self, name: str) -> csr_array:
        k = self.names.index(name)
        stop = self.starts[k + 1] if k + 1 < len(self.starts) else self.F.shape[0]
        return self.F[self.starts[k]:stop]

    def values(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """Re <F_k x, F_k y> per form (rows) and state (columns), for states
        given as [Re w, Im w] column pairs of X and Y; y = x by default.
        With Y, each half of the states takes its two products in turn: for
        64 states at dim 320, two live products of all of them were handed
        back to the system and faulted in again on every call, 0.66 ms
        against 0.21 ms in halves."""
        if Y is None:
            return self._sums(X, None)
        h = X.shape[1] // 4 * 2
        halves = (slice(0, h), slice(h, None)) if h else (slice(None),)
        return np.hstack([self._sums(X[:, c], Y[:, c]) for c in halves])

    def _sums(self, X: np.ndarray, Y: np.ndarray | None) -> np.ndarray:
        P = self.F @ np.ascontiguousarray(X)    # a sparse product copies any other layout
        P *= P if Y is None else self.F @ np.ascontiguousarray(Y)    # in place: no third array
        # pairs first: reduceat runs along the strided axis, so halve its work
        return np.add.reduceat(P[:, 0::2] + P[:, 1::2], self.starts, axis=0)


def _stack_forms(forms: dict[str, tuple], n: int) -> Forms:
    """Forms of {name: (row count, triplets over those rows)} over n dofs;
    reduceat would read an empty form as the next one's first row."""
    counts = np.array([rows for rows, _ in forms.values()])
    if counts.min() < 1:
        raise AssemblyError(f"form {list(forms)[counts.argmin()]} has no rows")
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
    conservative stencils, so each energy part is the exact dual of the
    matching operator block."""
    validate_params(p, AnnulusGeometry(grid.r_interface, grid.r_outer))   # forms are sums of squares
    np_, nm = grid.n_plate, grid.n_mem
    layout = _layout(grid)
    n = layout[-1][2]
    index = {name: np.arange(a, b) for name, a, b in layout}
    u, ut, th, v, vt = (index[name] for name in FIELDS)
    closures = make_closures(p, grid)
    Wp, Wm = grid.plate_weights, grid.membrane_weights
    Le, L2, Lth = map(closed_laplacians(grid, closures).get, ("u", "u_t", "theta"))

    factor = lambda n_rows, *triplets: (n_rows, triplets)
    diagonal = lambda dofs, c, W: factor(len(dofs), (np.arange(len(dofs)), dofs, np.sqrt(c * W)))

    i_ut, j_ut, f_ut = _checked_gradient(grid, "u_t", L2, closures.ghosts["u_t"])
    i_th, j_th, f_th = _checked_gradient(grid, "theta", Lth, closures.ghosts["theta"])
    i_v, j_v, f_v = _gradient("v", grid.membrane_nodes, grid.h_mem, grid.mode,
                              closures.ghosts["v"])
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

    # velocity identities, structural damping and thermo-coupling on the
    # plate, membrane damping
    entries = [
        _identity(u, ut, 1.0),
        _identity(v, vt, 1.0),
        _band(ut, ut, p.rho_damp * L2),
        _band(ut, th, -p.mu * L2),
        _band(th, ut, p.mu * L2),
        _band(th, th, p.beta0 * Lth),
        _identity(vt, vt, -p.m_damp),
    ]
    # conservative rows: minus the weighted dual of the (w1, w4) pair form,
    # bending + membrane potential, which are the only parts on those rows
    Gc = G.tocoo()
    for src, dst, W in ((u, ut, Wp), (v, vt, Wm)):
        k = (Gc.row >= src[0]) & (Gc.row <= src[-1])
        r = Gc.row[k] - src[0]
        entries.append((dst[r], Gc.col[k], -(Gc.data[k] / W[r])))
    A = _csr(entries, (n, n))

    M = _csr([
        _identity(u, u, 1.0),
        _identity(ut, ut, p.rho1),
        _band(ut, ut, -p.gamma * L2),
        _identity(th, th, p.rho0),
        _identity(v, v, 1.0),
        _identity(vt, vt, p.rho2),
    ], (n, n))

    pencil = ModePencil(mode=grid.mode, M=M, A=A, G=G, dof_layout=layout, grid=grid, params=p,
                        closures=closures, energy_forms=energy, dissipation_forms=dissipation)
    pencil._cache["gram_factor"] = _check_definiteness(pencil)
    return pencil


def _banded_cholesky(mat: csr_array, rank: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Upper Cholesky factor of mat + jitter I, symmetric, with row and column i
    moved to rank[i], in LAPACK upper band storage; LinAlgError if it fails.
    Stored as a band of the width the ordering gives, it costs O(dim band^2)."""
    c = mat.tocoo()
    i, j = rank[c.row], rank[c.col]
    upper = i <= j
    i, j = i[upper], j[upper]
    band = int((j - i).max(initial=0))
    ab = np.zeros((band + 1, mat.shape[0]))     # LAPACK upper band storage: ab[band + i - j, j]
    ab[band + i - j, j] = c.data[upper]
    ab[band] += jitter
    return sla.cholesky_banded(ab, overwrite_ab=True)


def _factor_gram(G: csr_array) -> tuple[np.ndarray, np.ndarray]:
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    order = reverse_cuthill_mckee(G, symmetric_mode=True)
    return order, _banded_cholesky(G, np.argsort(order))


def _check_definiteness(pencil: ModePencil) -> tuple[np.ndarray, np.ndarray]:
    """G and the weighted M must factor (positive definiteness); returns G's factor.

    Both factor as bands in the reverse Cuthill-McKee ordering of G, where
    each is a few entries wide (2 for G at n = 16 to 400): G as it is, the
    weighted M with a jitter of 1e-13 trace(G)/dim.
    """
    grid = pencil.grid
    w = np.concatenate([grid.membrane_weights if name in MEMBRANE_FIELDS else grid.plate_weights
                        for name, _, _ in pencil.dof_layout])
    WM = pencil.M.multiply(w[:, None]).tocsr()
    WM = 0.5 * (WM + WM.T)
    name = "G"
    try:
        order, U = _factor_gram(pencil.G)
        name = "weighted M"
        _banded_cholesky(WM, np.argsort(order), 1e-13 * (pencil.G.trace() / pencil.dim))
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"{name} is not positive definite for mode {pencil.mode}") from exc
    return order, U


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


def interface_trace(pencil: ModePencil, w: np.ndarray) -> complex:
    """Shared interface value U (plate side owns it)."""
    u = w[pencil.block("u")]
    return complex(pencil.closures.trace_u @ u)


def _ghost_values(pencil: ModePencil, w: np.ndarray) -> dict[str, list[complex]]:
    """Eliminated [inner, outer] ghost values for each field of a state; the
    interface ghost of v adds 2 U to its frozen-plate row."""
    g = {name: [complex(row @ w[pencil.block(name)]) for row in rows]
         for name, rows in pencil.closures.ghosts.items()}
    g["v"][1] += 2.0 * interface_trace(pencil, w)
    return g


def closure_residuals(pencil: ModePencil, w: np.ndarray) -> dict[str, float]:
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
