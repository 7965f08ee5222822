"""Per-mode generator pencil (M, A) and energy Gram matrix G.

State layout per mode: w = (u_t, v, u, v_t, theta) as contiguous blocks of
nodal values.  The first-order system is M w' = A w with

    M = diag(rho1*I - gamma*L2, I, I, rho2*I, rho0*I)

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

Each closed Laplacian is its three diagonals with the ghost coefficients
folded in.  The energy parts and the dissipation channels are two Forms,
sums of squares ||F_k w||^2 over row ranges of one CSR factor each, weights
folded in (a diagonal form c W |w|^2 is the rows sqrt(c W) on its dofs); G is
F^T F of the energy factor, and each block of A and M but the identities
is a form divided row by row by its dof's weight, placed as triplets, so
assembly makes no dense n x n array.  M, A and G are CSR arrays with a few
nonzeros per row.  G couples two fields only in the membrane's interface
row, which ties v[-1] to u[0] and u[1]; with v just before u in FIELDS, G is
banded in the dof order itself, with half-bandwidth 2, and M with 1, so both
are factored in LAPACK band storage.  Each scipy module is imported at first
use, not with the package, so start-up loads numpy alone, and LAPACK is
scipy's f2py wrappers, loaded by `flapack` without scipy.linalg itself.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from .grid import TWO_PI, RadialGrid, laplacian_mode
from .model import AnnulusGeometry, PhysicalParams, validate_params

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# v[-1] next to u[0] keeps G's band at 2.  Of the 24 such orders, those that
# start with v or v_t took 190-207 ms of dgees on a dim-640 similarity (one
# pass) against 158-174 ms (one BLAS thread).  The CN step does not read
# this order: it factors in node_order.
FIELDS = ("u_t", "v", "u", "v_t", "theta")
MEMBRANE_FIELDS = ("v", "v_t")      # on the membrane grid; the others on the plate grid

ENERGY_PARTS = ("E_bend", "E_kin_plate", "E_rot", "E_thermal", "E_mem_pot", "E_mem_kin")
DISSIPATION_CHANNELS = ("D_struct", "D_thermal_bulk", "D_thermal_bdry", "D_membrane")


class AssemblyError(RuntimeError):
    """Raised when a pencil fails a structural check (symmetry, definiteness)."""


# the plate-side interface trace U = TRACE_U @ (u[0], u[1])
TRACE_U = (9.0 / 8.0, -1.0 / 8.0)


def make_closures(p: PhysicalParams, grid: RadialGrid) -> dict[str, tuple[tuple[float, float], ...]]:
    """Ghost-elimination coefficients {field: (inner, outer)}, the ghost's
    coefficients on (w[0], w[1]) and on (w[-2], w[-1]).  The membrane pair is
    the frozen-plate (Dirichlet) closure; in a coupled state the interface
    ghost of v adds 2 U."""
    hp = grid.h_plate
    robin = (1.0 / hp - p.kappa / 2.0) / (1.0 / hp + p.kappa / 2.0)
    return {
        "u": ((1.0, 0.0), (-1.0 / 9.0, 2.0)),
        "u_t": ((1.0, 0.0), (0.0, -1.0)),
        "theta": ((-1.0, 0.0), (0.0, robin)),
        "v": ((1.0 if grid.mode == 0 else -1.0, 0.0), (0.0, -1.0)),
    }


def _closed(S: np.ndarray, inner: tuple[float, float], outer: tuple[float, float]) -> np.ndarray:
    """Fold the ghost entries of the (3, n) stencil band S into its first and
    last rows: row i of the closed Laplacian D holds D[k, i] at node i - 1 + k,
    and D[0, 0] and D[2, -1] are zero."""
    D = S.copy()
    D[1:, 0] += S[0, 0] * np.asarray(inner)
    D[:2, -1] += S[2, -1] * np.asarray(outer)
    D[0, 0] = D[2, -1] = 0.0
    return D


def _gradient(name: str, r: np.ndarray, h: float, mode: int, ghosts: tuple[tuple[float, float], ...]):
    """Edge-gradient factor F of field name's closed Laplacian on the nodes r,
    F^T F = -W L_closed, as (row, col, value) triplets on the field's nodes.

    Its rows are sqrt(2 pi r_e/h) (w[i+1] - w[i]) per interior edge, then
    sqrt(2 pi h m^2/r_i) w[i] per node, then sqrt(2 pi r_b/h (1 - a)) w[0]
    and the same at w[-1] for the ghosts a w[0] and a w[-1] of the two ends,
    whose outer radii are r_b.  The last triplet is the outer end's row.  A
    ghost with a second nonzero coefficient raises AssemblyError naming its end.
    """
    for end, second in (("inner", ghosts[0][1]), ("outer", ghosts[1][0])):
        if second:
            raise AssemblyError(f"the {end} ghost row of {name} reaches past its end node")
    n = len(r)
    i = np.arange(n)
    edge = np.sqrt(TWO_PI * (r[:-1] + 0.5 * h) / h)
    r_b = np.array([r[0] - 0.5 * h, r[-1] + 0.5 * h])
    a = np.array([ghosts[0][0], ghosts[1][1]])
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
        """||F_k w||^2 per form (rows) and state w (columns of X, or one 1-D w)."""
        P = self.F @ np.ascontiguousarray(X)    # a sparse product copies any other layout
        P *= P
        return np.array([P[self._rows(name)].sum(axis=0) for name in self.names])


def _stack_forms(forms: dict[str, list], n: int) -> Forms:
    """Forms of {name: (row, col, value) triplets} over n dofs; a form has
    one row more than its largest row, and none without triplets."""
    counts = np.array([1 + max((np.max(r) for r, _, _ in triplets), default=-1)
                       for triplets in forms.values()])
    starts = np.cumsum(counts) - counts
    F = _csr([(np.asarray(r) + a, c, v) for a, triplets in zip(starts, forms.values())
              for r, c, v in triplets], (int(counts.sum()), n))
    return Forms(tuple(forms), F, starts)


@dataclass
class ModePencil:
    """Discrete generator pencil, Gram matrix, and the forms of the
    ENERGY_PARTS and DISSIPATION_CHANNELS for one mode."""

    M: csr_array
    A: csr_array
    G: csr_array
    dof_layout: tuple[tuple[str, int, int], ...]
    grid: RadialGrid
    params: PhysicalParams
    energy_forms: Forms
    dissipation_forms: Forms
    _cache: dict[Any, Any] = field(default_factory=dict, repr=False)

    @property
    def mode(self) -> int:
        return self.grid.mode

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def block(self, name: str) -> slice:
        for fname, a, b in self.dof_layout:
            if fname == name:
                return slice(a, b)
        names = tuple(fname for fname, _, _ in self.dof_layout)
        raise KeyError(f"unknown field {name!r}; expected one of {names}")


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
    positions summed."""
    from scipy import sparse

    r, c, v = (np.concatenate(parts) for parts in zip(*triplets))
    keep = np.flatnonzero(v)
    ij = np.array([r[keep], c[keep]], dtype=np.int32)
    return sparse.coo_array((v[keep], ij), shape=shape).tocsr()


def assemble_mode_pencil(p: PhysicalParams, grid: RadialGrid) -> ModePencil:
    """Build (M, A, G) for one Fourier mode.

    Gradient seminorms use the staggered edge quadrature dual to the
    conservative stencils.  Every block of A and M but the identities is a
    form (of G, the dissipation factor, or K of u_t's gradient factor)
    divided row by row by its dof's quadrature weight W, so the energy
    identity has one source and W M = diag(rho1 W + gamma K, W, W, rho2 W,
    rho0 W) is positive definite once validate_params passes."""
    validate_params(p, AnnulusGeometry(grid.r_interface, grid.r_outer))   # forms are sums of squares
    np_ = grid.n_plate
    layout = _layout(grid)
    n = layout[-1][2]
    index = {name: np.arange(a, b) for name, a, b in layout}
    u, ut, th, v, vt = (index[name] for name in ("u", "u_t", "theta", "v", "v_t"))
    closures = make_closures(p, grid)
    Wp, Wm = grid.plate_weights, grid.membrane_weights
    w = np.concatenate([Wm if name in MEMBRANE_FIELDS else Wp for name in FIELDS])
    Le = _closed(laplacian_mode(grid.plate_nodes, grid.h_plate, grid.mode), *closures["u"])

    diagonal = lambda dofs, c, W: [(np.arange(len(dofs)), dofs, np.sqrt(c * W))]
    gradient = lambda name, r, h: _gradient(name, r, h, grid.mode, closures[name])

    i_ut, j_ut, f_ut = gradient("u_t", grid.plate_nodes, grid.h_plate)
    i_th, j_th, f_th = gradient("theta", grid.plate_nodes, grid.h_plate)
    i_v, j_v, f_v = gradient("v", grid.membrane_nodes, grid.h_mem)
    # the membrane's interface row, f_v[-1] v[-1] for its Dirichlet ghost,
    # becomes f_v[-1] (v[-1] - U) once the plate-side trace U is added
    s2 = np.sqrt(p.beta2)
    energy = _stack_forms({
        "E_bend": [_band(np.arange(np_), u, np.sqrt(p.beta1 * Wp) * Le)],
        "E_kin_plate": diagonal(ut, p.rho1, Wp),
        "E_rot": [(i_ut, ut[j_ut], np.sqrt(p.gamma) * f_ut)],
        "E_thermal": diagonal(th, p.rho0, Wp),
        "E_mem_pot": [(i_v, v[j_v], s2 * f_v),
                      (np.full(2, i_v[-1]), u[:2], -s2 * f_v[-1] * np.asarray(TRACE_U))],
        "E_mem_kin": diagonal(vt, p.rho2, Wm),
    }, n)
    # exactly symmetric: (i, j) and (j, i) sum the same products in one order
    G = (energy.F.T @ energy.F).tocsr()
    # dissipation channels, an exact split of -Re <M^-1 A w, w>_G: the
    # thermal gradient's Robin row is the boundary channel
    dissipation = _stack_forms({
        "D_struct": [(i_ut, ut[j_ut], np.sqrt(p.rho_damp) * f_ut)],
        "D_thermal_bulk": [(i_th[:-1], th[j_th[:-1]], np.sqrt(p.beta0) * f_th[:-1])],
        "D_thermal_bdry": [([0], th[-1:], np.sqrt(p.beta0) * f_th[-1:])],
        "D_membrane": diagonal(vt, p.m_damp, Wm),
    }, n)
    D = (dissipation.F.T @ dissipation.F).tocoo()
    F_ut = _csr([(i_ut, j_ut, f_ut)], (i_ut[-1] + 1, np_))
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

    pencil = ModePencil(M=M, A=A, G=G, dof_layout=layout, grid=grid, params=p,
                        energy_forms=energy, dissipation_forms=dissipation)
    gram_factor(pencil)                 # the definiteness check; its factor stays cached
    return pencil


def _band_storage(A) -> tuple[np.ndarray, int, int]:
    """(ab, kl, ku): the sparse square A of bandwidths kl and ku in LAPACK band
    storage with kl rows on top for an LU's fill, A[i, j] at ab[kl + ku + i - j, j];
    for an upper triangle (kl = 0), the upper band storage of a Cholesky factor."""
    c = A.tocoo()
    kl, ku = (int(d.max(initial=0)) for d in (c.row - c.col, c.col - c.row))
    ab = np.zeros((2 * kl + ku + 1, A.shape[1]))
    ab[kl + ku + c.row - c.col, c.col] = c.data
    return ab, kl, ku


_LOAD_LOCK = threading.Lock()
_FLAPACK = "scipy.linalg._flapack"


def flapack():
    """scipy's f2py LAPACK wrappers, the scipy.linalg._flapack extension,
    executed on its own: importing it by name would first run scipy.linalg's
    package __init__, 42 more modules and about 5.5 MB.  An entry already in
    sys.modules is reused, and a new one is registered there under that name,
    where scipy.linalg finds it if it is imported later.  The lock makes
    parallel workers execute it once."""
    with _LOAD_LOCK:
        module = sys.modules.get(_FLAPACK)
        if module is None:
            loader = (importlib.machinery.ExtensionFileLoader,
                      importlib.machinery.EXTENSION_SUFFIXES)
            for path in importlib.util.find_spec("scipy").submodule_search_locations:
                spec = importlib.machinery.FileFinder(f"{path}/linalg", loader).find_spec(_FLAPACK)
                if spec is not None:
                    break
            else:
                raise ImportError(f"no {_FLAPACK} extension in scipy")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            module = sys.modules.setdefault(_FLAPACK, module)
        return module


def band_lu(A):
    """solve(X) = A^-1 X for a real vector or n x k array X, by dgbtrf's LU of
    the sparse square A (partial pivoting, band storage) and dgbtrs.  A zero
    or non-finite pivot raises LinAlgError."""
    lapack = flapack()
    ab, kl, ku = _band_storage(A)
    lu, piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=True)
    if info != 0 or not np.isfinite(lu).all():
        raise np.linalg.LinAlgError(f"singular band matrix (dgbtrf info {info})")
    return lambda X: lapack.dgbtrs(lu, kl, ku, X, piv)[0]


def node_order(pencil: ModePencil) -> np.ndarray:
    """The pencil's dofs node by node: the membrane's nodes, each as (v_t, v),
    then the plate's, each as (u, u_t, theta), so that v[-1] sits next to
    u[0] as it does in G.  A generator couples nodes at most two apart, so
    M - dt/2 A is banded in this order with bandwidths (7, 5) at every n.
    Fields not in the layout are skipped."""
    blocks = {name: np.arange(a, b) for name, a, b in pencil.dof_layout}
    groups = [[blocks[f] for f in fields if f in blocks]
              for fields in (("v_t", "v"), ("u", "u_t", "theta"))]
    return np.concatenate([np.column_stack(group).ravel() for group in groups if group])


def gram_factor(pencil: ModePencil) -> np.ndarray:
    """U: G = U^T U, U in LAPACK upper band storage, so ||x||_G = ||U x||_2.
    Made once per pencil and cached on it; assembly makes it as its check that
    G is finite and positive definite, and AssemblyError names the mode when
    it is not.  Stored as a band of G's own width (2 in the FIELDS order), it
    costs O(dim band^2)."""
    key = "gram_factor"
    if key not in pencil._cache:
        from scipy.sparse import triu

        ab = _band_storage(triu(pencil.G))[0]
        if not np.isfinite(ab).all():
            raise AssemblyError(f"G is not finite for mode {pencil.mode}")
        U, info = flapack().dpbtrf(ab, lower=0)
        if info != 0:
            raise AssemblyError(_not_factored(pencil, ab[-1]))
        pencil._cache[key] = U
    return pencil._cache[key]


# float64's significant digits: material constants further apart than this
# many decades scale G's blocks past what one banded Cholesky can hold
FLOAT64_DECADES = 16


def _not_factored(pencil: ModePencil, diagonal: np.ndarray) -> str:
    """Why G's Cholesky factorization failed.  G = F^T F of a validated pencil
    is positive definite; when it fails all the same on a positive diagonal
    and the material constants that scale G span more than FLOAT64_DECADES,
    the text names the diagonal's range and that gap.  Otherwise G is not
    positive definite."""
    scales = {name: getattr(pencil.params, name)
              for name in ("rho0", "rho1", "rho2", "beta1", "beta2", "gamma")}
    constants = sorted((value, name) for name, value in scales.items() if value > 0.0)
    (low, low_name), (high, high_name) = constants[0], constants[-1]
    span = math.log10(high) - math.log10(low)
    if not (diagonal > 0.0).all() or span <= FLOAT64_DECADES:
        return f"G is not positive definite for mode {pencil.mode}"
    return (f"G's Cholesky factorization failed for mode {pencil.mode} with a positive "
            f"diagonal, {diagonal.min():.3g} to {diagonal.max():.3g}: its material constants "
            f"span {span:.0f} decades ({low_name} = {low:g}, {high_name} = {high:g})")
