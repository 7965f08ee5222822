"""Spectra of the generator pencil and energy-norm resolvent scans.

Everything here is desk-scale dense linear algebra on the real Schur
factorization of a pencil's one dense array.  With the banded Gram
factor G = U^T U, M^-1 A is similar to B = U M^-1 A U^-1 = Z T Z^T, and the
G-norm of x is ||U x||_2.
`_schur` makes the real form and caches nothing.  `eigenvalues` keeps T, and
the first resolvent sample takes it out of the cache as the complex
triangular form T_c, so a pencil is factored once in either order.  Only the
G-orthogonal projection off the undamped modes makes Z, by a factorization of
its own, which no CLI command runs beside `eigenvalues` on one pencil; Z on
every form would cost dgees 1.2-1.3x and one more dim x dim array.
||(i*lam - M^-1 A)^-1|| in the G inner product is the 2-norm of
(i*lam - T_c)^-1, found by inverse Lanczos: O(dim^2) per sample after one
O(dim^3) factorization.
A sample stops at a Ritz residual of sqrt(eps) relative, where s(lam) is
already exact to round-off (see LANCZOS_TOL).

LAPACK is scipy's f2py wrappers, from `pencil.flapack`.  The real Schur
form calls the Fortran dgees behind its wrapper through ctypes, which
releases the GIL for the call (the wrapper holds it).  So the maps over
modes in `spectral_abscissa_sweep` and `platemem spectrum`, whose time is
these factorizations, run them on all cores.
"""
from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid, build_radial_grid
from .model import AnnulusGeometry, PhysicalParams, validate_params
from .pencil import ModePencil, TripletMatrix, assemble_mode_pencil, band_lu, flapack, gram_factor
from .semigroup import check_state
from .util import parallel_map

EIG_DIM_CAP = 2000
AXIS_TOL_REL = 1e-8
COLLISION_TOL = 1e-12
COLLISION_NUDGE = 1e-9
MAX_SAMPLES = 100_000     # samples per resolvent scan; 10**9 would allocate 7.45 GiB
# A resolvent sample stops once its Ritz residual ||r|| is at most LANCZOS_TOL
# times the Ritz value theta.  Its error is at most ||r||^2 / gap
# (Parlett, The Symmetric Eigenvalue Problem, 1998), so a residual of sqrt(eps)
# theta leaves eps theta^2 / gap: s(lam) to round-off unless the top two
# eigenvalues of K^H K nearly coincide.
LANCZOS_TOL = math.sqrt(np.finfo(float).eps)

# The cell-centered polar grid supports origin-localized membrane modes (the
# n^2/r^2 barrier at the first cell) whose interface coupling is below machine
# epsilon, so for the undamped membrane they sit on the axis at eigensolver
# round-off (|Re| <~ 1e-12) at every resolution, while the least-damped
# resolved modes stay above ~1e-4.  Eigenvalues with |Re| below this floor
# (relative to max |lambda|) are classified as numerically undamped; the
# approach-to-zero diagnostics read the abscissa of the rest, damped or growing.
NOISE_FLOOR_REL = 1e-10


@dataclass
class ResolventScan:
    lambdas: np.ndarray
    norms: np.ndarray
    growth_exponent: float


def membrane_band_edge(p: PhysicalParams, grid: RadialGrid) -> float:
    """2 sqrt(beta2/rho2)/h_mem, the top of the membrane grid's frequency band."""
    return 2.0 * np.sqrt(p.beta2 / p.rho2) / grid.h_mem


def _similarity(pencil: ModePencil) -> np.ndarray:
    """B = U M^-1 A U^-1, Fortran-ordered: mass solves fill its column blocks,
    then banded solves from the right finish its row blocks, 32 at a time."""
    dtbtrs = flapack().dtbtrs
    U, solve_M, A, n = gram_factor(pencil), band_lu(pencil.M), pencil.A, pencil.dim
    B = np.zeros((n, n), order="F")
    step = 32
    for c in range(0, n, step):
        k = (A.col >= c) & (A.col < c + step)
        Y = B[:, c:c + step]                    # U X: each row's terms from zero in column order
        X = solve_M(TripletMatrix(A.row[k], A.col[k] - c, A.val[k], Y.shape).toarray())
        for o in range(len(U)):                 # U[i, i + o] is U[-1 - o, i + o]
            Y[:n - o] += U[-1 - o, o:, None] * X[o:]
    for r in range(0, n, step):
        rows, info = dtbtrs(U, B[r:r + step].T, trans="T")       # U^T X^T = B^T
        if info != 0:
            raise np.linalg.LinAlgError(f"dtbtrs info {info}")
        if not np.isfinite(rows).all():
            raise ValueError(f"M^-1 A is not finite for mode {pencil.mode}, dim {n}")
        B[r:r + step] = rows.T
    return B


@functools.cache
def _dgees():
    """The Fortran dgees behind scipy's f2py wrapper, its _cpointer, as a
    ctypes function (GIL released)."""
    capsule = flapack().dgees._cpointer
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 15)(pointer(capsule, name(capsule)))


def _gees(a: np.ndarray, vectors: bool):
    """(wr, wi, Z): real Schur form a = Z T Z^T, with T written over a.

    The workspace query, then the factorization, both in place; Z is None
    unless asked for.  Takes only a square Fortran-ordered float64 array, so
    it never works on a copy.
    """
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1] \
            or not a.flags.f_contiguous:
        raise ValueError("gees needs a square Fortran-ordered float64 array")
    dim = len(a)
    wr, wi = np.empty(dim), np.empty(dim)
    Z = np.empty((dim, dim) if vectors else (1, 1), order="F")
    n, ldz, sdim, info = ctypes.c_int(dim), ctypes.c_int(len(Z)), ctypes.c_int(), ctypes.c_int()
    ref = ctypes.byref

    def gees(work: np.ndarray, lwork: int) -> None:
        _dgees()(b"V" if vectors else b"N", b"N", None, ref(n), a.ctypes.data, ref(n),
                 ref(sdim), wr.ctypes.data, wi.ctypes.data, Z.ctypes.data, ref(ldz),
                 work.ctypes.data, ref(ctypes.c_int(lwork)), None, ref(info))
        if info.value != 0:
            raise np.linalg.LinAlgError(f"gees info {info.value}")

    query = np.empty(1)
    gees(query, -1)
    gees(np.empty(int(query[0])), int(query[0]))
    return wr, wi, (Z if vectors else None)


def _schur(pencil: ModePencil, vectors: bool = False):
    """(T, eigenvalues, Z): real Schur form B = Z T Z^T of the similarity B.

    A new factorization on every call; the eigenvalues are in Schur order, and
    Z is None unless asked for.
    """
    if pencil.dim > EIG_DIM_CAP:
        raise ValueError(f"pencil dimension {pencil.dim} exceeds eigensolver cap {EIG_DIM_CAP}")
    try:
        T = _similarity(pencil)
        wr, wi, Z = _gees(T, vectors)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Schur factorization failed for mode {pencil.mode}, "
                           f"dim {pencil.dim}") from exc
    return T, wr + 1j * wi, Z


def _undamped(lam: np.ndarray) -> np.ndarray:
    """Which eigenvalues are numerically undamped: |Re| within the noise floor."""
    return np.abs(lam.real) <= NOISE_FLOOR_REL * np.abs(lam).max()


def eigenvalues(pencil: ModePencil) -> np.ndarray:
    """All pencil eigenvalues A x = lambda M x, sorted by imaginary part; caches T too."""
    if "spectrum" not in pencil._cache:
        pencil._cache["schur"], lam, _ = _schur(pencil)
        pencil._cache["spectrum"] = lam[np.argsort(lam.imag, kind="stable")]
    return pencil._cache["spectrum"]


def zero_in_resolvent(lam: np.ndarray) -> bool:
    """Whether 0 is off the spectrum: min |lambda| above AXIS_TOL_REL times max |lambda|."""
    return bool(np.abs(lam).min() > AXIS_TOL_REL * np.abs(lam).max())


def resolved_abscissa(lam: np.ndarray) -> float:
    """The largest Re lambda off the noise floor; of all of lam when every one is on it."""
    undamped = _undamped(lam)
    return float(lam.real.max() if undamped.all() else lam.real[~undamped].max())


def spectral_abscissa_sweep(p: PhysicalParams, g: AnnulusGeometry, resolution: int,
                            modes: range) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(spectra, spectra_fine): the per-mode eigenvalue arrays at the
    requested resolution, then at doubled resolution.

    The doubled-resolution pass also doubles the mode count, which is what
    the approach-to-zero diagnostic for the undamped membrane compares
    against.
    """
    validate_params(p, g)
    modes = list(modes)
    if not modes:
        raise ValueError("the sweep needs at least one mode, got none")
    if min(modes) < 0:
        raise ValueError(f"the sweep needs non-negative modes, got mode {min(modes)}")
    modes_fine = list(range(min(modes), 2 * max(modes) + 1))
    spectrum = lambda n, m: eigenvalues(assemble_mode_pencil(p, build_radial_grid(g, n, n, m)))
    return (parallel_map(lambda m: spectrum(resolution, m), modes),
            parallel_map(lambda m: spectrum(2 * resolution, m), modes_fine))


def project_resolvable(pencil: ModePencil, w: np.ndarray) -> np.ndarray:
    """Remove eigencomponents that are numerically undamped.

    The polynomial-decay experiments need generator-domain-smooth data; the
    discrete stand-in removes the origin-artifact modes (|Re lambda| below
    the noise floor), whose lack of damping would otherwise floor every long
    energy trace at the overlap level.  G-orthogonal projection off their
    invariant subspace: the Schur form is reordered to put them first, and
    Q = U^-1 Z[:, :k] is a G-orthonormal basis of it.  Q and G are real,
    so a real state stays real.  A no-op when every mode is damped.
    """
    lapack = flapack()
    w = check_state(pencil, w)
    key = "undamped_basis"
    if key not in pencil._cache:
        T, lam, Z = _schur(pencil, vectors=True)
        bad = _undamped(lam)
        if not bad.any():
            # not only a shortcut: scipy's f2py dtbtrs on an empty right side,
            # Zs[:, :0], returns info 0 and then corrupts the heap (SIGSEGV or
            # a glibc abort later in the process), so no empty selection may
            # reach dtrsen or dtbtrs
            pencil._cache[key] = None
        else:
            _, Zs, _, _, k, _, _, info = lapack.dtrsen(bad, T, Z, job="N", overwrite_q=True)
            if info != 0:
                raise RuntimeError(f"Schur reordering failed (info {info}) for mode "
                                   f"{pencil.mode}, dim {pencil.dim}")
            Q, info = lapack.dtbtrs(gram_factor(pencil), Zs[:, :k])
            if info != 0:
                raise RuntimeError(f"banded solve failed (info {info}) in the projection "
                                   f"for mode {pencil.mode}, dim {pencil.dim}")
            pencil._cache[key] = Q
    Q = pencil._cache[key]
    if Q is None:
        return w
    return w - Q @ (Q.T @ (pencil.G @ w))


def _complex_schur(pencil: ModePencil) -> tuple[np.ndarray, np.ndarray]:
    """(R, d): the complex upper-triangular Schur form B = W T_c W^H and its diagonal.

    Rotated, on the first resolvent sample, out of the real form T that
    `eigenvalues` caches (called first if T is not there), and T leaves the
    cache as T_c enters it.  R starts as T_c, Fortran-ordered for the LAPACK
    solves; every sample overwrites its whole diagonal with a shift of the
    copy d, so the strict upper triangle is always that of T_c.
    """
    key = "schur_complex"
    if key not in pencil._cache:
        if "schur" not in pencil._cache:
            eigenvalues(pencil)
        T = pencil._cache["schur"]
        R = np.asfortranarray(T, dtype=complex)
        # rsf2csf's rotations of the 2x2 blocks [[a, b], [c, a]] (pair a +- i w), without Z
        for m in np.flatnonzero(np.diag(T, -1)) + 1:
            w, t = np.sqrt(abs(T[m - 1, m])) * np.sqrt(abs(T[m, m - 1])), T[m, m - 1]
            c, s = 1j * w / math.hypot(w, t), t / math.hypot(w, t)
            G = np.array([[c.conjugate(), s], [-s, c]])
            R[m - 1:m + 1, m - 1:] = G @ R[m - 1:m + 1, m - 1:]
            R[:m + 1, m - 1:m + 1] = R[:m + 1, m - 1:m + 1] @ G.conj().T
            R[m, m - 1] = 0.0
        pencil._cache[key] = (R, np.diag(R).copy())
        del pencil._cache["schur"]
    return pencil._cache[key]


def resolvent_norm(pencil: ModePencil, lam: float) -> float:
    """s(lam) = ||(i lam - M^-1 A)^-1|| in the energy norm.

    The G-norm is the 2-norm after the similarity by U, and W is unitary, so
    s(lam) = ||K||_2 with K = (i lam - T_c)^-1.  s(lam)^2 is the top eigenvalue
    of K^H K, by Lanczos from the vector of ones with each new vector made
    orthogonal to the whole basis in one classical Gram-Schmidt pass, to a
    Ritz residual of LANCZOS_TOL relative or a Krylov space of dimension n.
    A product is two triangular solves with T_c - i lam, T_c with its
    diagonal shifted in place.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    R, d = _complex_schur(pencil)
    shifted = d - 1j * lam
    if not shifted.all():
        raise RuntimeError(f"i*{lam} is (numerically) an eigenvalue of the pencil")
    n = len(R)
    R[np.diag_indices(n)] = shifted
    lapack = flapack()
    dstev, ztrtrs = lapack.dstev, lapack.ztrtrs

    V = np.full((1, n), n ** -0.5, dtype=complex)
    alpha, beta = [], []
    while True:
        w = ztrtrs(R, ztrtrs(R, V[-1])[0], trans=2)[0]        # K^H K v
        h = V.conj() @ w
        w -= V.T @ h
        alpha.append(h[-1].real)
        beta.append(float(np.linalg.norm(w)))
        # the tridiagonal's Ritz pairs; dstev takes one off-diagonal even at size 1
        theta, y, info = dstev(np.array(alpha), np.array(beta[:-1] or [0.0]), compute_v=1)
        if info != 0:
            raise RuntimeError(f"Lanczos eigensolve failed (dstev info {info}) for mode "
                               f"{pencil.mode}, lambda {lam}")
        if beta[-1] * abs(y[-1, -1]) <= LANCZOS_TOL * theta[-1] or len(V) == n:
            return math.sqrt(theta[-1])
        V = np.vstack((V, w / beta[-1]))


def resolvent_scan(pencil: ModePencil, lambda_min: float, lambda_max: float,
                   n_samples: int) -> ResolventScan:
    """Scan s(lam) on [lambda_min, lambda_max] and fit its log-log growth.

    Sample points colliding with an eigenvalue's imaginary part are nudged by
    1e-9 (relative).  The growth exponent is the least-squares slope of
    log s vs log lam over the upper half of the range.
    """
    for name, value in (("lambda_min", lambda_min), ("lambda_max", lambda_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (lambda_max > lambda_min):
        raise ValueError("lambda_max must exceed lambda_min")
    if not 4 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"need 4 to {MAX_SAMPLES} samples, got {n_samples}")
    eigs = eigenvalues(pencil)
    scale = max(abs(lambda_min), abs(lambda_max))
    lams = np.linspace(lambda_min, lambda_max, n_samples)
    out = np.empty(n_samples)
    for i, lam in enumerate(lams):
        dist = np.abs(1j * lam - eigs).min()
        if dist < COLLISION_TOL * max(scale, 1.0):
            lam = lam + COLLISION_NUDGE * max(scale, 1.0)
            lams[i] = lam
        out[i] = resolvent_norm(pencil, float(lam))
    upper = lams >= 0.5 * (lambda_min + lambda_max)
    pos = upper & (lams > 0.0) & (out > 0.0)
    if pos.sum() >= 2:
        slope = float(np.polyfit(np.log(lams[pos]), np.log(out[pos]), 1)[0])
    else:
        slope = float("nan")
    return ResolventScan(lambdas=lams, norms=out, growth_exponent=slope)
