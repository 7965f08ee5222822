"""Spectra of the generator pencil and energy-norm resolvent scans.

Everything here is desk-scale dense linear algebra on one Schur
factorization per pencil, of its one dense array.  With the banded Gram
factor P G P^T = U^T U (P a permutation), M^-1 A is similar to
B = U P M^-1 A P^T U^-1 = Z T Z^T, and the G-norm of x is ||U P x||_2.  The
spectrum, the spectral abscissa across modes and the G-orthogonal projection
off the undamped modes are read from the real form (T, Z); only the
projection makes Z.  ||(i*lam - M^-1 A)^-1|| in the G inner product is the
2-norm of (i*lam - T_c)^-1 for the complex triangular form T_c of T, found
by inverse Lanczos: O(dim^2) per sample after one O(dim^3) factorization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgees, dtbtrs, dtrsen, ztrtrs

from .grid import build_radial_grid
from .model import AnnulusGeometry, PhysicalParams, validate_params
from .pencil import ModePencil, assemble_mode_pencil, gram_factor, solve_mass
from .util import parallel_map

EIG_DIM_CAP = 2000
AXIS_TOL_REL = 1e-8
COLLISION_TOL = 1e-12
COLLISION_NUDGE = 1e-9
MAX_SAMPLES = 100_000     # samples per resolvent scan; 10**9 would allocate 7.45 GiB
# ARPACK basis size for a resolvent sample: fewest Lanczos products (10.3-10.7
# mean, at most 16) over ncv 3..20 on m = 0, rho = 1 scans at dims 80-640;
# the default basis of 20 always takes 21
LANCZOS_NCV = 6

# The cell-centered polar grid supports origin-localized membrane modes (the
# n^2/r^2 barrier at the first cell) whose interface coupling is below machine
# epsilon, so for the undamped membrane they sit on the axis at eigensolver
# round-off (|Re| <~ 1e-12) at every resolution, while the least-damped
# resolved modes stay above ~1e-4.  Eigenvalues with |Re| below this floor
# (relative to max |lambda|) are classified as numerically undamped; the
# approach-to-zero diagnostics read the abscissa of the resolvably damped set.
NOISE_FLOOR_REL = 1e-10


@dataclass
class SpectrumResult:
    mode: int
    eigenvalues: np.ndarray
    spectral_abscissa: float
    imag_axis_gap: float
    zero_in_resolvent: bool
    resolved_abscissa: float     # abscissa of the resolvably damped set
    tol: float


@dataclass
class ResolventScan:
    lambdas: np.ndarray
    norms: np.ndarray
    sup_norm: float
    growth_exponent: float


@dataclass
class SweepResult:
    spectra: list[SpectrumResult]           # at the requested resolution
    spectra_fine: list[SpectrumResult]      # at doubled resolution
    global_abscissa: float
    global_abscissa_fine: float
    global_resolved_abscissa: float
    global_resolved_abscissa_fine: float


def membrane_band_edge(pencil: ModePencil) -> float:
    p = pencil.params
    return 2.0 * np.sqrt(p.beta2 / p.rho2) / pencil.grid.h_mem


def _similarity(pencil: ModePencil) -> np.ndarray:
    """B = U P M^-1 A P^T U^-1, Fortran-ordered: mass solves fill its column
    blocks, then banded solves from the right finish its row blocks, 32 at a time."""
    from scipy.sparse import csr_array

    order, U = gram_factor(pencil)
    n, k, j = pencil.dim, *np.nonzero(U)
    UP = csr_array((U[k, j], (j + k - len(U) + 1, order[j])), shape=(n, n))
    AP = pencil.A.tocsc()[:, order]
    B = np.empty((n, n), order="F")
    step = 32
    for c in range(0, n, step):
        B[:, c:c + step] = UP @ solve_mass(pencil, AP[:, c:c + step].toarray())
    for r in range(0, n, step):
        rows, info = dtbtrs(U, B[r:r + step].T, trans="T")       # U^T X^T = B^T
        if info != 0:
            raise np.linalg.LinAlgError(f"dtbtrs info {info}")
        if not np.isfinite(rows).all():
            raise ValueError(f"M^-1 A is not finite for mode {pencil.mode}, dim {n}")
        B[r:r + step] = rows.T
    return B


def _schur(pencil: ModePencil, vectors: bool = False):
    """(T, Z, eigenvalues): real Schur form B = Z T Z^T of the similarity B.

    T and the eigenvalues (in Schur order) are cached, T until _complex_schur
    replaces it.  Z is None unless asked for, then made by a new factorization.
    """
    if "schur" in pencil._cache and not vectors:
        return pencil._cache["schur"]
    if pencil.dim > EIG_DIM_CAP:
        raise ValueError(f"pencil dimension {pencil.dim} exceeds eigensolver cap {EIG_DIM_CAP}")
    try:
        B = _similarity(pencil)
        # gees overwrites B with T, and so must its workspace query, or it copies B
        work = dgees(lambda *_: 0, B, compute_v=vectors, lwork=-1, overwrite_a=True)[5]
        T, _, wr, wi, Z, _, info = dgees(lambda *_: 0, B, compute_v=vectors,
                                         lwork=int(work[0]), overwrite_a=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"gees info {info}")
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Schur factorization failed for mode {pencil.mode}, "
                           f"dim {pencil.dim}") from exc
    lam = wr + 1j * wi
    pencil._cache.setdefault("schur", (T, None, lam))
    return T, (Z if vectors else None), lam


def eigenvalues(pencil: ModePencil) -> SpectrumResult:
    """All pencil eigenvalues A x = lambda M x, sorted by imaginary part."""
    if "spectrum" in pencil._cache:
        return pencil._cache["spectrum"]
    lam = _schur(pencil)[2]
    lam = lam[np.argsort(lam.imag, kind="stable")]
    mx = float(np.abs(lam).max())
    tol = AXIS_TOL_REL * mx
    damped = lam.real <= -NOISE_FLOOR_REL * mx
    resolved = float(lam.real[damped].max()) if damped.any() else float(lam.real.max())
    result = SpectrumResult(
        mode=pencil.mode,
        eigenvalues=lam,
        spectral_abscissa=float(lam.real.max()),
        imag_axis_gap=float(np.abs(lam.real).min()),
        zero_in_resolvent=bool(np.abs(lam).min() > tol),
        resolved_abscissa=resolved,
        tol=tol,
    )
    pencil._cache["spectrum"] = result
    return result


def spectral_abscissa_sweep(p: PhysicalParams, g: AnnulusGeometry, resolution: int,
                            modes: range) -> SweepResult:
    """Per-mode abscissa at the requested and at doubled resolution.

    The doubled-resolution pass also doubles the mode count, which is what
    the approach-to-zero diagnostic for the undamped membrane compares
    against.
    """
    validate_params(p, g)
    modes = list(modes)
    modes_fine = list(range(min(modes), 2 * max(modes) + 1)) if modes else []
    spectrum = lambda n, m: eigenvalues(assemble_mode_pencil(p, build_radial_grid(g, n, n, m)))
    spectra = parallel_map(lambda m: spectrum(resolution, m), modes)
    spectra_fine = parallel_map(lambda m: spectrum(2 * resolution, m), modes_fine)
    return SweepResult(
        spectra=spectra,
        spectra_fine=spectra_fine,
        global_abscissa=max(s.spectral_abscissa for s in spectra),
        global_abscissa_fine=max(s.spectral_abscissa for s in spectra_fine),
        global_resolved_abscissa=max(s.resolved_abscissa for s in spectra),
        global_resolved_abscissa_fine=max(s.resolved_abscissa for s in spectra_fine),
    )


def project_resolvable(pencil: ModePencil, w: np.ndarray) -> np.ndarray:
    """Remove eigencomponents that are numerically undamped.

    The polynomial-decay experiments need generator-domain-smooth data; the
    discrete stand-in removes the origin-artifact modes (|Re lambda| below
    the noise floor), whose lack of damping would otherwise floor every long
    energy trace at the overlap level.  G-orthogonal projection off their
    invariant subspace: the Schur form is reordered to put them first, and
    Q = P^T U^-1 Z[:, :k] is a G-orthonormal basis of it.  A no-op when every
    mode is damped.
    """
    key = "undamped_basis"
    if key not in pencil._cache:
        T, Z, lam = _schur(pencil, vectors=True)
        bad = np.abs(lam.real) <= NOISE_FLOOR_REL * np.abs(lam).max()
        if not bad.any():
            pencil._cache[key] = None
        else:
            _, Zs, _, _, k, _, _, info = dtrsen(bad, T, Z, job="N", overwrite_q=True)
            if info != 0:
                raise RuntimeError(f"Schur reordering failed (info {info}) for mode "
                                   f"{pencil.mode}, dim {pencil.dim}")
            order, U = gram_factor(pencil)
            pencil._cache[key] = dtbtrs(U, Zs[:, :k])[0][np.argsort(order)]
    Q = pencil._cache[key]
    if Q is None:
        return w
    return w - Q @ (Q.T @ (pencil.G @ w))


def _complex_schur(pencil: ModePencil) -> tuple[np.ndarray, np.ndarray]:
    """(R, d): the complex upper-triangular Schur form B = W T_c W^H and its diagonal.

    Rotated out of the cached real form T, which it replaces, on the first
    resolvent sample.  R starts as T_c, Fortran-ordered for the LAPACK
    solves; every sample overwrites its whole diagonal with a shift of the
    copy d, so the strict upper triangle is always that of T_c.
    """
    key = "schur_complex"
    if key not in pencil._cache:
        T, _, lam = _schur(pencil)
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
        pencil._cache["schur"] = (None, None, lam)      # T_c replaces T
    return pencil._cache[key]


def resolvent_norm(pencil: ModePencil, lam: float) -> float:
    """s(lam) = ||(i lam - M^-1 A)^-1|| in the energy norm.

    The G-norm is the 2-norm after the similarity by U P, and W is unitary, so
    s(lam) = ||K||_2 with K = (i lam - T_c)^-1.  s(lam)^2 is the top
    eigenvalue of K^H K, found by Lanczos (ARPACK on a LANCZOS_NCV-vector
    basis, converged to machine precision from a fixed start vector); each
    product is two triangular solves with T_c - i lam, which is T_c with its
    diagonal shifted in place.  Pencils of dimension below 3, too small for
    ARPACK, take the smallest singular value of T_c - i lam instead.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    R, d = _complex_schur(pencil)
    shifted = d - 1j * lam
    if not shifted.all():
        raise RuntimeError(f"i*{lam} is (numerically) an eigenvalue of the pencil")
    n = len(R)
    R[np.diag_indices(n)] = shifted
    if n < 3:
        return float(1.0 / sla.svdvals(R)[-1])
    # imported here, so that runs which never sample a resolvent do not load
    # scipy.sparse.linalg at start-up
    from scipy.sparse.linalg import LinearOperator, eigsh

    def gram(x: np.ndarray) -> np.ndarray:      # K^H K x
        return ztrtrs(R, ztrtrs(R, x)[0], trans=2)[0]

    op = LinearOperator((n, n), matvec=gram, dtype=complex)
    top = eigsh(op, k=1, which="LA", ncv=min(n, LANCZOS_NCV), tol=0,
                v0=np.ones(n, dtype=complex), return_eigenvectors=False)[0]
    return float(np.sqrt(top))


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
    eigs = eigenvalues(pencil).eigenvalues
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
    return ResolventScan(
        lambdas=lams,
        norms=out,
        sup_norm=float(out.max()),
        growth_exponent=slope,
    )
