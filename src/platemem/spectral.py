"""Spectra of the generator pencil and energy-norm resolvent scans.

Everything here is desk-scale dense linear algebra on one Schur
factorization per pencil; the sparse G and M^-1 A are densified only to make
it.  With F the Cholesky factor of G (G = F^T F), the generator M^-1 A is
similar to B = F M^-1 A F^-1 = Z T Z^T, and the G-norm of a state is the
2-norm of F times it.  The spectrum, the spectral abscissa across modes and
the G-orthogonal projection off the undamped modes are read from the real
form (T, Z).  ||(i*lam - M^-1 A)^-1|| in the G inner product is the 2-norm
of (i*lam - T_c)^-1 for the complex triangular form T_c of T, found by
inverse Lanczos: O(dim^2) per sample after one O(dim^3) factorization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dtrsen, ztrtrs

from .grid import build_radial_grid
from .model import AnnulusGeometry, PhysicalParams, validate_params
from .pencil import ModePencil, assemble_mode_pencil, solve_mass
from .util import parallel_map

EIG_DIM_CAP = 2000
AXIS_TOL_REL = 1e-8
COLLISION_TOL = 1e-12
COLLISION_NUDGE = 1e-9

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


def _gram_factor(pencil: ModePencil) -> np.ndarray:
    key = "chol_G"
    if key not in pencil._cache:
        L = np.linalg.cholesky(pencil.G.toarray())
        pencil._cache[key] = L.T      # F with G = F^T F, ||x||_G = ||F x||_2
    return pencil._cache[key]


def _schur(pencil: ModePencil) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, Z, eigenvalues): real Schur form B = Z T Z^T of B = F M^-1 A F^-1.

    Computed once per pencil and cached.  The eigenvalues are in Schur order,
    read off the diagonal of T and its standardized 2x2 blocks
    [[a, b], [c, a]] (b c < 0), whose pair is a +- i sqrt|b| sqrt|c|.
    """
    key = "schur"
    if key not in pencil._cache:
        if pencil.dim > EIG_DIM_CAP:
            raise ValueError(f"pencil dimension {pencil.dim} exceeds eigensolver cap {EIG_DIM_CAP}")
        F = _gram_factor(pencil)
        # B^T = F^-T (M^-1 A)^T F^T; its transpose is Fortran-ordered, so
        # LAPACK overwrites B with T instead of copying it
        Bt = sla.solve_triangular(F, solve_mass(pencil, pencil.A.toarray()).T, trans="T",
                                  overwrite_b=True) @ F.T
        try:
            T, Z = sla.schur(Bt.T, output="real", overwrite_a=True)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"Schur factorization failed for mode {pencil.mode}, "
                               f"dim {pencil.dim}") from exc
        lam = np.diag(T).astype(complex)
        k = np.flatnonzero(np.diag(T, -1))                   # first row of each 2x2 block
        im = np.sqrt(np.abs(T[k + 1, k])) * np.sqrt(np.abs(T[k, k + 1]))
        lam[k] += 1j * im
        lam[k + 1] -= 1j * im
        pencil._cache[key] = (T, Z, lam)
    return pencil._cache[key]


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
    Q = F^-1 Z[:, :k] is a G-orthonormal basis of it.  A no-op when every
    mode is damped.
    """
    key = "undamped_basis"
    if key not in pencil._cache:
        T, Z, lam = _schur(pencil)
        bad = np.abs(lam.real) <= NOISE_FLOOR_REL * np.abs(lam).max()
        if not bad.any():
            pencil._cache[key] = None
        else:
            _, Zs, _, _, k, _, _, info = dtrsen(bad, T, Z, job="N")
            if info != 0:
                raise RuntimeError(f"Schur reordering failed (info {info}) for mode "
                                   f"{pencil.mode}, dim {pencil.dim}")
            pencil._cache[key] = sla.solve_triangular(_gram_factor(pencil), Zs[:, :k])
    Q = pencil._cache[key]
    if Q is None:
        return w
    return w - Q @ (Q.T @ (pencil.G @ w))


def _complex_schur(pencil: ModePencil) -> np.ndarray:
    """T_c: the complex upper-triangular Schur form B = U T_c U^H.

    Rotated out of the cached real form once per pencil, on the first
    resolvent sample, and kept Fortran-ordered for the LAPACK solves.
    """
    key = "schur_complex"
    if key not in pencil._cache:
        T, Z, _ = _schur(pencil)
        pencil._cache[key] = np.asfortranarray(sla.rsf2csf(T, Z)[0])
    return pencil._cache[key]


def resolvent_norm(pencil: ModePencil, lam: float) -> float:
    """s(lam) = ||(i lam - M^-1 A)^-1|| in the energy norm.

    The G-norm is the 2-norm after the similarity by F, and U is unitary, so
    s(lam) = ||K||_2 with K = (i lam - T_c)^-1.  s(lam)^2 is the top
    eigenvalue of K^H K, found by Lanczos (ARPACK, converged to machine
    precision from a fixed start vector); each product is two triangular
    solves with T_c - i lam.  Pencils of dimension below 3, too small for
    ARPACK, take the smallest singular value of T_c - i lam instead.
    """
    R = _complex_schur(pencil).copy(order="F")
    n = len(R)
    R[np.diag_indices(n)] -= 1j * lam
    if not np.diag(R).all():
        raise RuntimeError(f"i*{lam} is (numerically) an eigenvalue of the pencil")
    if n < 3:
        return float(1.0 / sla.svdvals(R)[-1])
    # imported here, so that runs which never sample a resolvent do not load
    # scipy.sparse.linalg at start-up
    from scipy.sparse.linalg import LinearOperator, eigsh

    def gram(x: np.ndarray) -> np.ndarray:      # K^H K x
        return ztrtrs(R, ztrtrs(R, x)[0], trans=2)[0]

    op = LinearOperator((n, n), matvec=gram, dtype=complex)
    top = eigsh(op, k=1, which="LA", tol=0, v0=np.ones(n, dtype=complex),
                return_eigenvectors=False)[0]
    return float(np.sqrt(top))


def resolvent_scan(pencil: ModePencil, lambda_min: float, lambda_max: float,
                   n_samples: int) -> ResolventScan:
    """Scan s(lam) on [lambda_min, lambda_max] and fit its log-log growth.

    Sample points colliding with an eigenvalue's imaginary part are nudged by
    1e-9 (relative).  The growth exponent is the least-squares slope of
    log s vs log lam over the upper half of the range.
    """
    if not (lambda_max > lambda_min):
        raise ValueError("lambda_max must exceed lambda_min")
    if n_samples < 4:
        raise ValueError("need at least 4 samples")
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
