import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.linalg.lapack import ztrtrs

from platemem import (AnnulusGeometry, PhysicalParams, assemble_mode_pencil,
                      build_radial_grid, eigenvalues, project_resolvable, resolvent_norm,
                      resolvent_scan, spectral_abscissa_sweep)
from platemem import spectral

from oracles import (bessel_j0, bessel_j0_zeros, fake_pencil, membrane_subpencil,
                     resolvent_norm_dense_oracle)

GEO = AnnulusGeometry()


def make_pencil(p, n=16, mode=0):
    return assemble_mode_pencil(p, build_radial_grid(GEO, n, n, mode))


def test_bessel_oracle_self_check():
    zeros = bessel_j0_zeros(3)
    assert zeros[0] == pytest.approx(2.404826, abs=5e-7)
    for z in zeros:
        assert abs(bessel_j0(z)) < 1e-12


def test_membrane_eigenfrequencies_match_bessel_zeros():
    grid = build_radial_grid(GEO, 8, 64, 0)
    sub = membrane_subpencil(PhysicalParams(), grid)
    spec = eigenvalues(sub)
    freqs = np.unique(np.round(np.abs(spec.eigenvalues.imag), 10))
    freqs = freqs[freqs > 1e-9]
    for got, ref in zip(freqs[:3], bessel_j0_zeros(3)):
        assert abs(got - ref) / ref < 1e-2


def test_eigenvalues_conjugate_symmetry_and_dissipativity():
    pencil = make_pencil(PhysicalParams(m_damp=1.0, rho_damp=1.0), n=12, mode=1)
    spec = eigenvalues(pencil)
    lam = spec.eigenvalues
    mx = np.abs(lam).max()
    assert spec.spectral_abscissa <= 1e-8 * mx
    # conjugate pairing within 1e-8
    for z in lam[np.abs(lam.imag) > 1e-8 * mx]:
        assert np.abs(lam - np.conj(z)).min() <= 1e-8 * mx
    assert spec.zero_in_resolvent
    assert spec.imag_axis_gap > 0.0


def test_m_positive_gives_axis_gap_all_cells():
    for p in (PhysicalParams(m_damp=1.0), PhysicalParams(m_damp=1.0, gamma=1.0),
              PhysicalParams(m_damp=1.0, rho_damp=1.0)):
        for mode in (0, 2):
            spec = eigenvalues(make_pencil(p, n=10, mode=mode))
            assert spec.imag_axis_gap > 0.0


@pytest.mark.parametrize("modes, error", [
    (range(0), "^the sweep needs at least one mode, got none$"),
    (range(-2, 0), "^the sweep needs non-negative modes, got mode -2$"),
    (range(-1, 3), "^the sweep needs non-negative modes, got mode -1$")])
def test_sweep_rejects_empty_or_negative_modes_before_any_pencil(monkeypatch, modes, error):
    def no_pencil(*args):
        raise AssertionError("a pencil was built")

    monkeypatch.setattr(spectral, "assemble_mode_pencil", no_pencil)
    with pytest.raises(ValueError, match=error):
        spectral_abscissa_sweep(PhysicalParams(rho_damp=1.0), GEO, 8, modes)


def test_sweep_spectra_do_not_depend_on_the_pool(monkeypatch):
    p = PhysicalParams(rho_damp=1.0)
    threaded = spectral_abscissa_sweep(p, GEO, 12, range(0, 3))
    monkeypatch.setattr(spectral, "parallel_map", lambda fn, items: [fn(x) for x in items])
    inline = spectral_abscissa_sweep(p, GEO, 12, range(0, 3))
    pairs = list(zip(threaded[0] + threaded[1], inline[0] + inline[1]))
    assert len(pairs) == 3 + 5
    for a, b in pairs:
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()


def test_sweep_exponential_cell_has_negative_abscissa():
    spectra, spectra_fine = spectral_abscissa_sweep(PhysicalParams(m_damp=1.0, rho_damp=1.0),
                                                    GEO, resolution=12, modes=range(0, 3))
    assert max(s.spectral_abscissa for s in spectra) < 0.0
    assert max(s.spectral_abscissa for s in spectra_fine) < 0.0
    assert len(spectra) == 3
    assert len(spectra_fine) == 5  # doubled mode count


def test_conservative_decoupled_pencil_abscissa_zero():
    # mu = 0 decouples temperature; undamped plate+membrane block is skew
    pencil = make_pencil(PhysicalParams(mu=0.0), n=12, mode=0)
    keep = np.r_[np.arange(*pencil.block("u").indices(pencil.dim)),
                 np.arange(*pencil.block("u_t").indices(pencil.dim)),
                 np.arange(*pencil.block("v").indices(pencil.dim)),
                 np.arange(*pencil.block("v_t").indices(pencil.dim))]
    import scipy.linalg as sla
    lam = sla.eig(pencil.A.toarray()[np.ix_(keep, keep)], pencil.M.toarray()[np.ix_(keep, keep)],
                  right=False)
    assert np.abs(lam.real).max() <= 1e-8 * np.abs(lam).max()


def fake_diag_pencil(d):
    return fake_pencil(np.diag(d))


def test_resolved_abscissa_keeps_an_eigenvalue_above_the_noise_floor():
    # only |Re| within the noise floor is undamped: a growing eigenvalue is resolved
    spec = eigenvalues(fake_diag_pencil([-1.0, 1e-3, -2.0]))
    assert spec.spectral_abscissa == pytest.approx(1e-3, rel=1e-12)
    assert spec.resolved_abscissa == pytest.approx(1e-3, rel=1e-12)


def test_resolvent_norm_diagonal_pencil_exact(monkeypatch):
    # dim 3: Lanczos ends with the Krylov space all of C^3, three products, at
    # either tolerance, and the Ritz value is the exact top eigenvalue then
    solves = []

    def counting(*args, **kwargs):
        solves.append(1)
        return ztrtrs(*args, **kwargs)

    d = np.array([-1.0, -2.0, -0.5])
    monkeypatch.setattr(lapack, "ztrtrs", counting)
    for tol in (spectral.LANCZOS_TOL, 0.0):
        monkeypatch.setattr(spectral, "LANCZOS_TOL", tol)
        for lam in (0.0, 0.3, 1.7, 4.0, 100.0):
            expect = 1.0 / np.abs(1j * lam - d).min()
            solves.clear()
            assert resolvent_norm(fake_diag_pencil(d), lam) == pytest.approx(expect, rel=1e-15)
            assert len(solves) == 2 * 3, (tol, lam)


def test_resolvent_scan_diagonal_pencil_matches_closed_form():
    d = np.array([-1.0, -2.0, -0.5])
    pencil = fake_diag_pencil(d)
    scan = resolvent_scan(pencil, 0.5, 6.0, 12)
    expect = [1.0 / np.abs(1j * l - d).min() for l in scan.lambdas]
    np.testing.assert_allclose(scan.norms, expect, rtol=1e-12)


def test_resolvent_scan_rejects_a_sample_count_outside_its_range():
    pencil = fake_diag_pencil(np.array([-1.0, -2.0, -0.5]))
    for n in (3, spectral.MAX_SAMPLES + 1, 10**9):
        with pytest.raises(ValueError, match=f"^need 4 to {spectral.MAX_SAMPLES} samples, got {n}$"):
            resolvent_scan(pencil, 0.5, 6.0, n)


def test_resolvent_norm_raises_on_an_eigenvalue():
    pencil = fake_diag_pencil(np.array([0.0, -1.0, -2.0]))
    with pytest.raises(RuntimeError, match="is \\(numerically\\) an eigenvalue"):
        resolvent_norm(pencil, 0.0)


def test_resolvent_samples_are_independent_of_each_other():
    p = PhysicalParams(rho_damp=1.0)
    pencil = make_pencil(p, n=32, mode=1)
    scan = resolvent_scan(pencil, 0.25, 57.6, 24)
    reverse = [resolvent_norm(pencil, float(l)) for l in scan.lambdas[::-1]]
    np.testing.assert_array_equal(scan.norms, reverse[::-1])
    again = resolvent_scan(make_pencil(p, n=32, mode=1), 0.25, 57.6, 24)
    np.testing.assert_array_equal(again.norms, scan.norms)


def test_resolvent_samples_leave_the_cached_schur_form_intact():
    # a sample shifts the diagonal of the cached T_c in place; the strict
    # upper triangle, which every triangular solve reads, must never move
    p = PhysicalParams(rho_damp=1.0)
    pencil = make_pencil(p, n=32, mode=1)
    R, _ = spectral._complex_schur(pencil)
    upper = np.triu(R, 1).tobytes()
    resolvent_scan(pencil, 0.25, 57.6, 24)
    assert np.triu(R, 1).tobytes() == upper
    assert resolvent_norm(pencil, 3.1) == resolvent_norm(make_pencil(p, n=32, mode=1), 3.1)
    # nor after a sample that raised: eigenvalue 0 is exact on a triangular A
    rng = np.random.default_rng(5)
    A = np.triu(rng.standard_normal((5, 5)), 1) + np.diag([-1.0, 0.0, -2.0, -0.5, -3.0])
    pencil = fake_pencil(A)
    R, _ = spectral._complex_schur(pencil)
    upper = np.triu(R, 1).tobytes()
    resolvent_norm(pencil, 1.7)
    with pytest.raises(RuntimeError, match="is \\(numerically\\) an eigenvalue"):
        resolvent_norm(pencil, 0.0)
    assert np.triu(R, 1).tobytes() == upper
    assert resolvent_norm(pencil, 0.3) == resolvent_norm(fake_pencil(A), 0.3)


def test_resolvent_sample_takes_few_lanczos_products(monkeypatch):
    # one product of K^H K is two triangular solves.  This scan (dim 160)
    # takes 6.07 products per sample on average, against 6.73 with ARPACK on
    # a 4-vector basis; m = 0, rho = 1 scans took 5.9-6.3 at dims 320 and
    # 640, and 7.5 and 11.2 at dim 80 (modes 1 and 0; ARPACK 8.7 and 18.4)
    solves = []

    def counting(*args, **kwargs):
        solves.append(1)
        return ztrtrs(*args, **kwargs)

    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=32, mode=0)
    monkeypatch.setattr(lapack, "ztrtrs", counting)
    scan = resolvent_scan(pencil, 0.25, 57.6, 60)
    assert len(solves) / 2 / len(scan.lambdas) <= 16


def test_resolvent_samples_at_the_lanczos_tolerance_are_exact_to_round_off(monkeypatch):
    # a Ritz value's error is at most ||r||^2 / gap, so stopping at a residual
    # of sqrt(eps) moves no sample off its value at tol = 0 (a residual of
    # eps) beyond round-off
    for n in (16, 32, 64):
        for mode in (0, 1):
            pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=n, mode=mode)
            got = resolvent_scan(pencil, 0.25, 1.8 * n, 40).norms
            monkeypatch.setattr(spectral, "LANCZOS_TOL", 0.0)
            ref = resolvent_scan(pencil, 0.25, 1.8 * n, 40).norms
            monkeypatch.undo()
            assert np.abs(got / ref - 1.0).max() <= 1e-13, (n, mode)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_resolvent_entry_points_reject_non_finite_lambda(bad):
    pencil = fake_diag_pencil(np.array([-1.0, -2.0, -0.5]))
    with pytest.raises(ValueError, match=f"lambda must be finite, got {bad}"):
        resolvent_norm(pencil, bad)
    with pytest.raises(ValueError, match=f"lambda_max must be finite, got {bad}"):
        resolvent_scan(pencil, 0.5, bad, 12)
    with pytest.raises(ValueError, match=f"lambda_min must be finite, got {bad}"):
        resolvent_scan(pencil, bad, 6.0, 12)


def test_resolvent_scan_rejects_an_empty_range_and_fits_no_exponent_below_zero():
    pencil = fake_diag_pencil(np.array([-1.0, -2.0, -0.5]))
    with pytest.raises(ValueError, match="^lambda_max must exceed lambda_min$"):
        resolvent_scan(pencil, 2.0, 2.0, 12)
    # the upper half of [-2, -1] holds no positive sample to fit
    scan = resolvent_scan(pencil, -2.0, -1.0, 12)
    assert np.isnan(scan.growth_exponent)
    assert np.all(np.isfinite(scan.norms))


@pytest.mark.parametrize("mode", [0, 1])
def test_resolvent_norm_matches_dense_oracle(mode):
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=64, mode=mode)
    lam = eigenvalues(pencil).eigenvalues
    mx = np.abs(lam).max()
    undamped = np.abs(lam.real) <= spectral.NOISE_FLOOR_REL * mx
    upper = lam[~undamped & (lam.imag > 0.0)]
    least = upper[np.argsort(-upper.real, kind="stable")[:2]].imag
    samples = [0.25, 7.3, 40.0, *least, *(least + 1e-6)]
    A, M, G = pencil.A.toarray(), pencil.M.toarray(), pencil.G.toarray()
    for l in samples:
        ref = resolvent_norm_dense_oracle(A, M, G, l)
        assert resolvent_norm(pencil, l) == pytest.approx(ref, rel=1e-8)
    # next to an undamped origin artifact both routes lose eps * cond
    artifacts = lam[undamped & (lam.imag > 0.0)]
    assert len(artifacts) == (1 if mode else 0)
    for z in artifacts:
        l = z.imag + 1e-9 * mx
        ref = resolvent_norm_dense_oracle(A, M, G, l)
        assert ref > 1e4
        assert resolvent_norm(pencil, l) == pytest.approx(ref, rel=1e-6)


def test_spectral_entry_points_reject_dimension_above_cap(monkeypatch):
    monkeypatch.setattr(spectral, "EIG_DIM_CAP", 2)
    pencil = fake_diag_pencil(np.array([-1.0, -2.0, -0.5]))
    calls = [lambda: eigenvalues(pencil), lambda: resolvent_norm(pencil, 1.0),
             lambda: resolvent_scan(pencil, 0.5, 6.0, 12),
             lambda: project_resolvable(pencil, np.ones(3))]
    for call in calls:
        with pytest.raises(ValueError, match="dimension 3 exceeds eigensolver cap 2"):
            call()
    assert pencil._cache == {}    # nothing was factorized


def test_resolvent_distance_inequality():
    pencil = make_pencil(PhysicalParams(m_damp=1.0, rho_damp=1.0), n=10)
    lam_all = eigenvalues(pencil).eigenvalues
    for lam in (0.7, 2.3, 9.1):
        dist = np.abs(1j * lam - lam_all).min()
        assert resolvent_norm(pencil, lam) >= 1.0 / dist * (1.0 - 1e-9)


def test_resolvent_decay_far_beyond_spectrum_imag_extent():
    pencil = make_pencil(PhysicalParams(m_damp=1.0, rho_damp=1.0), n=8)
    top = np.abs(eigenvalues(pencil).eigenvalues.imag).max()
    s1 = resolvent_norm(pencil, 3.0 * top)
    s2 = resolvent_norm(pencil, 6.0 * top)
    assert s2 < s1


def test_resolvent_near_bessel_resonance_blows_up():
    grid = build_radial_grid(GEO, 8, 128, 0)
    sub = membrane_subpencil(PhysicalParams(m_damp=0.0), grid)
    j01 = bessel_j0_zeros(1)[0]  # first membrane frequency, r_interface = 1
    lam = eigenvalues(sub).eigenvalues
    discrete = lam.imag[np.argmin(np.abs(lam.imag - j01))]
    assert abs(discrete - j01) / j01 < 5e-3  # the resonance sits at j01
    assert resolvent_norm(sub, float(discrete) + 1e-9) > 1e6


def test_scan_growth_exponent_positive_for_undamped_membrane():
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=16, mode=0)
    edge = 2.0 * 16  # 2 sqrt(beta2/rho2) / h_mem with unit constants
    scan = resolvent_scan(pencil, 0.25, 0.9 * edge, 80)
    assert scan.growth_exponent > 0.0
    assert np.all(np.isfinite(scan.norms))


def test_scan_nudges_samples_off_eigenvalues():
    # undamped oscillator (eigenvalues +-2i) beside a decaying dof (-1); a
    # sample landing on 2.0 is nudged
    A = np.array([[0.0, 1.0, 0.0], [-4.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    pencil = fake_pencil(A, G=np.diag([4.0, 1.0, 1.0]))
    scan = resolvent_scan(pencil, 1.0, 3.0, 5)  # samples include exactly 2.0
    assert np.all(np.isfinite(scan.norms))
    assert scan.norms.max() > 1e6


def test_project_resolvable_removes_undamped_components():
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=32, mode=2)
    import scipy.linalg as sla
    lam, V = sla.eig(pencil.A.toarray(), pencil.M.toarray())
    bad = np.abs(lam.real) <= 1e-10 * np.abs(lam).max()
    assert bad.any()  # the origin artifacts exist for this mode
    rng = np.random.default_rng(9)
    w = rng.standard_normal(pencil.dim)
    wp = project_resolvable(pencil, w)
    scale = float(w @ (pencil.G @ w))
    for j in np.flatnonzero(bad):
        phi = V[:, j]
        phin = phi / np.sqrt(np.real(np.conj(phi) @ (pencil.G @ phi)))
        overlap = abs(np.conj(phin) @ (pencil.G @ wp))
        assert overlap <= 1e-8 * np.sqrt(scale)
    # a projection: applying it again changes nothing
    d = project_resolvable(pencil, wp) - wp
    assert np.sqrt(d @ (pencil.G @ d)) <= 1e-12 * np.sqrt(scale)
    # damped cells are untouched
    pencil2 = make_pencil(PhysicalParams(m_damp=1.0), n=10, mode=1)
    w2 = rng.standard_normal(pencil2.dim)
    np.testing.assert_array_equal(project_resolvable(pencil2, w2), w2)


def test_non_finite_generator_is_named_before_the_schur_form():
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=16, mode=0)
    pencil.A.data[7] = np.nan
    with pytest.raises(ValueError, match="^M\\^-1 A is not finite for mode 0, dim 80$"):
        eigenvalues(pencil)
    assert "schur" not in pencil._cache


@pytest.mark.parametrize("routine", ["dgees", "dtbtrs"])
def test_lapack_failures_name_the_mode_and_dimension(monkeypatch, routine):
    # dgees is called through spectral._gees, which raises on info != 0 itself
    module, name = (spectral, "_gees") if routine == "dgees" else (lapack, routine)
    real = getattr(module, name)

    def failing(*args, **kwargs):
        out = real(*args, **kwargs)
        if routine == "dgees":
            raise np.linalg.LinAlgError("gees info 1")
        return (*out[:-1], 1)              # info > 0, as on a failed convergence

    monkeypatch.setattr(module, name, failing)
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=16, mode=1)
    with pytest.raises(RuntimeError, match="^Schur factorization failed for mode 1, dim 80$"):
        eigenvalues(pencil)


def test_projection_names_a_failed_banded_solve(monkeypatch):
    # only the projection's solve fails: the similarity's passes trans="T"
    real = lapack.dtbtrs

    def failing(*args, **kwargs):
        out = real(*args, **kwargs)
        return out if kwargs.get("trans") == "T" else (*out[:-1], 1)

    monkeypatch.setattr(lapack, "dtbtrs", failing)
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=32, mode=2)
    w = np.random.default_rng(9).standard_normal(pencil.dim)
    with pytest.raises(RuntimeError, match="^banded solve failed \\(info 1\\) in the "
                                           "projection for mode 2, dim 160$"):
        project_resolvable(pencil, w)
    assert "undamped_basis" not in pencil._cache


def test_projection_names_a_failed_schur_reordering(monkeypatch):
    real = lapack.dtrsen
    monkeypatch.setattr(lapack, "dtrsen", lambda *args, **kwargs: (*real(*args, **kwargs)[:-1], 1))
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=32, mode=2)
    w = np.random.default_rng(9).standard_normal(pencil.dim)
    with pytest.raises(RuntimeError, match="^Schur reordering failed \\(info 1\\) for mode 2, "
                                           "dim 160$"):
        project_resolvable(pencil, w)
    assert "undamped_basis" not in pencil._cache


def test_resolvent_norm_names_a_failed_tridiagonal_eigensolve(monkeypatch):
    real = lapack.dstev
    monkeypatch.setattr(lapack, "dstev", lambda *args, **kwargs: (*real(*args, **kwargs)[:-1], 1))
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=16, mode=1)
    with pytest.raises(RuntimeError, match="^Lanczos eigensolve failed \\(dstev info 1\\) for "
                                           "mode 1, lambda 0.5$"):
        resolvent_norm(pencil, 0.5)


@pytest.mark.parametrize("vectors", [False, True])
@pytest.mark.parametrize("n", [16, 64])
def test_gees_matches_scipys_dgees_bit_for_bit(n, vectors):
    B = spectral._similarity(make_pencil(PhysicalParams(rho_damp=1.0), n=n, mode=1))
    T = B.copy(order="F")
    work = lapack.dgees(lambda *_: 0, B, compute_v=vectors, lwork=-1, overwrite_a=True)[5]
    ref, _, wr, wi, Z, _, info = lapack.dgees(lambda *_: 0, B, compute_v=vectors,
                                              lwork=int(work[0]), overwrite_a=True)
    assert info == 0
    got = spectral._gees(T, vectors)
    assert T.tobytes() == ref.tobytes()
    assert got[0].tobytes() == wr.tobytes() and got[1].tobytes() == wi.tobytes()
    if vectors:
        assert got[2].tobytes() == Z.tobytes()
    else:
        assert got[2] is None


def test_gees_refuses_what_it_would_copy_and_raises_on_info():
    a = np.random.default_rng(0).standard_normal((6, 6))
    for bad in (a, np.asfortranarray(a, dtype=np.float32), np.asfortranarray(a[:, :5])):
        with pytest.raises(ValueError, match="^gees needs a square Fortran-ordered float64"):
            spectral._gees(bad, False)
    with pytest.raises(np.linalg.LinAlgError, match="^gees info "):
        spectral._gees(np.full((6, 6), np.nan, order="F"), False)


def test_eigenvalues_hold_one_dense_array():
    # the Schur form is taken in place of the one array B: peak and kept
    # memory in units of dim^2 doubles (the dense-Cholesky route peaked at
    # 5.06 and kept 3.01: T, Z and F).  A sampled pencil keeps T_c alone,
    # 2 units, where it kept T beside it (3.01)
    import tracemalloc

    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=128, mode=0)
    unit = 8.0 * pencil.dim ** 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eigenvalues(pencil)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base_sample = kept
        resolvent_norm(pencil, 3.3)
        kept_sample, peak_sample = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - base) / unit <= 1.5
    assert (kept - base) / unit <= 1.1
    # T_c is complex (2 units); no complex Z is made beside it
    assert (peak_sample - base_sample) / unit <= 2.5
    assert (kept_sample - base) / unit <= 2.1


def test_schur_vectors_are_made_only_for_the_projection(monkeypatch):
    asked = []

    def spy(a, vectors):
        asked.append(bool(vectors))
        return real(a, vectors)

    real = spectral._gees
    monkeypatch.setattr(spectral, "_gees", spy)
    p = PhysicalParams(rho_damp=1.0)
    eigenvalues(make_pencil(p, n=16, mode=0))
    resolvent_scan(make_pencil(p, n=16, mode=1), 0.25, 20.0, 8)
    spectral_abscissa_sweep(p, GEO, 8, range(0, 2))
    assert asked and not any(asked)
    pencil = make_pencil(p, n=16, mode=2)
    project_resolvable(pencil, np.ones(pencil.dim))
    assert asked[-1]
    # one factorization per pencil, whether the spectrum or a resolvent sample comes first
    runs = []
    for first_the_spectrum in (True, False):
        asked.clear()
        pencil = make_pencil(p, n=16, mode=1)
        if first_the_spectrum:
            eigenvalues(pencil)
        norm = resolvent_norm(pencil, 3.1)
        runs.append((eigenvalues(pencil).eigenvalues.tobytes(), norm))
        assert asked == [False]
    assert runs[0] == runs[1]


def test_projection_after_a_vector_free_form_matches_a_fresh_one():
    p = PhysicalParams(rho_damp=1.0)
    cached = make_pencil(p, n=32, mode=2)
    eigenvalues(cached)
    resolvent_norm(cached, 2.5)
    assert "schur" not in cached._cache
    rng = np.random.default_rng(3)
    w = rng.standard_normal(cached.dim)
    fresh = project_resolvable(make_pencil(p, n=32, mode=2), w)
    after = project_resolvable(cached, w)
    assert not np.array_equal(after, w)          # mode 2 has undamped artifacts
    assert np.abs(after - fresh).max() <= 1e-12 * np.abs(w).max()


def test_schur_form_is_the_same_with_and_without_vectors():
    p = PhysicalParams(rho_damp=1.0)
    pencil = make_pencil(p, n=32, mode=1)
    T, lam, Z = spectral._schur(pencil)
    assert Z is None
    Tv, lamv, Z = spectral._schur(make_pencil(p, n=32, mode=1), vectors=True)
    assert T.tobytes() == Tv.tobytes()
    assert lam.tobytes() == lamv.tobytes()
    B = spectral._similarity(pencil)
    np.testing.assert_allclose(Z.T @ Z, np.eye(pencil.dim), atol=1e-12)
    assert np.abs(Z @ T @ Z.T - B).max() <= 1e-12 * np.abs(B).max()
