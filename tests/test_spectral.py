import numpy as np
import pytest
from scipy.linalg.lapack import ztrtrs

from platemem import (AnnulusGeometry, PhysicalParams, assemble_mode_pencil,
                      build_radial_grid, eigenvalues, membrane_subpencil,
                      project_resolvable, resolvent_norm, resolvent_scan,
                      spectral_abscissa_sweep)
from platemem import spectral

from oracles import bessel_j0, bessel_j0_zeros, fake_pencil, resolvent_norm_dense_oracle

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


def test_sweep_exponential_cell_has_negative_abscissa():
    sweep = spectral_abscissa_sweep(PhysicalParams(m_damp=1.0, rho_damp=1.0), GEO,
                                    resolution=12, modes=range(0, 3))
    assert sweep.global_abscissa < 0.0
    assert sweep.global_abscissa_fine < 0.0
    assert len(sweep.spectra) == 3
    assert len(sweep.spectra_fine) == 5  # doubled mode count


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


def test_resolvent_norm_diagonal_pencil_exact():
    d = np.array([-1.0, -2.0, -0.5])
    pencil = fake_diag_pencil(d)
    for lam in (0.3, 1.7, 4.0):
        expect = 1.0 / np.abs(1j * lam - d).min()
        assert resolvent_norm(pencil, lam) == pytest.approx(expect, rel=1e-12)


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
    # one product of K^H K is two triangular solves.  ARPACK's default basis
    # of 20 vectors takes 21 products per sample, every time; the
    # LANCZOS_NCV basis took 10.3-10.7 on average and at most 16 in m = 0,
    # rho = 1 scans at dims 80 to 640
    solves = []

    def counting(*args, **kwargs):
        solves.append(1)
        return ztrtrs(*args, **kwargs)

    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=32, mode=0)
    monkeypatch.setattr(spectral, "ztrtrs", counting)
    scan = resolvent_scan(pencil, 0.25, 57.6, 60)
    assert len(solves) / 2 / len(scan.lambdas) <= 16


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_resolvent_entry_points_reject_non_finite_lambda(bad):
    pencil = fake_diag_pencil(np.array([-1.0, -2.0, -0.5]))
    with pytest.raises(ValueError, match=f"lambda must be finite, got {bad}"):
        resolvent_norm(pencil, bad)
    with pytest.raises(ValueError, match=f"lambda_max must be finite, got {bad}"):
        resolvent_scan(pencil, 0.5, bad, 12)
    with pytest.raises(ValueError, match=f"lambda_min must be finite, got {bad}"):
        resolvent_scan(pencil, bad, 6.0, 12)


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
    # undamped oscillator: eigenvalues +-2i; a sample landing on 2.0 is nudged
    A = np.array([[0.0, 1.0], [-4.0, 0.0]])
    pencil = fake_pencil(A, G=np.diag([4.0, 1.0]))
    scan = resolvent_scan(pencil, 1.0, 3.0, 5)  # samples include exactly 2.0
    assert np.all(np.isfinite(scan.norms))
    assert scan.sup_norm > 1e6


def test_project_resolvable_removes_undamped_components():
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=32, mode=2)
    import scipy.linalg as sla
    lam, V = sla.eig(pencil.A.toarray(), pencil.M.toarray())
    bad = np.abs(lam.real) <= 1e-10 * np.abs(lam).max()
    assert bad.any()  # the origin artifacts exist for this mode
    rng = np.random.default_rng(9)
    w = rng.standard_normal(pencil.dim).astype(complex)
    wp = project_resolvable(pencil, w)
    scale = float(np.real(np.conj(w) @ (pencil.G @ w)))
    for j in np.flatnonzero(bad):
        phi = V[:, j]
        phin = phi / np.sqrt(np.real(np.conj(phi) @ (pencil.G @ phi)))
        overlap = abs(np.conj(phin) @ (pencil.G @ wp))
        assert overlap <= 1e-8 * np.sqrt(scale)
    # a projection: applying it again changes nothing
    d = project_resolvable(pencil, wp) - wp
    assert np.sqrt(np.real(np.conj(d) @ (pencil.G @ d))) <= 1e-12 * np.sqrt(scale)
    # damped cells are untouched
    pencil2 = make_pencil(PhysicalParams(m_damp=1.0), n=10, mode=1)
    w2 = rng.standard_normal(pencil2.dim).astype(complex)
    np.testing.assert_array_equal(project_resolvable(pencil2, w2), w2)


def test_non_finite_generator_is_named_before_the_schur_form():
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=16, mode=0)
    pencil.A.data[7] = np.nan
    with pytest.raises(ValueError, match="^M\\^-1 A is not finite for mode 0, dim 80$"):
        eigenvalues(pencil)
    assert "schur" not in pencil._cache


@pytest.mark.parametrize("routine", ["dgees", "dtbtrs"])
def test_lapack_failures_name_the_mode_and_dimension(monkeypatch, routine):
    real = getattr(spectral, routine)

    def failing(*args, **kwargs):
        out = real(*args, **kwargs)
        return (*out[:-1], 1)              # info > 0, as on a failed convergence

    monkeypatch.setattr(spectral, routine, failing)
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=16, mode=1)
    with pytest.raises(RuntimeError, match="^Schur factorization failed for mode 1, dim 80$"):
        eigenvalues(pencil)


def test_eigenvalues_hold_one_dense_array():
    # the Schur form is taken in place of the one array B: peak and kept
    # memory in units of dim^2 doubles (the dense-Cholesky route peaked at
    # 5.06 and kept 3.01: T, Z and F).  A sampled pencil keeps T_c alone,
    # 2 units, where it kept T beside it (3.01)
    import tracemalloc

    import scipy.sparse.linalg  # noqa: F401  (imported before tracing)

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

    def spy(*args, **kwargs):
        asked.append(bool(kwargs["compute_v"]))
        return real(*args, **kwargs)

    real = spectral.dgees
    monkeypatch.setattr(spectral, "dgees", spy)
    p = PhysicalParams(rho_damp=1.0)
    eigenvalues(make_pencil(p, n=16, mode=0))
    resolvent_scan(make_pencil(p, n=16, mode=1), 0.25, 20.0, 8)
    spectral_abscissa_sweep(p, GEO, 8, range(0, 2))
    assert asked and not any(asked)
    pencil = make_pencil(p, n=16, mode=2)
    project_resolvable(pencil, np.ones(pencil.dim, dtype=complex))
    assert asked[-1]


def test_projection_after_a_vector_free_form_matches_a_fresh_one():
    p = PhysicalParams(rho_damp=1.0)
    cached = make_pencil(p, n=32, mode=2)
    eigenvalues(cached)
    resolvent_norm(cached, 2.5)
    assert spectral._schur(cached)[1] is None
    rng = np.random.default_rng(3)
    w = rng.standard_normal(cached.dim) + 1j * rng.standard_normal(cached.dim)
    fresh = project_resolvable(make_pencil(p, n=32, mode=2), w)
    after = project_resolvable(cached, w)
    assert not np.array_equal(after, w)          # mode 2 has undamped artifacts
    assert np.abs(after - fresh).max() <= 1e-12 * np.abs(w).max()


def test_schur_form_is_the_same_with_and_without_vectors():
    p = PhysicalParams(rho_damp=1.0)
    pencil = make_pencil(p, n=32, mode=1)
    T, Z, lam = spectral._schur(pencil)
    assert Z is None
    Tv, Z, lamv = spectral._schur(make_pencil(p, n=32, mode=1), vectors=True)
    assert T.tobytes() == Tv.tobytes()
    assert lam.tobytes() == lamv.tobytes()
    B = spectral._similarity(pencil)
    np.testing.assert_allclose(Z.T @ Z, np.eye(pencil.dim), atol=1e-12)
    assert np.abs(Z @ T @ Z.T - B).max() <= 1e-12 * np.abs(B).max()
