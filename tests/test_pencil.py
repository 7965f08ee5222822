import dataclasses
import re

import numpy as np
import pytest
from scipy import sparse

import platemem.pencil as pencil_module
from platemem import (AnnulusGeometry, PhysicalParams, ValidationError, assemble_mode_pencil,
                      build_radial_grid, eigenvalues, energy, laplacian_mode)
from platemem.pencil import (DISSIPATION_CHANNELS, ENERGY_PARTS, MEMBRANE_FIELDS, AssemblyError,
                             TripletMatrix, _stack_forms, gram_factor, make_closures)

from oracles import (closed_laplacians, closure_residuals, csr, dense_eigenvalues_oracle,
                     dense_forms_reference, dense_similarity_eigenvalues_oracle, dense_stencil,
                     fake_pencil, interface_trace, layout_state, membrane_subpencil,
                     quadrature_weights, triplets)

GEO = AnnulusGeometry()

# canonical parameter cells used across the suite
CELLS = {
    "exp_rho": PhysicalParams(m_damp=1.0, rho_damp=1.0),
    "exp_rho_gamma": PhysicalParams(m_damp=1.0, rho_damp=1.0, gamma=1.0),
    "exp_thermal": PhysicalParams(m_damp=1.0),
    "strong_only": PhysicalParams(m_damp=1.0, gamma=1.0),
    "poly": PhysicalParams(rho_damp=1.0),
    "no_rate": PhysicalParams(),
}


def make_pencil(p=CELLS["exp_rho"], n=16, mode=0, geo=GEO):
    return assemble_mode_pencil(p, build_radial_grid(geo, n, n, mode))


def blocks(pencil, M):
    return {name: M[pencil.block(name), :][:, pencil.block(name)]
            for name in pencil.dof_layout}


def test_gamma_zero_makes_velocity_mass_identity():
    pencil = make_pencil(PhysicalParams(rho1=1.7, gamma=0.0))
    blk = blocks(pencil, pencil.M.toarray())["u_t"]
    np.testing.assert_array_equal(blk, 1.7 * np.eye(blk.shape[0]))


def test_m_zero_makes_velocity_damping_block_zero():
    pencil = make_pencil(PhysicalParams(m_damp=0.0))
    blk = blocks(pencil, pencil.A.toarray())["v_t"]
    np.testing.assert_array_equal(blk, np.zeros_like(blk))


def test_tiny_pencil_eigenvalues_match_dense_oracle():
    # dimension 40, and dimension 320 with undamped origin artifacts
    for name, n, mode in (("exp_rho", 8, 0), ("poly", 64, 1)):
        pencil = make_pencil(CELLS[name], n=n, mode=mode)
        lam = eigenvalues(pencil)
        ref = dense_eigenvalues_oracle(pencil.A.toarray(), pencil.M.toarray())
        scale = np.abs(ref).max()
        assert len(lam) == len(ref)
        # nearest-neighbour pairing (sorting conjugate pairs is order-unstable)
        for z in ref:
            assert np.abs(lam - z).min() <= 1e-10 * scale
        for z in lam:
            assert np.abs(ref - z).min() <= 1e-10 * scale


def test_gram_symmetric_exactly():
    pencil = make_pencil(CELLS["exp_rho_gamma"], n=16, mode=3)
    G = pencil.G.toarray()
    assert np.abs(G - G.T).max() == 0.0


@pytest.mark.parametrize("name", sorted(CELLS))
@pytest.mark.parametrize("mode", [0, 1, 2, 5, 16])
def test_gram_and_mass_positive_definite(name, mode):
    pencil = make_pencil(CELLS[name], n=12, mode=mode)
    np.linalg.cholesky(pencil.G.toarray())  # raises if not PD
    WM = quadrature_weights(pencil)[:, None] * pencil.M.toarray()
    asym = np.abs(WM - WM.T).max()
    assert asym <= 1e-12 * np.abs(WM).max()
    np.linalg.cholesky(0.5 * (WM + WM.T))


@pytest.mark.parametrize("name", sorted(CELLS))
def test_pencil_matrices_are_sparse_csr(name):
    # every block is built from three-point stencils and closure rows; the
    # triplets come out in CSR's canonical order (sorted by row, then column,
    # repeated positions summed) with no stored zero
    for mode in (0, 1, 3):
        pencil = make_pencil(CELLS[name], n=32, mode=mode)
        sub = membrane_subpencil(CELLS[name], pencil.grid)
        for pen in (pencil, sub):
            for mat in (pen.M, pen.A, pen.G, pen.energy_forms.F, pen.dissipation_forms.F):
                assert isinstance(mat, TripletMatrix)
                assert mat.nnz <= 8 * pen.dim, (mode, mat.nnz, pen.dim)
                assert np.all(np.diff(mat.row * mat.shape[1] + mat.col) > 0), mode
                assert np.count_nonzero(mat.val) == mat.nnz, mode


@pytest.mark.parametrize("name", sorted(CELLS))
def test_triplet_products_match_scipys_csr_bit_for_bit(name):
    # a product sums each row's terms in CSR's order from zero, and F^T F
    # sums each entry over the factor's rows in increasing order, as
    # scipy.sparse does: states, form values and G read as they did with it
    rng = np.random.default_rng(12)
    for mode in (0, 3):
        for n in (16, 64):
            pencil = make_pencil(CELLS[name], n=n, mode=mode)
            w = rng.standard_normal(pencil.dim)
            for mat in (pencil.M, pencil.A, pencil.G):
                assert (mat @ w).tobytes() == (csr(mat) @ w).tobytes(), (mode, n)
            X = rng.standard_normal((pencil.dim, 64))
            for forms in (pencil.energy_forms, pencil.dissipation_forms):
                F = csr(forms.F)
                P = F @ X
                P *= P
                ref = np.array([P[rows].sum(axis=0) for rows in forms.rows.values()])
                assert forms.values(X).tobytes() == ref.tobytes(), (mode, n)
                gram = forms.F.gram()
                assert gram.toarray().tobytes() == (F.T @ F).toarray().tobytes(), (mode, n)
                assert np.count_nonzero(gram.val) == gram.nnz == (F.T @ F).nnz, (mode, n)
            G = pencil.G.toarray()
            assert G.tobytes() == pencil.energy_forms.F.gram().toarray().tobytes()
            assert (G == G.T).all(), (mode, n)


def test_definiteness_check_names_the_indefinite_matrix():
    pencil = make_pencil(CELLS["exp_rho_gamma"], n=12, mode=1)
    with pytest.raises(AssemblyError, match="^G is not positive definite for mode 1$"):
        gram_factor(dataclasses.replace(
            pencil, G=dataclasses.replace(pencil.G, val=-pencil.G.val), _cache={}))
    # a pencil that never went through assembly fails with the same named error
    with pytest.raises(AssemblyError, match="^G is not positive definite for mode 0$"):
        gram_factor(fake_pencil(np.eye(3), G=-np.eye(3)))


def test_an_overflowed_gram_matrix_is_named_before_its_factorization():
    # beta1 = 1e305 passes validation, but G = F^T F overflows
    grid = build_radial_grid(GEO, 16, 16, 0)
    with pytest.raises(AssemblyError, match="^G is not finite for mode 0$"):
        assemble_mode_pencil(PhysicalParams(beta1=1e305), grid)


def _dense_band(U):
    """Dense upper triangle of a LAPACK upper band array, U[i, j] at [band + i - j, j]."""
    band, n = len(U) - 1, U.shape[1]
    out = np.zeros((n, n))
    for d in range(band + 1):
        out[np.arange(n - d), np.arange(d, n)] = U[band - d, d:]
    return out


@pytest.mark.parametrize("name", sorted(CELLS))
def test_gram_factor_reproduces_g_and_its_similarity_keeps_the_spectrum(name):
    # U^T U = G, and the banded similarity the Schur form is taken of has the
    # spectrum of the dense-Cholesky one
    for n in (16, 64):
        for mode in (0, 1, 3):
            pencil = make_pencil(CELLS[name], n=n, mode=mode)
            U = gram_factor(pencil)
            G = pencil.G.toarray()
            Ud = _dense_band(U)
            err = np.abs(Ud.T @ Ud - G).max()
            assert err <= 1e-14 * np.abs(G).max(), (n, mode, err)
            lam = eigenvalues(pencil)
            ref = dense_similarity_eigenvalues_oracle(pencil.A.toarray(), pencil.M.toarray(), G)
            scale = np.abs(ref).max()
            dist = np.abs(lam[:, None] - ref[None, :])
            assert dist.min(axis=1).max() <= 1e-10 * scale, (n, mode)
            assert dist.min(axis=0).max() <= 1e-10 * scale, (n, mode)


def test_gram_factor_is_the_one_assembly_made():
    pencil = make_pencil(CELLS["poly"], n=16, mode=1)
    assert "gram_factor" in pencil._cache          # the definiteness check's factor
    U = gram_factor(pencil)
    fresh = dataclasses.replace(pencil, _cache={})
    np.testing.assert_array_equal(gram_factor(fresh), U)     # factored on first use


@pytest.mark.parametrize("name", sorted(CELLS))
def test_gram_is_banded_in_the_dof_order(name):
    # the only coupling between fields is the membrane's interface row, v[-1]
    # to u[0] and u[1], so in the FIELDS order G's factor needs no
    # permutation and three band rows, at every size
    for n in (16, 64, 400):
        for mode in (0, 1, 4):
            pencil = make_pencil(CELLS[name], n=n, mode=mode)
            U = gram_factor(pencil)
            assert U.shape == (3, pencil.dim), (n, mode)
            k, j = np.nonzero(U)
            Us = sparse.csr_array((U[k, j], (j + k - 2, j)), shape=(pencil.dim,) * 2)
            err = abs(Us.T @ Us - csr(pencil.G)).max()
            assert err <= 1e-14 * abs(pencil.G.val).max(), (n, mode, err)


def test_energy_forms_sum_to_gram():
    pencil = make_pencil(CELLS["exp_rho_gamma"], n=12, mode=2)
    rng = np.random.default_rng(4)
    w = rng.standard_normal(pencil.dim)
    total = sum(energy(pencil, w).values())
    assert abs(0.5 * (w @ (pencil.G @ w)) - total) <= 1e-13 * total
    # each family is one sparse factor over the pencil's dofs whose forms are
    # row ranges, each reading fewer than half of the dofs
    for forms, names in ((pencil.energy_forms, ENERGY_PARTS),
                         (pencil.dissipation_forms, DISSIPATION_CHANNELS)):
        assert tuple(forms.rows) == names
        assert isinstance(forms.F, TripletMatrix)
        assert forms.F.shape[1] == pencil.dim
        starts = [rows.start for rows in forms.rows.values()]
        assert starts[0] == 0 and np.all(np.diff(starts) > 0)
        blocks = [forms[name] for name in names]
        assert sum(F.shape[0] for F in blocks) == forms.F.shape[0]
        for name, F in zip(names, blocks):
            assert isinstance(F, TripletMatrix) and F.shape[1] == pencil.dim, name
            assert len(np.unique(F.col)) < pencil.dim // 2, name
    u, v = pencil.block("u"), pencil.block("v")
    np.testing.assert_array_equal(np.unique(pencil.energy_forms["E_mem_pot"].col),
                                  np.sort(np.r_[u.start, u.start + 1, np.arange(v.start, v.stop)]))


def test_gram_is_the_normal_matrix_of_the_energy_factor():
    pencil = make_pencil(CELLS["exp_rho_gamma"], n=12, mode=1)
    G = pencil.G.toarray()
    Phi = pencil.energy_forms.F.toarray()
    assert np.abs(G - Phi.T @ Phi).max() <= 1e-15 * np.abs(G).max()
    assert np.abs(G - G.T).max() == 0.0
    np.linalg.cholesky(G)


def test_forms_values_are_each_forms_sum_of_squares():
    pencil = make_pencil(CELLS["exp_rho_gamma"], n=12, mode=1)
    X = np.random.default_rng(6).standard_normal((pencil.dim, 6))
    for forms in (pencil.energy_forms, pencil.dissipation_forms):
        got = forms.values(X)
        assert got.shape == (len(forms.rows), 6)
        for k, name in enumerate(forms.rows):
            FX = forms[name] @ X
            np.testing.assert_allclose(got[k], (FX * FX).sum(axis=0), rtol=1e-13)


def test_a_form_with_no_rows_reads_zero_and_leaves_its_neighbours():
    one = lambda c: [(np.array([0]), np.array([c]), np.array([1.0 + c]))]
    X = np.array([[2.0, 3.0], [5.0, 7.0]])
    full = _stack_forms({"a": one(0), "b": one(1)}, 2).values(X)
    np.testing.assert_array_equal(full, [[4.0, 9.0], [4.0 * 25.0, 4.0 * 49.0]])
    for forms, empty in (({"a": one(0), "e": [], "b": one(1)}, 1),
                         ({"e": [], "a": one(0), "b": one(1)}, 0),
                         ({"a": one(0), "b": one(1), "e": []}, 2)):
        got = _stack_forms(forms, 2).values(X)
        np.testing.assert_array_equal(got[empty], [0.0, 0.0])
        np.testing.assert_array_equal(np.delete(got, empty, axis=0), full)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_a_and_m_are_the_weighted_duals_of_the_forms(name):
    # on (u_t, theta, v_t), the rows and columns the damping, the coupling
    # and the rotational inertia act on, sym(W A) is minus the dissipation
    # forms' sum and W M is G: one source for the energy identity, G and
    # the pencil
    for mode in (0, 1, 3):
        for n in (16, 64):
            pencil = make_pencil(CELLS[name], n=n, mode=mode)
            keep = np.concatenate([np.arange(pencil.dim)[pencil.block(f)]
                                   for f in ("u_t", "theta", "v_t")])
            sub = np.ix_(keep, keep)
            w = quadrature_weights(pencil)[keep]
            F = pencil.dissipation_forms.F
            WA = w[:, None] * pencil.A.toarray()[sub]
            WM = w[:, None] * pencil.M.toarray()[sub]
            for got, ref in ((0.5 * (WA + WA.T), -F.gram().toarray()[sub]),
                             (WM, pencil.G.toarray()[sub])):
                err = np.abs(got - ref).max()
                assert err <= 1e-15 * np.abs(ref).max(), (mode, n, err)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_factors_match_the_dense_reference_forms(name):
    # the dense blocks the forms were stored as before they became factors;
    # a diagonal form's rows are sqrt(c W), so its square meets the
    # reference's diagonal to 1e-15 relative and leaves the rest zero
    for mode in (0, 1, 3):
        for n in (16, 64):
            pencil = make_pencil(CELLS[name], n=n, mode=mode)
            ref = dense_forms_reference(pencil)
            for forms in (pencil.energy_forms, pencil.dissipation_forms):
                for part in forms.rows:
                    FtF = forms[part].gram().toarray()
                    err = np.abs(FtF - ref[part]).max()
                    assert err <= 1e-15 * np.abs(ref[part]).max(), (part, mode, n, err)
            for part in ("E_kin_plate", "E_thermal", "E_mem_kin", "D_membrane"):
                forms = pencil.energy_forms if part.startswith("E") else pencil.dissipation_forms
                FtF = forms[part].gram().toarray()
                np.testing.assert_array_equal(FtF - np.diag(np.diag(FtF)), 0.0)
                np.testing.assert_array_equal(ref[part] - np.diag(np.diag(ref[part])), 0.0)
            G = pencil.G.toarray()
            assert np.abs(G - G.T).max() == 0.0


def test_closed_stencils_fold_two_point_ghost_closures():
    grid = build_radial_grid(GEO, 16, 16, 1)
    inner, outer = (0.5, -0.25), (-0.125, 2.0)
    L = closed_laplacians(grid, {"u": (inner, outer)})["u"]
    # the dense fold of the (n, n+2) stencil
    S = dense_stencil(laplacian_mode(grid.plate_nodes, grid.h_plate, grid.mode), ghosts=True)
    ref = S[:, 1:-1].copy()
    ref[0, :2] += S[0, 0] * np.array(inner)
    ref[-1, -2:] += S[-1, -1] * np.array(outer)
    np.testing.assert_array_equal(dense_stencil(L), ref)


def test_assembly_memory_is_linear_in_n():
    # one dense n x n stencil is 33.6 MB at n = 2048; dense stencils peaked at 236 MB
    import tracemalloc

    pencil_module.flapack()    # LAPACK, loaded before tracing

    grid = build_radial_grid(GEO, 2048, 2048, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assemble_mode_pencil(CELLS["poly"], grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("name,end", [("v", "outer"), ("v", "inner"), ("u_t", "inner"),
                                      ("theta", "outer")])
def test_gradient_rejects_a_two_point_ghost_row_naming_field_and_end(monkeypatch, name, end):
    # a second ghost coefficient that _closed folds into the band, but that a
    # gradient factor with one coefficient per end would drop
    def two_point(p, grid):
        closures = make_closures(p, grid)
        inner, outer = closures[name]
        if end == "inner":
            inner = (inner[0], 0.25)
        else:
            outer = (0.25, outer[1])
        return {**closures, name: (inner, outer)}

    monkeypatch.setattr(pencil_module, "make_closures", two_point)
    with pytest.raises(AssemblyError, match=f"^the {end} ghost row of {name} reaches past"):
        make_pencil(n=16, mode=1)


def test_assembly_rejects_a_coefficient_no_sum_of_squares_can_carry():
    for name in ("gamma", "rho_damp", "beta0"):
        with pytest.raises(ValidationError, match=f"{name} must be "):
            make_pencil(PhysicalParams(**{name: -0.1}))


def test_gram_gamma_zero_velocity_block_is_weighted_identity():
    p = PhysicalParams(rho1=2.5, gamma=0.0)
    pencil = make_pencil(p, n=12)
    blk = blocks(pencil, pencil.G.toarray())["u_t"]
    expect = 2.5 * pencil.grid.plate_weights
    assert np.abs(np.diag(blk) - expect).max() <= 1e-15 * expect.max()
    np.testing.assert_array_equal(blk - np.diag(np.diag(blk)), 0.0)
    w = np.random.default_rng(5).standard_normal(pencil.dim)
    assert energy(pencil, w)["E_rot"] == 0.0


def test_closure_residuals_vanish_on_random_states():
    pencil = make_pencil(CELLS["exp_thermal"], n=16, mode=1)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(pencil.dim)
    scale = np.abs(w).max()
    for name, res in closure_residuals(pencil, w).items():
        assert res <= 1e-12 * scale, name


def test_interface_trace_is_shared_value():
    pencil = make_pencil(n=16)
    w = np.zeros(pencil.dim)
    u = w[pencil.block("u")]
    u[:] = 1.0  # constant plate displacement extrapolates to trace 1
    assert interface_trace(pencil, w) == pytest.approx(1.0)


def test_mode_sign_symmetry_bit_identical():
    for n in (1, 3):
        a = assemble_mode_pencil(CELLS["poly"], build_radial_grid(GEO, 12, 12, n))
        b = assemble_mode_pencil(CELLS["poly"], build_radial_grid(GEO, 12, 12, -n))
        np.testing.assert_array_equal(a.A.toarray(), b.A.toarray())
        np.testing.assert_array_equal(a.M.toarray(), b.M.toarray())
        np.testing.assert_array_equal(a.G.toarray(), b.G.toarray())


def test_conservative_limit_skew_without_dissipative_blocks():
    # mu = 0 decouples the temperature; dropping its rows/columns leaves the
    # undamped plate+membrane pair, whose generator must be G-skew to round-off
    p = PhysicalParams(mu=0.0)
    pencil = make_pencil(p, n=16, mode=1)
    keep = np.r_[np.arange(*pencil.block("u").indices(pencil.dim)),
                 np.arange(*pencil.block("u_t").indices(pencil.dim)),
                 np.arange(*pencil.block("v").indices(pencil.dim)),
                 np.arange(*pencil.block("v_t").indices(pencil.dim))]
    A = pencil.A.toarray()[np.ix_(keep, keep)]
    M = pencil.M.toarray()[np.ix_(keep, keep)]
    G = pencil.G.toarray()[np.ix_(keep, keep)]
    H = G @ np.linalg.solve(M, A)
    sym = 0.5 * (H + H.T)
    assert np.abs(sym).max() <= 1e-10 * np.abs(H).max()


def test_full_generator_dissipative_in_energy_metric():
    import scipy.linalg as sla
    for name, p in CELLS.items():
        pencil = make_pencil(p, n=12, mode=1)
        G = pencil.G.toarray()
        H = G @ np.linalg.solve(pencil.M.toarray(), pencil.A.toarray())
        top = sla.eigh(0.5 * (H + H.T), G, eigvals_only=True)[-1]
        assert top <= 1e-9, name


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("mode", [0, 1, 3])
def test_frozen_plate_membrane_block_is_the_dirichlet_build(mode, n):
    # with u = 0 the interface half-edge of E_mem_pot acts on v alone, and
    # must reproduce the closed Dirichlet stencil and its weighted form
    p = PhysicalParams(beta2=1.7, m_damp=1.0)
    pencil = make_pencil(p, n=n, mode=mode)
    v, vt = pencil.block("v"), pencil.block("v_t")
    L = dense_stencil(closed_laplacians(pencil.grid, make_closures(p, pencil.grid))["v"])
    A = pencil.A.toarray()[vt, v]
    assert np.abs(A - p.beta2 * L).max() <= 1e-15 * np.abs(A).max()
    K = -(pencil.grid.membrane_weights[:, None] * L)
    G = pencil.G.toarray()[v, v]
    assert np.abs(G - p.beta2 * 0.5 * (K + K.T)).max() <= 1e-15 * np.abs(G).max()


def test_membrane_subpencil_dirichlet_structure():
    grid = build_radial_grid(GEO, 8, 32, 0)
    sub = membrane_subpencil(PhysicalParams(), grid)
    assert sub.dim == 64
    np.linalg.cholesky(sub.G.toarray())
    H = sub.G.toarray() @ np.linalg.solve(sub.M.toarray(), sub.A.toarray())
    assert np.abs(H + H.T).max() <= 1e-10 * np.abs(H).max()


def test_unknown_field_is_named_with_the_known_ones():
    pencil = make_pencil(n=8)
    with pytest.raises(KeyError, match=r"unknown field 'w'; expected one of "
                                       r"\('u_t', 'v', 'u', 'v_t', 'theta'\)"):
        pencil.block("w")
    sub = membrane_subpencil(PhysicalParams(), build_radial_grid(GEO, 8, 8, 0))
    with pytest.raises(KeyError, match=r"unknown field 'u'; expected one of \('v', 'v_t'\)"):
        sub.block("u")


def test_a_pencil_reads_its_mode_from_its_grid():
    pencil = make_pencil(n=8, mode=3)
    assert pencil.mode == 3
    assert dataclasses.replace(pencil, grid=build_radial_grid(GEO, 8, 8, 5)).mode == 5
    with pytest.raises(TypeError, match="mode"):
        dataclasses.replace(pencil, mode=3)


@pytest.mark.parametrize("rows", [
    [[1.0, 1.0], [1.0, 1.0]],                 # a zero pivot
    [[1.0, 1e308], [0.5, -1.5e308]],          # finite entries, an overflowing factor
])
def test_band_lu_raises_on_a_singular_or_non_finite_factor(rows):
    with pytest.raises(np.linalg.LinAlgError, match="singular band matrix"):
        pencil_module.band_lu(triplets(rows))


@pytest.mark.parametrize("mode", [0, 1, 3])
def test_gram_factor_matches_scipys_cholesky_banded_bit_for_bit(mode):
    from scipy.linalg import cholesky_banded

    pencil = make_pencil(CELLS["poly"], n=32, mode=mode)
    ref = cholesky_banded(pencil_module._band_storage(triplets(np.triu(pencil.G.toarray())))[0])
    got = gram_factor(pencil)
    assert got.tobytes() == ref.tobytes() and got.flags.f_contiguous == ref.flags.f_contiguous


@pytest.mark.parametrize("setting, low, high", [("beta2 = 1e305", "beta1 = 1", "beta2 = 1e+305"),
                                                ("beta1 = 1e-305", "beta1 = 1e-305", "rho2 = 1")])
def test_gram_factor_names_the_scale_gap_of_a_positive_diagonal(setting, low, high):
    # G = F^T F is finite and positive definite there; the banded Cholesky fails
    # on the 305 decades between blocks, and the error says so
    name, value = setting.split(" = ")
    with pytest.raises(AssemblyError, match=(
            "^G's Cholesky factorization failed for mode 0 with a positive diagonal, "
            "\\S+ to \\S+: its material constants span 305 decades "
            + re.escape(f"({low}, {high})") + "$")):
        make_pencil(PhysicalParams(**{name: float(value)}), n=16, mode=0)


def test_gram_factor_names_an_indefinite_g_with_a_positive_diagonal():
    # the diagonal alone does not make G positive definite, and default
    # constants span too few decades to explain a failure
    G = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(AssemblyError, match="^G is not positive definite for mode 0$"):
        gram_factor(fake_pencil(np.eye(2), G=G))


def test_gram_quadrature_converges_on_transmission_state():
    # nonzero shared interface value exercises the u=v coupling inside G;
    # a closure mistake there (pinned or double-counted trace) diverges as 1/h
    sp = pytest.importorskip("sympy")
    r, s = sp.symbols("r s", positive=True)
    u = (2 - r) ** 2 * (1 + 2 * (r - 1))       # u(1) = 1, clamped at 2, u'(1) = 0
    w2 = (2 - r) * (r - 1) ** 2
    th = (r - 1) * (2 - r)
    v = 1 + sp.Rational(7, 10) * (1 - s**2)    # v(1) = 1 = u(1)
    w5 = (1 - s**2) / 3
    lap = lambda f, x: sp.diff(f, x, 2) + sp.diff(f, x) / x
    p = PhysicalParams(m_damp=1.0, rho_damp=1.0, gamma=0.8)
    two_e = float(
        p.beta1 * sp.integrate(lap(u, r) ** 2 * 2 * sp.pi * r, (r, 1, 2))
        + p.rho1 * sp.integrate(w2**2 * 2 * sp.pi * r, (r, 1, 2))
        + p.gamma * sp.integrate(sp.diff(w2, r) ** 2 * 2 * sp.pi * r, (r, 1, 2))
        + p.rho0 * sp.integrate(th**2 * 2 * sp.pi * r, (r, 1, 2))
        + p.beta2 * sp.integrate(sp.diff(v, s) ** 2 * 2 * sp.pi * s, (s, 0, 1))
        + p.rho2 * sp.integrate(w5**2 * 2 * sp.pi * s, (s, 0, 1)))
    fns = [sp.lambdify(x, f, "numpy") for f, x in
           ((u, r), (w2, r), (th, r), (v, s), (w5, s))]
    errs = []
    for n in (16, 32, 64):
        grid = build_radial_grid(GEO, n, n, 0)
        pencil = assemble_mode_pencil(p, grid)
        w = layout_state(pencil, {
            name: fn(grid.membrane_nodes if name in MEMBRANE_FIELDS else grid.plate_nodes)
            for name, fn in zip(("u", "u_t", "theta", "v", "v_t"), fns)})
        errs.append(abs(float(w @ (pencil.G @ w)) - two_e))
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5, errs


def test_mesh_refinement_interior_order_at_least_two():
    sympy = pytest.importorskip("sympy")
    f = _manufactured_quintuple(sympy, mode=0,
                                p=PhysicalParams(m_damp=1.0, rho_damp=1.0, gamma=0.5))
    errs = {}
    for n in (32, 64, 128):
        p = PhysicalParams(m_damp=1.0, rho_damp=1.0, gamma=0.5)
        grid = build_radial_grid(GEO, n, n, 0)
        pencil = assemble_mode_pencil(p, grid)
        on_nodes = lambda keys: layout_state(pencil, {
            name: f[key](grid.membrane_nodes if name in MEMBRANE_FIELDS else grid.plate_nodes)
            for name, key in zip(("u", "u_t", "theta", "v", "v_t"), keys)})
        Aw = pencil.A @ on_nodes(("u", "w2", "th", "v", "w5"))
        ref = on_nodes(("r1", "r2", "r3", "r4", "r5"))
        err = 0.0
        win_p = (grid.plate_nodes > 1.25) & (grid.plate_nodes < 1.75)
        win_m = (grid.membrane_nodes > 0.2) & (grid.membrane_nodes < 0.8)
        for block, win in (("u", win_p), ("u_t", win_p), ("theta", win_p),
                           ("v", win_m), ("v_t", win_m)):
            seg = Aw[pencil.block(block)][win] - ref[pencil.block(block)][win]
            err = max(err, np.abs(seg).max())
        errs[n] = err
    order1 = np.log2(errs[32] / errs[64])
    order2 = np.log2(errs[64] / errs[128])
    assert order1 >= 1.9 and order2 >= 1.9, errs


def _manufactured_quintuple(sp, mode, p):
    """Smooth quintuple satisfying all boundary/transmission conditions,
    plus the analytic generator image, as numpy callables."""
    r, s = sp.symbols("r s", positive=True)
    ri, ro = sp.Integer(1), sp.Integer(2)
    n = mode
    lap = lambda f, x: sp.diff(f, x, 2) + sp.diff(f, x) / x - n**2 * f / x**2

    u = (ro - r) ** 2 * (r - ri) ** 2 * (1 + r / 7)
    a, b = sp.symbols("a b")
    th = (r - ri) * (1 + a * (r - ri) + b * (r - ri) ** 2)
    robin = (sp.diff(th, r) + sp.Rational(p.kappa) * th).subs(r, ro)
    th = th.subs(b, sp.solve(robin, b)[0]).subs(a, sp.Rational(1, 3))
    c = sp.symbols("c")
    v = s ** n * (ri**2 - s**2) * (1 + c)
    balance = (p.beta1 * sp.diff(lap(u, r), r).subs(r, ri)
               + p.beta2 * sp.diff(v, s).subs(s, ri)
               + p.mu * sp.diff(th, r).subs(r, ri))
    v = v.subs(c, sp.solve(balance, c)[0])
    w2 = (ro - r) * (r - ri) ** 2
    w5 = s ** n * (ri**2 - s**2) / 3

    rows = {
        "r1": (w2, r),
        "r2": (-p.beta1 * lap(lap(u, r), r) + p.rho_damp * lap(w2, r) - p.mu * lap(th, r), r),
        "r3": (p.mu * lap(w2, r) + p.beta0 * lap(th, r), r),
        "r4": (w5, s),
        "r5": (p.beta2 * lap(v, s) - p.m_damp * w5, s),
    }
    out = {}
    for name, expr, x in (("u", u, r), ("w2", w2, r), ("th", th, r),
                          ("v", v, s), ("w5", w5, s)):
        out[name] = sp.lambdify(x, expr, "numpy")
    for name, (expr, x) in rows.items():
        out[name] = sp.lambdify(x, expr, "numpy")
    return out
