import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from platemem import (AnnulusGeometry, PhysicalParams, assemble_mode_pencil,
                      build_radial_grid, default_dt, dissipation, energy, graph_norm,
                      make_initial_data, parse_config, pencil_dissipation,
                      project_resolvable, simulate, step_crank_nicolson)
from platemem import cli, semigroup
from platemem.pencil import DISSIPATION_CHANNELS, ENERGY_PARTS, _band_storage, node_order
from platemem.semigroup import (BLOCK_STEPS, DENSE_STEP_DIM, MAX_STEPS, MIN_DEFAULT_STEPS,
                                 PROFILES, TRACE_ROWS, final_state)

from oracles import (expm_series_squaring, fake_pencil, matrix_exponential_reference,
                     membrane_subpencil)
from test_pencil import CELLS

GEO = AnnulusGeometry()


def make_pencil(p=PhysicalParams(m_damp=1.0, rho_damp=1.0), n=12, mode=0):
    return assemble_mode_pencil(p, build_radial_grid(GEO, n, n, mode))


def test_zero_state_stays_zero():
    pencil = make_pencil()
    out = step_crank_nicolson(pencil, np.zeros(pencil.dim), 1e-2)
    assert np.all(out == 0.0)


def test_zero_generator_is_identity_propagator():
    pencil = fake_pencil(np.zeros((6, 6)))
    w = np.arange(6.0)
    out = step_crank_nicolson(pencil, w, 0.3)
    np.testing.assert_allclose(out, w, rtol=0, atol=0)


def test_singular_trapezoidal_matrix_is_named():
    # M - dt/2 A = [[1, 1], [1, 1]]: the band LU meets a zero pivot
    pencil = fake_pencil(np.array([[0.0, -4.0], [-4.0, 0.0]]))
    with pytest.raises(RuntimeError, match="^singular trapezoidal matrix for dt=0.5$"):
        step_crank_nicolson(pencil, np.ones(2), 0.5)


STATE_ENTRY_POINTS = {
    "energy": energy,
    "dissipation": dissipation,
    "pencil_dissipation": pencil_dissipation,
    "graph_norm": graph_norm,
    "step_crank_nicolson": lambda pencil, w: step_crank_nicolson(pencil, w, 0.1),
    "simulate": lambda pencil, w: simulate(pencil, w, 0.1, 0.2),
    "final_state": lambda pencil, w: final_state(pencil, w, 0.1, 0.2),
    # every mode of make_pencil() is damped, so only the check stands between
    # a bad state and the projection's no-op
    "project_resolvable": project_resolvable,
}


@pytest.mark.parametrize("name", sorted(STATE_ENTRY_POINTS))
def test_complex_state_is_rejected_by_name(name):
    # the pencil is real, so a complex solution is two real runs; a complex
    # array is refused even when its imaginary part is zero, never truncated
    pencil = make_pencil()
    x, y = np.random.default_rng(8).standard_normal((2, pencil.dim))
    for w in (x + 1j * y, x.astype(complex)):
        with pytest.raises(ValueError, match="^states are real: a complex solution"):
            STATE_ENTRY_POINTS[name](pencil, w)


@pytest.mark.parametrize("name", sorted(STATE_ENTRY_POINTS))
def test_wrong_length_state_is_rejected_by_name(name):
    pencil = make_pencil()
    with pytest.raises(ValueError, match=f"^state length \\(5,\\) does not match "
                                         f"pencil dimension {pencil.dim}$"):
        STATE_ENTRY_POINTS[name](pencil, np.ones(5))


def test_projection_checks_its_state_before_it_projects():
    # mode 2 of the undamped membrane has undamped artifacts, so the
    # projection is not a no-op
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=32, mode=2)
    w = make_initial_data(pencil, "rough")
    with pytest.raises(ValueError, match="^states are real: a complex solution"):
        project_resolvable(pencil, w + 1j * w)
    with pytest.raises(ValueError, match="^state length \\(5,\\) does not match"):
        project_resolvable(pencil, np.ones(5))


def test_every_state_producer_returns_float64():
    pencil = make_pencil()
    states = {profile: make_initial_data(pencil, profile, seed=2) for profile in PROFILES}
    states["step_crank_nicolson"] = step_crank_nicolson(pencil, states["rough"], 0.1)
    states["final_state"] = final_state(pencil, states["rough"], 0.1, 0.2)
    # mode 2 with undamped artifacts, so the projection is not a no-op
    undamped = make_pencil(PhysicalParams(rho_damp=1.0), n=32, mode=2)
    w = make_initial_data(undamped, "rough")
    states["project_resolvable"] = project_resolvable(undamped, w)
    assert not np.array_equal(states["project_resolvable"], w)
    cfg = parse_config("n_plate = 12\nn_mem = 12\nprofiles = plate_bump,rough\nseed = 3\n")
    states["cli._initial"] = cli._initial(pencil, cfg)
    for name, state in states.items():
        assert state.dtype == np.float64 and state.ndim == 1, name


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0])
def test_single_step_names_a_non_positive_or_non_finite_dt(dt):
    pencil = make_pencil()
    with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {dt}$"):
        step_crank_nicolson(pencil, np.zeros(pencil.dim), dt)


def test_dimension_mismatch_rejected():
    pencil = make_pencil()
    with pytest.raises(ValueError, match="dimension"):
        step_crank_nicolson(pencil, np.zeros(3), 1e-2)
    with pytest.raises(ValueError, match="dt"):
        step_crank_nicolson(pencil, np.zeros(pencil.dim), -0.1)
    for bad in (np.nan, np.inf):
        w = np.zeros(pencil.dim)
        w[3] = bad
        for call in (energy, lambda pen, s: simulate(pen, s, 0.1, 0.2)):
            with pytest.raises(ValueError, match="non-finite"):
                call(pencil, w)


def test_energy_zero_state():
    pencil = make_pencil()
    rep = energy(pencil, np.zeros(pencil.dim))
    assert rep.total == 0.0
    assert all(v == 0.0 for v in rep.breakdown.values())


def test_energy_theta_only_state():
    pencil = make_pencil()
    w = np.zeros(pencil.dim)
    th = pencil.block("theta")
    w[th] = 1.0
    rep = energy(pencil, w)
    expect = 0.5 * pencil.params.rho0 * float(pencil.grid.plate_weights.sum())
    assert rep.total == pytest.approx(expect, rel=1e-13)
    assert rep.breakdown["E_thermal"] == pytest.approx(expect, rel=1e-13)
    for k, v in rep.breakdown.items():
        if k != "E_thermal":
            assert v == 0.0


def test_energy_components_sum_and_gamma_zero_has_no_rotational_term():
    pencil = make_pencil(PhysicalParams(gamma=0.0, m_damp=1.0))
    rng = np.random.default_rng(0)
    w = rng.standard_normal(pencil.dim)
    rep = energy(pencil, w)
    assert rep.breakdown["E_rot"] == 0.0
    assert sum(rep.breakdown.values()) == pytest.approx(rep.total, rel=1e-12)


def test_dissipation_channels_zero_cases():
    pencil = make_pencil(PhysicalParams(rho_damp=0.0, m_damp=0.0, mu=1.0))
    rng = np.random.default_rng(1)
    w = rng.standard_normal(pencil.dim)
    ch = dissipation(pencil, w).breakdown
    assert ch["D_struct"] == 0.0 and ch["D_membrane"] == 0.0
    zero = dissipation(pencil, np.zeros(pencil.dim))
    assert list(zero.breakdown.values()) == [0.0, 0.0, 0.0, 0.0] and zero.total == 0.0


def test_dissipation_linear_theta_profile_heats_bulk_and_boundary():
    pencil = make_pencil(n=64)
    w = np.zeros(pencil.dim)
    th = pencil.block("theta")
    w[th] = pencil.grid.plate_nodes - pencil.grid.r_interface  # vanishes at interface
    ch = dissipation(pencil, w).breakdown
    assert ch["D_thermal_bulk"] > 0.0
    assert ch["D_thermal_bdry"] > 0.0
    # direct quadrature of beta0 |grad theta|^2 = beta0 * 2 pi (r_out^2-r_in^2)/2
    # and beta0 kappa 2 pi r_out theta(r_out)^2 for theta = r - r_in
    p, g = pencil.params, pencil.grid
    bulk = p.beta0 * np.pi * (g.r_outer**2 - g.r_interface**2)
    bdry = p.beta0 * p.kappa * 2.0 * np.pi * g.r_outer * (g.r_outer - g.r_interface)**2
    assert ch["D_thermal_bulk"] == pytest.approx(bulk, rel=5e-2)
    assert ch["D_thermal_bdry"] == pytest.approx(bdry, rel=5e-2)


def test_dissipation_channels_match_pencil_form_exactly():
    for p in (PhysicalParams(m_damp=1.0, rho_damp=1.0, gamma=1.0),
              PhysicalParams(rho_damp=1.0), PhysicalParams()):
        pencil = make_pencil(p, n=10, mode=2)
        rng = np.random.default_rng(5)
        w = rng.standard_normal(pencil.dim)
        channels = dissipation(pencil, w)
        scale = max(abs(pencil_dissipation(pencil, w)), 1.0)
        assert abs(pencil_dissipation(pencil, w) - channels.total) <= 1e-10 * scale


def test_dissipation_evaluations_agree_along_refined_trajectories():
    # the pencil-consistent form and the physical four channels agree to
    # round-off here, so the mismatch stays at zero under (h, dt) refinement
    p = PhysicalParams(m_damp=1.0, rho_damp=1.0)
    for n, dt in ((8, 2e-2), (16, 1e-2)):
        pencil = make_pencil(p, n=n)
        st = make_initial_data(pencil, "plate_bump")
        worst = 0.0
        for _ in range(40):
            nxt = step_crank_nicolson(pencil, st, dt)
            mid = 0.5 * (st + nxt)
            mismatch = abs(pencil_dissipation(pencil, mid) - dissipation(pencil, mid).total)
            worst = max(worst, mismatch)
            st = nxt
        assert worst <= 1e-10 * energy(pencil, st).total / dt + 1e-13


def test_simulate_residual_identity_and_monotonicity():
    pencil = make_pencil(PhysicalParams(m_damp=1.0, rho_damp=1.0), n=16)
    real = make_initial_data(pencil, "plate_bump")
    mixed = real + make_initial_data(pencil, "rough", seed=3)
    dt, steps = 1e-2, 2 * BLOCK_STEPS + 3        # two full bookkeeping blocks and a partial one
    for state, t_end in ((real, 20.0), (mixed, steps * dt)):
        trace = simulate(pencil, state, dt, t_end)
        e0 = trace.energy[0]
        assert np.abs(trace.residuals).max() <= 1e-10 * e0 / dt
        assert np.all(np.diff(trace.energy) <= 1e-10 * e0)
        assert trace.energy[-1] < trace.energy[0]

    # every trace column equals the one-state evaluations along step_crank_nicolson
    states = [mixed]
    for _ in range(steps):
        states.append(step_crank_nicolson(pencil, states[-1], dt))
    reports = [energy(pencil, st) for st in states]
    channels = [dissipation(pencil, st) for st in states]
    d_mid = [dissipation(pencil, 0.5 * (a + b)).total for a, b in zip(states, states[1:])]
    assert trace.values.shape == (len(TRACE_ROWS), steps + 1)
    np.testing.assert_array_equal(trace["energy"], trace.energy)
    columns = [(trace.energy, [r.total for r in reports]),
               (trace.residuals[1:] - np.diff(trace.energy) / dt, d_mid)]
    columns += [(trace[k], [r.breakdown[k] for r in reports]) for k in ENERGY_PARTS]
    columns += [(trace[k], [c.breakdown[k] for c in channels]) for k in DISSIPATION_CHANNELS]
    # relative to each column's largest value: a decayed state's forms lose
    # digits to the conditioning of the stiffness blocks, not to the batching
    for got, want in columns:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("rows, cols", [("u_t", "u_t"), ("theta", "theta"), ("v_t", "v_t"),
                                        ("u_t", "theta")])
def test_residual_catches_a_block_of_a_off_its_dual(rows, cols):
    # Crank-Nicolson meets the pencil's own identity for any A, so only the
    # energy law through the dissipation channels can see a damping or
    # coupling block scaled off the forms' dual
    pencil = make_pencil(PhysicalParams(m_damp=1.0, rho_damp=1.0), n=16, mode=1)
    state = sum(make_initial_data(pencil, profile)
                for profile in ("plate_bump", "membrane_bump", "thermal_pulse"))
    dt, t_end = 1e-2, 0.5
    A = pencil.A.tocoo()
    r, c = pencil.block(rows), pencil.block(cols)
    inside = (A.row >= r.start) & (A.row < r.stop) & (A.col >= c.start) & (A.col < c.stop)
    assert inside.any()
    off = sparse.csr_array((np.where(inside, (1.0 + 1e-6) * A.data, A.data), (A.row, A.col)),
                           shape=A.shape)
    for A, caught in ((pencil.A, False), (off, True)):
        trace = simulate(dataclasses.replace(pencil, A=A, _cache={}), state, dt, t_end)
        bound = 1e-10 * trace.energy[0] / dt
        assert (np.abs(trace.residuals).max() > bound) == caught


def test_unknown_row_or_form_name_is_a_key_error():
    pencil = make_pencil(n=8)
    trace = simulate(pencil, make_initial_data(pencil, "plate_bump"), 0.1, 0.2)
    for lookup, name, known in ((trace.__getitem__, "D_memb", "D_membrane"),
                                (pencil.energy_forms.__getitem__, "E_kin", "E_kin_plate"),
                                (pencil.dissipation_forms.__getitem__, "E_bend", "D_struct")):
        with pytest.raises(KeyError, match=f"'{name}'.*'{known}'"):
            lookup(name)


def test_simulate_raises_on_non_finite_trace():
    # finite states whose energy (2e154) or first midpoint dissipation (1e154)
    # overflows: simulate used to return nan energies and residuals silently
    pencil = make_pencil(PhysicalParams(m_damp=1.0, rho_damp=1.0), n=16, mode=1)
    for scale, step in ((2e154, 0), (1e154, 1)):
        state = scale * make_initial_data(pencil, "plate_bump")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"non-finite .* at step {step}$"):
                simulate(pencil, state, 1e-2, 0.2)


def test_simulate_names_the_step_of_a_non_finite_state(monkeypatch):
    # a NaN in the state at step 70, inside the second bookkeeping block
    cn_states = semigroup._cn_states

    def poisoned(*args):
        for k, X in enumerate(cn_states(*args), 1):
            if k == 70:
                X = X.copy()
                X[5, 0] = np.nan
            yield X

    monkeypatch.setattr(semigroup, "_cn_states", poisoned)
    pencil = make_pencil(n=16, mode=1)
    with pytest.raises(ValueError, match="non-finite .* at step 70$"):
        simulate(pencil, make_initial_data(pencil, "plate_bump"), 1e-2, 1.0)


def test_rough_initial_data_memory_is_linear_in_n():
    # one dense n x n array is 8.4 MB at n = 1024; the state itself is 41 kB
    pencil = make_pencil(PhysicalParams(rho_damp=1.0), n=1024, mode=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        make_initial_data(pencil, "rough")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, f"peak {peak / 1e6:.2f} MB"


def test_simulate_memory_is_one_block_not_the_trajectory():
    pencil = make_pencil(PhysicalParams(m_damp=1.0, rho_damp=1.0), n=64, mode=1)  # dim 320
    state = make_initial_data(pencil, "rough")
    dt, steps = 1e-2, 4000
    simulate(pencil, state, dt, dt)             # caches the CN and M factorizations
    tracemalloc.start()
    try:
        simulate(pencil, state, dt, steps * dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a stored trajectory alone would be (steps + 1) * dim * 8 B = 10.2 MB
    assert peak <= 4e6, f"peak {peak / 1e6:.2f} MB"


def test_membrane_only_undamped_conserves_energy():
    grid = build_radial_grid(GEO, 8, 24, 0)
    sub = membrane_subpencil(PhysicalParams(m_damp=0.0), grid)
    rng = np.random.default_rng(2)
    st = rng.standard_normal(sub.dim)
    trace = simulate(sub, st, 1e-3, 1.0)  # one thousand steps
    e0 = trace.energy[0]
    assert np.abs(trace.energy - e0).max() <= 1e-10 * e0


def test_decoupled_conservative_limit_energy_constant():
    # rho = m = mu = 0 with the temperature dropped: pure plate + membrane
    import scipy.linalg as sla
    pencil = make_pencil(PhysicalParams(mu=0.0), n=16)
    keep = np.r_[np.arange(*pencil.block("u").indices(pencil.dim)),
                 np.arange(*pencil.block("u_t").indices(pencil.dim)),
                 np.arange(*pencil.block("v").indices(pencil.dim)),
                 np.arange(*pencil.block("v_t").indices(pencil.dim))]
    A = pencil.A.toarray()[np.ix_(keep, keep)]
    M = pencil.M.toarray()[np.ix_(keep, keep)]
    G = pencil.G.toarray()[np.ix_(keep, keep)]
    dt = 1e-2
    lu = sla.lu_factor(M - 0.5 * dt * A)
    Mp = M + 0.5 * dt * A
    rng = np.random.default_rng(6)
    w = rng.standard_normal(len(keep))
    e0 = w @ (G @ w)
    for _ in range(500):
        w = sla.lu_solve(lu, Mp @ w)
    assert abs(w @ (G @ w) - e0) <= 1e-10 * e0


def test_simulate_linearity_in_energy():
    pencil = make_pencil(n=10)
    state = make_initial_data(pencil, "membrane_bump")
    tr1 = simulate(pencil, state, 1e-2, 0.5)
    scaled = 3.0 * state
    tr3 = simulate(pencil, scaled, 1e-2, 0.5)
    np.testing.assert_allclose(tr3.energy, 9.0 * tr1.energy, rtol=1e-12)


def test_final_state_matches_last_simulated_energy():
    pencil = make_pencil(n=10)
    state = make_initial_data(pencil, "plate_bump")
    trace = simulate(pencil, state, 1e-2, 0.5)
    last = energy(pencil, final_state(pencil, state, 1e-2, 0.5)).total
    assert last == pytest.approx(trace.energy[-1], rel=1e-12)


def test_dense_and_sparse_steps_agree(monkeypatch):
    # gamma > 0 couples u_t through M, so M is not diagonal; two bookkeeping
    # blocks on the dense propagator and on the band LU and product
    p = PhysicalParams(m_damp=1.0, rho_damp=1.0, gamma=1.0)
    state = make_initial_data(make_pencil(p, n=16, mode=1), "rough", seed=3)
    dt, t_end = 1e-2, 2 * BLOCK_STEPS * 1e-2
    runs = []
    for cap in (DENSE_STEP_DIM, 0):
        monkeypatch.setattr(semigroup, "DENSE_STEP_DIM", cap)
        pencil = make_pencil(p, n=16, mode=1)
        trace = simulate(pencil, state, dt, t_end)
        assert (semigroup._cn_factorization(pencil, dt)[0] is None) == (cap > 0)
        assert np.abs(trace.residuals).max() <= 1e-10 * trace.energy[0] / dt
        assert np.all(np.diff(trace.energy) <= 1e-10 * trace.energy[0])
        runs.append((trace, final_state(pencil, state, dt, t_end)))
    (dense, w_dense), (sparse_, w_sparse) = runs
    assert np.linalg.norm(w_dense - w_sparse) <= 1e-11 * np.linalg.norm(w_sparse)
    np.testing.assert_allclose(dense.values, sparse_.values, rtol=1e-11,
                               atol=1e-11 * dense.energy[0])


@pytest.mark.parametrize("name", sorted(CELLS))
def test_a_step_is_the_dense_trapezoidal_solve(name):
    # on both paths, the dense propagator at n = 16 (dim 80) and the band LU
    # at n = 64 (dim 320).  The worst relative errors over the six cells,
    # modes {0, 1, 4} and dt {0.01, 0.1} were 1.2e-12 and 1.7e-11, those of
    # the unequilibrated dense solve: the former sparse LU read the same
    for n, bound in ((16, 1e-11), (64, 1e-10)):
        for mode in (0, 1, 4):
            pencil = make_pencil(CELLS[name], n=n, mode=mode)
            M, A = pencil.M.toarray(), pencil.A.toarray()
            w = make_initial_data(pencil, "rough", seed=mode)
            for dt in (0.01, 0.1):
                solve, _ = semigroup._cn_factorization(pencil, dt)
                assert (solve is None) == (pencil.dim <= DENSE_STEP_DIM)
                ref = np.linalg.solve(M - 0.5 * dt * A, (M + 0.5 * dt * A) @ w)
                err = np.linalg.norm(step_crank_nicolson(pencil, w, dt) - ref)
                assert err <= bound * np.linalg.norm(ref), (n, mode, dt, err)


def test_cn_matrix_band_in_node_order_does_not_grow_with_n():
    # a generator couples nodes at most two apart, and v[-1] sits next to u[0]
    bands = set()
    for n in (16, 64, 400):
        for name in sorted(CELLS):
            for mode in (0, 1, 4):
                pencil = make_pencil(CELLS[name], n=n, mode=mode)
                order = node_order(pencil)
                assert sorted(order) == list(range(pencil.dim))
                Mm = (pencil.M - 0.05 * pencil.A).tocsr()[order][:, order]
                bands.add(_band_storage(Mm)[1:])
    assert bands == {(7, 5)}


@pytest.mark.parametrize("n_plate, n_mem, dense", [(51, 51, True), (51, 52, False)])
def test_dense_step_up_to_its_cap(n_plate, n_mem, dense):
    pencil = assemble_mode_pencil(PhysicalParams(m_damp=1.0, rho_damp=1.0),
                                  build_radial_grid(GEO, n_plate, n_mem, 1))
    assert pencil.dim == (255 if dense else 257)
    lu, step = semigroup._cn_factorization(pencil, 1e-2)
    assert (lu is None) == dense
    assert isinstance(step, np.ndarray) == dense


def test_non_integral_step_count_rejected():
    pencil = make_pencil(n=8)
    state = make_initial_data(pencil, "plate_bump")
    for run in (simulate, final_state):
        with pytest.raises(ValueError, match=r"t_end=0\.0015 .* dt=0\.001"):
            run(pencil, state, 1e-3, 0.0015)
        with pytest.raises(ValueError, match=r"t_end=0\.0001 .* dt=0\.001"):
            run(pencil, state, 1e-3, 1e-4)


def test_non_finite_or_capped_step_counts_are_named():
    pencil = make_pencil(n=8)
    state = make_initial_data(pencil, "plate_bump")
    for run in (simulate, final_state):
        for dt, t_end in ((np.nan, 1.0), (0.1, np.nan), (np.inf, 1.0), (0.1, np.inf)):
            with pytest.raises(ValueError, match=f"dt={dt!r} and t_end={t_end!r} must be finite"):
                run(pencil, state, dt, t_end)
        with pytest.raises(ValueError, match=r"^dt must be positive, got -0\.1$"):
            run(pencil, state, -0.1, 1.0)
        with pytest.raises(ValueError, match=r"^t_end must be positive, got -1\.0$"):
            run(pencil, state, 0.1, -1.0)
        with pytest.raises(ValueError, match=r"t_end=1e\+300 / dt=1e-300 is inf steps"):
            run(pencil, state, 1e-300, 1e300)
        with pytest.raises(ValueError, match=f"t_end=1.0 / dt={1.0 / (MAX_STEPS + 1)!r} is "
                                             f".* steps, above the cap of {MAX_STEPS}"):
            run(pencil, state, 1.0 / (MAX_STEPS + 1), 1.0)


def test_default_dt_divides_t_end():
    pencil = make_pencil(n=64)  # heuristic step 1e-3 (the floor)
    assert default_dt(pencil, 0.0015) == 0.0015 / MIN_DEFAULT_STEPS
    assert default_dt(pencil, 1e-4) == 1e-4 / MIN_DEFAULT_STEPS
    assert default_dt(pencil, 1.0) == 1.0 / 1000      # the heuristic step
    assert default_dt(pencil, 50.0) == 50.0 / 20000   # step cap
    assert default_dt(pencil, 1e308) == 1e308 / 20000  # t_end / dt overflows
    assert len(simulate(pencil, make_initial_data(pencil, "plate_bump"),
                        default_dt(pencil, 0.0015), 0.0015).times) == MIN_DEFAULT_STEPS + 1


def test_crank_nicolson_vs_matrix_exponential_second_order():
    pencil = make_pencil(n=8)  # dimension 40
    rng = np.random.default_rng(4)
    w0 = rng.standard_normal(pencil.dim)
    P = matrix_exponential_reference(pencil, 1.0)
    ref = P @ w0

    def err(dt):
        st = w0
        for _ in range(int(round(1.0 / dt))):
            st = step_crank_nicolson(pencil, st, dt)
        d = st - ref
        return float(np.sqrt(d @ (pencil.G @ d)))

    e1, e2 = err(4e-3), err(2e-3)
    assert 1.8 <= np.log2(e1 / e2) <= 2.2


def test_matrix_exponential_identity_at_t_zero():
    pencil = make_pencil(n=8)
    np.testing.assert_array_equal(matrix_exponential_reference(pencil, 0.0),
                                  np.eye(pencil.dim))


def test_matrix_exponential_reference_vs_series_oracle():
    # the margin is thin and is scipy's own: against the same series run in
    # long double, expm is 8.3e-13 off and the float64 series 5.4e-13
    pencil = make_pencil(n=8)  # dimension 40
    ref = expm_series_squaring(np.linalg.solve(pencil.M.toarray(), pencil.A.toarray()))
    out = matrix_exponential_reference(pencil, 1.0)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_matrix_exponential_dimension_cap():
    pencil = make_pencil(n=81)  # dimension 405
    with pytest.raises(ValueError, match="cap"):
        matrix_exponential_reference(pencil, 1.0)


def test_initial_data_unit_energy_and_support():
    pencil = make_pencil(n=16)
    for profile in ("plate_bump", "membrane_bump", "thermal_pulse", "rough"):
        st = make_initial_data(pencil, profile, seed=1)
        assert energy(pencil, st).total == pytest.approx(0.5, rel=1e-12)
    st = make_initial_data(pencil, "plate_bump")
    assert np.all(st[pencil.block("v")] == 0.0)
    assert np.all(st[pencil.block("theta")] == 0.0)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("seed", [0, 7])
def test_rough_initial_data_is_seeded_noise_at_unit_energy(n, seed):
    pencil = make_pencil(n=n, mode=1)
    x = np.random.default_rng(seed).standard_normal(pencil.dim)
    np.testing.assert_array_equal(make_initial_data(pencil, "rough", seed),
                                  x / np.sqrt(2.0 * energy(pencil, x).total))


def test_initial_data_rough_deterministic():
    pencil = make_pencil(n=10)
    a = make_initial_data(pencil, "rough", seed=7)
    b = make_initial_data(pencil, "rough", seed=7)
    np.testing.assert_array_equal(a, b)
    c = make_initial_data(pencil, "rough", seed=8)
    assert np.any(c != a)


def test_initial_data_unknown_profile():
    pencil = make_pencil(n=8)
    with pytest.raises(ValueError, match="profile"):
        make_initial_data(pencil, "gaussian")


def test_graph_norm_positive():
    pencil = make_pencil(n=10)
    st = make_initial_data(pencil, "plate_bump")
    assert graph_norm(pencil, st) > 0.0
