import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pireg import sims
from pireg.pi import dimensionless_basis, decoder_solutions, monomial_units
from pireg.sims import (
    ENERGY_UNITS,
    INTENSITY_UNITS,
    MECH_SYSTEM,
    PLANCK_SYSTEM,
    RIETKERK_SYSTEM,
    VEGETATION_UNITS,
    EulerUnstable,
    GridScale,
    InsufficientSurvivors,
    NonPositiveMass,
    NumericalBlowup,
    RietkerkParams,
    RietkerkState,
    blackbody_dataset,
    double_pendulum_feature_fixtures,
    double_pendulum_spec,
    hamiltonian,
    integrate_rietkerk_batch,
    pendulum_spec,
    planck_spec,
    random_rietkerk_state,
    rietkerk_experiment,
    rietkerk_spec,
    rietkerk_table_features,
    sample_pendulum_dataset,
)
from pireg.units import GroupElement, parse_unit, scale_factor


# --- Hamiltonian ------------------------------------------------------------


def test_hamiltonian_all_terms_vanish():
    # p = 0, spring at rest length, gravity perpendicular to position
    h = hamiltonian(2.0, 3.0, 1.5, g=(0, 0, -9.8), p=(0, 0, 0), q=(1.5, 0, 0))
    assert h == 0.0


def test_hamiltonian_worked_example():
    h = hamiltonian(1.0, 1.0, 1.0, g=(0, 0, -1.0), p=(1, 0, 0), q=(0, 0, -2.0))
    # kinetic 1/2, spring (2-1)^2/2 = 1/2, gravity -1*(-1*-2) = -2
    assert h == pytest.approx(-1.0, abs=1e-15)


def test_hamiltonian_kinetic_term_is_quadratic():
    m, k_s, L = 1.7, 0.9, 1.2
    g, q = (0.1, -0.3, -9.0), (0.2, 0.1, -1.1)
    p = np.array([1.0, -2.0, 0.5])
    rest = hamiltonian(m, k_s, L, g, (0, 0, 0), q)
    kinetic = hamiltonian(m, k_s, L, g, p, q) - rest
    doubled = hamiltonian(m, k_s, L, g, 2 * p, q) - rest
    assert doubled == pytest.approx(4 * kinetic, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_hamiltonian_rejects_nonpositive_mass(bad):
    with pytest.raises(NonPositiveMass):
        hamiltonian(bad, 1.0, 1.0, (0, 0, -1), (0, 0, 0), (0, 0, 1))


finite = st.floats(0.1, 3.0)
triple = st.tuples(
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)
)


@given(
    m=finite,
    k_s=finite,
    L=finite,
    g=triple,
    p=triple,
    q=triple,
    factors=st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
)
def test_hamiltonian_rescaling_equivariance(m, k_s, L, g, p, q, factors):
    # changing base units multiplies every raw input by the factor its own
    # units dictate and must carry H along by the energy factor
    elem = GroupElement(factors)
    sf = lambda expr: scale_factor(elem, parse_unit(expr, MECH_SYSTEM))
    h = hamiltonian(m, k_s, L, g, p, q)
    h_prime = hamiltonian(
        m * sf("kg"),
        k_s * sf("kg s^-2"),
        L * sf("m"),
        np.asarray(g) * sf("m s^-2"),
        np.asarray(p) * sf("kg m s^-1"),
        np.asarray(q) * sf("m"),
    )
    expected = h * sf("J")
    assert h_prime == pytest.approx(expected, rel=1e-10, abs=1e-300)


# --- pendulum sampler -------------------------------------------------------


def test_sampler_shapes_and_units():
    for n in (128, 8192):
        ds = sample_pendulum_dataset(n, seed=3)
        assert ds.rows.shape == (n, 9)
        assert ds.label_values.shape == (n,)
        assert ds.label_units == ENERGY_UNITS
        assert ds.spec.names() == pendulum_spec().names()


def test_sampler_deterministic_in_seed():
    a = sample_pendulum_dataset(64, seed=11)
    b = sample_pendulum_dataset(64, seed=11)
    c = sample_pendulum_dataset(64, seed=12)
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.label_values, b.label_values)
    assert not np.array_equal(a.rows, c.rows)


def test_sampler_respects_ranges():
    ds = sample_pendulum_dataset(500, seed=7)
    rows = ds.rows
    scalars = rows[:, :3]  # m, k_s, L
    mags = rows[:, 3:6]  # |g|, |p|, |q|
    assert np.all((scalars >= 1.0) & (scalars <= 2.0))
    assert np.all((mags >= 0.5) & (mags <= 1.5))
    # Cauchy-Schwarz on the dot features
    assert np.all(np.abs(rows[:, 6]) <= mags[:, 0] * mags[:, 1] + 1e-12)
    assert np.all(np.abs(rows[:, 7]) <= mags[:, 0] * mags[:, 2] + 1e-12)
    assert np.all(np.abs(rows[:, 8]) <= mags[:, 1] * mags[:, 2] + 1e-12)


def test_sampler_degenerate_ranges_single_row(monkeypatch):
    monkeypatch.setattr(sims, "_SCALAR_RANGE", (1.0, 1.0))
    monkeypatch.setattr(sims, "_MAGNITUDE_RANGE", (1.0, 1.0))
    ds = sample_pendulum_dataset(1, seed=5)
    row = ds.rows[0]
    assert np.allclose(row[:6], 1.0)  # all magnitudes pinned
    assert np.all(np.abs(row[6:]) <= 1.0 + 1e-12)  # dots of unit vectors


def test_sampler_labels_match_independent_hamiltonian():
    # recompute H from the scalarized features themselves, a separate code
    # path from the vector arithmetic inside the sampler
    ds = sample_pendulum_dataset(400, seed=21)
    m, k_s, L = ds.rows[:, 0], ds.rows[:, 1], ds.rows[:, 2]
    norm_p, norm_q, gq = ds.rows[:, 4], ds.rows[:, 5], ds.rows[:, 7]
    h = 0.5 * norm_p**2 / m + 0.5 * k_s * (norm_q - L) ** 2 - m * gq
    assert np.allclose(h, ds.label_values, rtol=1e-12, atol=0)


# --- Rietkerk integrator ----------------------------------------------------


def uniform_state(n, u=2.0, w=1.5, v=0.0):
    return RietkerkState(
        np.full((n, n), float(u)),
        np.full((n, n), float(w)),
        np.full((n, n), float(v)),
    )


def euler_steps(params, init, n_steps):
    """(u, w, v) of one run after n_steps Euler steps of _EulerBatch, driven
    directly: integrate_rietkerk_batch ends a plant-free run after a step."""
    fields = np.array([[init.u], [init.w], [init.v]], dtype=float)
    batch = sims._EulerBatch([params], fields, params.dt, 1.0 / (params.dl * params.dl))
    for _ in range(n_steps):
        batch.step()
    return batch.fields[:, 0]


def test_rietkerk_zero_vegetation_is_absorbing():
    params = RietkerkParams(T=1.0)
    rng = np.random.default_rng(0)
    init = RietkerkState(
        rng.uniform(0.5, 5.0, (8, 8)), rng.uniform(0.5, 5.0, (8, 8)),
        np.zeros((8, 8)),
    )
    u, w, v = euler_steps(params, init, 200)
    assert np.all(v == 0.0)
    assert np.all(u != init.u) and np.all(w != init.w)  # the water did move


def test_rietkerk_geometric_water_decay():
    # with no rain, no surface diffusion, and no plants, infiltration is the
    # only term left and Euler steps shrink u by the same factor every time
    params = RietkerkParams(R=0.0, D_u=0.0, T=0.5)
    u0 = 4.2
    n = 100
    u = euler_steps(params, uniform_state(6, u=u0), n)[0]
    expected = u0 * (1.0 - params.alpha * params.W0 * params.dt) ** n
    assert np.allclose(u, expected, rtol=1e-12)


def euler_step_oracle(p, u, w, v, dl):
    """Independent single Euler step with an index-looped periodic Laplacian."""
    n = u.shape[0]

    def lap(f, i, j):
        return (
            f[(i + 1) % n, j] + f[(i - 1) % n, j]
            + f[i, (j + 1) % n] + f[i, (j - 1) % n] - 4.0 * f[i, j]
        ) / dl**2

    u1, w1, v1 = u.copy(), w.copy(), v.copy()
    for i in range(n):
        for j in range(n):
            infil = p.alpha * u[i, j] * (v[i, j] + p.k2 * p.W0) / (v[i, j] + p.k2)
            uptake = p.g_m * v[i, j] * w[i, j] / (p.k1 + w[i, j])
            u1[i, j] = u[i, j] + p.dt * (p.R - infil + p.D_u * lap(u, i, j))
            w1[i, j] = w[i, j] + p.dt * (
                infil - uptake - p.delta_w * w[i, j] + p.D_w * lap(w, i, j)
            )
            v1[i, j] = v[i, j] + p.dt * (
                p.c * uptake - p.delta_v * v[i, j] + p.D_v * lap(v, i, j)
            )
    return u1, w1, v1


def test_rietkerk_single_step_uniform_grid():
    params = RietkerkParams(T=0.005, L=3 * RietkerkParams.dl)  # exactly one step
    init = uniform_state(3, u=2.0, w=1.5, v=4.0)
    run = integrate_rietkerk_batch([params], [init])[0]
    assert run.steps == 1
    u1, w1, v1 = euler_step_oracle(
        params, init.u.copy(), init.w.copy(), init.v.copy(), params.dl
    )
    assert np.allclose(run.state.u, u1, rtol=1e-12)
    assert np.allclose(run.state.w, w1, rtol=1e-12)
    assert np.allclose(run.state.v, v1, rtol=1e-12)


def test_rietkerk_single_step_random_grid():
    # non-uniform fields so the periodic Laplacian actually participates
    params = RietkerkParams(T=0.005, L=5 * RietkerkParams.dl)
    rng = np.random.default_rng(4)
    init = RietkerkState(
        rng.uniform(0.5, 5.0, (5, 5)), rng.uniform(0.5, 5.0, (5, 5)),
        rng.uniform(0.0, 10.0, (5, 5)),
    )
    run = integrate_rietkerk_batch([params], [init])[0]
    u1, w1, v1 = euler_step_oracle(
        params, init.u.copy(), init.w.copy(), init.v.copy(), params.dl
    )
    assert np.allclose(run.state.u, u1, rtol=1e-12)
    assert np.allclose(run.state.w, w1, rtol=1e-12)
    assert np.allclose(run.state.v, v1, rtol=1e-12)


def test_rietkerk_fields_stay_nonnegative():
    params = RietkerkParams(T=5.0, L=16 * RietkerkParams.dl)
    init = random_rietkerk_state(16, np.random.default_rng(2))
    run = integrate_rietkerk_batch([params], [init])[0]
    assert run.steps == 1000
    for f in (run.state.u, run.state.w, run.state.v):
        assert f.min() >= -1e-9


def test_rietkerk_blowup_on_coarse_time_step():
    # no diffusion, so the Euler stability check passes and the reaction
    # terms overshoot below zero
    params = RietkerkParams(dt=50.0, T=500.0, D_u=0.0, D_w=0.0, D_v=0.0,
                            L=8 * RietkerkParams.dl)
    init = RietkerkState(
        np.random.default_rng(1).uniform(0.5, 5.0, (8, 8)),
        np.full((8, 8), 2.0), np.full((8, 8), 3.0),
    )
    with pytest.raises(NumericalBlowup):
        integrate_rietkerk_batch([params], [init])


def test_rietkerk_extinction_is_labeled_not_raised():
    # extinction ends the run at the step it happens
    params = RietkerkParams(T=0.1, L=4 * RietkerkParams.dl)
    init = uniform_state(4, v=0.0)
    run = integrate_rietkerk_batch([params], [init])[0]
    assert run.extinct and run.extinction_step == 0
    assert run.steps == 1


def test_random_state_seeding_fraction():
    rng = np.random.default_rng(9)
    state = random_rietkerk_state(20, rng)
    assert state.u.shape == state.w.shape == state.v.shape == (20, 20)
    assert np.count_nonzero(state.v) == 40  # 10% of 400 cells
    assert state.v.max() <= 50.0 and state.u.max() <= 5.0


# --- batched Rietkerk integrator ---------------------------------------------


def roll_loop_oracle(params, init, extinction_threshold=1e-3, stop_on_extinction=False):
    """The single-run np.roll Euler loop that the one-run integrator used
    before it became a batch of one, frozen as the bitwise reference.  Returns
    (u, w, v, steps, extinction_step); raises NumericalBlowup(step)."""

    def laplacian(f, inv_dl2):
        lap = np.roll(f, 1, 0)
        lap += np.roll(f, -1, 0)
        lap += np.roll(f, 1, 1)
        lap += np.roll(f, -1, 1)
        lap -= 4.0 * f
        return lap * inv_dl2

    u = init.u.astype(float).copy()
    w = init.w.astype(float).copy()
    v = init.v.astype(float).copy()
    inv_dl2 = 1.0 / (params.dl * params.dl)
    dt = params.dt
    n_steps = int(round(params.T / dt))
    extinction_step = None
    for step in range(n_steps):
        infil = params.alpha * u * (v + params.k2 * params.W0) / (v + params.k2)
        uptake = params.g_m * v * w / (params.k1 + w)
        u += dt * (params.R - infil + params.D_u * laplacian(u, inv_dl2))
        w += dt * (infil - uptake - params.delta_w * w + params.D_w * laplacian(w, inv_dl2))
        v += dt * (params.c * uptake - params.delta_v * v + params.D_v * laplacian(v, inv_dl2))
        low = min(u.min(), w.min(), v.min())
        if not (low >= -1e-9):
            raise NumericalBlowup(step)
        if extinction_step is None and v.mean() < extinction_threshold:
            extinction_step = step
            if stop_on_extinction:
                return u, w, v, step + 1, extinction_step
    return u, w, v, n_steps, extinction_step


def varied_runs(n_runs, extinct=(), shape=(9, 12), T=1.0, seed=0, **fixed):
    """Runs with every physical parameter scaled by Unif(0.5, 1.5) on a
    non-square grid.  Runs listed in `extinct` start with a thin, fast-dying
    vegetation layer that falls below the extinction threshold mid-run.  L is
    the grid's extent, its rows times the default dl."""
    rng = np.random.default_rng(seed)
    names = ["R", "alpha", "k2", "W0", "D_u", "g_m", "k1", "delta_w", "D_w", "c",
             "delta_v", "D_v"]
    defaults = RietkerkParams()
    params, inits = [], []
    for i in range(n_runs):
        values = {n: getattr(defaults, n) * rng.uniform(0.5, 1.5) for n in names}
        u = rng.uniform(0.0, 5.0, shape)
        w = rng.uniform(0.0, 5.0, shape)
        if i in extinct:
            values["delta_v"] = 1.0
            v = rng.uniform(0.0, 0.003, shape)
        else:
            v = np.where(rng.random(shape) < 0.1, rng.uniform(0.0, 50.0, shape), 0.0)
        values["L"] = shape[0] * RietkerkParams.dl
        values.update(fixed)
        params.append(RietkerkParams(**values, T=T))
        inits.append(RietkerkState(u, w, v))
    return params, inits


@pytest.mark.parametrize("n_runs, extinct",
                         [(1, ()), (1, (0,)), (3, (1,)), (8, (2, 5)), (2, (1,))])
def test_batch_bit_identical_to_roll_loop(n_runs, extinct):
    params, inits = varied_runs(n_runs, extinct, seed=n_runs)
    before = [(s.u.copy(), s.w.copy(), s.v.copy()) for s in inits]
    runs = integrate_rietkerk_batch(params, inits)
    assert len(runs) == n_runs
    for i, (p, init, run) in enumerate(zip(params, inits, runs)):
        u, w, v, steps, extinction_step = roll_loop_oracle(p, init, stop_on_extinction=True)
        assert np.array_equal(run.state.u, u), i
        assert np.array_equal(run.state.w, w), i
        assert np.array_equal(run.state.v, v), i
        assert run.steps == steps and run.extinction_step == extinction_step, i
        if i in extinct:  # extinct strictly inside the horizon
            assert 0 < extinction_step < 199
        else:
            assert extinction_step is None
    for (u, w, v), init in zip(before, inits):  # the initial states are not written
        assert np.array_equal(u, init.u) and np.array_equal(w, init.w)
        assert np.array_equal(v, init.v)


def test_batch_bit_identical_to_roll_loop_on_desk_grid():
    # the grid and batch size of the benchmark's op: 50 x 50 cells, two runs
    # whose parameters differ, 100 steps
    params, inits = varied_runs(2, shape=(50, 50), T=0.5, seed=9)
    assert params[0] != params[1]
    runs = integrate_rietkerk_batch(params, inits)
    for i, (p, init, run) in enumerate(zip(params, inits, runs)):
        u, w, v, steps, extinction_step = roll_loop_oracle(p, init, stop_on_extinction=True)
        assert np.array_equal(run.state.u, u), i
        assert np.array_equal(run.state.w, w), i
        assert np.array_equal(run.state.v, v), i
        assert run.steps == steps == 100 and run.extinction_step is extinction_step is None


def test_batch_bit_identical_to_roll_loop_on_desk_grid_with_a_run_leaving():
    # the benchmark's batch shape: three runs on 50 x 50 cells, the middle
    # one going extinct mid-run and leaving, so the batch is rebuilt from
    # the other two and steps on
    params, inits = varied_runs(3, extinct=(1,), shape=(50, 50), T=1.0, seed=11)
    runs = integrate_rietkerk_batch(params, inits)
    for i, (p, init, run) in enumerate(zip(params, inits, runs)):
        u, w, v, steps, extinction_step = roll_loop_oracle(p, init, stop_on_extinction=True)
        assert np.array_equal(run.state.u, u), i
        assert np.array_equal(run.state.w, w), i
        assert np.array_equal(run.state.v, v), i
        assert run.steps == steps and run.extinction_step == extinction_step, i
    assert 0 < runs[1].extinction_step < runs[1].steps < 200
    assert runs[0].steps == runs[2].steps == 200 and not runs[0].extinct and not runs[2].extinct


def test_batch_blowup_in_the_step_a_lower_run_goes_extinct():
    # run 0 has no vegetation growth (c = 0), so its uniform vegetation
    # decays by 1 - dt delta_v a step and falls below the threshold at step
    # 10; run 1 has no uptake (g_m = 0) and delta_v < 0, so its vegetation
    # grows 1e31-fold a step, overflows at step 9 and gives NaN at step 10
    shape = (6, 7)
    rng = np.random.default_rng(0)
    L = shape[0] * RietkerkParams.dl
    params = [RietkerkParams(c=0.0, delta_v=20.0, T=1.0, L=L),
              RietkerkParams(g_m=0.0, delta_v=-(1e31 - 1) / 0.005, T=1.0, L=L)]
    inits = [RietkerkState(rng.uniform(0.0, 5.0, shape), rng.uniform(0.0, 5.0, shape),
                           np.full(shape, v0)) for v0 in (3e-3, 1.0)]
    with np.errstate(all="ignore"):
        assert roll_loop_oracle(params[0], inits[0], stop_on_extinction=True)[4] == 10
        with pytest.raises(NumericalBlowup) as serial:
            roll_loop_oracle(params[1], inits[1], stop_on_extinction=True)
        assert serial.value.step == 10
        with pytest.raises(NumericalBlowup) as batched:
            integrate_rietkerk_batch(params, inits)
        assert (batched.value.run, batched.value.step) == (1, 10)


def test_batch_blowup_reports_lowest_run_at_its_serial_step():
    # on flat fields an Euler step scales u's distance from its fixed point
    # R / (alpha f), f = (v + k2 W0) / (v + k2), by 1 - dt alpha f.  Run 1
    # sets that factor to -1.2 and starts at half the fixed point, so u
    # needs a few steps to overshoot below zero; run 2 (alpha = 1e6) blows
    # up at once, but a loop over runs in index order reaches run 1 first
    params, inits = varied_runs(3, seed=4)
    p, v0 = params[1], 2.0
    f = (v0 + p.k2 * p.W0) / (v0 + p.k2)
    params[1] = replace(p, alpha=2.2 / (p.dt * f))
    shape = inits[1].u.shape
    inits[1] = replace(inits[1], u=np.full(shape, 0.5 * p.R / (params[1].alpha * f)),
                       v=np.full(shape, v0))
    params[2] = replace(params[2], alpha=1e6)
    steps = []
    for p, init in zip(params[1:], inits[1:]):
        with pytest.raises(NumericalBlowup) as serial:
            roll_loop_oracle(p, init, stop_on_extinction=True)
        steps.append(serial.value.step)
    assert steps[1] < steps[0]
    roll_loop_oracle(params[0], inits[0], stop_on_extinction=True)  # run 0 is stable
    with pytest.raises(NumericalBlowup, match=r"\brun 1\b") as batched:
        integrate_rietkerk_batch(params, inits)
    assert batched.value.step == steps[0] and batched.value.run == 1


def test_batch_rejects_euler_unstable_diffusion():
    # D dt / dl^2 <= 1/4 is explicit Euler's stability limit with the
    # 5-point Laplacian; draws at the default dt and dl reach at most
    # 1.5 * 100 * 0.005 / 2^2 = 0.1875
    params, inits = varied_runs(3)
    for name in ("D_u", "D_w", "D_v"):
        unstable = params[:2] + [replace(params[2], **{name: 250.0})]
        with pytest.raises(EulerUnstable, match=r"\brun 2\b.*0\.3125") as err:
            integrate_rietkerk_batch(unstable, inits)
        assert isinstance(err.value, ValueError)
        assert err.value.run == 2 and err.value.value == 0.3125
    with pytest.raises(EulerUnstable, match=r"\brun 0\b"):
        integrate_rietkerk_batch([RietkerkParams(dt=50.0, T=500.0, L=9 * RietkerkParams.dl)],
                                 inits[:1])
    at_limit = params[:2] + [replace(params[2], D_u=200.0)]
    runs = integrate_rietkerk_batch(at_limit, inits)
    assert runs[2].steps == 200


@pytest.mark.parametrize("err", [EulerUnstable(2, 0.3), NumericalBlowup(17, run=3)])
def test_sims_errors_round_trip_through_pickle(err):
    # errors cross the process boundary of rietkerk_experiment's workers
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err) and str(back) == str(err)
    assert vars(back) == vars(err)


def test_batch_rejects_mixed_integration_settings():
    params, inits = varied_runs(2)
    for changed in ({"dt": 0.004}, {"T": 2.0}, {"dl": 4.0}):
        mixed = [params[0], replace(params[1], **changed)]
        with pytest.raises(ValueError, match="dt, T and dl"):
            integrate_rietkerk_batch(mixed, inits)
    other = inits[1]
    small = RietkerkState(other.u[:, :6], other.w[:, :6], other.v[:, :6])
    with pytest.raises(ValueError, match="grid"):
        integrate_rietkerk_batch(params, [inits[0], small])
    with pytest.raises(ValueError):
        integrate_rietkerk_batch(params, inits[:1])
    with pytest.raises(ValueError):
        integrate_rietkerk_batch([], [])


def test_batch_rejects_an_extent_other_than_the_grid():
    # the default L of 200 m is 100 cells of 2 m, not 8
    init = random_rietkerk_state(8, np.random.default_rng(3))
    with pytest.raises(ValueError, match=r"^run 0: L = 200\.0 is not 8 cells of dl = 2\.0$"):
        integrate_rietkerk_batch([RietkerkParams(T=0.05)], [init])
    params, inits = varied_runs(2)
    assert params[1].L == inits[1].u.shape[0] * params[1].dl == 18.0
    with pytest.raises(ValueError, match=r"^run 1: L = 24\.0 is not 9 cells of dl = 2\.0$"):
        integrate_rietkerk_batch([params[0], replace(params[1], L=24.0)], inits)


def test_grid_spacing_comes_from_the_parameters(monkeypatch):
    init = random_rietkerk_state(8, np.random.default_rng(3))
    coarse = RietkerkParams(T=0.05, dl=4.0, L=32.0)
    run = integrate_rietkerk_batch([coarse], [init])[0]
    u, w, v, steps, extinction_step = roll_loop_oracle(coarse, init, stop_on_extinction=True)
    assert np.array_equal(run.state.u, u) and np.array_equal(run.state.w, w)
    assert np.array_equal(run.state.v, v)
    assert run.steps == steps == 10 and run.extinction_step is extinction_step is None
    default = integrate_rietkerk_batch([RietkerkParams(T=0.05, L=16.0)], [init])[0]
    assert not np.array_equal(default.state.u, run.state.u)
    # D_u dt / dl^2 = 100 * 0.005 / 1 = 0.5
    with pytest.raises(EulerUnstable) as err:
        integrate_rietkerk_batch([RietkerkParams(T=0.05, dl=1.0, L=8.0)], [init])
    assert (err.value.run, err.value.value) == (0, 0.5)
    # rietkerk_experiment's check before dispatch reads the number the
    # integrator would
    draw = sims._rietkerk_draw

    def fine_draw(seed, run_idx, scale):
        params, state = draw(seed, run_idx, scale)
        return replace(params, dl=1.0, L=scale.n_cells * 1.0), state

    params, state = fine_draw(5, 0, TINY)
    with pytest.raises(EulerUnstable) as direct:
        integrate_rietkerk_batch([params], [state])
    monkeypatch.setattr(sims, "_rietkerk_draw", fine_draw)
    with pytest.raises(EulerUnstable) as checked:
        rietkerk_experiment(3, 2, seed=5, scale=TINY)
    assert checked.value.run == direct.value.run == 0
    assert checked.value.value == direct.value.value > 0.25


# --- Rietkerk experiment ----------------------------------------------------

TINY = GridScale(n_cells=8, total_time=1.0)


def test_rietkerk_experiment_deterministic():
    a = rietkerk_experiment(3, 2, seed=5, scale=TINY)
    b = rietkerk_experiment(3, 2, seed=5, scale=TINY)
    assert np.array_equal(a.train.rows, b.train.rows)
    assert np.array_equal(a.test.label_values, b.test.label_values)
    assert a.metadata == b.metadata
    assert a.train.rows.shape == (3, 16) and a.test.rows.shape == (2, 16)
    assert a.train.label_units == VEGETATION_UNITS
    assert a.metadata["n_extinct"] >= 0


def test_rietkerk_experiment_parameter_ranges():
    exp = rietkerk_experiment(4, 1, seed=8, scale=TINY)
    defaults = np.array(RietkerkParams().feature_row())
    rows = np.vstack([exp.train.rows, exp.test.rows])
    ratio = rows[:, :12] / defaults[:12]
    assert np.all((ratio >= 0.5) & (ratio <= 1.5))
    # integration parameters pinned by the scale
    assert np.all(rows[:, 12] == TINY.total_time)  # T
    assert np.all(rows[:, 13] == RietkerkParams().dt)
    assert np.all(rows[:, 14] == TINY.n_cells * RietkerkParams().dl)  # L
    assert np.all(rows[:, 15] == RietkerkParams().dl)


# draw 3 of this experiment goes extinct at step 5654 of 6000
EXTINCT_SCALE = GridScale(n_cells=8, total_time=30.0)


@pytest.fixture(scope="module")
def draws_one_by_one():
    """(feature row, label) per draw of seed 1 at EXTINCT_SCALE, None when
    extinct, each draw integrated on its own."""
    out = []
    for i in range(6):
        params, init = sims._rietkerk_draw(1, i, EXTINCT_SCALE)
        run = integrate_rietkerk_batch([params], [init])[0]
        out.append(None if run.extinct else (params.feature_row(), float(run.state.v.mean())))
    return out


@pytest.mark.parametrize("max_batch", [1, 3, 8])
def test_rietkerk_experiment_consumes_draws_in_index_order(
    monkeypatch, draws_one_by_one, max_batch
):
    draw = sims._rietkerk_draw
    touched = []  # draws the calling process dispatches, or integrates itself

    def recorded(seed, run_idx, scale):
        touched.append(run_idx)
        return draw(seed, run_idx, scale)

    monkeypatch.setattr(sims, "_rietkerk_draw", recorded)
    monkeypatch.setattr(sims, "_MAX_BATCH", max_batch)
    survivors = [i for i, d in enumerate(draws_one_by_one) if d is not None]
    assert survivors[:5] == [0, 1, 2, 4, 5]
    for workers in (1, 2):
        monkeypatch.setattr(sims, "_usable_cores", lambda: workers)
        touched.clear()
        exp = rietkerk_experiment(3, 2, seed=1, scale=EXTINCT_SCALE)
        assert exp.metadata["n_runs"] == 1 + survivors[4]
        assert exp.metadata["n_extinct"] == 1
        # no draw at or past n_runs is ever dispatched
        assert set(touched) == set(range(exp.metadata["n_runs"]))
        rows = np.vstack([exp.train.rows, exp.test.rows])
        labels = np.concatenate([exp.train.label_values, exp.test.label_values])
        assert np.array_equal(rows, [draws_one_by_one[i][0] for i in survivors[:5]])
        assert np.array_equal(labels, [draws_one_by_one[i][1] for i in survivors[:5]])


def test_rietkerk_experiment_runs_in_process_without_fork(monkeypatch, draws_one_by_one):
    import multiprocessing

    chunk = sims._integrate_chunk
    chunks = []

    def recorded(seed, start, size, scale):
        chunks.append((start, size))
        return chunk(seed, start, size, scale)

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(sims, "_usable_cores", lambda: 2)
    monkeypatch.setattr(sims, "_integrate_chunk", recorded)
    exp = rietkerk_experiment(3, 2, seed=1, scale=EXTINCT_SCALE)
    assert chunks == [(0, 5), (5, 1)]  # the one-worker chunks, in this process
    assert np.array_equal(exp.test.label_values, [draws_one_by_one[i][1] for i in (4, 5)])


@pytest.mark.parametrize("max_batch", [1, 3, 8])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("blowup, unstable", [(1, 3), (3, 1)])
def test_rietkerk_experiment_lowest_index_failure_wins(
    monkeypatch, max_batch, workers, blowup, unstable
):
    draw = sims._rietkerk_draw

    def failing_draws(seed, run_idx, scale):
        params, init = draw(seed, run_idx, scale)
        if run_idx == blowup:
            params = replace(params, alpha=1e6)
        elif run_idx == unstable:
            params = replace(params, D_v=250.0)
        return params, init

    monkeypatch.setattr(sims, "_rietkerk_draw", failing_draws)
    monkeypatch.setattr(sims, "_MAX_BATCH", max_batch)
    monkeypatch.setattr(sims, "_usable_cores", lambda: workers)
    expected = NumericalBlowup if blowup < unstable else EulerUnstable
    with pytest.raises(expected, match=rf"\brun {min(blowup, unstable)}\b") as err:
        rietkerk_experiment(3, 2, seed=5, scale=TINY)
    assert err.value.run == min(blowup, unstable)


@pytest.mark.parametrize("max_batch", [3, 8])
def test_rietkerk_experiment_blowup_names_the_draw(monkeypatch, max_batch):
    draw = sims._rietkerk_draw

    def unstable_fifth_draw(seed, run_idx, scale):
        params, init = draw(seed, run_idx, scale)
        return (replace(params, alpha=1e6) if run_idx == 4 else params), init

    monkeypatch.setattr(sims, "_rietkerk_draw", unstable_fifth_draw)
    monkeypatch.setattr(sims, "_MAX_BATCH", max_batch)
    with pytest.raises(NumericalBlowup, match=r"\brun 4\b") as err:
        rietkerk_experiment(3, 2, seed=5, scale=TINY)
    assert err.value.run == 4 and err.value.step == 0


@pytest.mark.parametrize("max_batch", [3, 8])
def test_rietkerk_experiment_instability_names_the_draw(monkeypatch, max_batch):
    draw = sims._rietkerk_draw

    def unstable_fifth_draw(seed, run_idx, scale):
        params, init = draw(seed, run_idx, scale)
        return (replace(params, D_v=250.0) if run_idx == 4 else params), init

    monkeypatch.setattr(sims, "_rietkerk_draw", unstable_fifth_draw)
    monkeypatch.setattr(sims, "_MAX_BATCH", max_batch)
    with pytest.raises(EulerUnstable, match=r"\brun 4\b") as err:
        rietkerk_experiment(3, 2, seed=5, scale=TINY)
    assert err.value.run == 4 and err.value.value == 0.3125


def test_rietkerk_experiment_insufficient_survivors(monkeypatch):
    # every draw starts without plants, so every run goes extinct at its
    # first step, and 3 x 3 draws leave no survivor
    draw = sims._rietkerk_draw
    drawn = []

    def plant_free_draw(seed, run_idx, scale):
        params, init = draw(seed, run_idx, scale)
        drawn.append(run_idx)
        return params, replace(init, v=np.zeros_like(init.v))

    monkeypatch.setattr(sims, "_rietkerk_draw", plant_free_draw)
    with pytest.raises(InsufficientSurvivors, match="0 surviving runs from 9 integrations, need 3"):
        rietkerk_experiment(2, 1, seed=5, scale=TINY)
    assert max(drawn) == 8


def test_rietkerk_spec_shape():
    spec = rietkerk_spec()
    assert spec.d == 16 and spec.k == 4
    assert len(dimensionless_basis(spec)) == 12
    names = spec.names()
    assert names[0] == "R" and names[-1] == "dl"


def test_rietkerk_table_features_dimensionless():
    spec = rietkerk_spec()
    feats = rietkerk_table_features()
    assert len(feats) == 12
    for mono in feats:
        assert monomial_units(mono, spec).is_zero()


# --- black body ---------------------------------------------------------------


def test_planck_spec_has_no_dimensionless_monomials():
    spec = planck_spec()
    assert spec.d == 4 and spec.k == 4
    assert len(dimensionless_basis(spec)) == 0


def test_planck_decoder_unique():
    sols = decoder_solutions(planck_spec(), INTENSITY_UNITS, max_degree=4)
    assert len(sols) == 1
    assert sols[0].exps == (-4, 1, 1, 1)  # T c k_B / lam^4


def test_blackbody_labels_formula():
    ds = blackbody_dataset(200, seed=6)
    lam, T = ds.rows[:, 0], ds.rows[:, 1]
    assert np.all((lam >= 2e-6) & (lam <= 2e-5))
    assert np.all((T >= 100.0) & (T <= 1000.0))
    expect = 2.0 * 299792458.0 * 1.380649e-23 * T / lam**4
    assert np.allclose(ds.label_values, expect, rtol=1e-12)
    assert ds.label_units == INTENSITY_UNITS
    again = blackbody_dataset(200, seed=6)
    assert np.array_equal(ds.rows, again.rows)


# --- double pendulum checklists -----------------------------------------------


def test_double_pendulum_spec_scalar_count():
    spec = double_pendulum_spec()
    assert spec.d == 6 + 5 + 10  # scalars, norms, pairwise dots


def test_fixture_counts_and_flags():
    dimensionless, scaling = double_pendulum_feature_fixtures()
    assert len(dimensionless) == 32
    assert len(scaling) == 26
    assert sum(f.sqrt_flagged for f in dimensionless) == 2


def test_fixture_units_exact():
    spec = double_pendulum_spec()
    dimensionless, scaling = double_pendulum_feature_fixtures()
    for f in dimensionless:
        assert monomial_units(f.monomial[0], spec).is_zero(), f.name
    for f in scaling:
        assert monomial_units(f.monomial[0], spec) == ENERGY_UNITS, f.name


def test_fixture_rosters_contain_named_entries():
    dimensionless, scaling = double_pendulum_feature_fixtures()
    dnames = {f.name for f in dimensionless}
    snames = {f.name for f in scaling}
    assert "m1 m2^-1" in dnames
    assert "|q1|^2 L1^-2" in dnames
    assert "k_s1 L1 L2" in snames and "k_s2 L1 L2" in snames
