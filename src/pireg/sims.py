"""Experiment fixtures: springy-pendulum sampling, the Rietkerk vegetation
PDE, the black-body feature set, and double-pendulum unit checklists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from itertools import combinations, product

import numpy as np

from .geometry import invariant_rows, scalarize
from .pi import FeatureDef, FeatureSpec, Monomial, MonomialSet, parse_monomial, require_units
from .regress import Dataset, serial_blas_available
from .units import BaseUnitSystem, UnitVector, parse_unit, si_system


class NonPositiveMass(ValueError):
    pass


class NumericalBlowup(ArithmeticError):
    def __init__(self, step, run=0):
        super().__init__(f"run {run}: integration blew up at step {step}")
        self.step = step
        self.run = run

    def __reduce__(self):
        return type(self), (self.step, self.run)


class InsufficientSurvivors(RuntimeError):
    pass


class EulerUnstable(ValueError):
    """A run's diffusion number max(D_u, D_w, D_v) dt / dl^2 exceeds 1/4, the
    stability limit of explicit Euler with the 5-point Laplacian."""

    def __init__(self, run, value):
        super().__init__(
            f"run {run}: explicit Euler is unstable, max(D_u, D_w, D_v) dt / dl^2 "
            f"= {value:g} > 1/4"
        )
        self.run = run
        self.value = value

    def __reduce__(self):
        return type(self), (self.run, self.value)


# ---------------------------------------------------------------------------
# springy pendulum

MECH_SYSTEM = si_system(("kg", "m", "s"))
ENERGY_UNITS = parse_unit("J", MECH_SYSTEM)
# mass, spring constant, length, acceleration, momentum
_MECH_UNITS = tuple(parse_unit(expr, MECH_SYSTEM)
                    for expr in ("kg", "kg s^-2", "m", "m s^-2", "kg m s^-1"))


def hamiltonian(m: float, k_s: float, L: float, g, p, q) -> float:
    """H = |p|^2/(2m) + k_s(|q| - L)^2/2 - m g.q for a point bob on a spring
    anchored at the origin, gravity passed as the acceleration vector."""
    if m <= 0:
        raise NonPositiveMass(f"mass must be positive, got {m}")
    g = np.asarray(g, float)
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    stretch = np.sqrt(q @ q) - L
    return float(0.5 * (p @ p) / m + 0.5 * k_s * stretch * stretch - m * (g @ q))


def pendulum_spec() -> FeatureSpec:
    """The committed 9-feature pendulum configuration.

    Feature order: m, k_s, L, |g|, |p|, |q|, g.p, g.q, p.q.  Dots carry
    degree weight 2.  Negative exponents are allowed on everything except
    the g.p and p.q dots; g.q admits them (the bob hangs below the pivot,
    so that inner product stays away from zero, while g.p and p.q swing
    through zero along any trajectory).  Under these ranges a degree-2 sweep
    yields 187,500 monomials, 286 of them dimensionless.
    """
    kg, spring, pos, acc, mom = _MECH_UNITS
    scalars = [("m", kg), ("k_s", spring), ("L", pos)]
    vectors = [("g", acc), ("p", mom), ("q", pos)]
    return FeatureSpec(tuple(scalarize(scalars, vectors, {"g.q": True})), MECH_SYSTEM)


def _random_directions(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


# the sampler's ranges of m, k_s and L, and of the magnitudes |g|, |p|, |q|
_SCALAR_RANGE = (1.0, 2.0)
_MAGNITUDE_RANGE = (0.5, 1.5)


def sample_pendulum_dataset(n: int, seed: int) -> Dataset:
    """Draw pendulum configurations and label them with exact Hamiltonians.

    m, k_s, L ~ Unif(1, 2); |g|, |p|, |q| magnitudes ~ Unif(0.5, 1.5) with
    isotropic directions from normalized Gaussian triples; each row is
    invariant_rows of (m, k_s, L) and (g, p, q).
    """
    rng = np.random.default_rng(seed)
    m = rng.uniform(*_SCALAR_RANGE, n)
    k_s = rng.uniform(*_SCALAR_RANGE, n)
    L = rng.uniform(*_SCALAR_RANGE, n)
    mags = rng.uniform(*_MAGNITUDE_RANGE, (n, 3))
    g = mags[:, 0:1] * _random_directions(rng, n)
    p = mags[:, 1:2] * _random_directions(rng, n)
    q = mags[:, 2:3] * _random_directions(rng, n)

    rows = invariant_rows([m, k_s, L], [g, p, q])
    norm_q, gq = rows[:, 5], rows[:, 7]

    stretch = norm_q - L
    labels = 0.5 * np.einsum("ij,ij->i", p, p) / m + 0.5 * k_s * stretch**2 - m * gq
    return Dataset(pendulum_spec(), rows, labels, ENERGY_UNITS)


# ---------------------------------------------------------------------------
# Rietkerk vegetation model

RIETKERK_SYSTEM = BaseUnitSystem(("l", "g", "d", "m"))

# RietkerkParams' first 12 fields vary between runs; T, dt, L, dl do not
_N_PHYSICAL = 12

VEGETATION_UNITS = parse_unit("g m^-2", RIETKERK_SYSTEM)

# mean vegetation, in g m^-2, below which a run is extinct
EXTINCTION_THRESHOLD = 1e-3


def _param(default: float, units: str):
    """A RietkerkParams field with its default and its unit expression."""
    return field(default=default, metadata={"units": units})


@dataclass(frozen=True)
class RietkerkParams:
    """All 16 model and integration parameters with their defaults and units:
    water u and w in l m^-2, plant biomass v in g m^-2, time in days, space
    in meters.  dl is the integrator's grid spacing, L = n dl the extent."""

    R: float = _param(0.375, "l d^-1 m^-2")
    alpha: float = _param(0.2, "d^-1")
    k2: float = _param(5.0, "g m^-2")
    W0: float = _param(0.1, "1")
    D_u: float = _param(100.0, "m^2 d^-1")
    g_m: float = _param(0.05, "l g^-1 d^-1")
    k1: float = _param(5.0, "l m^-2")
    delta_w: float = _param(0.2, "d^-1")
    D_w: float = _param(0.1, "m^2 d^-1")
    c: float = _param(20.0, "g l^-1")
    delta_v: float = _param(0.25, "d^-1")
    D_v: float = _param(0.1, "m^2 d^-1")
    T: float = _param(200.0, "d")
    dt: float = _param(0.005, "d")
    L: float = _param(200.0, "m")
    dl: float = _param(2.0, "m")

    def feature_row(self) -> list[float]:
        return [getattr(self, f.name) for f in fields(self)]


def rietkerk_spec() -> FeatureSpec:
    """RietkerkParams' 16 fields as features over base units (l, g, d, m):
    liters of water, grams of biomass, days, meters.  d=16, k=4, rank 4, so
    the dimensionless lattice has 12 dimensions."""
    feats = tuple(FeatureDef(f.name, parse_unit(f.metadata["units"], RIETKERK_SYSTEM))
                  for f in fields(RietkerkParams))
    return FeatureSpec(feats, RIETKERK_SYSTEM)


def rietkerk_table_features() -> MonomialSet:
    """The 12 dimensionless parameter combinations used by the emulation
    regression (each checks to zero units; together they span the lattice)."""
    spec = rietkerk_spec()
    exprs = [
        "c alpha^-1 g_m",
        "R^-1 alpha k1",
        "R^-1 c^-1 alpha k2",
        "alpha^-1 delta_w",
        "alpha^-1 delta_v",
        "W0",
        "alpha^-1 D_v L^-2",
        "alpha^-1 D_u L^-2",
        "alpha T",
        "alpha dt",
        "alpha^-1 D_w L^-2",
        "L^-1 dl",
    ]
    table = MonomialSet(np.array([parse_monomial(e, spec).exps for e in exprs], dtype=np.int64))
    require_units(table, spec, spec.system.zero(), "dimensionless units and table feature")
    return table


@dataclass
class RietkerkState:
    """u, w and v on a periodic grid, whose spacing is the run's params.dl."""

    u: np.ndarray
    w: np.ndarray
    v: np.ndarray


@dataclass
class RietkerkRun:
    """A run's fields after its last step, the steps it took, and, for a run
    that went extinct, that last step's index (else None)."""

    state: RietkerkState
    steps: int
    extinction_step: int | None

    @property
    def extinct(self) -> bool:
        return self.extinction_step is not None


def random_rietkerk_state(n_cells: int, rng) -> RietkerkState:
    """u and w uniform on (0, 5) per cell; vegetation seeded at Unif(0, 50)
    on a random 10% of cells, zero elsewhere."""
    u = rng.uniform(0.0, 5.0, (n_cells, n_cells))
    w = rng.uniform(0.0, 5.0, (n_cells, n_cells))
    v = np.zeros((n_cells, n_cells))
    n_seed = max(1, int(round(0.1 * n_cells * n_cells)))
    idx = rng.choice(n_cells * n_cells, size=n_seed, replace=False)
    v.flat[idx] = rng.uniform(0.0, 50.0, n_seed)
    return RietkerkState(u, w, v)


def _copy(dst: np.ndarray, src: np.ndarray) -> tuple:
    """A call of _EulerBatch's table that copies src into the view dst: on a
    grid column the bound __setitem__ takes 0.5-0.9x np.copyto's time."""
    return dst.__setitem__, (Ellipsis, src)


def _periodic_laplacian(f: np.ndarray, out: np.ndarray, work: np.ndarray) -> tuple:
    """The calls, as (callable, operands) pairs on views made here, that
    write the five-point periodic Laplacian of f over its last two axes,
    times dl^2, into out; f, out and work are C-contiguous and of one shape.

    The sums run in the order of
    roll(f, 1, 0) + roll(f, -1, 0) + roll(f, 1, 1) + roll(f, -1, 1) - 4 f,
    so each entry rounds exactly as that np.roll expression does.  A column
    neighbour is one flat position away, so it is added by one contiguous
    shifted add; the wrapped column, which that add gives the wrong
    neighbour, is saved before the add and summed again from the copy.
    Adding the (..., ny, nx - 1) slices instead takes 4.6-5.1x as long as
    the shifted add, and copying the shifted neighbours into work before
    adding them made a whole step 1-5% slower (50 x 50 grid, 1 to 8 runs,
    numpy 2.4 on a 2-vCPU Xeon).
    """
    flat_f, flat_out = f.reshape(-1), out.reshape(-1)
    wrapped = np.empty(f.shape[:-1] + (1,))
    return (
        _copy(out[..., 1:, :], f[..., :-1, :]),
        _copy(out[..., :1, :], f[..., -1:, :]),
        (np.add, (out[..., :-1, :], f[..., 1:, :], out[..., :-1, :])),
        (np.add, (out[..., -1:, :], f[..., :1, :], out[..., -1:, :])),
        _copy(wrapped, out[..., :1]),
        (np.add, (flat_out[1:], flat_f[:-1], flat_out[1:])),
        (np.add, (wrapped, f[..., -1:], out[..., :1])),
        _copy(wrapped, out[..., -1:]),
        (np.add, (flat_out[:-1], flat_f[1:], flat_out[:-1])),
        (np.add, (wrapped, f[..., :1], out[..., -1:])),
        (np.multiply, (f, 4.0, work)),
        (np.subtract, (out, work, out)),
    )


class _EulerBatch:
    """B runs on one grid: u, w and v as one (3, B, ny, nx) stack, each
    per-run parameter as a read-only (B, ny, nx) field, the diffusion
    coefficients as one (3, B, ny, nx) field, and the buffers that an Euler
    step writes into.  A multiply that broadcasts a (B, 1, 1) column takes
    1.6-1.7x as long as one with same-shape contiguous operands at B = 2
    and 8 (50 x 50 grid, numpy 2.4 on a 2-vCPU Xeon); each element rounds
    alike.

    Every view a step reads or writes is made here, once per batch, in a
    table of calls and their operands, so a step only runs the calls:
    slicing, reshaping and unpacking the stack on every step cost 2-15% of
    a step at B = 1 to 8 (the same grid and host).  `flat`, `vegetation`
    and `sums` serve integrate_rietkerk_batch's checks after each step."""

    def __init__(self, params: list[RietkerkParams], stack: np.ndarray,
                 dt: float, inv_dl2: float):
        def per_run(values, shape=stack.shape[1:]):
            column = np.array(values, dtype=float)[..., None, None]
            out = np.ascontiguousarray(np.broadcast_to(column, shape))
            out.flags.writeable = False
            return out

        x = self.fields = np.ascontiguousarray(stack)
        self.flat = x.reshape(-1)
        self.vegetation = x[2].reshape(x.shape[1], -1)
        self.sums = np.empty(x.shape[1])
        R, alpha, k2, g_m, k1, delta_w, c, delta_v = (
            per_run([getattr(p, name) for p in params])
            for name in ("R", "alpha", "k2", "g_m", "k1", "delta_w", "c", "delta_v"))
        k2_W0 = per_run([p.k2 * p.W0 for p in params])
        D = per_run([[p.D_u for p in params], [p.D_w for p in params],
                     [p.D_v for p in params]], x.shape)
        lap, rate = np.empty(x.shape), np.empty(x.shape)
        infil, uptake, tmp = (np.empty(x.shape[1:]) for _ in range(3))
        u, w, v = x
        du, dw, dv = rate
        add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
        self._calls = (
            *_periodic_laplacian(x, lap, rate),
            (mul, (lap, inv_dl2, lap)),
            (mul, (lap, D, lap)),
            # infil = alpha u (v + k2 W0) / (v + k2)
            (mul, (alpha, u, infil)),
            (add, (v, k2_W0, tmp)),
            (mul, (infil, tmp, infil)),
            (add, (v, k2, tmp)),
            (div, (infil, tmp, infil)),
            # uptake = g_m v w / (k1 + w)
            (mul, (g_m, v, uptake)),
            (mul, (uptake, w, uptake)),
            (add, (k1, w, tmp)),
            (div, (uptake, tmp, uptake)),
            # du = R - infil, dw = infil - uptake - delta_w w,
            # dv = c uptake - delta_v v
            (sub, (R, infil, du)),
            (sub, (infil, uptake, dw)),
            (mul, (delta_w, w, tmp)),
            (sub, (dw, tmp, dw)),
            (mul, (c, uptake, dv)),
            (mul, (delta_v, v, tmp)),
            (sub, (dv, tmp, dv)),
            # x += dt (rate + D lap)
            (add, (rate, lap, rate)),
            (mul, (rate, dt, rate)),
            (add, (x, rate, x)),
        )

    def step(self) -> None:
        """Advance every run one explicit Euler step, in place.

        Each element sees the operations of
            infil = alpha u (v + k2 W0) / (v + k2)
            uptake = g_m v w / (k1 + w)
            u += dt (R - infil + D_u lap(u))
            w += dt (infil - uptake - delta_w w + D_w lap(w))
            v += dt (c uptake - delta_v v + D_v lap(v))
        in the same order and rounding, so a run's fields do not depend on
        the batch it is integrated in.
        """
        for call, operands in self._calls:
            call(*operands)


def _diffusion_number(p: RietkerkParams) -> float:
    """max(D_u, D_w, D_v) dt / dl^2, at most 1/4 for a stable Euler step."""
    return max(p.D_u, p.D_w, p.D_v) * p.dt * (1.0 / (p.dl * p.dl))


def _finished_run(stack, slot, steps, extinction_step) -> RietkerkRun:
    u, w, v = (f.copy() for f in stack[:, slot])
    return RietkerkRun(RietkerkState(u, w, v), steps, extinction_step)


def integrate_rietkerk_batch(
    params: list[RietkerkParams], inits: list[RietkerkState]
) -> list[RietkerkRun]:
    """Integrate runs i = 0..B-1, params[i] from inits[i], together; each
    result is bit-identical to integrating that run alone.

    Explicit Euler with a 5-point periodic Laplacian, T/dt steps.  dt, T
    and the grid spacing dl are read from the parameters, and the grid shape
    from the states (params.L is not read); the runs must share all four
    (ValueError otherwise).  Before the first step every run must satisfy
    max(D_u, D_w, D_v) dt / dl^2 <= 1/4; EulerUnstable names the first run
    that does not.  Extinction (mean vegetation below EXTINCTION_THRESHOLD)
    is a labeled outcome, not an error, and it ends the run: an extinct run
    leaves the batch at the step it goes extinct.  Blowup (NaN in any field, or
    negativity beyond the -1e-9 Euler undershoot allowance) raises
    NumericalBlowup for the lowest-index run that blows up, at the step it
    blows up, as a loop over the runs in index order would.
    """
    params, inits = list(params), list(inits)
    if not params or len(params) != len(inits):
        raise ValueError(f"need one initial state per run, got {len(params)} "
                         f"parameter sets and {len(inits)} states")
    dt, T, dl, shape = params[0].dt, params[0].T, params[0].dl, inits[0].u.shape
    inv_dl2 = 1.0 / (dl * dl)
    for run, (p, s) in enumerate(zip(params, inits)):
        if (p.dt, p.T, p.dl) != (dt, T, dl):
            raise ValueError("runs in one batch must share dt, T and dl")
        if not (s.u.shape == s.w.shape == s.v.shape == shape):
            raise ValueError("runs in one batch must share the grid shape")
        diffusion_number = _diffusion_number(p)
        if not diffusion_number <= 0.25:
            raise EulerUnstable(run, diffusion_number)
    n_steps = int(round(T / dt))
    stack = np.array([[s.u for s in inits], [s.w for s in inits], [s.v for s in inits]], float)
    batch = _EulerBatch(params, stack, dt, inv_dl2)
    cells = shape[0] * shape[1]
    live = list(range(len(params)))  # batch slot -> run index, ascending
    runs: list[RietkerkRun | None] = [None] * len(params)
    blowup = None  # (run, step) of the lowest-index run that blew up
    minimum, add = np.minimum.reduce, np.add.reduce
    for step in range(n_steps):
        batch.step()
        x = batch.fields
        # slots from `first` on blew up, or follow one that did and so would
        # never be reached one by one
        first = len(live)
        if not (minimum(batch.flat) >= -1e-9):  # also catches NaN
            low = x.min(axis=(0, 2, 3))
            first = next(i for i in range(len(live)) if not (low[i] >= -1e-9))
            blowup = (live[first], step)
        # the pairwise sums of v.mean(axis=(1, 2)), each divided as numpy
        # divides it; a NaN mean is never below the threshold
        sums = add(batch.vegetation, 1, None, batch.sums).tolist()
        extinct = [slot for slot in range(first) if sums[slot] / cells < EXTINCTION_THRESHOLD]
        for slot in extinct:
            runs[live[slot]] = _finished_run(x, slot, step + 1, step)
        if first < len(live) or extinct:
            keep = [i for i in range(first) if i not in extinct]
            live = [live[i] for i in keep]
            if not live:
                break
            batch = _EulerBatch([params[i] for i in live], x[:, keep], dt, inv_dl2)
    if blowup is not None:
        raise NumericalBlowup(blowup[1], run=blowup[0])
    for slot, run in enumerate(live):
        runs[run] = _finished_run(batch.fields, slot, n_steps, None)
    return runs


@dataclass(frozen=True)
class GridScale:
    """Cells per side and horizon T of rietkerk_experiment's grid; dt and the
    grid spacing dl stay at their RietkerkParams defaults."""

    n_cells: int = 100
    total_time: float = 200.0

    @classmethod
    def desk(cls) -> "GridScale":
        return cls(n_cells=50, total_time=50.0)

    @classmethod
    def paper(cls) -> "GridScale":
        return cls()


def _rietkerk_draw(seed: int, run_idx: int, scale: GridScale):
    """Parameters and initial state of draw run_idx of experiment `seed`."""
    rng = np.random.default_rng((seed, run_idx))
    factors = rng.uniform(0.5, 1.5, _N_PHYSICAL)
    physical = {f.name: f.default * factor
                for f, factor in zip(fields(RietkerkParams)[:_N_PHYSICAL], factors)}
    params = RietkerkParams(**physical, T=scale.total_time,
                            L=scale.n_cells * RietkerkParams.dl)
    return params, random_rietkerk_state(scale.n_cells, rng)


# Most draws one chunk of rietkerk_experiment integrates together.  Median
# cost per run-step on a 50 x 50 grid (numpy 2.4, 2-vCPU Xeon, 2 MB L2 per
# core), over three runs between which the host's speed drifted: 65-89 us
# at B = 1, 57-72 us at B = 2, 55-72 us at B = 3-8 (58-73 us at B = 8),
# 64-79 us at B = 12 and 67-86 us at B = 16, where the batch's 24
# (B, ny, nx) arrays (3.8 MB at B = 8) spill further out of the cache.
_MAX_BATCH = 8


def _usable_cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _integrate_chunk(seed: int, start: int, size: int,
                     scale: GridScale) -> list[float | None]:
    """Mean vegetation at the horizon of draws start .. start + size - 1 of
    experiment `seed`, None for a draw that goes extinct.  A NumericalBlowup
    names the draw's index in the experiment."""
    draws = [_rietkerk_draw(seed, i, scale) for i in range(start, start + size)]
    try:
        runs = integrate_rietkerk_batch([params for params, _ in draws],
                                        [init for _, init in draws])
    except NumericalBlowup as e:
        raise NumericalBlowup(e.step, run=start + e.run) from None
    return [None if run.extinct else float(run.state.v.mean()) for run in runs]


class _CallingProcess:
    """The executor that _worker_pool falls back to: each task runs in the
    calling process when it is submitted, and its result or exception waits
    in the future, as a worker's would."""

    def submit(self, fn, *args):
        from concurrent.futures import Future

        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as e:
            future.set_exception(e)
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


def _worker_pool(workers: int | None = None, blas: bool = False):
    """(workers, executor) for tasks that may run in forked processes.

    A fork pool of `workers` processes (default one per usable CPU) when
    this process may run on two CPUs or more and the platform can fork;
    otherwise (1, _CallingProcess()).  Forked workers start without
    importing anything and inherit the caller's module state, patches
    included.  Tasks that call BLAS pass blas=True: they get a pool only
    where regress._serial_blas pins BLAS to one thread, because a worker
    and its caller each running BLAS on every core oversubscribe the CPUs
    (on 2 vCPUs at the default thread count, run_springy took 2.5-3.7 s
    so, against 0.48-0.53 s with BLAS pinned).
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cores = _usable_cores()
    if (cores > 1 and "fork" in multiprocessing.get_all_start_methods()
            and (serial_blas_available() or not blas)):
        workers = workers or cores
        return workers, ProcessPoolExecutor(workers,
                                            mp_context=multiprocessing.get_context("fork"))
    return 1, _CallingProcess()


@dataclass
class RietkerkExperiment:
    train: Dataset
    test: Dataset
    metadata: dict


def rietkerk_experiment(
    n_train: int,
    n_test: int,
    seed: int,
    scale: GridScale = GridScale(),
) -> RietkerkExperiment:
    """Sample parameter draws (each physical parameter Unif(0.5x, 1.5x) its
    default; integration parameters fixed by the scale), integrate each, and
    label with mean vegetation at the horizon.

    Draws are integrated in chunks of consecutive draws, one chunk per
    worker process, with one worker per usable CPU.  A free worker takes the
    next min(8, draws left, ceil(deficit / free workers)) draws, where the
    deficit is the number of survivors still wanted less the survivors
    integrated but not yet consumed and the draws still running.  So the
    draws that might still survive never outnumber the survivors wanted,
    and exactly the draws up to the one that completes both splits are
    integrated.  Chunks are consumed in draw order, and a run's fields do
    not depend on its chunk, so the splits, n_runs and every error are
    those of integrating the draws one at a time, at any worker count.
    Extinct runs are excluded from both splits (train first, then test) and
    counted in the metadata.

    Each draw passes the Euler stability check before it is dispatched, and
    no draw after one that fails is dispatched, so the lowest-index draw
    that fails raises: EulerUnstable, or NumericalBlowup after the draws
    before it are consumed.  Raises InsufficientSurvivors if 3x the
    requested total of integrations cannot fill both splits.

    The pool comes from _worker_pool: with one usable CPU, or no fork on
    the platform, the chunks run in the calling process.  The integrator
    calls no BLAS routine, so the workers need no BLAS pin.  Python 3.12
    and later emit a DeprecationWarning at a fork taken while a BLAS
    library keeps idle threads.
    """
    # imported here, so the other commands do not load it
    from concurrent.futures import FIRST_COMPLETED, wait

    want = n_train + n_test
    workers, pool = _worker_pool()
    params = []  # of the draws dispatched so far, in draw order
    running = {}  # future -> first draw of its chunk
    finished = {}  # first draw -> future of a finished chunk not yet consumed
    unstable = None  # EulerUnstable of the draw that stops the dispatch
    failed = False  # a finished chunk raised
    open_draws = 0  # dispatched, not consumed, and not known to be extinct
    rows, labels = [], []
    n_runs = n_extinct = 0  # draws consumed
    try:
        while len(rows) < want and n_runs < 3 * want:
            if n_runs in finished:
                for label in finished.pop(n_runs).result():
                    if label is None:
                        n_extinct += 1
                    else:
                        rows.append(params[n_runs].feature_row())
                        labels.append(label)
                        open_draws -= 1
                    n_runs += 1
                continue
            if unstable is not None and unstable.run == n_runs:
                raise unstable
            free = workers - len(running)
            while free and unstable is None and not failed:
                deficit = want - len(rows) - open_draws
                size = min(_MAX_BATCH, 3 * want - len(params), -(-deficit // free))
                if size <= 0:
                    break
                start = len(params)
                for i in range(start, start + size):
                    p = _rietkerk_draw(seed, i, scale)[0]
                    number = _diffusion_number(p)
                    if not number <= 0.25:
                        unstable = EulerUnstable(i, number)
                        break
                    params.append(p)
                if len(params) > start:
                    future = pool.submit(_integrate_chunk, seed, start,
                                         len(params) - start, scale)
                    running[future] = start
                    open_draws += len(params) - start
                    free -= 1
            if running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    finished[running.pop(future)] = future
                    if future.exception() is None:
                        open_draws -= future.result().count(None)
                    else:
                        failed = True
    finally:
        pool.shutdown(cancel_futures=True)
    if len(rows) < want:
        raise InsufficientSurvivors(
            f"{len(rows)} surviving runs from {n_runs} integrations, need {want}"
        )
    data = Dataset(rietkerk_spec(), np.array(rows), np.array(labels), VEGETATION_UNITS)
    meta = {
        "seed": seed,
        "n_runs": n_runs,
        "n_extinct": n_extinct,
        "n_cells": scale.n_cells,
        "total_time": scale.total_time,
    }
    return RietkerkExperiment(data[:n_train], data[n_train:want], meta)


# ---------------------------------------------------------------------------
# black body

PLANCK_SYSTEM = si_system(("kg", "m", "s", "K"))
INTENSITY_UNITS = parse_unit("kg m^-1 s^-3", PLANCK_SYSTEM)


def planck_spec() -> FeatureSpec:
    """Wavelength, temperature, and the two constants of the long-wavelength
    radiance law.  Full-rank units matrix: no dimensionless monomials exist,
    and the decoder lattice point is unique."""
    feats = (
        FeatureDef("lam", parse_unit("m", PLANCK_SYSTEM)),
        FeatureDef("T", parse_unit("K", PLANCK_SYSTEM)),
        FeatureDef("c", parse_unit("m s^-1", PLANCK_SYSTEM)),
        FeatureDef("k_B", parse_unit("kg m^2 s^-2 K^-1", PLANCK_SYSTEM)),
    )
    return FeatureSpec(feats, PLANCK_SYSTEM)


def blackbody_dataset(n: int, seed: int) -> Dataset:
    """Spectral radiance samples from the long-wavelength law
    B = 2 c k_B T / lam^4, SI magnitudes."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(2e-6, 2e-5, n)
    T = rng.uniform(100.0, 1000.0, n)
    c = np.full(n, 299792458.0)
    k_B = np.full(n, 1.380649e-23)
    rows = np.column_stack([lam, T, c, k_B])
    labels = 2.0 * c * k_B * T / lam**4
    return Dataset(planck_spec(), rows, labels, INTENSITY_UNITS)


# ---------------------------------------------------------------------------
# double pendulum checklists

@dataclass(frozen=True)
class Fixture:
    """A named monomial with a declared unit target, checked at build time.
    sqrt_flagged marks entries stored as the square of a square-root scalar."""

    name: str
    monomial: Monomial
    sqrt_flagged: bool = False


def double_pendulum_spec() -> FeatureSpec:
    """Scalarized features of the two-spring pendulum: 6 scalars, 5 norms,
    10 dots over vectors (g, p1, p2, q1, dq) where dq is the second spring's
    extension q2 - q1."""
    kg, spring, pos, acc, mom = _MECH_UNITS
    scalars = [("m1", kg), ("m2", kg), ("k_s1", spring), ("k_s2", spring), ("L1", pos),
               ("L2", pos)]
    vectors = [("g", acc), ("p1", mom), ("p2", mom), ("q1", pos), ("dq", pos)]
    return FeatureSpec(tuple(scalarize(scalars, vectors)), MECH_SYSTEM)


def _fixture(spec, expr, target: UnitVector, sqrt_flagged=False) -> Fixture:
    mono = parse_monomial(expr, spec)
    require_units([mono], spec, target, "the declared units and fixture")
    return Fixture(expr, mono, sqrt_flagged)


def double_pendulum_feature_fixtures() -> tuple[list[Fixture], list[Fixture]]:
    """(dimensionless scalars, energy scaling factors) for the two-spring
    pendulum: 32 dimensionless entries of which 2 are stored as squares of
    square-root features, and 26 factors carrying energy units.
    """
    spec = double_pendulum_spec()
    zero = spec.system.zero()
    energy = ENERGY_UNITS

    dimensionless = []
    for a, b in [("m1", "m2"), ("k_s1", "k_s2"), ("L1", "L2")]:
        dimensionless.append(_fixture(spec, f"{a} {b}^-1", zero))
        dimensionless.append(_fixture(spec, f"{b} {a}^-1", zero))
    vec_names = ["g", "p1", "p2", "q1", "dq"]
    for a, b in combinations(vec_names, 2):
        dimensionless.append(_fixture(spec, f"{a}.{b} |{a}|^-1 |{b}|^-1", zero))
    for i, j in product("12", "12"):
        dimensionless.append(_fixture(spec, f"m{i} |g| k_s{j}^-1 L{j}^-1", zero))
        dimensionless.append(_fixture(spec, f"m{i}^-1 |g|^-1 k_s{j} L{j}", zero))
    dimensionless.append(_fixture(spec, "|q1| L1^-1", zero))
    dimensionless.append(_fixture(spec, "|q1|^2 L1^-2", zero))
    dimensionless.append(_fixture(spec, "|dq| L2^-1", zero))
    dimensionless.append(_fixture(spec, "|dq|^2 L2^-2", zero))
    for i in "12":
        dimensionless.append(
            _fixture(spec, f"|p{i}|^2 m{i}^-1 k_s{i}^-1 L{i}^-2", zero, sqrt_flagged=True)
        )
        dimensionless.append(_fixture(spec, f"|p{i}|^2 m{i}^-1 k_s{i}^-1 L{i}^-2", zero))

    scaling = []
    for r in "12":
        for qq in ["|q1|^2", "q1.dq", "|dq|^2"]:
            scaling.append(_fixture(spec, f"k_s{r} {qq}", energy))
    for r in "12":
        scaling.append(_fixture(spec, f"k_s{r} L1^2", energy))
        scaling.append(_fixture(spec, f"k_s{r} L1 L2", energy))
        scaling.append(_fixture(spec, f"k_s{r} L2^2", energy))
    for i, j in product("12", "12"):
        scaling.append(_fixture(spec, f"m{i} L{j} |g|", energy))
    for i, j in product("12", ["q1", "dq"]):
        scaling.append(_fixture(spec, f"m{i} g.{j}", energy))
    for pp in ["|p1|^2", "p1.p2", "|p2|^2"]:
        for r in "12":
            scaling.append(_fixture(spec, f"{pp} m{r}^-1", energy))

    assert len(dimensionless) == 32 and len(scaling) == 26
    assert sum(f.sqrt_flagged for f in dimensionless) == 2
    return dimensionless, scaling
