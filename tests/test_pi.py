import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pireg import pi
from pireg.pi import (
    EnumerationTooLarge,
    FeatureDef,
    FeatureSpec,
    Monomial,
    MonomialSet,
    NonFinite,
    PoleAtZero,
    build_design_matrix,
    decoder_solutions,
    degree,
    dimensionless_basis,
    enumerate_monomials,
    format_monomial,
    lattice_points,
    load_monomials,
    monomials_from_json,
    monomials_to_json,
    monomial_units,
    parse_monomial,
    reynolds_project,
    sample_dimensional_monomials,
    save_monomials,
    total_degree,
)
from pireg.intlinalg import rank, solve_diophantine
from pireg.sims import double_pendulum_spec, rietkerk_spec
from pireg.units import (
    BaseUnitSystem,
    GroupElement,
    MalformedExponent,
    UnitMismatch,
    UnitVector,
    format_unit,
    parse_unit,
    scale_factor,
    si_system,
)

MECH = si_system(("kg", "m", "s"))


def mech_spec(*defs):
    feats = tuple(
        FeatureDef(name, parse_unit(expr, MECH), w, neg) for name, expr, w, neg in defs
    )
    return FeatureSpec(feats, MECH)


TWO_MASS = mech_spec(("m1", "kg", 1, True), ("m2", "kg", 1, True))

PLANCK = FeatureSpec(
    (
        FeatureDef("lam", parse_unit("m", si_system())),
        FeatureDef("T", parse_unit("K", si_system())),
        FeatureDef("c", parse_unit("m s^-1", si_system())),
        FeatureDef("k_B", parse_unit("kg m^2 s^-2 K^-1", si_system())),
    ),
    si_system(),
)

# four-feature slice of the pendulum inputs, enough for the worked arithmetic
MKLP = mech_spec(
    ("m", "kg", 1, True),
    ("k_s", "kg s^-2", 1, True),
    ("L", "m", 1, True),
    ("|p|", "kg m s^-1", 1, True),
)


def test_basis_two_masses_is_the_ratio():
    basis = dimensionless_basis(TWO_MASS)
    assert len(basis) == 1
    assert basis[0].exps in ((1, -1), (-1, 1))
    assert monomial_units(basis[0], TWO_MASS).is_zero()


def test_basis_planck_is_empty():
    assert len(dimensionless_basis(PLANCK)) == 0


def test_basis_three_velocities_two_dimensional():
    spec = mech_spec(
        ("v1", "m s^-1", 1, True), ("v2", "m s^-1", 1, True), ("v3", "m s^-1", 1, True)
    )
    basis = dimensionless_basis(spec)
    assert len(basis) == 2
    for m in basis:
        assert monomial_units(m, spec).is_zero()


def test_basis_count_law(pend_spec):
    for spec in (TWO_MASS, PLANCK, MKLP, pend_spec):
        assert len(dimensionless_basis(spec)) == spec.d - rank(spec.units_array)


def test_pendulum_enumeration_counts(pend_spec):
    assert len(enumerate_monomials(pend_spec, 2, dimensionless_only=True)) == 286
    assert len(enumerate_monomials(pend_spec, 2)) == 187_500


def test_enumerate_degree_zero():
    out = enumerate_monomials(MKLP, 0)
    assert list(out) == [Monomial((0, 0, 0, 0))]


def test_enumerate_two_mass_degree_one():
    out = enumerate_monomials(TWO_MASS, 1, dimensionless_only=True)
    assert sorted(m.exps for m in out) == [(-1, 1), (0, 0), (1, -1)]


def test_enumerate_respects_sign_flags():
    spec = mech_spec(("a", "m", 1, True), ("b", "m", 1, False))
    out = enumerate_monomials(spec, 2)
    assert all(m.exps[1] >= 0 for m in out)
    assert any(m.exps[0] < 0 for m in out)


def test_enumerate_respects_degree_weights():
    spec = mech_spec(("a", "m", 1, True), ("d", "m^2", 2, False))
    out = enumerate_monomials(spec, 2)
    assert max(abs(m.exps[1]) for m in out) == 1
    assert max(abs(m.exps[0]) for m in out) == 2


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(pi, "_MAX_ENTRIES", 10)
    with pytest.raises(EnumerationTooLarge, match="exponent entries"):
        enumerate_monomials(MKLP, 2)


def test_cap_counts_the_free_box(pend_spec):
    # pendulum degree 4 at the real cap: the dimensionless sweep holds 32,805
    # free points of 6 exponents and passes; the full box, 9^6 * 3 * 5 * 3
    # points of 9 exponents, does not
    assert len(enumerate_monomials(pend_spec, 4, True)) == 6082
    with pytest.raises(EnumerationTooLarge) as err:
        enumerate_monomials(pend_spec, 4)
    assert err.value.count == 9**6 * 3 * 5 * 3 * 9 and err.value.cap == 2**25


def test_cap_counts_exponent_entries(monkeypatch, pend_spec):
    # pendulum degree 3: 4,116 free points of 6 swept exponents each
    monkeypatch.setattr(pi, "_MAX_ENTRIES", 4116 * 6)
    assert len(enumerate_monomials(pend_spec, 3, True)) == 919
    monkeypatch.setattr(pi, "_MAX_ENTRIES", 4116 * 6 - 1)
    monkeypatch.setattr(np, "indices", None)  # raised before any array is built
    with pytest.raises(EnumerationTooLarge, match="exponent entries") as err:
        enumerate_monomials(pend_spec, 3, True)
    assert err.value.count == 4116 * 6 and err.value.cap == 4116 * 6 - 1
    # the full box holds 7^6 * 2 * 3 * 2 points of 9 exponents
    with pytest.raises(EnumerationTooLarge) as err:
        enumerate_monomials(pend_spec, 3)
    assert err.value.count == 7**6 * 2 * 3 * 2 * 9


def _box_ranges(spec, max_degree):
    ranges = []
    for f in spec.features:
        cap = max_degree // f.degree_weight
        ranges.append(range(-cap if f.allow_negative_exponent else 0, cap + 1))
    return ranges


def brute_force_enumerate(spec, max_degree):
    out = []
    for exps in itertools.product(*_box_ranges(spec, max_degree)):
        if max((w * abs(e) for w, e in zip(spec.weights(), exps)), default=0) <= max_degree:
            out.append(exps)
    return sorted(out)


@given(
    st.integers(1, 4),
    st.integers(1, 2),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40)
def test_enumerate_matches_brute_force(d, k, max_degree, rnd):
    base = BaseUnitSystem(tuple(f"u{i}" for i in range(k)))
    feats = tuple(
        FeatureDef(
            f"x{i}",
            UnitVector(tuple(rnd.randint(-2, 2) for _ in range(k))),
            rnd.choice([1, 2]),
            rnd.choice([True, False]),
        )
        for i in range(d)
    )
    spec = FeatureSpec(feats, base)
    got = sorted(m.exps for m in enumerate_monomials(spec, max_degree))
    assert got == brute_force_enumerate(spec, max_degree)


def _box_chunks(ranges, chunk_rows=1 << 18):
    it = itertools.product(*ranges)
    while block := list(itertools.islice(it, chunk_rows)):
        yield np.array(block, dtype=np.int64)


def box_sweep_enumerate(spec, max_degree, dimensionless_only=False):
    """The full degree-box sweep enumerate_monomials ran before it called
    lattice_points, frozen as the reference."""
    U = np.array([f.units.exps for f in spec.features], dtype=np.int64)
    out = []
    for block in _box_chunks(_box_ranges(spec, max_degree)):
        if dimensionless_only:
            block = block[~np.any(block @ U, axis=1)]
        out.extend(Monomial(tuple(int(e) for e in row)) for row in block)
    return _stacked(out, spec.d)


def _stacked(monomials, d):
    """The MonomialSet of a list of Monomial with unit coefficients."""
    return MonomialSet(np.array([m.exps for m in monomials], dtype=np.int64).reshape(-1, d))


def box_sweep_decoders(spec, target_units, max_degree):
    """The box sweep decoder_solutions ran before it called lattice_points."""
    if solve_diophantine(spec.units_array, target_units.exps) is None:
        return _stacked([], spec.d)
    U = np.array([f.units.exps for f in spec.features], dtype=np.int64)
    target = np.array(target_units.exps, dtype=np.int64)
    hits = []
    for block in _box_chunks(_box_ranges(spec, max_degree)):
        mask = np.all(block @ U == target, axis=1)
        hits.extend(Monomial(tuple(int(e) for e in row)) for row in block[mask])
    hits.sort(key=lambda mm: (degree(mm, spec), total_degree(mm), mm.exps))
    return _stacked(hits, spec.d)


@pytest.mark.parametrize("max_degree", [2, 3])
def test_pendulum_enumeration_equals_box_sweep(pend_spec, max_degree):
    got = enumerate_monomials(pend_spec, max_degree, dimensionless_only=True)
    assert len(got) == {2: 286, 3: 919}[max_degree]
    assert got == box_sweep_enumerate(pend_spec, max_degree, dimensionless_only=True)


def test_pendulum_energy_decoders_equal_box_sweep(pend_spec):
    energy = parse_unit("J", MECH)
    got = decoder_solutions(pend_spec, energy, 3)
    assert len(got) == 984
    assert got == box_sweep_decoders(pend_spec, energy, 3)


def test_double_pendulum_enumeration_equals_box_sweep():
    spec = double_pendulum_spec()
    got = enumerate_monomials(spec, 1, dimensionless_only=True)
    assert len(got) == 1097
    assert got == box_sweep_enumerate(spec, 1, dimensionless_only=True)


def test_pendulum_degree_four(pend_spec):
    got = enumerate_monomials(pend_spec, 4, dimensionless_only=True)
    assert len(got) == 6082
    assert all(a.exps < b.exps for a, b in zip(got, got[1:]))
    assert all(monomial_units(m, pend_spec).is_zero() for m in got)
    assert all(degree(m, pend_spec) <= 4 for m in got)


def box_filter(spec, target, max_degree):
    """Independent reference: every point of the degree box, in product
    order, whose units equal target (all of them when target is None)."""
    U = spec.units_array.tolist()
    out = []
    for alpha in itertools.product(*_box_ranges(spec, max_degree)):
        units = [sum(a * row[j] for a, row in zip(alpha, U)) for j in range(spec.k)]
        if target is None or units == list(target):
            out.append(list(alpha))
    return out


@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(0, 3),
    st.sampled_from(["none", "zero", "feasible", "random"]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80)
def test_lattice_points_match_box_filter(d, k, max_degree, target_kind, deficient, rnd):
    base = BaseUnitSystem(tuple(f"u{i}" for i in range(k)))
    rows = [[rnd.randint(-2, 2) for _ in range(k)] for _ in range(d)]
    if deficient:  # the last base unit repeats a multiple of the first (or is unused)
        c = rnd.choice([0, 1, -2])
        for row in rows:
            row[-1] = c * row[0] if k > 1 else 0
    feats = tuple(
        FeatureDef(f"x{i}", UnitVector(tuple(row)), rnd.choice([1, 2]), rnd.choice([True, False]))
        for i, row in enumerate(rows)
    )
    spec = FeatureSpec(feats, base)
    if target_kind == "none":
        target = None
    elif target_kind == "zero":
        target = (0,) * k
    elif target_kind == "feasible":  # the units of a point inside the ball
        alpha = [rnd.choice(r) for r in _box_ranges(spec, max_degree)]
        target = tuple(sum(a * row[j] for a, row in zip(alpha, rows)) for j in range(k))
    else:  # often outside U's integer row lattice, or its row space
        target = tuple(rnd.randint(-3, 3) for _ in range(k))
    pts = lattice_points(spec, None if target is None else UnitVector(target), max_degree)
    assert pts.dtype == np.int64 and pts.shape[1] == d
    assert pts.tolist() == box_filter(spec, target, max_degree)


def test_lattice_points_infeasible_and_empty_targets():
    area = mech_spec(("area", "m^2", 1, True))
    # the 1x1 minor has determinant 2, so odd lengths never divide exactly
    assert lattice_points(area, parse_unit("m", MECH), 6).shape == (0, 1)
    assert lattice_points(area, parse_unit("m^4", MECH), 6).tolist() == [[2]]
    # kg lies outside the row space of a length-only spec
    lengths = mech_spec(("a", "m", 1, True), ("b", "m", 1, True))
    assert lattice_points(lengths, parse_unit("kg", MECH), 3).shape == (0, 2)
    with pytest.raises(ValueError, match="base system"):
        lattice_points(lengths, UnitVector((0, 1)), 3)


def test_lattice_points_reject_int64_overflow():
    big = 2**31 - 1  # the largest unit exponent a UnitVector takes
    spec = FeatureSpec(
        (FeatureDef("a", UnitVector((big, 1, 0))), FeatureDef("b", UnitVector((1, big, 0)))),
        MECH,
    )
    with pytest.raises(ValueError, match="int64"):
        lattice_points(spec, UnitVector((0, 0, 0)), 2)


def test_degree_conventions(pend_spec):
    # dots weigh double, so a squared dot product exceeds degree 2
    gp = parse_monomial("g.p", pend_spec)[0]
    assert degree(gp, pend_spec) == 2
    assert degree(Monomial(tuple(2 * e for e in gp.exps)), pend_spec) == 4
    mk = parse_monomial("m k_s^-1 L^-2 g.q", pend_spec)[0]
    assert degree(mk, pend_spec) == 2
    assert total_degree(mk) == 5
    assert degree(parse_monomial("1", pend_spec)[0], pend_spec) == 0


def test_evaluate_constant_is_one():
    assert build_design_matrix([[5.0, 6.0, 7.0, 8.0]], parse_monomial("1", MKLP))[0, 0] == 1.0


def test_evaluate_worked_example():
    m = parse_monomial("m k_s L^2 |p|^-2", MKLP)
    assert build_design_matrix([[2.0, 3.0, 2.0, 4.0]], m)[0, 0] == 1.5
    assert monomial_units(m[0], MKLP).is_zero()


def test_evaluate_pole_at_zero():
    m = parse_monomial("|p|^-1", MKLP)
    with pytest.raises(PoleAtZero):
        build_design_matrix([[1.0, 1.0, 1.0, 0.0]], m)
    with pytest.raises(PoleAtZero) as err:
        build_design_matrix(np.array([[1.0, 1, 1, 2], [1.0, 1, 1, 0]]), m)
    assert (err.value.feature_index, err.value.row) == (3, 1)
    # the error can cross the process boundary of a forked worker
    back = pickle.loads(pickle.dumps(err.value))
    assert str(back) == str(err.value) == "negative power of a zero value at feature 3, row 1"
    assert (back.feature_index, back.row) == (3, 1)


def test_evaluate_overflow_is_loud():
    m = MonomialSet(np.array([[400, 0, 0, 0]]))
    with pytest.raises(NonFinite):
        build_design_matrix([[10.0, 1.0, 1.0, 1.0]], m)


def test_row_and_scalar_evaluation_agree_exactly(pend_spec):
    rng = np.random.default_rng(3)
    rows = rng.uniform(0.5, 2.0, size=(16, pend_spec.d))
    monos = enumerate_monomials(pend_spec, 2, dimensionless_only=True)[::23]
    X = build_design_matrix(rows, monos)
    for j in range(len(monos)):
        for i in range(rows.shape[0]):
            assert X[i, j] == build_design_matrix(rows[i:i + 1], monos[j:j + 1])[0, 0]


def test_dimensionless_invariance_under_rescaling(pend_spec):
    rng = np.random.default_rng(11)
    monos = enumerate_monomials(pend_spec, 2, dimensionless_only=True)
    x = list(rng.uniform(0.5, 2.0, size=pend_spec.d))
    for _ in range(20):
        g = GroupElement(tuple(rng.uniform(0.1, 10.0, size=pend_spec.k)))
        gx = [
            v * scale_factor(g, f.units) for v, f in zip(x, pend_spec.features)
        ]
        for a, b in zip(build_design_matrix([x], monos[::29])[0],
                        build_design_matrix([gx], monos[::29])[0]):
            assert math.isclose(a, b, rel_tol=1e-10)


def test_reynolds_fixes_dimensionless_kills_the_rest(pend_spec):
    pi_m = parse_monomial("m k_s L^2 |p|^-2", MKLP)[0]
    assert reynolds_project(pi_m, MKLP) == pi_m
    length = parse_monomial("L", MKLP)[0]
    assert reynolds_project(length, MKLP) == Monomial((0,) * MKLP.d, 0.0)
    const = parse_monomial("1", MKLP)[0]
    assert reynolds_project(const, MKLP) == const
    # idempotence both ways
    assert reynolds_project(reynolds_project(length, MKLP), MKLP).coeff == 0.0
    assert reynolds_project(reynolds_project(pi_m, MKLP), MKLP) == pi_m


def test_decoder_solutions_planck_unique():
    target = parse_unit("kg m^-1 s^-3", si_system())
    sols = decoder_solutions(PLANCK, target, 4)
    assert [s.exps for s in sols] == [(-4, 1, 1, 1)]


def test_decoder_solutions_pendulum_energy(pend_spec):
    target = parse_unit("J", MECH)
    sols = decoder_solutions(pend_spec, target, 2)
    assert parse_monomial("k_s L^2", pend_spec)[0] in list(sols)


def test_decoder_solutions_zero_target_degree_zero():
    sols = decoder_solutions(MKLP, MECH.zero(), 0)
    assert [s.exps for s in sols] == [(0, 0, 0, 0)]


def test_decoder_solutions_infeasible():
    spec = mech_spec(("area", "m^2", 1, True))
    assert len(decoder_solutions(spec, parse_unit("m", MECH), 6)) == 0


def test_decoder_solutions_all_have_target_units(pend_spec):
    target = parse_unit("kg m^2 s^-2", MECH)
    for s in decoder_solutions(pend_spec, target, 2):
        assert monomial_units(s, pend_spec) == target


def test_decoder_equivariance(pend_spec):
    rng = np.random.default_rng(5)
    dec = parse_monomial("k_s L^2", pend_spec)
    v = monomial_units(dec[0], pend_spec)
    x = list(rng.uniform(0.5, 2.0, size=pend_spec.d))
    for _ in range(20):
        g = GroupElement(tuple(rng.uniform(0.1, 10.0, size=pend_spec.k)))
        gx = [val * scale_factor(g, f.units) for val, f in zip(x, pend_spec.features)]
        lhs = build_design_matrix([gx], dec)[0, 0]
        rhs = scale_factor(g, v) * build_design_matrix([x], dec)[0, 0]
        assert math.isclose(lhs, rhs, rel_tol=1e-10)


def test_parse_format_round_trip(pend_spec):
    for expr in ("1", "k_s L^2", "m^-1 k_s^-1 L^-2 |p|^2", "m k_s^-1 L^-2 g.q"):
        m = parse_monomial(expr, pend_spec)
        assert format_monomial(m[0], pend_spec) == expr
        assert parse_monomial(format_monomial(m[0], pend_spec), pend_spec) == m


@given(st.lists(st.integers(-4, 4), min_size=9, max_size=9))
def test_monomial_format_parse_round_trip(pend_spec, exps):
    m = Monomial(tuple(exps))
    assert parse_monomial(format_monomial(m, pend_spec), pend_spec)[0] == m


def test_parse_monomial_errors(pend_spec):
    with pytest.raises(ValueError, match="unknown feature 'nope'"):
        parse_monomial("nope^2", pend_spec)
    with pytest.raises(MalformedExponent):
        parse_monomial("m^x", pend_spec)


# "m" names both a pendulum feature (mass) and a base unit (meter), so one
# token reaches both parsers through the one product grammar
@pytest.mark.parametrize("token", ["m^", "m^x", "m^2.5", "m^^2", "m^2^3", "m^-"])
def test_unit_and_monomial_parsers_reject_the_same_tokens(pend_spec, token):
    for parse, other in ((parse_unit, pend_spec.system), (parse_monomial, pend_spec)):
        with pytest.raises(MalformedExponent) as err:
            parse(f"kg {token}" if parse is parse_unit else f"k_s {token}", other)
        assert err.value.token == token


def test_require_units_names_the_monomial_and_both_unit_expressions(pend_spec):
    energy = parse_unit("J", pend_spec.system)
    good = (parse_monomial("k_s L^2", pend_spec) + parse_monomial("m |g| L", pend_spec)
            + parse_monomial("|p|^2 m^-1", pend_spec))
    pi.require_units(good, pend_spec, energy, "the label and decoder")
    pi.require_units(MonomialSet(np.zeros((0, 9), dtype=np.int64)), pend_spec, energy, "x")
    bad = good + parse_monomial("m L", pend_spec) + parse_monomial("L", pend_spec)
    with pytest.raises(UnitMismatch) as err:
        pi.require_units(bad, pend_spec, energy, "the label and decoder")
    assert str(err.value) == ("the label and decoder 'm L' carry different units: "
                              "kg m^2 s^-2 vs kg m")
    assert (err.value.left, err.value.right) == (format_unit(energy, pend_spec.system), "kg m")
    # a target from another unit system
    with pytest.raises(UnitMismatch, match="unit vector and system"):
        pi.require_units(good, pend_spec, UnitVector((1, 2, -2, 0)), "the label and decoder")


def test_monomial_set_views_equal_the_monomial_lists(pend_spec):
    got = enumerate_monomials(pend_spec, 2, dimensionless_only=True)
    old = box_sweep_enumerate(pend_spec, 2, dimensionless_only=True)
    assert got.exps.shape == (286, pend_spec.d) and got.exps.dtype == np.int64
    assert [got[i] for i in range(len(got))] == list(got) == list(old)
    assert got[np.int64(5)] == old[5] and got[-1] == old[-1]
    assert all(type(e) is int for e in got[0].exps) and type(got[0].coeff) is float
    part = got[3:9]
    assert isinstance(part, MonomialSet) and part == old[3:9]
    assert got[:100] + got[100:] == got
    assert isinstance(old[:2] + got, MonomialSet) and old[:2] + got == old[:2] + old
    # a list of Monomial is not a set: + raises and == is False
    with pytest.raises(TypeError):
        list(old[:2]) + got
    with pytest.raises(TypeError):
        got + list(old[:2])
    assert got != list(got)
    assert got != got[:-1] and got != MonomialSet(got.exps, np.full(len(got), 2.0))


def test_monomial_set_is_read_only_and_owns_its_arrays():
    src = np.array([[1, -2], [0, 3]])
    coeffs = np.array([1.0, 0.5])
    s = MonomialSet(src, coeffs)
    src[0, 0] = coeffs[0] = 9
    assert s[0] == Monomial((1, -2), 1.0)
    with pytest.raises(ValueError):
        s.exps[0, 0] = 5
    with pytest.raises(ValueError):
        s.coeffs[1] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.exps = src
    for exps in (np.array([[1.5, 0.0]]), np.array([1, 2])):
        with pytest.raises(ValueError):
            MonomialSet(exps)


def test_empty_monomial_sets_keep_their_width():
    area = mech_spec(("area", "m^2", 1, True))
    assert decoder_solutions(area, parse_unit("m", MECH), 6).exps.shape == (0, 1)
    assert dimensionless_basis(PLANCK).exps.shape == (0, PLANCK.d)
    assert sample_dimensional_monomials(PLANCK, 1, 0, seed=0).exps.shape == (0, PLANCK.d)


def test_monomial_json_round_trip(pend_spec, tmp_path):
    monos = enumerate_monomials(pend_spec, 2, dimensionless_only=True)[:40]
    path = tmp_path / "monos.json"
    save_monomials(path, monos, pend_spec)
    back = load_monomials(path, pend_spec)
    assert back == monos


def test_monomial_json_validates_units(pend_spec):
    m = parse_monomial("k_s L^2", pend_spec)
    data = monomials_to_json(m, pend_spec)
    data[0]["units"] = [0] * pend_spec.k
    with pytest.raises(ValueError):
        monomials_from_json(data, pend_spec, "monomial")


def test_sample_dimensional_monomials(pend_spec):
    out = sample_dimensional_monomials(pend_spec, 2, 200, seed=4)
    assert len(out) == 200
    assert len({m.exps for m in out}) == 200
    for m in out:
        assert not monomial_units(m, pend_spec).is_zero()
        assert degree(m, pend_spec) <= 2
    again = sample_dimensional_monomials(pend_spec, 2, 200, seed=4)
    assert again == out


def scalar_sample_oracle(spec, max_degree, n, seed):
    """The sampler sample_dimensional_monomials replaced, frozen: one scalar
    rng.integers call per exponent, each row kept unless it is
    dimensionless or a repeat, ValueError after 1000 n draws short of n."""
    ranges = [range(-(max_degree // f.degree_weight) if f.allow_negative_exponent else 0,
                    max_degree // f.degree_weight + 1) for f in spec.features]
    rng = np.random.default_rng(seed)
    U = np.array([f.units.exps for f in spec.features], dtype=np.int64)
    seen, out, attempts = set(), [], 0
    while len(out) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise ValueError(
                f"could not find {n} distinct dimensional monomials at degree {max_degree}"
            )
        exps = tuple(int(rng.integers(r.start, r.stop)) for r in ranges)
        if exps in seen or not np.any(np.array(exps, dtype=np.int64) @ U):
            continue
        seen.add(exps)
        out.append(exps)
    return MonomialSet(np.array(out, dtype=np.int64).reshape(n, spec.d))


@pytest.mark.parametrize("seed", [0, 4, 19, 123])
def test_sample_dimensional_monomials_matches_the_scalar_loop(pend_spec, seed):
    cases = [(pend_spec, 2, 500), (rietkerk_spec(), 1, 300), (double_pendulum_spec(), 1, 400)]
    for spec, max_degree, n in cases:
        assert sample_dimensional_monomials(spec, max_degree, n, seed) == scalar_sample_oracle(
            spec, max_degree, n, seed)


def test_sample_dimensional_monomials_caps_its_draws():
    # one length feature at degree 1: two dimensional monomials exist, so a
    # third is never found and both samplers give up after 3000 draws
    length = mech_spec(("L", "m", 1, True))
    assert sample_dimensional_monomials(length, 1, 2, seed=0) == scalar_sample_oracle(
        length, 1, 2, 0)
    for sampler in (sample_dimensional_monomials, scalar_sample_oracle):
        with pytest.raises(ValueError, match="could not find 3 distinct"):
            sampler(length, 1, 3, 0)


def test_lattice_membership_of_enumerated_dimensionless(pend_spec):
    basis = dimensionless_basis(pend_spec)
    B = [list(b.exps) for b in basis]
    for m in enumerate_monomials(pend_spec, 2, dimensionless_only=True)[::17]:
        assert solve_diophantine(B, list(m.exps)) is not None
