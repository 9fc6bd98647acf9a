import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pireg.geometry import DuplicateName, invariant_rows, scalarize
from pireg.sims import double_pendulum_spec, pendulum_spec
from pireg.units import parse_unit, si_system

MECH = si_system(("kg", "m", "s"))


def u(expr):
    return parse_unit(expr, MECH)


def pendulum_inputs():
    scalars = [("m", u("kg")), ("k_s", u("kg s^-2")), ("L", u("m"))]
    vectors = [("g", u("m s^-2")), ("p", u("kg m s^-1")), ("q", u("m"))]
    return scalars, vectors


def test_pendulum_scalarization_order_and_count():
    feats = scalarize(*pendulum_inputs())
    assert [f.name for f in feats] == [
        "m", "k_s", "L", "|g|", "|p|", "|q|", "g.p", "g.q", "p.q",
    ]


def test_pendulum_scalarization_values_and_units():
    feats = scalarize(*pendulum_inputs())
    units = {f.name: f.units for f in feats}
    assert units["|g|"] == u("m s^-2")
    assert units["g.p"] == u("kg m^2 s^-3")
    assert units["p.q"] == u("kg m^2 s^-1")
    # two samples of (m, k_s, L) and (g, p, q)
    scalars = [np.array([1.5, 1.0]), np.array([2.0, 1.0]), np.array([0.7, 1.0])]
    g = np.array([[0.0, 0.0, -9.8], [1.0, 0.0, 0.0]])
    p = np.array([[1.0, 2.0, 3.0], [0.0, 2.0, 0.0]])
    q = np.array([[0.3, -0.1, 0.4], [3.0, 4.0, 0.0]])
    rows = invariant_rows(scalars, [g, p, q])
    assert rows.shape == (2, len(feats)) and rows.flags.c_contiguous
    values = dict(zip([f.name for f in feats], rows.T))
    assert values["m"].tolist() == [1.5, 1.0]
    assert math.isclose(values["|p|"][0], math.sqrt(14.0), rel_tol=1e-15)
    assert values["|q|"][1] == 5.0
    assert math.isclose(values["g.q"][0], -9.8 * 0.4, rel_tol=1e-15)
    assert values["g.p"][1] == 0.0 and values["p.q"][1] == 8.0


def test_weights_and_sign_defaults():
    feats = {f.name: f for f in scalarize(*pendulum_inputs())}
    for name in ("m", "k_s", "L", "|g|", "|p|", "|q|"):
        assert feats[name].degree_weight == 1
        assert feats[name].allow_negative_exponent
    for name in ("g.p", "g.q", "p.q"):
        assert feats[name].degree_weight == 2
        assert not feats[name].allow_negative_exponent


def test_negative_exponent_override():
    feats = {f.name: f for f in scalarize(*pendulum_inputs(), {"g.q": True, "m": False})}
    assert feats["g.q"].allow_negative_exponent and feats["g.q"].degree_weight == 2
    assert not feats["g.p"].allow_negative_exponent
    assert not feats["m"].allow_negative_exponent


def test_scalars_only():
    feats = scalarize([("a", u("kg")), ("b", u("m"))], [])
    assert [f.name for f in feats] == ["a", "b"]
    assert all(f.degree_weight == 1 for f in feats)


def test_single_vector_no_dots():
    feats = scalarize([], [("v", u("m"))])
    assert [f.name for f in feats] == ["|v|"]
    assert invariant_rows([], [np.array([[3.0, 4.0, 0.0]])]).tolist() == [[5.0]]


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateName):
        scalarize([("x", u("kg")), ("x", u("kg"))], [])
    # a scalar named like a generated norm collides too
    with pytest.raises(DuplicateName):
        scalarize([("|v|", u("m"))], [("v", u("m"))])


@pytest.mark.parametrize("make_spec, n_scalars, vector_names", [
    (pendulum_spec, 3, ["g", "p", "q"]),
    (double_pendulum_spec, 6, ["g", "p1", "p2", "q1", "dq"]),
])
def test_spec_names_follow_invariant_rows_columns(make_spec, n_scalars, vector_names):
    # distinct values per input, so each column is traceable to the one
    # scalar, norm or dot its spec name says
    rng = np.random.default_rng(3)
    spec = make_spec()
    scalars = {name: rng.uniform(1, 2, 4) for name in spec.names()[:n_scalars]}
    vectors = {name: rng.uniform(-1, 1, (4, 3)) for name in vector_names}
    rows = invariant_rows(list(scalars.values()), list(vectors.values()))
    assert rows.shape == (4, spec.d)
    for name, column in zip(spec.names(), rows.T):
        if name in scalars:
            expected = scalars[name]
        elif name.startswith("|"):
            expected = np.linalg.norm(vectors[name[1:-1]], axis=1)
        else:
            a, b = name.split(".")
            expected = (vectors[a] * vectors[b]).sum(axis=1)
        assert np.allclose(column, expected, rtol=1e-12, atol=1e-15), name


unit_triples = st.tuples(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)


@given(unit_triples, unit_triples, st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)))
def test_rotation_invariance(a_vec, b_vec, axis_angles):
    # one common rotation applied to every vector leaves norms and dots alone
    a, b, c = axis_angles
    Rx = np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
    Ry = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
    Rz = np.array([[np.cos(c), -np.sin(c), 0], [np.sin(c), np.cos(c), 0], [0, 0, 1]])
    R = Rx @ Ry @ Rz
    vectors = [np.array([a_vec]), np.array([b_vec])]
    before = invariant_rows([], vectors)
    after = invariant_rows([], [v @ R.T for v in vectors])
    assert before.shape == after.shape == (1, 3)
    for f, g in zip(before[0], after[0]):
        assert math.isclose(f, g, rel_tol=1e-12, abs_tol=1e-9)
