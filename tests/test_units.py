import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pireg.units import (
    BaseUnitSystem,
    GroupElement,
    MalformedExponent,
    Quantity,
    UnitMismatch,
    UnitVector,
    UnknownUnit,
    format_product,
    format_unit,
    parse_unit,
    product_factors,
    rescale,
    scale_factor,
    si_system,
)

SI = si_system()  # (kg, m, s, K)


def vec(*exps):
    return UnitVector(tuple(exps))


def test_parse_joule_expression():
    assert parse_unit("kg m^2 s^-2", SI) == vec(1, 2, -2, 0)


def test_parse_dimensionless_forms():
    assert parse_unit("1", SI) == vec(0, 0, 0, 0)
    assert parse_unit("", SI) == vec(0, 0, 0, 0)
    assert parse_unit("   ", SI) == vec(0, 0, 0, 0)


def test_parse_pascal_alias():
    assert parse_unit("Pa", SI) == vec(1, -1, -2, 0)


def test_parse_volt_alias_over_ampere_system():
    system = si_system(("kg", "m", "s", "A"))
    assert parse_unit("V", system) == vec(1, 2, -3, -1)


def test_parse_alias_with_exponent():
    assert parse_unit("J^2", SI) == vec(2, 4, -4, 0)


def test_parse_repeated_factors_accumulate():
    assert parse_unit("m m s^-1", SI) == vec(0, 2, -1, 0)


def test_parse_unknown_unit():
    with pytest.raises(UnknownUnit):
        parse_unit("furlong", SI)


def test_parse_malformed_exponent():
    with pytest.raises(MalformedExponent):
        parse_unit("m^two", SI)
    with pytest.raises(MalformedExponent):
        parse_unit("m^", SI)


def test_product_grammar():
    assert product_factors(" kg m^2  s^-2 ") == [("kg", 1), ("m", 2), ("s", -2)]
    assert product_factors("m m^-1") == [("m", 1), ("m", -1)]
    assert product_factors("1") == product_factors("  ") == []
    assert format_product(("a", "b", "c"), (1, 0, -3)) == "a c^-3"
    assert format_product(("a", "b"), (0, 0)) == "1"


def test_format_canonical():
    assert format_unit(vec(1, 2, -2, 0), SI) == "kg m^2 s^-2"
    assert format_unit(vec(0, 1, 0, 0), SI) == "m"
    assert format_unit(vec(0, 0, 0, 0), SI) == "1"


unit_vectors = st.tuples(*[st.integers(-6, 6)] * 4).map(UnitVector)


@given(unit_vectors)
def test_format_parse_round_trip(u):
    assert parse_unit(format_unit(u, SI), SI) == u


def test_q_add():
    assert Quantity(3, vec(1, 0, 0, 0)) + Quantity(4, vec(1, 0, 0, 0)) == Quantity(
        7, vec(1, 0, 0, 0)
    )
    x = Quantity(2.5, vec(0, 1, 0, 0))
    assert x + Quantity(0, x.units) == x
    with pytest.raises(UnitMismatch):
        Quantity(3, vec(1, 0, 0, 0)) + Quantity(4, vec(0, 1, 0, 0))


def test_quantity_plus_a_number_is_a_type_error():
    x = Quantity(2.5, vec(0, 1, 0, 0))
    with pytest.raises(TypeError):
        x + 1
    with pytest.raises(TypeError):
        1.0 + x


def test_q_mul_and_pow():
    prod = Quantity(2, vec(0, 1, 0, 0)) * Quantity(3, vec(0, 0, -1, 0))
    assert prod == Quantity(6, vec(0, 1, -1, 0))
    cube = Quantity(2, vec(0, 1, 0, 0)) ** 3
    assert cube == Quantity(8, vec(0, 3, 0, 0))
    with pytest.raises(ZeroDivisionError):
        Quantity(0.0, vec(0, 1, 0, 0)) ** -1


def test_rescale_joules_to_cgs():
    # 2.9 J expressed in gram-centimeter-second units
    x = Quantity(2.9, vec(1, 2, -2, 0))
    g = GroupElement((0.001, 0.01, 1.0, 1.0))
    out = rescale(g, x)
    assert out.units == x.units
    assert math.isclose(out.value, 2.9e7, rel_tol=1e-12)


def test_rescale_fixes_dimensionless():
    x = Quantity(5.0, vec(0, 0, 0, 0))
    g = GroupElement((0.3, 7.0, 2.0, 0.1))
    assert rescale(g, x) == x


def test_rescale_identity():
    x = Quantity(3.7, vec(1, -1, 2, 0))
    assert rescale(GroupElement((1.0,) * 4), x) == x


positive_factors = st.floats(0.1, 10.0)
group_elements = st.tuples(*[positive_factors] * 4).map(GroupElement)
quantities = st.builds(
    Quantity, st.floats(-1e6, 1e6, allow_nan=False), unit_vectors
)


@given(group_elements, group_elements, quantities)
def test_rescale_is_a_group_action(g1, g2, x):
    twice = rescale(g2, rescale(g1, x))
    once = rescale(GroupElement(tuple(a * b for a, b in zip(g1.factors, g2.factors))), x)
    assert twice.units == once.units
    assert math.isclose(twice.value, once.value, rel_tol=1e-12, abs_tol=1e-300)


@given(group_elements, quantities, quantities)
def test_rescale_distributes_over_products(g, a, b):
    lhs = rescale(g, a * b)
    rhs = rescale(g, a) * rescale(g, b)
    assert lhs.units == rhs.units
    assert math.isclose(lhs.value, rhs.value, rel_tol=1e-12, abs_tol=1e-300)


@given(quantities, quantities)
def test_q_mul_units_add_exactly(a, b):
    assert (a * b).units == a.units + b.units


def test_scale_factor_against_direct_product():
    g = GroupElement((2.0, 3.0, 5.0, 7.0))
    u = vec(1, -2, 0, 3)
    assert math.isclose(scale_factor(g, u), 2.0**-1 * 3.0**2 * 7.0**-3, rel_tol=1e-15)


@given(group_elements, st.lists(unit_vectors, min_size=1, max_size=5))
def test_scale_factor_of_unit_rows_is_each_rows_factor(g, units):
    rows = scale_factor(g, np.array([u.exps for u in units]))
    assert rows.tolist() == [scale_factor(g, u) for u in units]


def test_scale_factor_overflow_raises():
    with pytest.raises(ArithmeticError):
        scale_factor(GroupElement((10.0,)), UnitVector((-400,)))
    with pytest.raises(ArithmeticError):
        scale_factor(GroupElement((10.0, 2.0)), np.array([[0, 1], [-400, 0]]))
    with pytest.raises(ArithmeticError):
        rescale(GroupElement((1e-300,)), Quantity(1.0, UnitVector((2,))))
    with pytest.raises(UnitMismatch):
        scale_factor(GroupElement((10.0, 2.0)), UnitVector((1,)))


def test_group_element_rejects_nonpositive():
    with pytest.raises(ValueError):
        GroupElement((1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        GroupElement((1.0, -2.0))
    with pytest.raises(ValueError):
        GroupElement((1.0, float("inf")))


def test_system_validation():
    with pytest.raises(Exception):
        BaseUnitSystem(())
    with pytest.raises(Exception):
        BaseUnitSystem(("kg", "kg"))
    with pytest.raises(Exception):
        BaseUnitSystem(("kg",), {"kg": UnitVector((1,))})


def test_with_alias_registers_expression():
    system = si_system(("kg", "m", "s"))
    ext = system.with_alias("erg", "kg m^2 s^-2")
    # the original is untouched, the copy resolves the new name
    assert "erg" not in system.aliases
    assert parse_unit("erg", ext) == UnitVector((1, 2, -2))


def test_si_system_subsets_aliases():
    mech = si_system(("kg", "m", "s"))
    assert "J" in mech.aliases and "V" not in mech.aliases
    assert parse_unit("N", mech) == UnitVector((1, 1, -2))
