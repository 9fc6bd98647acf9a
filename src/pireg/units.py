"""Base-unit systems, unit-expression parsing, and exact unit arithmetic.

Every quantity carries an integer vector of exponents over an ordered tuple of
base units, so "kg m^2 s^-2" over (kg, m, s) is (1, 2, -2).  The positive
rescaling group acts on a quantity by

    g . (x, u) = (prod_j g_j ** -u_j) * x

i.e. shrinking the unit of mass by 1000x multiplies a mass value by 1000.
All unit bookkeeping is exact integer arithmetic; only values are floats.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

# Exponents live comfortably in single digits; the bound exists to fail loudly
# if some degenerate input walks the lattice off to absurd powers.
MAX_EXPONENT = 2**31 - 1


class UnitError(ValueError):
    """Base class for unit-system errors."""


class UnknownUnit(UnitError):
    def __init__(self, name):
        super().__init__(f"unknown unit name: {name!r}")
        self.name = name


class MalformedExponent(UnitError):
    def __init__(self, token):
        super().__init__(f"malformed exponent in token: {token!r}")
        self.token = token


class UnitMismatch(UnitError):
    def __init__(self, left, right, what="operands"):
        super().__init__(f"{what} carry different units: {left} vs {right}")
        self.left = left
        self.right = right


class ExponentOverflow(UnitError):
    pass


@dataclass(frozen=True)
class UnitVector:
    """Integer exponents over an ordered list of base units."""

    exps: tuple[int, ...]

    def __post_init__(self):
        for e in self.exps:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"unit exponents must be ints, got {e!r}")
            if abs(e) > MAX_EXPONENT:
                raise ExponentOverflow(f"unit exponent out of range: {e}")

    @classmethod
    def zero(cls, k: int) -> "UnitVector":
        return cls((0,) * k)

    def __len__(self):
        return len(self.exps)

    def __add__(self, other: "UnitVector") -> "UnitVector":
        if len(self.exps) != len(other.exps):
            raise UnitMismatch(self, other, "unit vectors of different length")
        return UnitVector(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def scaled(self, gamma: int) -> "UnitVector":
        return UnitVector(tuple(gamma * e for e in self.exps))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.exps)


_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

# SI derived-unit definitions in terms of base-unit names.  A system built via
# si_system() gets every alias whose ingredients are all present.
_SI_ALIAS_DEFS = {
    "N": {"kg": 1, "m": 1, "s": -2},
    "J": {"kg": 1, "m": 2, "s": -2},
    "Pa": {"kg": 1, "m": -1, "s": -2},
    "W": {"kg": 1, "m": 2, "s": -3},
    "Hz": {"s": -1},
    "V": {"kg": 1, "m": 2, "s": -3, "A": -1},
}


@dataclass(frozen=True)
class BaseUnitSystem:
    """An ordered tuple of base-unit names plus an alias table.

    Aliases map a derived name ("J") to its exponent vector over the base
    units.  Base-unit ORDER matters: it fixes the meaning of every exponent
    vector in the system, and callers that mix systems must use the same
    ordered names.
    """

    names: tuple[str, ...]
    aliases: dict[str, UnitVector] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.names) == 0:
            raise UnitError("a unit system needs at least one base unit")
        seen = set()
        for n in self.names:
            if not _NAME_RE.match(n):
                raise UnitError(f"bad base unit name: {n!r}")
            if n in seen:
                raise UnitError(f"duplicate base unit name: {n!r}")
            seen.add(n)
        for alias, vec in self.aliases.items():
            if not _NAME_RE.match(alias):
                raise UnitError(f"bad alias name: {alias!r}")
            if alias in seen:
                raise UnitError(f"alias shadows a base unit: {alias!r}")
            if len(vec) != len(self.names):
                raise UnitError(
                    f"alias {alias!r} has vector length {len(vec)}, expected {len(self.names)}"
                )

    @property
    def k(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def zero(self) -> UnitVector:
        return UnitVector.zero(self.k)

    def with_alias(self, name: str, definition) -> "BaseUnitSystem":
        """Return a copy with one more alias; definition is a UnitVector or expression string."""
        vec = definition if isinstance(definition, UnitVector) else parse_unit(definition, self)
        merged = dict(self.aliases)
        merged[name] = vec
        return BaseUnitSystem(self.names, merged)


def si_system(names: tuple[str, ...] = ("kg", "m", "s", "K")) -> BaseUnitSystem:
    """SI-style system over the given base names, with whichever of the stock
    aliases (N, J, Pa, W, Hz, V) are expressible in those names."""
    aliases = {}
    for alias, defn in _SI_ALIAS_DEFS.items():
        if all(base in names for base in defn):
            aliases[alias] = UnitVector(tuple(defn.get(n, 0) for n in names))
    return BaseUnitSystem(tuple(names), aliases)


def product_factors(expr: str) -> list[tuple[str, int]]:
    """The (name, exponent) factors of a whitespace-separated product, the
    one grammar of unit expressions and monomial expressions.

    Grammar: expr := factor (SP factor)* | "1" | "";  factor := NAME ("^" INT)?.
    "kg m^2 s^-2" gives [("kg", 1), ("m", 2), ("s", -2)]; "1" and "" give [].
    There is no division; write negative exponents.  MalformedExponent for a
    "^" not followed by an integer.
    """
    expr = expr.strip()
    if expr in ("", "1"):
        return []
    factors = []
    for token in expr.split():
        name, sep, exp_str = token.partition("^")
        try:
            factors.append((name, int(exp_str) if sep else 1))
        except ValueError:
            raise MalformedExponent(token) from None
    return factors


def format_product(names, exps) -> str:
    """Canonical product expression: factors in the order given, exponent 1
    left bare, zero exponents dropped, an empty product printed as "1"."""
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e != 0]
    return " ".join(parts) if parts else "1"


def parse_unit(expr: str, system: BaseUnitSystem) -> UnitVector:
    """The unit vector of a product_factors expression over the system's base
    units and aliases: "kg m^2 s^-2" over (kg, m, s) parses to (1, 2, -2),
    "1" and "" to the zero vector.  UnknownUnit for any other name."""
    total = [0] * system.k
    for name, exp in product_factors(expr):
        if name in system.names:
            total[system.index(name)] += exp
        elif name in system.aliases:
            for i, e in enumerate(system.aliases[name].exps):
                total[i] += exp * e
        else:
            raise UnknownUnit(name)
    return UnitVector(tuple(total))


def format_unit(units: UnitVector, system: BaseUnitSystem) -> str:
    """format_product over the base units in system order."""
    if len(units) != system.k:
        raise UnitMismatch(units, system.names, "unit vector and system")
    return format_product(system.names, units.exps)


@dataclass(frozen=True)
class Quantity:
    """A float value tagged with an exact unit vector.

    + needs equal unit vectors (UnitMismatch otherwise); * adds them, or
    scales the value by a plain number; ** takes an integer power."""

    value: float
    units: UnitVector

    def __add__(self, other):
        if not isinstance(other, Quantity):
            return NotImplemented
        if self.units != other.units:
            raise UnitMismatch(self.units, other.units)
        return Quantity(self.value + other.value, self.units)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value * other.value, self.units + other.units)
        return Quantity(self.value * other, self.units)

    __rmul__ = __mul__

    def __pow__(self, gamma: int):
        if not isinstance(gamma, int) or isinstance(gamma, bool):
            raise TypeError("quantity powers must be integers")
        if gamma < 0 and self.value == 0.0:
            raise ZeroDivisionError("zero raised to a negative power")
        return Quantity(self.value**gamma, self.units.scaled(gamma))


@dataclass(frozen=True)
class GroupElement:
    """A positive rescaling factor per base unit."""

    factors: tuple[float, ...]

    def __post_init__(self):
        for f in self.factors:
            if not (f > 0 and math.isfinite(f)):
                raise ValueError(f"group factors must be positive and finite, got {f!r}")


def scale_factor(g: GroupElement, units):
    """prod_j g_j ** -u_j, the multiplier the group action applies to a value
    with the given units: a float for a UnitVector, and for an (n, k)
    integer array of unit rows the (n,) array of each row's multiplier.

    This is the one place the action's factor is computed, as
    np.prod(factors ** -U, axis=-1).  OverflowError where a multiplier
    overflows."""
    U = np.asarray(units.exps if isinstance(units, UnitVector) else units)
    if U.shape[-1:] != (len(g.factors),):
        raise UnitMismatch(g.factors, U.shape, "group element and unit exponents")
    with np.errstate(over="raise"):
        try:
            out = np.prod(np.asarray(g.factors, dtype=float) ** -U, axis=-1)
        except FloatingPointError as err:
            raise OverflowError(f"{err}: factors {g.factors}, units {U.tolist()}") from None
    return float(out) if U.ndim == 1 else out


def rescale(g: GroupElement, x: Quantity) -> Quantity:
    """Apply a unit change: the unit vector is unchanged, the value picks up
    prod_j g_j^-u_j.  Shrinking a base unit makes the number bigger."""
    return Quantity(x.value * scale_factor(g, x.units), x.units)
