"""Reduce scalar + 3-vector inputs to rotation-invariant scalar features.

The invariant scalars of a list of vectors under simultaneous rotation (and
reflection) are generated by norms and pairwise inner products, so scalarize
emits: the raw scalars, one norm per vector, and one dot per unordered pair.
Dot products get degree weight 2 (they are bilinear in the inputs) and by
default may not be raised to negative powers, since they pass through zero;
norms and raw scalars default to weight 1 with negative powers allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .units import Quantity, UnitVector


class DuplicateName(ValueError):
    pass


@dataclass(frozen=True)
class VectorFeature:
    name: str
    components: tuple[float, float, float]
    units: UnitVector

    def __post_init__(self):
        if len(self.components) != 3:
            raise ValueError(f"vector feature {self.name!r} must have 3 components")


@dataclass(frozen=True)
class ScalarFeature:
    name: str
    value: float
    units: UnitVector
    degree_weight: int = 1
    allow_negative_exponent: bool = True


@dataclass(frozen=True)
class ScalarizeRules:
    """How to flag the emitted invariants.

    negative_exponent_overrides maps a produced feature name (e.g. "g.q") to
    an explicit allow_negative_exponent value, overriding the defaults.
    """

    negative_exponent_overrides: Mapping[str, bool] = field(default_factory=dict)

    def _allow_negative(self, name: str, default: bool) -> bool:
        return bool(self.negative_exponent_overrides.get(name, default))


def scalarize(
    scalars: Sequence[tuple[str, Quantity]],
    vectors: Sequence[VectorFeature],
    rules: ScalarizeRules = ScalarizeRules(),
) -> list[ScalarFeature]:
    """Deterministic feature order: raw scalars in input order, then norms in
    vector order, then dots over pairs (i, j), i < j, in vector order."""
    out = [
        ScalarFeature(name, q.value, q.units, 1, rules._allow_negative(name, True))
        for name, q in scalars
    ]
    for v in vectors:
        name = f"|{v.name}|"
        norm = math.sqrt(sum(c * c for c in v.components))
        out.append(ScalarFeature(name, norm, v.units, 1, rules._allow_negative(name, True)))
    for i, a in enumerate(vectors):
        for b in vectors[i + 1:]:
            name = f"{a.name}.{b.name}"
            dot = sum(x * y for x, y in zip(a.components, b.components))
            out.append(
                ScalarFeature(name, dot, a.units + b.units, 2, rules._allow_negative(name, False))
            )
    seen = set()
    for f in out:
        if f.name in seen:
            raise DuplicateName(f.name)
        seen.add(f.name)
    return out
