"""Reduce scalar + 3-vector inputs to rotation-invariant scalar features.

The invariant scalars of a list of vectors under simultaneous rotation (and
reflection) are generated by norms and pairwise inner products, so the
features are: the raw scalars, one norm per vector, and one dot per
unordered pair.  scalarize gives their descriptors and invariant_rows their
values, both in that order.  Dot products get degree weight 2 (they are
bilinear in the inputs) and by default may not be raised to negative
powers, since they pass through zero; norms and raw scalars default to
weight 1 with negative powers allowed.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .pi import FeatureDef
from .units import UnitVector


class DuplicateName(ValueError):
    pass


def scalarize(
    scalars: Sequence[tuple[str, UnitVector]],
    vectors: Sequence[tuple[str, UnitVector]],
    negative_exponents: Mapping[str, bool] = {},
) -> list[FeatureDef]:
    """FeatureDefs of the invariants of named scalars and vectors, in
    invariant_rows' column order: raw scalars in input order, then norms
    "|v|" in vector order, then dots "a.b" over pairs (i, j), i < j, in
    vector order.  negative_exponents maps a feature name (e.g. "g.q") to
    its allow_negative_exponent, overriding the defaults.  DuplicateName
    when two features share a name."""
    named = [(name, units, 1, True) for name, units in scalars]
    named += [(f"|{name}|", units, 1, True) for name, units in vectors]
    named += [(f"{a}.{b}", ua + ub, 2, False) for (a, ua), (b, ub) in combinations(vectors, 2)]
    seen = set()
    for name, *_ in named:
        if name in seen:
            raise DuplicateName(name)
        seen.add(name)
    return [FeatureDef(name, units, weight, bool(negative_exponents.get(name, negative)))
            for name, units, weight, negative in named]


def invariant_rows(scalars: Sequence[np.ndarray], vectors: Sequence[np.ndarray]) -> np.ndarray:
    """(N, d) values of the invariants scalarize describes, for N samples of
    each scalar (shape (N,)) and each vector (shape (N, 3)): the scalars,
    then np.linalg.norm of each vector, then the row-wise dot of each pair
    (i, j), i < j."""
    norms = [np.linalg.norm(v, axis=1) for v in vectors]
    dots = [np.einsum("ij,ij->i", a, b) for a, b in combinations(vectors, 2)]
    return np.column_stack([*scalars, *norms, *dots])
