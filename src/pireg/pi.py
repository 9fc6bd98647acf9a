"""Dimensionless monomial features and unit-restoring decoders.

A feature spec fixes d scalar features with integer unit vectors over k base
units.  Monomials are integer exponent vectors alpha; the units of x^alpha
are sum_i alpha_i u_i, so the dimensionless monomials form the integer
nullspace lattice of the d x k units matrix.  That lattice (via Smith normal
form) gives the feature basis; a Diophantine solve in the other direction
gives decoders, monomials carrying prescribed target units, which restore
dimensions to a dimensionless regression output.

Degree convention: degree(alpha) = max_i weight_i * |alpha_i|, with
per-feature weights from the spec (dot-product features are quadratic in the
raw inputs and carry weight 2).  total_degree(alpha) = sum_i |alpha_i| is
exposed separately; _degrees computes both.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .intlinalg import nullspace_basis, rank, smith_normal_form
from .units import (
    BaseUnitSystem,
    UnitMismatch,
    UnitVector,
    format_product,
    format_unit,
    parse_unit,
    product_factors,
)

SCHEMA_VERSION = 1


class DataError(ValueError):
    """A malformed data file or a non-finite value; the CLI exits 3 on it."""


class PoleAtZero(ArithmeticError):
    def __init__(self, feature_index, row):
        super().__init__(f"negative power of a zero value at feature {feature_index}, row {row}")
        self.feature_index = feature_index
        self.row = row

    def __reduce__(self):
        return type(self), (self.feature_index, self.row)


class NonFinite(ArithmeticError):
    pass


class EnumerationTooLarge(ValueError):
    def __init__(self, count, cap):
        super().__init__(f"enumeration would sweep {count} exponent entries (cap {cap})")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class FeatureDef:
    """Value-free descriptor of one scalar feature."""

    name: str
    units: UnitVector
    degree_weight: int = 1
    allow_negative_exponent: bool = True

    def __post_init__(self):
        if self.degree_weight < 1:
            raise ValueError(f"degree weight must be >= 1, got {self.degree_weight}")


@dataclass(frozen=True)
class FeatureSpec:
    """Ordered feature list plus the base-unit system their units live in."""

    features: tuple[FeatureDef, ...]
    system: BaseUnitSystem

    def __post_init__(self):
        if not self.features:
            raise ValueError("feature spec needs at least one feature")
        seen = set()
        for f in self.features:
            if f.name in seen:
                raise ValueError(f"duplicate feature name: {f.name!r}")
            seen.add(f.name)
            if len(f.units) != self.system.k:
                raise ValueError(
                    f"feature {f.name!r} has a unit vector of length {len(f.units)}, "
                    f"system has {self.system.k} base units"
                )

    @property
    def d(self) -> int:
        return len(self.features)

    @property
    def k(self) -> int:
        return self.system.k

    def names(self) -> list[str]:
        return [f.name for f in self.features]

    def index(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise KeyError(name)

    @functools.cached_property
    def units_array(self) -> np.ndarray:
        """The units matrix as a read-only (d, k) int64 array, built once."""
        U = np.array([f.units.exps for f in self.features], dtype=np.int64)
        U.flags.writeable = False
        return U

    def weights(self) -> tuple[int, ...]:
        return tuple(f.degree_weight for f in self.features)

    def to_json_dict(self) -> dict:
        return {
            "base_units": list(self.system.names),
            "aliases": {
                name: format_unit(vec, BaseUnitSystem(self.system.names))
                for name, vec in self.system.aliases.items()
            },
            "features": [
                {
                    "name": f.name,
                    "units": format_unit(f.units, self.system),
                    "degree_weight": f.degree_weight,
                    "allow_negative_exponent": f.allow_negative_exponent,
                }
                for f in self.features
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FeatureSpec":
        base = BaseUnitSystem(tuple(data["base_units"]))
        for name, expr in data.get("aliases", {}).items():
            base = base.with_alias(name, expr)
        feats = []
        for f in data["features"]:
            feats.append(
                FeatureDef(
                    f["name"],
                    parse_unit(f["units"], base),
                    int(f.get("degree_weight", 1)),
                    bool(f.get("allow_negative_exponent", True)),
                )
            )
        return cls(tuple(feats), base)


@dataclass(frozen=True)
class Monomial:
    """coeff * prod_i x_i ** exps_i over a feature spec's feature order: the
    read-only value that indexing or iterating a MonomialSet gives."""

    exps: tuple[int, ...]
    coeff: float = 1.0


@dataclass(frozen=True, eq=False)
class MonomialSet:
    """p monomials over d features: read-only copies of a (p, d) int64
    exponent array and a (p,) float64 coefficient array (default all 1).

    len, iteration and integer indexing give Monomial values; slicing and +
    give sets; == compares exponents and coefficients with another set.
    Every function that takes or stores monomials takes a set, one monomial
    (a decoder, a loss scale) as a one-row set.
    """

    exps: np.ndarray
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        exps = np.asarray(self.exps)
        if exps.ndim != 2 or exps.dtype.kind not in "iu":
            raise ValueError(f"exponents must be 2-D integers, not {exps.dtype} {exps.shape}")
        exps = exps.astype(np.int64)
        coeffs = np.ones(len(exps)) if self.coeffs is None else np.array(self.coeffs, dtype=float)
        if coeffs.shape != (len(exps),):
            raise ValueError(f"{len(exps)} monomials but coefficients of shape {coeffs.shape}")
        exps.flags.writeable = coeffs.flags.writeable = False
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def d(self) -> int:
        return self.exps.shape[1]

    def __len__(self) -> int:
        return len(self.exps)

    def __iter__(self):
        for exps, coeff in zip(self.exps.tolist(), self.coeffs.tolist()):
            yield Monomial(tuple(exps), coeff)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return MonomialSet(self.exps[i], self.coeffs[i])
        i = operator.index(i)
        return Monomial(tuple(self.exps[i].tolist()), float(self.coeffs[i]))

    def __add__(self, other) -> "MonomialSet":
        require_set(other, self.d)
        return MonomialSet(np.concatenate([self.exps, other.exps]),
                           np.concatenate([self.coeffs, other.coeffs]))

    def __eq__(self, other):
        if not isinstance(other, MonomialSet):
            return NotImplemented
        return np.array_equal(self.exps, other.exps) and np.array_equal(self.coeffs, other.coeffs)


def require_set(monomials, d: int, rows: int | None = None) -> None:
    """The entry check of every function that takes monomials: TypeError
    unless they are a MonomialSet, ValueError unless it has d columns and,
    where rows is given, that many rows."""
    if not isinstance(monomials, MonomialSet):
        raise TypeError(f"monomials must be a MonomialSet, not {type(monomials).__name__}")
    if monomials.d != d:
        raise ValueError(f"monomials have {monomials.d} exponents, expected {d}")
    if rows is not None and len(monomials) != rows:
        raise ValueError(f"expected {rows} monomial(s), got {len(monomials)}")


def _degrees(exps, weights=1) -> tuple[np.ndarray, np.ndarray]:
    """(degree, total_degree) of each exponent vector along exps' last axis:
    max_i weights_i |alpha_i| and sum_i |alpha_i|, 0 for no features."""
    mags = np.abs(np.asarray(exps, dtype=np.int64))
    return (mags * weights).max(axis=-1, initial=0), mags.sum(axis=-1)


def total_degree(m: Monomial) -> int:
    return int(_degrees(m.exps)[1])


def degree(m: Monomial, spec: FeatureSpec) -> int:
    return int(_degrees(m.exps, spec.weights())[0])


def monomial_units(m: Monomial, spec: FeatureSpec) -> UnitVector:
    return UnitVector(tuple((np.asarray(m.exps, dtype=np.int64) @ spec.units_array).tolist()))


def require_units(monomials: MonomialSet, spec: FeatureSpec, target: UnitVector,
                  what: str) -> None:
    """The one check that monomials carry the target units: UnitMismatch
    naming `what`, the first monomial that does not and both unit
    expressions, e.g. "the label and decoder 'm L' carry different units:
    kg m^2 s^-2 vs kg m"; require_set's errors first."""
    require_set(monomials, spec.d)
    expected = format_unit(target, spec.system)
    units = _unit_rows(monomials, spec)
    wrong = np.flatnonzero(np.any(units != np.array(target.exps, dtype=np.int64), axis=1))
    if len(wrong):
        j = int(wrong[0])
        raise UnitMismatch(expected, format_product(spec.system.names, units[j].tolist()),
                           f"{what} {format_monomial(monomials[j], spec)!r}")


def format_monomial(m: Monomial, spec: FeatureSpec) -> str:
    """format_product over the spec's feature names, e.g. "k_s L^2"."""
    return format_product(spec.names(), m.exps)


def parse_monomial(expr: str, spec: FeatureSpec) -> MonomialSet:
    """The one-row set of a "k_s L^2" style product over feature names ("1"
    is the constant): units.product_factors' grammar, so MalformedExponent
    for a bad exponent; ValueError for a name that is not a feature."""
    exps = [0] * spec.d
    for name, e in product_factors(expr):
        try:
            exps[spec.index(name)] += e
        except KeyError:
            raise ValueError(f"unknown feature {name!r} in monomial expression") from None
    return MonomialSet(np.array([exps], dtype=np.int64))


# ---------------------------------------------------------------------------
# evaluation

def _int_pow(base, n: int):
    """base ** n for an integer n != 0 by repeated squaring (1 / base first
    when n < 0), elementwise on arrays as on floats: the multiplication
    sequence depends on n alone."""
    if n < 0:
        base = 1.0 / base
        n = -n
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


# entries of the (p, rows) product a block of the fold works on: 512 KB,
# so the product and its gathered factor stay in a 2 MB L2 cache; the
# stacks of regress.equivariance_residuals keep to the same budget
_BLOCK_ENTRIES = 2**16


def build_design_matrix(rows, monomials: MonomialSet) -> np.ndarray:
    """(N, p) C-contiguous matrix X[t, j] = coeff_j * prod_i rows[t, i] ** exps_j[i].

    A fold over the features, block by block of rows: each distinct nonzero
    power of a feature column is computed once (_int_pow) and multiplied, in
    feature order, into the monomials that use it; exponent 0 multiplies by
    an exact 1.0.  So an entry does not depend on N or on the other
    monomials, and a one-row call equals a row of a batch bit for bit.

    The first failing monomial raises PoleAtZero (at its first feature with
    a negative exponent and a zero value, and that feature's first zero row)
    or else NonFinite (at its first non-finite row).  ValueError unless rows
    is 2-D; require_set's errors unless monomials have d columns.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be 2-D")
    n, d = rows.shape
    require_set(monomials, d)
    exps, coeffs = monomials.exps, monomials.coeffs[:, None]
    p = len(exps)
    folds = [(i, *np.unique(exps[:, i], return_inverse=True)) for i in range(d) if exps[:, i].any()]
    step = max(1, _BLOCK_ENTRIES // max(p, 1))
    X = np.empty((n, p))
    with np.errstate(all="ignore"):
        for start in range(0, n, step):
            block = rows[start:start + step]
            product = np.repeat(coeffs, len(block), axis=1)
            for i, powers, inverse in folds:
                table = np.stack([_int_pow(block[:, i], int(e)) if e else np.ones(len(block))
                                  for e in powers])
                product *= table[inverse]
            X[start:start + step] = product.T
    pole = (exps < 0) & (rows == 0.0).any(axis=0)
    bad = ~np.isfinite(X)
    failed = pole.any(axis=1) | bad.any(axis=0)
    if failed.any():
        j = int(np.argmax(failed))
        if pole[j].any():
            i = int(np.argmax(pole[j]))
            raise PoleAtZero(i, int(np.argmax(rows[:, i] == 0.0)))
        raise NonFinite(
            f"monomial evaluation overflowed at row {int(np.argmax(bad[:, j]))}: "
            f"exps={monomials[j].exps}"
        )
    return X


# ---------------------------------------------------------------------------
# lattice constructions

def dimensionless_basis(spec: FeatureSpec) -> MonomialSet:
    """Lattice basis of the dimensionless monomials, unit coefficient each.

    len == d - rank(U).  Deterministic: the Smith decomposition of the units
    matrix is pivoted deterministically and basis vectors are sign-normalized.
    """
    basis = nullspace_basis(spec.units_array)
    return MonomialSet(np.array(basis, dtype=np.int64).reshape(len(basis), spec.d))


def _exponent_ranges(spec: FeatureSpec, max_degree: int) -> list[range]:
    ranges = []
    for f in spec.features:
        cap = max_degree // f.degree_weight
        lo = -cap if f.allow_negative_exponent else 0
        ranges.append(range(lo, cap + 1))
    return ranges


# Most exponent entries (points x swept coordinates) one sweep may hold:
# 256 MB as an int64 array, of which the sweep builds a few.  The largest
# box a test or experiment sweeps, pendulum degree 2 without a unit target,
# holds 1.7 M.
_MAX_ENTRIES = 2**25


def lattice_points(
    spec: FeatureSpec, target_units: UnitVector | None, max_degree: int
) -> np.ndarray:
    """All exponent vectors alpha in the degree ball (each alpha_i in
    _exponent_ranges) with units alpha^T U == target_units, as a (p, d)
    int64 array in lexicographic row order; target_units=None drops the
    unit constraint and returns the whole ball.

    With a target, r = rank(U) pivot features P, the first basis of U's row
    space taken widest exponent range first, are solved for and only the box
    of the d - r free exponents is swept.  One Smith form S U_P T = D of the
    pivots' unit rows gives W = T[:, :r] diag(L / d_j) S, L = lcm(d_j), with
    U_P W = L I; for each free point the pivots are alpha_P = b W / L, b the
    target less the free features' units.  A point is kept when its pivots
    land in range and the whole point carries the target units, which holds
    only where the division is exact and the target lies in U's row space.
    Raises EnumerationTooLarge when the swept box's points times the swept
    coordinates exceed _MAX_ENTRIES, before any array is built.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if target_units is not None and len(target_units) != spec.k:
        raise ValueError("target units live in a different base system")
    ranges = _exponent_ranges(spec, max_degree)
    U = spec.units_array.tolist()
    rows: list[int] = []
    if target_units is not None:
        for i in sorted(range(spec.d), key=lambda i: (ranges[i].start - ranges[i].stop, i)):
            if len(rows) == spec.k:
                break
            if rank([U[j] for j in rows + [i]]) > len(rows):
                rows.append(i)
    free = [i for i in range(spec.d) if i not in rows]
    # stop - start, not len(), which raises past sys.maxsize: huge degrees reach the cap
    sizes = [ranges[i].stop - ranges[i].start for i in free]
    count = math.prod(sizes)
    if count * len(free) > _MAX_ENTRIES:
        raise EnumerationTooLarge(count * len(free), _MAX_ENTRIES)
    lo = np.array([ranges[i].start for i in free], dtype=np.int64)
    grid = np.indices(sizes, dtype=np.int64).reshape(len(free), count).T + lo
    if target_units is None:
        return grid
    Ua = spec.units_array
    target = np.array(target_units.exps, dtype=np.int64)
    pivot = np.empty((count, len(rows)), dtype=np.int64)
    if rows:
        snf = smith_normal_form([U[i] for i in rows])
        diag = snf.diagonal()
        lcm = math.lcm(*diag)
        W = [[sum(t[j] * (lcm // d) * snf.S[j][c] for j, d in enumerate(diag))
              for c in range(len(rows))] for t in snf.T]
        # |b| and |alpha^T U| stay below scale, and the solve multiplies b
        # by at most k * max|W|, so int64 holds every intermediate
        scale = max(map(abs, target_units.exps)) + sum(
            max(-r.start, r.stop - 1) * max(map(abs, row)) for r, row in zip(ranges, U))
        if scale * spec.k * max(abs(w) for row in W for w in row) >= 2**63:
            raise ValueError("unit exponents too large for the int64 lattice solve")
        # an inexact division floors to a pivot that fails the unit check
        pivot = (target - grid @ Ua[free]) @ np.array(W, dtype=np.int64) // lcm
        lo, hi = zip(*((ranges[i].start, ranges[i].stop - 1) for i in rows))
        keep = np.all((pivot >= lo) & (pivot <= hi), axis=1)
        grid, pivot = grid[keep], pivot[keep]
    pts = np.empty((len(grid), spec.d), dtype=np.int64)
    pts[:, free], pts[:, rows] = grid, pivot
    pts = pts[np.all(pts @ Ua == target, axis=1)]
    return pts[np.lexsort(pts.T[::-1])]


def enumerate_monomials(
    spec: FeatureSpec, max_degree: int, dimensionless_only: bool = False
) -> MonomialSet:
    """All monomials with degree(alpha) <= max_degree, honoring each feature's
    sign constraint, in lexicographic exponent order: lattice_points over
    the whole degree box, or with dimensionless_only over the units-matrix
    kernel, where only the d - rank(U) free exponents are swept (pendulum
    degree 4: 32,805 free points for 6,082 monomials, not a 23.9 M box).
    Raises EnumerationTooLarge when the swept box is too large (the cap is
    described at lattice_points).
    """
    target = spec.system.zero() if dimensionless_only else None
    return MonomialSet(lattice_points(spec, target, max_degree))


def sample_dimensional_monomials(
    spec: FeatureSpec, max_degree: int, n: int, seed: int
) -> MonomialSet:
    """Draw n distinct monomials with nonzero units, uniformly from the same
    degree box enumerate_monomials sweeps.  Used as contamination controls
    for the dimensionless regressions.

    Draws are exponent rows taken in order, each kept unless it is
    dimensionless or repeats a kept row; ValueError after 1000 n draws
    short of n.  A block of rows comes from one rng.integers call, which
    gives the values of one scalar call per exponent in row order.
    """
    ranges = _exponent_ranges(spec, max_degree)
    low = np.array([r.start for r in ranges], dtype=np.int64)
    high = np.array([r.stop for r in ranges], dtype=np.int64)
    rng = np.random.default_rng(seed)
    U = spec.units_array
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    attempts = 0
    while len(out) < n:
        if attempts >= 1000 * n:
            raise ValueError(
                f"could not find {n} distinct dimensional monomials at degree {max_degree}"
            )
        block = rng.integers(low, high, size=(min(n - len(out), 1000 * n - attempts), spec.d))
        attempts += len(block)
        for exps, dimensional in zip(map(tuple, block.tolist()), (block @ U).any(axis=1)):
            if dimensional and exps not in seen:
                seen.add(exps)
                out.append(exps)
                if len(out) == n:
                    break
    return MonomialSet(np.array(out, dtype=np.int64).reshape(n, spec.d))


def reynolds_project(m: Monomial, spec: FeatureSpec) -> Monomial:
    """Group-average a monomial: dimensionless monomials are fixed points,
    everything else averages to the zero monomial, coefficient 0.  Idempotent
    by inspection."""
    return m if monomial_units(m, spec).is_zero() else Monomial((0,) * spec.d, 0.0)


def decoder_solutions(
    spec: FeatureSpec, target_units: UnitVector, max_degree: int
) -> MonomialSet:
    """All monomials with the given target units and degree <= max_degree,
    sorted by (degree, total_degree, exponent tuple): the lattice_points
    solutions, so empty when no integer solution exists at all or none lands
    inside the degree ball.  EnumerationTooLarge when the free box of the
    lattice solve is too large (the cap is described at lattice_points).
    """
    pts = lattice_points(spec, target_units, max_degree)
    degrees, total_degrees = _degrees(pts, spec.weights())
    keys = tuple(pts.T[::-1]) + (total_degrees, degrees)
    return MonomialSet(pts[np.lexsort(keys)])


# ---------------------------------------------------------------------------
# serialization

def _unit_rows(monomials: MonomialSet, spec: FeatureSpec) -> np.ndarray:
    """(p, k) int64 unit exponents of the monomials, one row each."""
    return monomials.exps @ spec.units_array


def monomials_to_json(monomials: MonomialSet, spec: FeatureSpec) -> list[dict]:
    """One JSON object per monomial: its exps, coeff, degree and units."""
    exps = monomials.exps
    degrees = _degrees(exps, spec.weights())[0].tolist()
    return [
        {"exps": e, "coeff": c, "degree": g, "units": u}
        for e, c, g, u in zip(exps.tolist(), monomials.coeffs.tolist(), degrees,
                              _unit_rows(monomials, spec).tolist())
    ]


def finite_number(value, what: str) -> float:
    """A JSON number as a float; DataError naming `what` unless it is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise DataError(f"{what}: {value!r} is not a finite number")
    return float(value)


def monomials_from_json(entries, spec: FeatureSpec, what: str) -> MonomialSet:
    """The set whose monomials_to_json objects are `entries`.  DataError,
    naming the entry as `what` and its index, unless entries is a list of
    objects, each with d integer exponents within int64, a finite coeff
    (default 1) and, where stored, the units those exponents give; KeyError
    without "exps"."""
    if not isinstance(entries, list):
        raise DataError(f"expected a list of {what}s, got {type(entries).__name__}")
    rows, coeffs = [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"{what} {i}: expected an object, got {type(entry).__name__}")
        exps = entry["exps"]
        if not (isinstance(exps, list) and len(exps) == spec.d
                and all(isinstance(e, int) and not isinstance(e, bool) for e in exps)):
            raise DataError(f"{what} {i}: exps {exps!r} is not a list of {spec.d} integers")
        rows.append(exps)
        coeffs.append(finite_number(entry.get("coeff", 1.0), f"{what} {i}: coeff"))
    try:
        exps = np.array(rows, dtype=np.int64).reshape(len(rows), spec.d)
    except OverflowError:
        i = next(i for i, row in enumerate(rows) if not all(-2**63 <= e < 2**63 for e in row))
        raise DataError(f"{what} {i}: exps {rows[i]!r} has an entry outside int64") from None
    monomials = MonomialSet(exps, coeffs)
    for i, (entry, units) in enumerate(zip(entries, _unit_rows(monomials, spec).tolist())):
        if "units" in entry and entry["units"] != units:
            raise DataError(
                f"{what} {i}: stored units {entry['units']} disagree with computed units {units}"
            )
    return monomials


def save_monomials(path, monomials: MonomialSet, spec: FeatureSpec) -> None:
    require_set(monomials, spec.d)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "feature_names": spec.names(),
        "monomials": monomials_to_json(monomials, spec),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def read_json_file(path, parse):
    """parse(payload) for the JSON object in the file at path.  DataError
    naming the path for text that is not JSON (with the decoder's line and
    column), a value that is not an object, a key parse finds missing, or a
    DataError parse raises."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: not a JSON object")
    try:
        return parse(payload)
    except KeyError as e:
        raise DataError(f"{path}: missing key {e}") from None
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def load_monomials(path, spec: FeatureSpec) -> MonomialSet:
    """The monomials save_monomials wrote; DataError as read_json_file and
    monomials_from_json."""
    return read_json_file(
        path, lambda payload: monomials_from_json(payload["monomials"], spec, "monomial")
    )
