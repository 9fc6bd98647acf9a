"""Exact integer linear algebra: Smith normal form, integer nullspace
lattices, and Diophantine solves.

Every function takes a matrix as integer rows (nested sequences of ints,
or a 2-D integer numpy array) and works on Python ints, so there is no
overflow to guard against and no floating point anywhere.  The Smith
decomposition is the one elimination: S * A * T = D with S, T unimodular
and D diagonal with a divisibility chain d_1 | d_2 | ... .  Rank, the
left-nullspace lattice {alpha : alpha^T A = 0}, and particular solutions
of alpha^T A = b^T all read off from it, as does pi.lattice_points' exact
solve for its pivot exponents.
"""

from __future__ import annotations

from dataclasses import dataclass


def _rows(A) -> list[list[int]]:
    """A's rows as fresh lists of Python ints, an array's read by .tolist().
    ValueError for a matrix with no row or no column or with ragged rows;
    TypeError for an entry that is not an int (a bool, or any float array)."""
    rows = [list(row) for row in (A.tolist() if hasattr(A, "tolist") else A)]
    if not rows or not rows[0]:
        raise ValueError("matrix must have at least one row and one column")
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError("ragged rows")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"entries must be ints, got {x!r}")
    return rows


@dataclass(frozen=True)
class SnfDecomposition:
    """S * A * T = D as integer rows, with S (r x r) and T (c x c) unimodular."""

    S: list[list[int]]
    D: list[list[int]]
    T: list[list[int]]

    def diagonal(self) -> list[int]:
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0])))]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _min_abs_pivot(m, t, r, c):
    """Position of the smallest-magnitude nonzero entry of the trailing
    submatrix, scanning row-major; None if the submatrix is zero."""
    best = None
    best_val = None
    for i in range(t, r):
        for j in range(t, c):
            v = m[i][j]
            if v != 0 and (best_val is None or abs(v) < best_val):
                best = (i, j)
                best_val = abs(v)
                if best_val == 1:
                    return best
    return best


def smith_normal_form(A) -> SnfDecomposition:
    """Smith normal form by gcd reduction with min-|entry| pivoting.

    Row operations on the working copy are mirrored on S, column operations
    on T, so S*A*T = D holds at every step.  Each pivot round moves the
    smallest nonzero entry to the corner, clears its row and column by
    division with remainder, and, once clear, folds any entry the pivot does
    not divide back into the pivot row; the pivot magnitude strictly shrinks,
    so the round terminates with the corner dividing the whole trailing
    submatrix.
    """
    m = _rows(A)
    r, c = len(m), len(m[0])
    s = [[int(i == j) for j in range(r)] for i in range(r)]
    t_ = [[int(i == j) for j in range(c)] for i in range(c)]

    for t in range(min(r, c)):
        while True:
            pos = _min_abs_pivot(m, t, r, c)
            if pos is None:
                break
            pi, pj = pos
            if pi != t:
                m[t], m[pi] = m[pi], m[t]
                s[t], s[pi] = s[pi], s[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
                for row in t_:
                    row[t], row[pj] = row[pj], row[t]
            if m[t][t] < 0:
                m[t] = [-x for x in m[t]]
                s[t] = [-x for x in s[t]]
            p = m[t][t]

            dirty = False
            for i in range(t + 1, r):
                if m[i][t] != 0:
                    q = m[i][t] // p
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                        s[i] = [a - q * b for a, b in zip(s[i], s[t])]
                    if m[i][t] != 0:
                        dirty = True
            for j in range(t + 1, c):
                if m[t][j] != 0:
                    q = m[t][j] // p
                    if q:
                        for row in m:
                            row[j] -= q * row[t]
                        for row in t_:
                            row[j] -= q * row[t]
                    if m[t][j] != 0:
                        dirty = True
            if dirty:
                continue

            # Row and column are clear; enforce divisibility of the rest.
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if m[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
            s[t] = [a + b for a, b in zip(s[t], s[offender])]

    return SnfDecomposition(s, m, t_)


def rank(A) -> int:
    """Rank over the rationals (= number of nonzero Smith diagonal entries)."""
    return smith_normal_form(A).rank()


def _sign_normalized(vec):
    for x in vec:
        if x != 0:
            return tuple(vec) if x > 0 else tuple(-y for y in vec)
    return tuple(vec)


def nullspace_basis(A) -> list[tuple[int, ...]]:
    """Basis of the integer lattice {alpha in Z^r : alpha^T A = 0}.

    With S*A*T = D, a row vector alpha^T kills A iff beta^T = alpha^T S^-1
    is supported on the zero rows of D, so the rows of S below the rank are
    a complete lattice basis (not merely a finite-index sublattice).  Rows of
    a unimodular matrix have coprime entries, so each basis vector is
    primitive; signs are normalized so the first nonzero entry is positive.
    """
    snf = smith_normal_form(A)
    return [_sign_normalized(row) for row in snf.S[snf.rank():]]


def solve_diophantine(A, b):
    """One integer solution alpha of alpha^T A = b^T, or None.

    Substituting the Smith form turns the system into beta^T D = b^T T,
    which is solved by divisibility checks on the diagonal; back through
    alpha^T = beta^T S.  Free coordinates are set to zero, so the particular
    solution is deterministic.
    """
    snf = smith_normal_form(A)
    s, d, t_ = snf.S, snf.D, snf.T
    r, c = len(s), len(t_)
    b = list(b)
    if len(b) != c:
        raise ValueError(f"right-hand side has length {len(b)}, expected {c}")
    gamma = [sum(b[i] * t_[i][j] for i in range(c)) for j in range(c)]
    beta = [0] * r
    for j in range(c):
        dj = d[j][j] if j < min(r, c) else 0
        if dj != 0:
            if gamma[j] % dj != 0:
                return None
            beta[j] = gamma[j] // dj
        elif gamma[j] != 0:
            return None
    return tuple(sum(beta[i] * s[i][j] for i in range(r)) for j in range(r))
