"""Exact integer linear algebra: Smith normal form, integer nullspace
lattices, and Diophantine solves.

Everything here runs on Python ints, so there is no overflow to guard
against and no floating point anywhere.  The Smith decomposition is the
workhorse: S * A * T = D with S, T unimodular and D diagonal with a
divisibility chain d_1 | d_2 | ... .  Rank, the left-nullspace lattice
{alpha : alpha^T A = 0}, and particular solutions of alpha^T A = b^T all
read off from it.
"""

from __future__ import annotations

from dataclasses import dataclass


class IntMatrix:
    """A dense integer matrix (row-major list of lists, copied on input)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(entries[0])
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged rows")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"entries must be ints, got {x!r}")
        self.rows = len(entries)
        self.cols = width
        self.entries = entries

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        bt = list(zip(*other.entries))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries]
        )

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __repr__(self):
        return f"IntMatrix({self.entries})"


def det(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    m = [row[:] for row in A.entries]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if m[t][t] == 0:
            for i in range(t + 1, n):
                if m[i][t] != 0:
                    m[t], m[i] = m[i], m[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
            m[i][t] = 0
        prev = m[t][t]
    return sign * m[n - 1][n - 1]


def adjugate(A: IntMatrix) -> IntMatrix:
    """Exact adjugate, adj(A) @ A = A @ adj(A) = det(A) * I, from cofactors."""
    if A.rows != A.cols:
        raise ValueError("adjugate of a non-square matrix")
    n = A.rows
    if n == 1:
        return IntMatrix([[1]])
    m = A.entries
    return IntMatrix([
        [(-1) ** (i + j) * det(IntMatrix([row[:i] + row[i + 1:]
                                          for r, row in enumerate(m) if r != j]))
         for j in range(n)]
        for i in range(n)
    ])


def nonsingular_minor(A: IntMatrix, row_order) -> tuple[list[int], list[int]]:
    """Rows R and columns C of A with A[R, C] nonsingular and |R| = rank(A).

    Rows are tried in row_order; one joins R when some unused column extends
    the nonsingular minor, which happens exactly when the row is independent
    of R, so R is the first basis of the row space in that order.
    """
    rows: list[int] = []
    cols: list[int] = []
    for i in row_order:
        for j in range(A.cols):
            if j not in cols and det(
                IntMatrix([[A.entries[a][b] for b in cols + [j]] for a in rows + [i]])
            ):
                rows.append(i)
                cols.append(j)
                break
    return rows, cols


@dataclass(frozen=True)
class SnfDecomposition:
    """S * A * T = D, with S (r x r) and T (c x c) unimodular."""

    S: IntMatrix
    D: IntMatrix
    T: IntMatrix

    def diagonal(self) -> list[int]:
        n = min(self.D.rows, self.D.cols)
        return [self.D.entries[i][i] for i in range(n)]

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


def smith_normal_form(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form by gcd reduction with min-|entry| pivoting.

    Row operations on the working copy are mirrored on S, column operations
    on T, so S*A*T = D holds at every step.  Each pivot round moves the
    smallest nonzero entry to the corner, clears its row and column by
    division with remainder, and, once clear, folds any entry the pivot does
    not divide back into the pivot row; the pivot magnitude strictly shrinks,
    so the round terminates with the corner dividing the whole trailing
    submatrix.
    """
    r, c = A.rows, A.cols
    m = [row[:] for row in A.entries]
    s = IntMatrix.identity(r).entries
    t_ = IntMatrix.identity(c).entries

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

    return SnfDecomposition(IntMatrix(s), IntMatrix(m), IntMatrix(t_))


def rank(A: IntMatrix) -> int:
    """Rank over the rationals (= number of nonzero Smith diagonal entries)."""
    return smith_normal_form(A).rank()


def _sign_normalized(vec):
    for x in vec:
        if x != 0:
            return tuple(vec) if x > 0 else tuple(-y for y in vec)
    return tuple(vec)


def nullspace_basis(A: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer lattice {alpha in Z^r : alpha^T A = 0}.

    With S*A*T = D, a row vector alpha^T kills A iff beta^T = alpha^T S^-1
    is supported on the zero rows of D, so the rows of S below the rank are
    a complete lattice basis (not merely a finite-index sublattice).  Rows of
    a unimodular matrix have coprime entries, so each basis vector is
    primitive; signs are normalized so the first nonzero entry is positive.
    """
    snf = smith_normal_form(A)
    rk = snf.rank()
    return [_sign_normalized(snf.S.entries[i]) for i in range(rk, A.rows)]


def solve_diophantine(A: IntMatrix, b):
    """One integer solution alpha of alpha^T A = b^T, or None.

    Substituting the Smith form turns the system into beta^T D = b^T T,
    which is solved by divisibility checks on the diagonal; back through
    alpha^T = beta^T S.  Free coordinates are set to zero, so the particular
    solution is deterministic.
    """
    b = list(b)
    if len(b) != A.cols:
        raise ValueError(f"right-hand side has length {len(b)}, expected {A.cols}")
    snf = smith_normal_form(A)
    r, c = A.rows, A.cols
    d = snf.D.entries
    t_ = snf.T.entries
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
    s = snf.S.entries
    return tuple(sum(beta[i] * s[i][j] for i in range(r)) for j in range(r))
