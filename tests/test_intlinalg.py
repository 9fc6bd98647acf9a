import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pireg.intlinalg import (
    IntMatrix,
    adjugate,
    det,
    nonsingular_minor,
    nullspace_basis,
    rank,
    smith_normal_form,
    solve_diophantine,
)


def rational_rank(rows):
    """Independent oracle: Gaussian elimination over exact rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


int_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-5, 5), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(IntMatrix)


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(3))
    assert snf.D == IntMatrix.identity(3)


def test_snf_worked_example():
    # invariant factors of [[2,4],[6,8]]: gcd of entries 2, then |det|/2 = 4
    snf = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert snf.diagonal() == [2, 4]
    assert snf.S @ IntMatrix([[2, 4], [6, 8]]) @ snf.T == snf.D


def test_snf_zero_matrix():
    zeros = IntMatrix([[0] * 3] * 2)
    snf = smith_normal_form(zeros)
    assert snf.D == zeros
    assert snf.rank() == 0


@given(int_matrices)
def test_snf_reconstruction_and_structure(A):
    snf = smith_normal_form(A)
    r, c = A.shape
    assert snf.S @ A @ snf.T == snf.D
    assert abs(det(snf.S)) == 1
    assert abs(det(snf.T)) == 1
    diag = snf.diagonal()
    for i in range(r):
        for j in range(c):
            if i != j:
                assert snf.D.entries[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0 or b == 0
        else:
            assert b == 0


@given(int_matrices)
def test_rank_matches_rational_elimination(A):
    assert rank(A) == rational_rank(A.entries)


def test_rank_three_velocities():
    assert rank(IntMatrix([[1, -1], [1, -1], [1, -1]])) == 1


def test_rank_planck_units():
    planck = IntMatrix(
        [
            [0, 1, 0, 0],  # wavelength
            [0, 0, 0, 1],  # temperature
            [0, 1, -1, 0],  # speed of light
            [1, 2, -2, -1],  # Boltzmann constant
        ]
    )
    assert rank(planck) == 4
    assert nullspace_basis(planck) == []


def test_nullspace_three_velocities():
    A = IntMatrix([[1, -1], [1, -1], [1, -1]])
    basis = nullspace_basis(A)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(v[i] * A.entries[i][j] for i in range(3)) == 0 for j in range(2))


def test_nullspace_single_dimensionless_feature():
    assert nullspace_basis(IntMatrix([[0, 0, 0]])) == [(1,)]


def brute_force_members(A, bound=3):
    r, c = A.shape
    out = set()
    for v in itertools.product(range(-bound, bound + 1), repeat=r):
        if all(sum(v[i] * A.entries[i][j] for i in range(r)) == 0 for j in range(c)):
            out.add(v)
    return out


@given(int_matrices)
@settings(max_examples=60)
def test_nullspace_basis_spans_brute_force_members(A):
    r, _ = A.shape
    basis = nullspace_basis(A)
    members = brute_force_members(A)
    # every basis vector lies in the kernel
    for v in basis:
        assert all(
            sum(v[i] * A.entries[i][j] for i in range(r)) == 0
            for j in range(A.shape[1])
        )
    # every small kernel vector is an integer combination of the basis:
    # solve alpha = x . B by treating B as a matrix equation over the lattice
    B = IntMatrix([list(v) for v in basis]) if basis else None
    for alpha in members:
        if B is None:
            assert all(a == 0 for a in alpha)
        else:
            assert solve_diophantine(B, list(alpha)) is not None


def test_solve_planck_decoder():
    planck = IntMatrix(
        [
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 1, -1, 0],
            [1, 2, -2, -1],
        ]
    )
    alpha = solve_diophantine(planck, [1, -1, -3, 0])
    assert alpha == (-4, 1, 1, 1)


def test_solve_zero_target():
    A = IntMatrix([[1, 2], [3, 4], [5, 6]])
    alpha = solve_diophantine(A, [0, 0])
    assert alpha is not None
    assert all(sum(alpha[i] * A.entries[i][j] for i in range(3)) == 0 for j in range(2))


def test_solve_parity_obstruction():
    assert solve_diophantine(IntMatrix([[2]]), [1]) is None


@given(int_matrices, st.lists(st.integers(-4, 4), min_size=1, max_size=6))
@settings(max_examples=60)
def test_solve_returns_actual_solutions(A, b):
    r, c = A.shape
    b = (b * c)[:c]
    alpha = solve_diophantine(A, b)
    if alpha is not None:
        assert all(
            sum(alpha[i] * A.entries[i][j] for i in range(r)) == b[j] for j in range(c)
        )


@given(int_matrices)
@settings(max_examples=60)
def test_solve_finds_planted_solutions(A):
    r, c = A.shape
    planted = [(-1) ** i * (i % 3) for i in range(r)]
    b = [sum(planted[i] * A.entries[i][j] for i in range(r)) for j in range(c)]
    assert solve_diophantine(A, b) is not None


def test_det_small_cases():
    assert det(IntMatrix([[5]])) == 5
    assert det(IntMatrix([[1, 2], [3, 4]])) == -2
    assert det(IntMatrix.identity(4)) == 1


def permutation_det(A):
    n = A.shape[0]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= A.entries[i][perm[i]]
        total += term
    return total


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
    )
).map(IntMatrix)


@given(square_matrices)
def test_det_matches_permutation_expansion(A):
    assert det(A) == permutation_det(A)


@given(square_matrices)
def test_adjugate_times_matrix_is_det_identity(A):
    scaled = IntMatrix([[det(A) if i == j else 0 for j in range(A.rows)]
                        for i in range(A.rows)])
    assert adjugate(A) @ A == scaled
    assert A @ adjugate(A) == scaled


@given(int_matrices, st.randoms(use_true_random=False))
def test_nonsingular_minor_is_first_row_basis(A, rnd):
    order = list(range(A.rows))
    rnd.shuffle(order)
    rows, cols = nonsingular_minor(A, order)
    assert len(rows) == len(cols) == rational_rank(A.entries)
    if rows:
        assert det(IntMatrix([[A.entries[i][j] for j in cols] for i in rows])) != 0
    # a row is skipped exactly when it depends on the rows tried before it
    for t, i in enumerate(order):
        tried = [A.entries[j] for j in order[: t + 1]]
        independent = rational_rank(tried) > rational_rank(tried[:-1]) if t else any(tried[0])
        assert (i in rows) == independent


def test_matmul_and_shape():
    A = IntMatrix([[1, 2], [3, 4]])
    B = IntMatrix([[0, 1], [1, 0]])
    assert (A @ B).entries == [[2, 1], [4, 3]]
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
