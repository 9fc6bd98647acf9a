import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pireg.intlinalg import (
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


def matmul(A, B):
    """Exact product of two integer row matrices."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def exact_det(A):
    """Independent oracle: determinant by Gaussian elimination over exact
    rationals."""
    m = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


int_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-5, 5), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_snf_identity():
    snf = smith_normal_form(identity(3))
    assert snf.D == identity(3)


def test_snf_worked_example():
    # invariant factors of [[2,4],[6,8]]: gcd of entries 2, then |det|/2 = 4
    snf = smith_normal_form([[2, 4], [6, 8]])
    assert snf.diagonal() == [2, 4]
    assert matmul(matmul(snf.S, [[2, 4], [6, 8]]), snf.T) == snf.D


def test_snf_zero_matrix():
    zeros = [[0] * 3] * 2
    snf = smith_normal_form(zeros)
    assert snf.D == zeros
    assert snf.rank() == 0


@given(int_matrices)
def test_snf_reconstruction_and_structure(A):
    snf = smith_normal_form(A)
    r, c = len(A), len(A[0])
    assert matmul(matmul(snf.S, A), snf.T) == snf.D
    assert abs(exact_det(snf.S)) == 1
    assert abs(exact_det(snf.T)) == 1
    diag = snf.diagonal()
    for i in range(r):
        for j in range(c):
            if i != j:
                assert snf.D[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0 or b == 0
        else:
            assert b == 0


@given(int_matrices)
def test_rank_matches_rational_elimination(A):
    assert rank(A) == rational_rank(A)


def test_rank_three_velocities():
    assert rank([[1, -1], [1, -1], [1, -1]]) == 1


def test_rank_planck_units():
    planck = [
        [0, 1, 0, 0],  # wavelength
        [0, 0, 0, 1],  # temperature
        [0, 1, -1, 0],  # speed of light
        [1, 2, -2, -1],  # Boltzmann constant
    ]
    assert rank(planck) == 4
    assert nullspace_basis(planck) == []


def test_nullspace_three_velocities():
    A = [[1, -1], [1, -1], [1, -1]]
    basis = nullspace_basis(A)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(v[i] * A[i][j] for i in range(3)) == 0 for j in range(2))


def test_nullspace_single_dimensionless_feature():
    assert nullspace_basis([[0, 0, 0]]) == [(1,)]


def brute_force_members(A, bound=3):
    r, c = len(A), len(A[0])
    out = set()
    for v in itertools.product(range(-bound, bound + 1), repeat=r):
        if all(sum(v[i] * A[i][j] for i in range(r)) == 0 for j in range(c)):
            out.add(v)
    return out


@given(int_matrices)
@settings(max_examples=60)
def test_nullspace_basis_spans_brute_force_members(A):
    r = len(A)
    basis = nullspace_basis(A)
    members = brute_force_members(A)
    # every basis vector lies in the kernel
    for v in basis:
        assert all(
            sum(v[i] * A[i][j] for i in range(r)) == 0
            for j in range(len(A[0]))
        )
    # every small kernel vector is an integer combination of the basis:
    # solve alpha = x . B by treating B as a matrix equation over the lattice
    B = basis or None
    for alpha in members:
        if B is None:
            assert all(a == 0 for a in alpha)
        else:
            assert solve_diophantine(B, list(alpha)) is not None


def test_solve_planck_decoder():
    planck = [
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 1, -1, 0],
        [1, 2, -2, -1],
    ]
    alpha = solve_diophantine(planck, [1, -1, -3, 0])
    assert alpha == (-4, 1, 1, 1)


def test_solve_zero_target():
    A = [[1, 2], [3, 4], [5, 6]]
    alpha = solve_diophantine(A, [0, 0])
    assert alpha is not None
    assert all(sum(alpha[i] * A[i][j] for i in range(3)) == 0 for j in range(2))


def test_solve_parity_obstruction():
    assert solve_diophantine([[2]], [1]) is None


@given(int_matrices, st.lists(st.integers(-4, 4), min_size=1, max_size=6))
@settings(max_examples=60)
def test_solve_returns_actual_solutions(A, b):
    r, c = len(A), len(A[0])
    b = (b * c)[:c]
    alpha = solve_diophantine(A, b)
    if alpha is not None:
        assert all(
            sum(alpha[i] * A[i][j] for i in range(r)) == b[j] for j in range(c)
        )


@given(int_matrices)
@settings(max_examples=60)
def test_solve_finds_planted_solutions(A):
    r, c = len(A), len(A[0])
    planted = [(-1) ** i * (i % 3) for i in range(r)]
    b = [sum(planted[i] * A[i][j] for i in range(r)) for j in range(c)]
    assert solve_diophantine(A, b) is not None


def permutation_det(A):
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= A[i][perm[i]]
        total += term
    return total


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(square_matrices)
def test_det_matches_permutation_expansion(A):
    assert exact_det(A) == permutation_det(A)


@pytest.mark.parametrize("bad", [[], [[]], [[1, 2], [3]], np.zeros((0, 2), dtype=np.int64)])
def test_entry_check_rejects_an_empty_or_ragged_matrix(bad):
    for f in (rank, nullspace_basis, smith_normal_form):
        with pytest.raises(ValueError):
            f(bad)


@pytest.mark.parametrize("bad", [[[1, 2.0]], [[True]], np.eye(2), np.ones((1, 1), dtype=bool)])
def test_entry_check_rejects_a_non_int_entry(bad):
    for f in (rank, nullspace_basis, smith_normal_form):
        with pytest.raises(TypeError, match="entries must be ints"):
            f(bad)


@given(int_matrices, st.lists(st.integers(-4, 4), min_size=6, max_size=6))
@settings(max_examples=60)
def test_int64_array_gives_what_its_rows_give(A, b):
    # the array is read into Python ints, so every result equals the rows'
    arr = np.array(A, dtype=np.int64)
    assert smith_normal_form(arr) == smith_normal_form(A)
    assert rank(arr) == rank(A)
    assert nullspace_basis(arr) == nullspace_basis(A)
    assert solve_diophantine(arr, b[: len(A[0])]) == solve_diophantine(A, b[: len(A[0])])
