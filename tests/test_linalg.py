"""Exact linear algebra: frozen examples plus independent oracles.

The Smith form is cross-checked against the determinant-divisor
characterization (k-th divisor = gcd of all k x k minors, computed here
by brute force with cofactor determinants, independently of the library
code under test) on tiny matrices, and against sympy's invariant factors
up to 6 x 8.  The scaled inverse is held against Gauss-Jordan over
Fraction (oracles.rational_solve).
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import greedy_pivot_columns, kernel_basis, rational_solve
from toricgit.linalg import (
    _bareiss,
    _dot,
    cokernel,
    det,
    matrix_rank,
    primitive,
    scaled_inverse,
    sign_normalized,
    smith_normal_form,
)


def cofactor_det(rows):
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * x * cofactor_det(minor)
    return total


def invariant_factors_by_minor_gcd(entries):
    """Determinant-divisor oracle: d_k = gcd of k x k minors, f_k = d_k/d_{k-1}."""
    nr, nc = len(entries), len(entries[0]) if entries else 0
    divisors = []
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                sub = [[entries[i][j] for j in ci] for i in ri]
                g = gcd(g, cofactor_det([list(map(int, row)) for row in sub]))
        divisors.append(g)
    facs = []
    prev = 1
    for d in divisors:
        if d == 0 or prev == 0:
            facs.append(0)
        else:
            facs.append(d // prev)
        prev = d
    return tuple(facs)


small_matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda nr: st.integers(min_value=1, max_value=8).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)

tiny_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda nr: st.integers(min_value=1, max_value=5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)


# the largest shapes the sympy oracle below is asked about
sympy_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda nr: st.integers(min_value=1, max_value=8).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)


@st.composite
def rank_deficient_matrices(draw):
    """Up to 6 x 8, some rows integer combinations of earlier rows."""
    nc = draw(st.integers(min_value=1, max_value=8))
    entry = st.integers(min_value=-9, max_value=9)
    coeff = st.integers(min_value=-3, max_value=3)
    rows = draw(
        st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=1, max_size=5)
    )
    for _ in range(draw(st.integers(min_value=1, max_value=6 - len(rows)))):
        coeffs = draw(st.lists(coeff, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(nc)])
    return draw(st.permutations(rows))


rank_matrices = st.one_of(sympy_matrices, rank_deficient_matrices())


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-3,)) == (-1,)
    assert sign_normalized((0, -2, 4)) == (0, 1, -2)


def test_snf_frozen_diag_example():
    # oracle: 1x1 minors gcd(2,3)=1; the single 2x2 minor is 6
    _, factors, _ = smith_normal_form([[2, 0], [0, 3]])
    assert factors == (1, 6)


def test_snf_frozen_rectangular_example():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    # frozen from invariant_factors_by_minor_gcd: divisors 2, 4, 624
    assert invariant_factors_by_minor_gcd(m) == (2, 2, 156)
    _, factors, _ = smith_normal_form(m)
    assert factors == (2, 2, 156)


@settings(max_examples=150, deadline=None)
@given(tiny_matrices)
def test_snf_matches_minor_gcd_oracle(entries):
    _, factors, _ = smith_normal_form(entries)
    assert factors == invariant_factors_by_minor_gcd(entries)


@settings(max_examples=100, deadline=None)
@given(sympy_matrices)
def test_snf_matches_sympy_invariant_factors(entries):
    # sympy's Smith form shares no code with toricgit.linalg and, unlike
    # the minor-gcd oracle, stays cheap up to 6 x 8.
    sympy = pytest.importorskip("sympy")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    expected = normalforms.invariant_factors(sympy.Matrix(entries), domain=sympy.ZZ)
    _, factors, _ = smith_normal_form(entries)
    assert factors == tuple(int(f) for f in expected)


def mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_transforms_are_unimodular_witnesses(entries):
    left, facs, right = smith_normal_form(entries)
    nr, nc = len(entries), len(entries[0])
    diag = mul(mul(left, entries), right)
    assert [len(row) for row in diag] == [nc] * nr
    assert [diag[i][i] for i in range(min(nr, nc))] == list(facs)
    assert abs(det(left)) == 1
    assert abs(det(right)) == 1
    assert all(d >= 0 for d in facs)
    for a, b in zip(facs, facs[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    # off-diagonal must be zero
    for i, row in enumerate(diag):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


def test_kernel_of_projective_plane_ray_matrix():
    # rays of the projective plane as columns: e1, e2, -e1-e2
    k = kernel_basis([[1, 0, -1], [0, 1, -1]])
    assert len(k) == 1
    assert sign_normalized(k[0]) == (1, 1, 1)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_kernel_annihilates_and_is_saturated(entries):
    cols = len(entries[0])
    k = kernel_basis(entries)
    assert all(len(v) == cols for v in k)
    assert all(_dot(row, v) == 0 for row in entries for v in k)
    if k:
        _, facs, _ = smith_normal_form(k)
        assert all(f == 1 for f in facs)
    assert len(k) == cols - matrix_rank(entries)


def test_cokernel_of_line_ray_matrix():
    # P^1: ray matrix transpose is the 2x1 matrix (1, -1)^T, cokernel Z
    ck = cokernel([[1], [-1]])
    assert ck.free_rank == 1
    assert ck.torsion == ()
    row = ck.projection[0]
    assert row in ((1, 1), (-1, -1))


def test_cokernel_torsion():
    ck = cokernel([[2, 0], [0, 1]])
    assert ck.free_rank == 0
    assert ck.torsion == (2,)
    assert len(ck.torsion_projection) == 1


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_cokernel_projection_kills_image(entries):
    ck = cokernel(entries)
    if ck.free_rank:
        prod = mul(ck.projection, entries)
        assert all(all(x == 0 for x in row) for row in prod)
        # rows of a unimodular matrix: the projection is onto
        _, facs, _ = smith_normal_form(ck.projection)
        assert all(f == 1 for f in facs)


def test_matrix_rank_frozen_examples():
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[0, 2, 4], [0, 1, 2], [3, 0, 0]]) == 2
    assert matrix_rank([[1, 2], [3, 4], [5, 6]]) == 2


@settings(max_examples=200, deadline=None)
@given(rank_matrices)
def test_matrix_rank_matches_smith_form(entries):
    # the Smith form counts nonzero invariant factors by another route
    _, factors, _ = smith_normal_form(entries)
    assert matrix_rank(entries) == sum(1 for f in factors if f)


@settings(max_examples=200, deadline=None)
@given(rank_matrices)
def test_bareiss_pivots_are_the_greedy_columns(entries):
    # the pivot columns of one elimination are the first basis of the
    # column space in order, which one rank test per column also finds
    assert _bareiss(entries)[0] == greedy_pivot_columns(entries)
    transposed = [list(col) for col in zip(*entries)]
    assert _bareiss(transposed)[0] == greedy_pivot_columns(transposed)


@settings(max_examples=100, deadline=None)
@given(rank_matrices)
def test_matrix_rank_matches_sympy(entries):
    sympy = pytest.importorskip("sympy")
    assert matrix_rank(entries) == sympy.Matrix(entries).rank()


@settings(max_examples=100)
@given(tiny_matrices)
def test_det_matches_cofactor_expansion(entries):
    n = min(len(entries), len(entries[0]))
    square = [row[:n] for row in entries[:n]]
    assert det(square) == cofactor_det(square)


def test_det_rejects_a_non_square_matrix():
    with pytest.raises(ValueError):
        det([[1, 2]])
    with pytest.raises(ValueError):
        det([[1, 2], [3]])
    assert det([]) == 1


def test_scaled_inverse_frozen_examples():
    assert scaled_inverse([[2, 0], [1, 1]]) == ([[1, 0], [-1, 2]], 2)
    # det -2: d stays positive, so inv is minus the adjugate
    assert scaled_inverse([[1, 2], [3, 4]]) == ([[-4, 2], [3, -1]], 2)
    # a zero leading entry needs a row swap
    assert scaled_inverse([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], 1)
    assert scaled_inverse([]) == ([], 1)


def test_scaled_inverse_rejects_a_singular_matrix():
    with pytest.raises(ValueError):
        scaled_inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        scaled_inverse([[1, 0, 1], [0, 1, 1], [1, 1, 2]])


square = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=150)
@given(square)
def test_scaled_inverse_matches_fraction_oracle(rows):
    n = len(rows)
    determinant = det(rows)
    if determinant == 0:
        with pytest.raises(ValueError):
            scaled_inverse(rows)
        return
    inv, d = scaled_inverse(rows)
    assert d == abs(determinant)
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in rows]
    assert product == [[d * (i == j) for j in range(n)] for i in range(n)]
    for j, col in enumerate(zip(*inv)):
        e_j = [int(i == j) for i in range(n)]
        assert [Fraction(x, d) for x in col] == rational_solve(rows, e_j)
