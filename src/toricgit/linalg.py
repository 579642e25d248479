"""Exact integer linear algebra on arbitrary-precision integers.

Everything here works over Z with Python ints, on plain lists of integer
rows.  The Smith normal form returns its unimodular transforms, so that
cokernels come with an explicit projection onto the free part.  One
fraction-free (Bareiss) pivot, _pivot, is the only elimination step in
the package: it gives ranks and determinants here, the scaled inverse
and the dual simplex in lp, and the hyperplane search of the basis table
in cones.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul


def _dot(a, b):
    return sum(map(mul, a, b))


def primitive(vec):
    """Divide an integer vector by the gcd of its entries.

    The zero vector is returned unchanged.  Sign is preserved (no
    normalization), so (-2, 4) -> (-1, 2).
    """
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def sign_normalized(vec):
    """Scale a nonzero integer vector primitive with first nonzero entry > 0."""
    v = primitive(vec)
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return tuple(-y for y in v)
    return v


def _pivot(rows, d, leave, enter):
    """Bareiss pivot on rows[leave][enter], in place (Bareiss 1968).

    Every other row becomes (p*x - f*y) // d, with p the pivot, f the
    row's entry in the pivot column and y the pivot row; when each entry
    is a minor on the scale d, the division is exact.  A negative pivot
    first negates its row.  Returns the new scale |p|.
    """
    prow = rows[leave]
    p = prow[enter]
    if p < 0:
        p = -p
        prow[:] = [-y for y in prow]
    for i, row in enumerate(rows):
        f = row[enter]
        if i == leave or (not f and p == d):
            continue
        row[:] = [(p * x - f * y) // d for x, y in zip(row, prow)]
    return p


def _mul(a, b):
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _add_row(a, dst, src, q):
    a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_col(a, dst, src, q):
    for row in a:
        row[dst] = row[dst] - q * row[src]


def smith_normal_form(rows):
    """(left, factors, right) with left . rows . right diagonal.

    left and right are unimodular, as lists of rows; factors is the
    diagonal, one entry per min(rows, cols), nonnegative and each
    dividing the next.  Classic pivoting: bring the absolutely smallest
    nonzero entry of the working submatrix to the pivot, clear its row
    and column by division with remainder, then repair divisibility by
    folding in any offending entry.  Terminates because the pivot's
    absolute value strictly drops whenever a remainder survives.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    a = [list(row) for row in rows]
    left = [[int(i == j) for j in range(nr)] for i in range(nr)]
    right = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def pivot_search(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    for t in range(min(nr, nc)):
        found = pivot_search(t)
        if found is None:
            break
        _, pi, pj = found
        _swap_rows(a, t, pi)
        _swap_rows(left, t, pi)
        _swap_cols(a, t, pj)
        _swap_cols(right, t, pj)

        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    _add_row(a, i, t, q)
                    _add_row(left, i, t, q)
                    if a[i][t]:
                        _swap_rows(a, t, i)
                        _swap_rows(left, t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    _add_col(a, j, t, q)
                    _add_col(right, j, t, q)
                    if a[t][j]:
                        _swap_cols(a, t, j)
                        _swap_cols(right, t, j)
                        dirty = True
            if dirty:
                continue
            # divisibility of the trailing block
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(a, t, offender, -1)
            _add_row(left, t, offender, -1)

        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]

    if _mul(_mul(left, rows), right) != a:
        raise AssertionError("Smith normal form failed its self-check")
    return left, tuple(a[i][i] for i in range(min(nr, nc))), right


@dataclass(frozen=True)
class CokernelData:
    """coker(rows) = Z^len(rows) / column-span, split into free and
    torsion parts.

    projection maps Z^len(rows) onto Z^free_rank (rows of the left
    transform over zero invariant factors).  torsion lists the invariant
    factors > 1; torsion_projection holds the matching left-transform
    rows, to be read modulo the factor.  Both are tuples of row tuples.
    """

    free_rank: int
    torsion: tuple
    projection: tuple
    torsion_projection: tuple


def cokernel(rows) -> CokernelData:
    left, factors, _ = smith_normal_form(rows)
    rank = sum(1 for f in factors if f)
    return CokernelData(
        free_rank=len(rows) - rank,
        torsion=tuple(f for f in factors[:rank] if f > 1),
        projection=tuple(tuple(row) for row in left[rank:]),
        torsion_projection=tuple(
            tuple(row) for row, f in zip(left, factors[:rank]) if f > 1
        ),
    )


def _bareiss(rows):
    """Fraction-free row echelon through _pivot: (pivots, sign, pivot).

    pivots are the pivot columns, each the first that raises the rank of
    the columns before it.  sign * pivot is the determinant of a square
    nonsingular input; sign flips on each row swap and each negative
    pivot, which _pivot negates."""
    a = [list(r) for r in rows]
    pivots, sign, d = [], 1, 1
    for k in range(len(a[0]) if a else 0):
        rank = len(pivots)
        p = next((i for i in range(rank, len(a)) if a[i][k]), None)
        if p is None:
            continue
        if p != rank:
            a[rank], a[p] = a[p], a[rank]
            sign = -sign
        if a[rank][k] < 0:
            sign = -sign
        d = _pivot(a[rank:], d, 0, k)
        pivots.append(k)
    return pivots, sign, d


def det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant of a non-square matrix")
    pivots, sign, pivot = _bareiss(rows)
    return sign * pivot if len(pivots) == len(rows) else 0


def matrix_rank(rows) -> int:
    """Rank over Q of a list of integer row vectors."""
    return len(_bareiss(rows)[0])
