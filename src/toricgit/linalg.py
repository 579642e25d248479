"""Exact integer linear algebra on arbitrary-precision integers.

Everything here works over Z with Python ints, on plain lists of integer
rows.  One fraction-free (Bareiss) pivot, _pivot, is the one elimination
step behind the ranks and determinants of _bareiss, the scaled inverse,
the dual simplex of lp's chamber LP and the hyperplane search of the
basis table in cones.  The Smith normal form is the one elimination
that does not pivot through _pivot: it clears rows and columns by
division with remainder on one tableau, [rows | I] over [I | 0], which
carries both unimodular transforms, and returns them, so that cokernels
come with an explicit projection onto the free part.  The scaled
inverse, that search and the Smith form start their tableaux from the
cached _identity.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=64)
def _identity(n):
    """The n x n identity as a tuple of rows; callers copy what they pivot."""
    return tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))


def scaled_inverse(rows):
    """(inv, d) with rows . inv == d * I and d = |det(rows)| > 0.

    Gauss-Jordan on the integer matrix [rows | I] through _pivot, so the
    left block ends as d * I and the right block is inv.  Raises
    ValueError on a singular matrix.
    """
    n = len(rows)
    tab = [[*row, *unit] for row, unit in zip(rows, _identity(n))]
    d = 1
    for j in range(n):
        p = next((i for i in range(j, n) if tab[i][j]), None)
        if p is None:
            raise ValueError("singular matrix has no scaled inverse")
        tab[j], tab[p] = tab[p], tab[j]
        d = _pivot(tab, d, j, j)
    return [row[n:] for row in tab], d


def _mul(a, b):
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def smith_normal_form(rows):
    """(left, factors, right) with left . rows . right diagonal.

    left and right are unimodular, as lists of rows; factors is the
    diagonal, one entry per min(rows, cols), nonnegative and each
    dividing the next.  Classic pivoting: bring the absolutely smallest
    nonzero entry of the working submatrix to the pivot, clear its row
    and column by division with remainder, then repair divisibility by
    folding in any offending entry.  Terminates because the pivot's
    absolute value strictly drops whenever a remainder survives.  The
    steps run on one tableau, the rows of [rows | I] over those of
    [I | 0]: a row step on the top rows moves left with the working
    matrix, and a column step on the left columns moves right with it.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    zeros = (0,) * nr
    tab = [[*row, *unit] for row, unit in zip(rows, _identity(nr))]
    tab += [[*unit, *zeros] for unit in _identity(nc)]

    for t in range(min(nr, nc)):
        # the first absolutely smallest nonzero entry of the working submatrix
        found = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(tab[i][j])
                if v and (found is None or v < found[0]):
                    found = (v, i, j)
        if found is None:
            break
        _, pi, pj = found
        tab[t], tab[pi] = tab[pi], tab[t]
        for row in tab:
            row[t], row[pj] = row[pj], row[t]

        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, nr):
                if tab[i][t]:
                    q = tab[i][t] // tab[t][t]
                    tab[i] = [x - q * y for x, y in zip(tab[i], tab[t])]
                    if tab[i][t]:
                        tab[t], tab[i] = tab[i], tab[t]
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, nc):
                if tab[t][j]:
                    q = tab[t][j] // tab[t][t]
                    for row in tab:
                        row[j] -= q * row[t]
                    if tab[t][j]:
                        for row in tab:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if dirty:
                continue
            # divisibility of the trailing block
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if tab[i][j] % tab[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            tab[t] = [x + y for x, y in zip(tab[t], tab[offender])]

        if tab[t][t] < 0:
            tab[t] = [-x for x in tab[t]]

    a = [row[:nc] for row in tab[:nr]]
    left = [row[nc:] for row in tab[:nr]]
    right = [row[:nc] for row in tab[nr:]]
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
