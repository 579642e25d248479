"""Exact integer linear algebra on arbitrary-precision integers.

Everything here works over Z with Python ints.  The Smith normal form
carries its unimodular transforms so that cokernels come with an
explicit projection onto the free part; ranks and determinants come from
fraction-free (Bareiss) elimination.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


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


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        bt = tuple(zip(*other.entries)) if other.entries else ()
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
            for row in self.entries
        )
        return IntMatrix(out)

    def row(self, i):
        return self.entries[i]


@dataclass(frozen=True)
class SmithDecomposition:
    """left * matrix * right == diag, with left and right unimodular.

    diag has the same shape as the input; its diagonal entries are
    nonnegative and each divides the next.
    """

    left: IntMatrix
    diag: IntMatrix
    right: IntMatrix

    def invariant_factors(self):
        n = min(self.diag.rows, self.diag.cols)
        return tuple(self.diag.entries[i][i] for i in range(n))

    def rank(self):
        return sum(1 for d in self.invariant_factors() if d != 0)


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


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with tracked unimodular transforms.

    Classic pivoting: bring the absolutely smallest nonzero entry of the
    working submatrix to the pivot, clear its row and column by division
    with remainder, then repair divisibility by folding in any offending
    entry.  Terminates because the pivot's absolute value strictly drops
    whenever a remainder survives.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    left = [list(row) for row in IntMatrix.identity(nr).entries]
    right = [list(row) for row in IntMatrix.identity(nc).entries]

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

    out = SmithDecomposition(
        IntMatrix.from_rows(left), IntMatrix.from_rows(a), IntMatrix.from_rows(right)
    )
    if out.left.mul(m).mul(out.right).entries != out.diag.entries:
        raise AssertionError("Smith normal form failed its self-check")
    return out


@dataclass(frozen=True)
class CokernelData:
    """coker(m) = Z^rows / column-span, split into free and torsion parts.

    projection maps Z^rows onto Z^free_rank (rows of the left transform
    over zero invariant factors).  torsion lists the invariant factors
    > 1; torsion_projection holds the matching left-transform rows, to
    be read modulo the factor.
    """

    free_rank: int
    torsion: tuple
    projection: IntMatrix
    torsion_projection: IntMatrix


def cokernel(m: IntMatrix) -> CokernelData:
    snf = smith_normal_form(m)
    rank = snf.rank()
    facs = snf.invariant_factors()
    free_rows = [snf.left.row(i) for i in range(rank, m.rows)]
    tor = tuple(facs[i] for i in range(rank) if facs[i] > 1)
    tor_rows = [snf.left.row(i) for i in range(rank) if facs[i] > 1]
    return CokernelData(
        free_rank=m.rows - rank,
        torsion=tor,
        projection=IntMatrix.from_rows(free_rows),
        torsion_projection=IntMatrix.from_rows(tor_rows),
    )


def _bareiss(rows):
    """Fraction-free (Bareiss 1968) row echelon: (rank, sign, pivot) with
    sign * pivot the determinant of a square nonsingular input.  Every
    entry stays a minor of the input, so each division is exact."""
    a = [list(r) for r in rows]
    rank, sign, prev = 0, 1, 1
    for k in range(len(a[0]) if a else 0):
        p = next((i for i in range(rank, len(a)) if a[i][k]), None)
        if p is None:
            continue
        if p != rank:
            a[rank], a[p] = a[p], a[rank]
            sign = -sign
        piv = a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][k]
            a[i] = [(x * piv[k] - f * y) // prev for x, y in zip(a[i], piv)]
        prev = piv[k]
        rank += 1
    return rank, sign, prev


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rank, sign, pivot = _bareiss(m.entries)
    return sign * pivot if rank == m.rows else 0


def matrix_rank(rows) -> int:
    """Rank over Q of a list of integer row vectors."""
    return _bareiss(rows)[0]
