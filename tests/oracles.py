"""Independent oracles the tests hold the library against.

rational_solve is plain Gauss-Jordan elimination over Fraction, sharing
no code with the fraction-free integer pivot in toricgit.lp.
cox_ring_sections counts sections in the Cox ring, sharing no code with
either section engine in toricgit.fans (Brion's formula and the
Fourier-Motzkin walk), nor with the Smith form behind toricgit.cox.
"""

from fractions import Fraction
from math import lcm

_ZERO = Fraction(0)


def rational_solve(rows, rhs):
    """Solve rows.x == rhs exactly; None if inconsistent.

    Gaussian elimination over Fraction.  When the solution space is
    positive-dimensional the free variables are set to zero, so the
    answer is a particular solution.
    """
    m = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    n = len(rows[0]) if m else 0
    piv_cols = []
    r = 0
    for j in range(n):
        p = next((i for i in range(r, m) if a[i][j] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][j] for x in a[r]]
        for i in range(m):
            if i != r and a[i][j] != 0:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(j)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][-1] != 0:
            return None
    x = [_ZERO] * n
    for i, j in enumerate(piv_cols):
        x[j] = a[i][-1]
    return x


def cox_ring_sections(rays, max_cones, coefficients):
    """h^0(D) on a complete fan as a count of Cox-ring monomials.

    By Cox (1995), h^0(D) is the number of monomials x^a, a >= 0, with
    sum a_rho [D_rho] = [D] in Cl(X), torsion included: a - coefficients
    must lie in the lattice L of principal divisors (<u, v_rho>)_rho.  A
    dynamic program over the rays keeps, for each class, the number of
    partial monomials of that class; a class is its canonical
    representative modulo an echelon basis of L.  A positive relation
    sum c_rho v_rho = 0 gives the grading phi(a) = sum c_rho a_rho,
    which vanishes on L, so only classes with phi <= phi(D) are kept.
    """
    n = len(rays)
    c = _positive_relation(rays, max_cones)
    basis = _echelon([[r[k] for r in rays] for k in range(len(rays[0]))])

    def reduce(v):
        v = list(v)
        for col, row in basis:
            q = v[col] // row[col]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return tuple(v)

    def weight(v):
        return sum(x * y for x, y in zip(c, v))

    top = weight(coefficients)
    classes = {reduce([0] * n): 1}
    for rho in range(n):
        grown = {}
        for cls, count in classes.items():
            v = list(cls)
            while weight(v) <= top:
                key = reduce(v)
                grown[key] = grown.get(key, 0) + count
                v[rho] += 1
        classes = grown
    return classes.get(reduce(coefficients), 0)


def _positive_relation(rays, max_cones):
    """Integers c > 0 with sum c_rho v_rho = 0 on a complete fan.

    Each -v_rho lies in some maximal cone, which gives a relation with
    coefficient 1 on rho and nonnegative ones on the cone's rays; the
    sum of these relations is positive everywhere.
    """
    total = [Fraction(0)] * len(rays)
    for rho, v in enumerate(rays):
        total[rho] += 1
        for cone in max_cones:
            cols = [[rays[i][k] for i in cone] for k in range(len(v))]
            lam = rational_solve(cols, [-x for x in v])
            if lam is not None and min(lam) >= 0:
                for i, x in zip(cone, lam):
                    total[i] += x
                break
        else:
            raise ValueError("the fan is not complete")
    scale = lcm(*(x.denominator for x in total))
    return [int(x * scale) for x in total]


def _echelon(vectors):
    """(pivot column, row) pairs of an echelon basis of the lattice the
    integer vectors span: each row is zero left of its positive pivot,
    and pivot columns increase."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for col in range(len(rows[0]) if rows else 0):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        # Euclid on this column until one row is left
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            rest = []
            for r in live[1:]:
                q = r[col] // pivot[col]
                r = [x - q * y for x, y in zip(r, pivot)]
                (rest if r[col] else rows).append(r)
            live = [pivot] + rest
        if live:
            pivot = live[0]
            basis.append((col, pivot if pivot[col] > 0 else [-x for x in pivot]))
        rows = [r for r in rows if any(r)]
    return basis
