"""Exact linear programming and integer matrix inversion.

A dense tableau simplex on a fraction-free integer tableau, two-phase in
solve_nonneg and started from the feasible slack basis in
max_strict_slack without equalities.  Each row is the rational row times
one positive scale d, the absolute value of the basis determinant, so
the Bareiss update (p*x - f*y) // d is exact (Bareiss 1968; lrs, Avis
2000).  Entries on one scale compare as the rational ones do, so the
pivots are those of the rational tableau; Fraction appears only where a
solution is read off.  Pivoting is Dantzig's rule with an automatic
switch to Bland's rule after enough iterations, which keeps runs fast in
practice and terminating in theory.  Exact solves use scaled_inverse,
Gauss-Jordan through the same _pivot, so there is no second elimination
engine.  Scale here is tiny (dozens of rows), exactness is the whole
point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .linalg import _clear_denominators

_ZERO = Fraction(0)


class PivotLimit(RuntimeError):
    pass


def _pivot(tab, cost, d, leave, enter):
    """Bareiss pivot on tab[leave][enter] and the cost row, in place.

    Returns the new scale |p|; a negative pivot p negates the tableau.
    """
    prow = tab[leave]
    p = prow[enter]
    if p < 0:
        p = -p
        prow = tab[leave] = [-y for y in prow]
    for i, row in enumerate(tab):
        f = row[enter]
        if i == leave or (not f and p == d):
            continue
        tab[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
    f = cost[enter]
    cost[:] = [(p * x - f * y) // d for x, y in zip(cost, prow)]
    return p


def _simplex_core(tab, basis, cost, d):
    """Minimize over the integer tableau in place.

    tab: m rows of length n+1 (last entry the rhs) on the scale d, basis
    columns d times identity.  cost: length n+1 reduced-cost row on a
    positive multiple of d (last entry -objective).  Returns (status, d),
    status "optimal" or "unbounded", d the final scale.
    """
    m = len(tab)
    n = len(cost) - 1
    pivots = 0
    bland_after = 8 * (m + n) + 64
    while True:
        pivots += 1
        if pivots > 100000:
            raise PivotLimit("simplex did not terminate")
        enter = None
        if pivots <= bland_after:
            best = 0
            for j in range(n):
                if cost[j] < best:
                    best = cost[j]
                    enter = j
        else:
            for j in range(n):
                if cost[j] < 0:
                    enter = j
                    break
        if enter is None:
            return ("optimal", d)
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio test by cross-multiplication
                lhs = tab[i][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return ("unbounded", d)
        d = _pivot(tab, cost, d, leave, enter)
        basis[leave] = enter


def solve_nonneg(a_rows, b, c=None):
    """min c.x subject to a_rows.x == b, x >= 0 (exact).

    Entries are integers or Fractions.  Returns (status, x, value) with
    status one of "optimal", "infeasible", "unbounded"; x is a list of
    Fractions on success.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else (len(c) if c else 0)
    rows = [
        list(row) + [rhs] if rhs >= 0 else [-x for x in row] + [-rhs]
        for row, rhs in zip(a_rows, b)
    ]
    # phase 1: artificial basis.  The start is d times [A | I | b], d
    # the determinant of the integral basis diag(lcm of row denominators).
    d = prod(lcm(*(x.denominator for x in row)) for row in rows)
    tab = [[int(x * d) for x in row] for row in rows]
    for i, row in enumerate(tab):
        row[n:n] = [d * (k == i) for k in range(m)]
    basis = [n + i for i in range(m)]
    cost = [-sum(row[j] for row in tab) for j in range(n)] + [0] * m
    cost.append(-sum(row[-1] for row in tab))
    status, d = _simplex_core(tab, basis, cost, d)
    if status != "optimal" or cost[-1] < 0:
        return ("infeasible", None, None)

    # drive leftover artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is None:
                continue  # redundant row, harmless
            d = _pivot(tab, cost, d, i, piv)
            basis[i] = piv

    # phase 2, with the cost row on d times the obj cleared to integers
    tab = [row[:n] + [row[-1]] for row in tab]
    obj = list(c) if c is not None else [0] * n
    scaled = _clear_denominators(obj)
    cost = [d * v for v in scaled] + [0]
    for i in range(m):
        if basis[i] < n and scaled[basis[i]] != 0:
            f = scaled[basis[i]]
            cost = [x - f * y for x, y in zip(cost, tab[i])]
    status, d = _simplex_core(tab, basis, cost, d)
    if status == "unbounded":
        return ("unbounded", None, None)
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], d)
    value = sum(f * v for f, v in zip(obj, x)) if c is not None else _ZERO
    return ("optimal", x, value)


def simplex_max(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """max c.x over free x with a_ub.x <= b_ub and a_eq.x == b_eq.

    Free variables are split into differences of nonnegatives and slacks
    are appended, then everything goes through solve_nonneg.
    """
    n = len(c)
    n_ub = len(a_ub)
    rows = []
    rhs = []
    for row, bb in zip(a_ub, b_ub):
        rows.append(
            list(row) + [-x for x in row] + [int(k == len(rows)) for k in range(n_ub)]
        )
        rhs.append(bb)
    for row, bb in zip(a_eq, b_eq):
        rows.append(list(row) + [-x for x in row] + [0] * n_ub)
        rhs.append(bb)
    obj = [-x for x in c] + list(c) + [0] * n_ub
    status, z, value = solve_nonneg(rows, rhs, obj)
    if status != "optimal":
        return (status, None, None)
    x = [z[j] - z[n + j] for j in range(n)]
    return ("optimal", x, -value)


def max_strict_slack(rows, cap=1, eq_rows=()):
    """Largest t <= cap with rows.x >= t and eq_rows.x == 0; returns (t, x).

    The system is homogeneous in x so the optimum is either 0 (only
    degenerate solutions) or cap (an interior witness exists).  Always
    feasible: x = 0, t = 0.  Without eq_rows that origin is the slack
    basis of t - rows.x + s == 0, t + s == cap over x = x+ - x- and
    t, s >= 0, so the integer rows enter _simplex_core on the scale
    d = 1 and no phase 1 runs.  With eq_rows the LP goes through
    simplex_max.
    """
    if not rows and not eq_rows:
        return (Fraction(cap), [])
    n = len(rows[0]) if rows else len(eq_rows[0])
    if eq_rows:
        # variables (x, t): maximize t with t - rows.x <= 0 and t <= cap
        a_ub = [[-v for v in row] + [1] for row in rows] + [[0] * n + [1]]
        b_ub = [0] * len(rows) + [cap]
        a_eq = [list(row) + [0] for row in eq_rows]
        c = [0] * n + [1]
        status, x, t = simplex_max(c, a_ub, b_ub, a_eq, [0] * len(eq_rows))
    else:
        tab = [[-v for v in row] + list(row) + [1] for row in rows] + [[0] * (2 * n) + [1]]
        m = len(tab)
        for i, row in enumerate(tab):
            row += [int(k == i) for k in range(m)] + [cap * (i == m - 1)]
        basis = list(range(2 * n + 1, 2 * n + 1 + m))
        status, d = _simplex_core(tab, basis, [0] * (2 * n) + [-1] + [0] * (m + 1), 1)
        z = {j: Fraction(row[-1], d) for j, row in zip(basis, tab)}
        x = [z.get(j, _ZERO) - z.get(n + j, _ZERO) for j in range(n)]
        t = z.get(2 * n, _ZERO)
    if status != "optimal":
        raise AssertionError(f"bounded feasible LP came back {status}")
    return (t, x[:n])


def nonneg_combination(vectors, target):
    """Fractions lam >= 0 with sum lam_i vectors_i == target, or None."""
    if not vectors:
        return [] if all(x == 0 for x in target) else None
    cols = list(vectors)
    rows = [[v[d] for v in cols] for d in range(len(target))]
    status, lam, _ = solve_nonneg(rows, list(target))
    return lam if status == "optimal" else None


def in_cone(vectors, target):
    return nonneg_combination(vectors, target) is not None


def scaled_inverse(rows):
    """(inv, d) with rows . inv == d * I and d = |det(rows)| > 0.

    Gauss-Jordan on the integer matrix [rows | I] through _pivot, so the
    left block ends as d * I and the right block is inv.  Raises
    ValueError on a singular matrix.
    """
    n = len(rows)
    tab = [list(row) + [int(k == i) for k in range(n)] for i, row in enumerate(rows)]
    d = 1
    for j in range(n):
        p = next((i for i in range(j, n) if tab[i][j]), None)
        if p is None:
            raise ValueError("singular matrix has no scaled inverse")
        tab[j], tab[p] = tab[p], tab[j]
        d = _pivot(tab, [0] * n, d, j, j)
    return [row[n:] for row in tab], d
