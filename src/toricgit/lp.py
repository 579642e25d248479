"""Exact rational linear programming and Gaussian elimination.

A dense two-phase tableau simplex over fractions.Fraction.  Pivoting is
Dantzig's rule with an automatic switch to Bland's rule after enough
iterations, which keeps runs fast in practice and terminating in theory.
Scale here is tiny (dozens of rows), exactness is the whole point.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PivotLimit(RuntimeError):
    pass


def _simplex_core(tab, basis, cost, n_real):
    """Minimize over the standard-form tableau in place.

    tab: m rows of length n+1 (last entry the rhs), basis columns already
    identity.  cost: length n+1 reduced-cost row (last entry = -objective).
    Returns "optimal" or "unbounded".
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
            best = _ZERO
            for j in range(n):
                if cost[j] < best:
                    best = cost[j]
                    enter = j
        else:
            for j in range(n):
                if cost[j] < _ZERO:
                    enter = j
                    break
        if enter is None:
            return "optimal"
        leave = None
        best_ratio = None
        for i in range(m):
            a = tab[i][enter]
            if a > _ZERO:
                ratio = tab[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        piv = tab[leave][enter]
        row = [x / piv for x in tab[leave]]
        tab[leave] = row
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], row)]
        if cost[enter] != 0:
            f = cost[enter]
            for j in range(len(cost)):
                cost[j] -= f * row[j]
        basis[leave] = enter


def solve_nonneg(a_rows, b, c=None):
    """min c.x subject to a_rows.x == b, x >= 0 (exact).

    Returns (status, x, value) with status one of "optimal",
    "infeasible", "unbounded"; x is a list of Fractions on success.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else (len(c) if c else 0)
    rows = [[Fraction(x) for x in row] for row in a_rows]
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: artificial basis
    tab = [rows[i] + [_ONE if k == i else _ZERO for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [_ZERO] * (n + m + 1)
    for j in range(n + m):
        cost[j] = _ONE if j >= n else _ZERO
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= tab[i][j]
    status = _simplex_core(tab, basis, cost, n)
    if status != "optimal" or -cost[-1] > 0:
        return ("infeasible", None, None)

    # drive leftover artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is None:
                continue  # redundant row, harmless
            f = tab[i][piv]
            tab[i] = [x / f for x in tab[i]]
            for k in range(m):
                if k != i and tab[k][piv] != 0:
                    g = tab[k][piv]
                    tab[k] = [x - g * y for x, y in zip(tab[k], tab[i])]
            basis[i] = piv

    # phase 2
    tab = [row[:n] + [row[-1]] for row in tab]
    obj = [Fraction(x) for x in c] if c is not None else [_ZERO] * n
    cost = obj + [_ZERO]
    for i in range(m):
        if basis[i] < n and obj[basis[i]] != 0:
            f = obj[basis[i]]
            cost = [x - f * y for x, y in zip(cost, tab[i])]
    status = _simplex_core(tab, basis, cost, n)
    if status == "unbounded":
        return ("unbounded", None, None)
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
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
            [Fraction(x) for x in row]
            + [Fraction(-x) for x in row]
            + [_ONE if k == len(rows) else _ZERO for k in range(n_ub)]
        )
        rhs.append(Fraction(bb))
    for row, bb in zip(a_eq, b_eq):
        rows.append(
            [Fraction(x) for x in row] + [Fraction(-x) for x in row] + [_ZERO] * n_ub
        )
        rhs.append(Fraction(bb))
    obj = [Fraction(-x) for x in c] + [Fraction(x) for x in c] + [_ZERO] * n_ub
    status, z, value = solve_nonneg(rows, rhs, obj)
    if status != "optimal":
        return (status, None, None)
    x = [z[j] - z[n + j] for j in range(n)]
    return ("optimal", x, -value)


def max_strict_slack(rows, cap=1, eq_rows=()):
    """Largest t <= cap with rows.x >= t and eq_rows.x == 0; returns (t, x).

    The system is homogeneous in x so the optimum is either 0 (only
    degenerate solutions) or cap (an interior witness exists).  Always
    feasible: x = 0, t = 0.
    """
    if not rows and not eq_rows:
        return (Fraction(cap), [])
    n = len(rows[0]) if rows else len(eq_rows[0])
    # variables (x, t): maximize t with t - rows.x <= 0 and t <= cap
    a_ub = [[-Fraction(v) for v in row] + [_ONE] for row in rows]
    a_ub.append([_ZERO] * n + [_ONE])
    b_ub = [_ZERO] * len(rows) + [Fraction(cap)]
    a_eq = [[Fraction(v) for v in row] + [_ZERO] for row in eq_rows]
    b_eq = [_ZERO] * len(eq_rows)
    c = [_ZERO] * n + [_ONE]
    status, x, value = simplex_max(c, a_ub, b_ub, a_eq, b_eq)
    if status != "optimal":
        raise AssertionError(f"bounded feasible LP came back {status}")
    return (value, x[:n])


def nonneg_combination(vectors, target):
    """Fractions lam >= 0 with sum lam_i vectors_i == target, or None."""
    if not vectors:
        return [] if all(x == 0 for x in target) else None
    cols = list(vectors)
    rows = [[Fraction(v[d]) for v in cols] for d in range(len(target))]
    status, lam, _ = solve_nonneg(rows, [Fraction(t) for t in target])
    return lam if status == "optimal" else None


def in_cone(vectors, target):
    return nonneg_combination(vectors, target) is not None


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
