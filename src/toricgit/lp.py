"""Exact linear programming: the feasibility LP of the chamber cell search.

One simplex loop, the dual simplex, on fraction-free integer tableaux.
SlackTableau, the feasibility LP rows.x >= 1 with no objective, serves
only vgit's chamber cell search.  with_rows adds rows to a copy, each in
terms of the current basis, and restores a nonnegative rhs by dual
simplex pivots; solve() is with_rows on the empty tableau, so the search
runs no primal solve, its root included (Avis and Fukuda 1996), and
nothing in the package runs the primal simplex.  Each row is the
rational row times one positive scale d, the absolute value of the
basis determinant, so the Bareiss update (p*x - f*y) // d of
linalg._pivot is exact (Bareiss 1968; lrs, Avis 2000).  Entries on one
scale compare as the rational ones do, so the pivots are those of the
rational tableau, and a solution is read off scaled, as integers.  The
loop pivots by Dantzig's rule with an automatic switch to Bland's rule
after enough iterations, which keeps runs fast in practice and
terminating in theory, under one iteration limit that raises
PivotLimit.  Scale here is tiny (dozens of rows), exactness is the
whole point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import _pivot

_MAX_PIVOTS = 100000


class PivotLimit(RuntimeError):
    pass


def _pivot_rule(m, n):
    """One item per simplex iteration on m rows and n columns: True
    while Dantzig's rule applies, False once Bland's rule takes over.
    Past _MAX_PIVOTS iterations it raises PivotLimit."""
    bland_after = 8 * (m + n) + 64
    for pivots in range(1, _MAX_PIVOTS + 1):
        yield pivots <= bland_after
    raise PivotLimit("simplex did not terminate")


def _dual_simplex(tab, basis, d):
    """Restore a nonnegative rhs to a tableau with no objective, in
    place; returns the final scale d, or None when the rows are
    infeasible.

    tab: m rows of length n+1 (last entry the rhs) on the scale d, basis
    columns d times identity; basis[i] labels row i's basic column.
    With no objective every basis is dual feasible and every ratio test
    ties, so each pivot leaves on a row with a negative rhs (the most negative, or
    under Bland's rule the smallest basic index) and enters that row's
    first negative entry.  A row with a negative rhs and no negative
    entry proves the rows infeasible (Farkas).
    """
    m, n = len(tab), len(tab[0]) - 1
    for dantzig in _pivot_rule(m, n):
        infeasible = [i for i in range(m) if tab[i][-1] < 0]
        if not infeasible:
            return d
        if dantzig:
            leave = min(infeasible, key=lambda i: tab[i][-1])
        else:
            leave = min(infeasible, key=basis.__getitem__)
        row = tab[leave]
        enter = next((j for j in range(n) if row[j] < 0), None)
        if enter is None:
            return None
        d = _pivot(tab, d, leave, enter)
        basis[leave] = enter


@dataclass
class SlackTableau:
    """Feasible integer tableau of rows.x >= 1.

    Over x = x+ - x- and one slack per row, all >= 0, row i reads
    -rows_i.x+ + rows_i.x- + s_i == -1.  Columns are x+, x-, the slacks
    in row order, then the rhs; rows are on the scale d, basis columns d
    times identity, and every rhs is >= 0.  By scaling, the rows have a
    point exactly when the open cell rows.x > 0 has one.
    """

    n: int
    tab: list
    basis: list
    d: int

    @classmethod
    def solve(cls, rows):
        """with_rows(rows) on the empty tableau; rows must be nonempty."""
        return cls(len(rows[0]), [], [], 1).with_rows(rows)

    def with_rows(self, rows):
        """A copy with rows.x >= 1 added, or None when they are infeasible.

        Each new row gets its own slack column, basic in that row, and
        is written in the current basis on the scale d as
        d*row - sum over basic columns j of row[j] * (j's tableau row);
        the basis determinant, and so d, is unchanged.  Only the new rhs
        can be negative, and the dual simplex pivots from there (Avis
        and Fukuda 1996; lrs).
        """
        n, d = self.n, self.d
        pad = [0] * len(rows)
        tab = [row[:-1] + pad + row[-1:] for row in self.tab]
        basis = list(self.basis)
        slacks = len(tab) + len(rows)
        for row in rows:
            coeff = [-v for v in row] + list(row)
            new = [d * v for v in coeff] + [0] * slacks + [-d]
            new[2 * n + len(tab)] = d
            for b, trow in zip(basis, tab):
                f = coeff[b] if b < 2 * n else 0
                if f:
                    new = [x - f * y for x, y in zip(new, trow)]
            basis.append(2 * n + len(tab))
            tab.append(new)
        d = _dual_simplex(tab, basis, d)
        return None if d is None else SlackTableau(n, tab, basis, d)

    def scaled_solution(self):
        """x at the basic point times the scale d, as integers."""
        n = self.n
        z = {j: row[-1] for j, row in zip(self.basis, self.tab) if j < 2 * n}
        return [z.get(j, 0) - z.get(n + j, 0) for j in range(n)]
