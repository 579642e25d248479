"""Independent oracles the tests hold the library against.

rational_solve is plain Gauss-Jordan elimination over Fraction, sharing
no code with the fraction-free integer pivot in toricgit.lp.
cox_ring_sections counts sections in the Cox ring, sharing no code with
either section engine in toricgit.fans (Brion's formula and the
Fourier-Motzkin walk), nor with the Smith form behind toricgit.cox.
duals_from_inequalities is the double description with every pos x neg
pair combined and redundant rays pruned by one LP each, against which
the adjacency-filtered toricgit.cones routine is held; the two share
only the integer helpers and the final projection off the lineality.
max_strict_slack is the two-phase formulation through simplex_max and
solve_nonneg, against which the slack-basis start in toricgit.lp is
held, and crossing_normals decides by one equality-constrained LP per
arrangement normal what toricgit.vgit reads off integer dot products.
arrangement_normals takes one integer kernel per rank-1 subset of the
degree classes, where toricgit.vgit reads the rows of basis inverses.
enumerate_cells is the cell search that solves every child LP from
scratch by that two-phase max_strict_slack, against which the dual
simplex warm start of toricgit.vgit is held.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from toricgit.cones import _combine, _reduce_mod_lineality
from toricgit.linalg import IntMatrix, _clear_denominators, _dot, kernel_basis
from toricgit.linalg import matrix_rank, primitive
from toricgit.linalg import saturated_row_basis, sign_normalized
from toricgit import vgit
from toricgit.lp import nonneg_combination, simplex_max

# Prune redundant rays by LP once an intermediate ray set grows past this.
_PRUNE_THRESHOLD = 24

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


def _member_with_lineality(rays, lin, v):
    gens = list(rays) + [l for l in lin] + [tuple(-x for x in l) for l in lin]
    return nonneg_combination(gens, v) is not None


def _prune_rays(rays, lin):
    """Drop rays expressible from the others (and the lineality)."""
    kept = sorted(set(rays))
    i = 0
    while i < len(kept):
        r = kept[i]
        rest = kept[:i] + kept[i + 1 :]
        if _member_with_lineality(rest, lin, r):
            kept.pop(i)
        else:
            i += 1
    return kept


def duals_from_inequalities(dim, normals):
    """Generators (lineality basis, extremal rays) of the solution cone
    {x : <a, x> >= 0 for every a in normals}.

    Starts from all of Q^dim and adds one halfspace at a time.  While a
    lineality direction pairs nontrivially with the new normal, that
    direction is consumed: it becomes a ray and everything else is
    sheared into the hyperplane.  Otherwise the standard positive/zero/
    negative ray split applies.
    """
    lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    todo = sorted(set(primitive(n) for n in normals if any(n)))
    for a in todo:
        l0 = next((l for l in lin if _dot(a, l) != 0), None)
        if l0 is not None:
            d0 = _dot(a, l0)
            if d0 < 0:
                l0 = tuple(-x for x in l0)
                d0 = -d0
            neg_l0 = tuple(-x for x in l0)
            lin = [
                _combine(l, d0, l0, -_dot(a, l))
                for l in lin
                if l != l0 and l != neg_l0
            ]
            rays = [_combine(r, d0, l0, -_dot(a, r)) for r in rays]
            rays.append(l0)
            rays = sorted(set(rays))
            continue
        pos = [r for r in rays if _dot(a, r) > 0]
        zero = [r for r in rays if _dot(a, r) == 0]
        neg = [r for r in rays if _dot(a, r) < 0]
        if not neg:
            continue
        new = pos + zero
        for p in pos:
            dp = _dot(a, p)
            for n in neg:
                dn = _dot(a, n)
                new.append(_combine(p, -dn, n, dp))
        rays = sorted(set(new))
        if len(rays) > _PRUNE_THRESHOLD:
            rays = _prune_rays(rays, lin)
    rays = _prune_rays(rays, lin)
    lin_basis = saturated_row_basis(lin, dim)
    return lin_basis, tuple(_reduce_mod_lineality(rays, lin_basis))


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
    a_ub = [[-v for v in row] + [1] for row in rows]
    a_ub.append([0] * n + [1])
    b_ub = [0] * len(rows) + [cap]
    a_eq = [list(row) + [0] for row in eq_rows]
    b_eq = [0] * len(eq_rows)
    c = [0] * n + [1]
    status, x, value = simplex_max(c, a_ub, b_ub, a_eq, b_eq)
    if status != "optimal":
        raise AssertionError(f"bounded feasible LP came back {status}")
    return (value, x[:n])


def crossing_normals(dm):
    """Arrangement normals whose hyperplane meets the interior of
    the effective cone.  Only these can separate chambers; the rest
    keep a constant sign over the whole cone and never branch."""
    eff_rows = vgit.effective_cone(dm).facet_normals
    crossing = []
    for n in vgit._arrangement_normals(dm):
        t, _ = max_strict_slack(eff_rows, eq_rows=[n])
        if t > 0:
            crossing.append(n)
    return tuple(crossing)


def enumerate_cells(dm):
    """(sign vector, integer interior witness) pairs over the crossing
    walls, sorted: a DFS that carries an interior witness down each
    branch and solves every other child's LP from scratch."""
    eff_rows = list(vgit.effective_cone(dm).facet_normals)
    normals = vgit._crossing_normals(dm)
    t, x0 = max_strict_slack(eff_rows)
    if t <= 0:
        raise AssertionError("effective cone must be full-dimensional")
    if not normals:
        return (((), _clear_denominators(x0)),)
    cells = []

    def rec(signs, rows, witness):
        if len(signs) == len(normals):
            cells.append((tuple(signs), _clear_denominators(witness)))
            return
        n = normals[len(signs)]
        d = _dot(n, witness)
        first = 1 if d >= 0 else -1
        for s in (first, -first):
            row = tuple(s * v for v in n)
            if s == first and d != 0:
                rec(signs + [s], rows + [row], witness)
                continue
            t, x = max_strict_slack(rows + [row])
            if t > 0:
                rec(signs + [s], rows + [row], x)

    rec([], eff_rows, x0)
    return tuple(sorted(cells))


def arrangement_normals(dm):
    """Hyperplanes spanned by rank-1-deficient subsets of the degrees."""
    rank = dm.cl_free_rank
    vectors = [vec for vec, _ in vgit._degree_classes(dm)]
    normals = set()
    for sub in combinations(vectors, rank - 1):
        if matrix_rank(sub) != rank - 1:
            continue
        ker = kernel_basis(IntMatrix.from_rows(sub))
        if ker.cols != 1:
            continue
        normals.add(sign_normalized(ker.column(0)))
    return sorted(normals)
