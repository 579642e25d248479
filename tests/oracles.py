"""Independent oracles the tests hold the library against.

rational_solve is plain Gauss-Jordan elimination over Fraction, sharing
no code with the fraction-free integer pivot in toricgit.lp.
rational_solve_nonneg is the two-phase simplex with an objective over
Fraction, with the pivot rules of toricgit.lp, and simplex_max poses
free variables and inequalities on it; toricgit.lp itself keeps only
the feasibility tableau and its dual simplex.  simplex_core is the
integer primal loop on linalg._pivot, with the pivot rules of
toricgit.lp, which the library no longer runs.  in_cone is a phase-1
verdict on it, and solve_nonneg is that phase 1 on integer or Fraction
entries with its basic solution read off; nonneg_combination poses cone
membership on it, against which in_cone is held.
cox_ring_sections counts sections in the Cox ring, sharing no code with
Brion's formula in toricgit.fans, nor with the Smith form behind
toricgit.cox.  walk_sections counts the lattice points of the divisor
polytope by a Fourier-Motzkin projection and a memoized walk over the
prefixes, under _NODE_BUDGET steps; divisor_polytope gives its rows and
those of the box scan in the tests.
duals_from_inequalities is the double description with every pos x neg
pair combined and redundant rays pruned by one LP each, against which
the adjacency-filtered toricgit.cones routine is held; the two share
only the integer helpers, and canonical_form is this file's own, by
Gauss-Jordan over Fraction.
max_strict_slack poses t > 0 as the phase-1 problem rows.x - s == 1,
eq_rows.x == 0 on solve_nonneg, against which the feasibility tableau
of toricgit.lp and the projectivity that toricgit.fans.validate reads
off the nef cone's double description are held, and crossing_normals decides
by one such LP with an equality per arrangement normal what
toricgit.vgit reads off the signs of integer dot products.
arrangement_normals takes one integer kernel, from the Smith form's
right transform, per rank-1 subset of the degree classes, where
toricgit.vgit reads the free row of a search stopped one pivot short of
a basis.  basis_inverses inverts every basis of the classes in one
fraction-free search, and basis_table sign-normalizes and numbers every
row of every inverse, against which the table toricgit.vgit reads off
one normal per hyperplane is held.
enumerate_cells is the cell search over the walls of crossing_normals
that solves every child LP from scratch by that phase-1
max_strict_slack, against which the dual simplex warm start of
toricgit.vgit is held, and
chambers_cover_effective certifies that its cells tile the effective
cone.  lp_membership decides which sets of degree classes have a cone
containing a character by one in_cone LP per set of at most rank
classes, where toricgit.vgit runs a sign test on the basis inverses.
stable_base_locus_codim takes the support of every mask that the ample
character's membership has and chi's lacks, where toricgit.vgit weighs
only the maximal ones.
chamber_closure intersects the cones of its member masks, against which
the witness toricgit.vgit reads off the basis cones of a chamber is
held.  is_boundary_character builds one cone by double description per
member mask and tests strictly_contains, relative-interior membership
read off the dual, where toricgit.vgit counts the classes of the masks.
greedy_pivot_columns picks each column that raises the rank of the
columns picked so far, one matrix_rank per column, where
toricgit.linalg._bareiss reads them off one elimination.
smallest_hitting_set_size scans the subsets of the variables by
increasing size for one that meets every generator support, sharing no
code with the bitmask search of toricgit.cox.zero_locus_codim.
is_m_neighborly tests each m-set of rays against every maximal cone as
Python sets, where toricgit.fans tests bitmasks against the masks a Fan
keeps.  _max_neighborly raises m while every (m + 1)-set of rays lies
in a maximal cone, by that oracle, against which the max_neighborly_m
that toricgit.cli reads off that codimension is held.
_minimal_hitting_sets lists every minimal hitting set by branching on
the first unhit support; stanley_reisner takes their complements as the
facets of the Stanley-Reisner complex (a FaceComplex),
prime_decomposition the complements of those facets as the coordinate
primes, and contains_monomial tests a monomial against the generators.
ample_signature_matches_irrelevant_ideal holds the ample character's
unstable facets from toricgit.vgit against those Stanley-Reisner facets.
chamber_fan builds the fan whose maximal cones are the complements of
the minimal hitting sets of the complements of a chamber signature's
facets, and moving_chamber_is_a_fan asks that a chamber inside the
moving cone be that fan's nef cone, read off its wall rows, where
toricgit.vgit finds the chamber by its cell search and membership table.
nef_cone_by_cones intersects, over the maximal cones, the cone the
degrees off each one generate, one scaled inverse per cone, where
toricgit.vgit.nef_cone maps the rays of one double description of the
wall rows.
vertex_nef solves for each vertex u_sigma over Fraction and tests it
against every ray outside sigma, where toricgit.fans tests the wall
rows.  acts_freely_by_smith asks that the Smith form of each cone's
degree and torsion rows be the identity, where toricgit.cox takes one
determinant.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from toricgit.cones import _combine, cone_from_generators, cone_from_inequalities, cones_equal
from toricgit.linalg import _dot, _pivot, matrix_rank, primitive
from toricgit.linalg import sign_normalized, smith_normal_form
from toricgit import cox, vgit
from toricgit.fans import Fan, _is_antichain, _mask, validate
from toricgit.lp import PivotLimit, _identity, _pivot_rule, scaled_inverse

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


def _clear_denominators(vec):
    """Scale a rational vector by the lcm of its denominators; the
    result is an integer tuple."""
    den = lcm(*(x.denominator for x in vec))
    return tuple(int(x * den) for x in vec)


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


def greedy_pivot_columns(rows):
    """The first basis of the column space in order: each column that
    raises the rank of the columns picked before it."""
    piv = []
    for j in range(len(rows[0]) if rows else 0):
        if matrix_rank([[r[c] for c in piv + [j]] for r in rows]) > len(piv):
            piv.append(j)
    return piv


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
    return canonical_form(lin, _prune_rays(rays, lin))


def canonical_form(lin, rays):
    """(basis, rays) in the canonical form of toricgit.cones, by
    Gauss-Jordan over Fraction.

    The basis is the reduced row echelon form of span(lin), each row
    made a primitive integer row.  Each ray is zeroed on the pivot
    columns by those rows and made primitive; the nonzero ones come back
    sorted and distinct.
    """
    a = [[Fraction(x) for x in row] for row in lin]
    piv = []
    for j in range(len(a[0]) if a else 0):
        r = len(piv)
        p = next((i for i in range(r, len(a)) if a[i][j]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][j] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][j]:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv.append(j)
    echelon = a[: len(piv)]
    out = set()
    for ray in rays:
        v = [Fraction(x) for x in ray]
        for j, row in zip(piv, echelon):
            v = [x - v[j] * y for x, y in zip(v, row)]
        if any(v):
            out.add(primitive(_clear_denominators(v)))
    basis = tuple(primitive(_clear_denominators(row)) for row in echelon)
    return basis, tuple(sorted(out))


def simplex_core(tab, basis, cost, d):
    """Minimize an LP over the integer tableau in place.

    tab: m rows of length n+1 (last entry the rhs) on the scale d, basis
    columns d times identity; basis[i] labels row i's basic column, which
    may lie past n and go unstored, and then never enters again.  cost:
    length n+1 reduced-cost row on a positive multiple of d (last entry
    -objective), pivoted with the tableau as its last row.  Returns the
    final scale d, or None when the LP is unbounded.  Each pivot is one
    linalg._pivot, chosen by toricgit.lp's _pivot_rule.
    """
    m = len(tab)
    n = len(cost) - 1
    rows = tab + [cost]
    for dantzig in _pivot_rule(m, n):
        enter = None
        if dantzig:
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
            return d
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
            return None
        d = _pivot(rows, d, leave, enter)
        basis[leave] = enter


def rational_simplex_core(tab, basis, cost):
    """Minimize over a Fraction tableau in place, with the pivot rules
    of toricgit.lp: Dantzig's rule, then Bland's after 8 (m + n) + 64
    iterations, ties in the ratio test to the smallest basic index.
    Returns "optimal" or "unbounded"."""
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
                if cost[j] < 0:
                    enter = j
                    break
        if enter is None:
            return "optimal"
        leave = None
        best_ratio = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
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


def rational_solve_nonneg(a_rows, b, c=None):
    """min c.x subject to a_rows.x == b, x >= 0, two-phase over Fraction.

    Returns (status, x, value), status one of "optimal", "infeasible",
    "unbounded".  Without c, x is the point phase 1 ends at, which is
    what toricgit.lp.solve_nonneg returns.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else (len(c) if c else 0)
    rows = [[Fraction(x) for x in row] for row in a_rows]
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    one = Fraction(1)
    tab = [rows[i] + [one if k == i else _ZERO for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [_ZERO] * (n + m + 1)
    for j in range(n + m):
        cost[j] = one if j >= n else _ZERO
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= tab[i][j]
    status = rational_simplex_core(tab, basis, cost)
    if status != "optimal" or -cost[-1] > 0:
        return ("infeasible", None, None)
    # drive leftover artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is None:
                continue  # redundant row
            f = tab[i][piv]
            tab[i] = [x / f for x in tab[i]]
            for k in range(m):
                if k != i and tab[k][piv] != 0:
                    g = tab[k][piv]
                    tab[k] = [x - g * y for x, y in zip(tab[k], tab[i])]
            basis[i] = piv
    tab = [row[:n] + [row[-1]] for row in tab]
    obj = [Fraction(x) for x in c] if c is not None else [_ZERO] * n
    cost = obj + [_ZERO]
    for i in range(m):
        if basis[i] < n and obj[basis[i]] != 0:
            f = obj[basis[i]]
            cost = [x - f * y for x, y in zip(cost, tab[i])]
    status = rational_simplex_core(tab, basis, cost)
    if status == "unbounded":
        return ("unbounded", None, None)
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    return ("optimal", x, sum(f * v for f, v in zip(obj, x)))


def solve_nonneg(a_rows, b):
    """Some x >= 0 with a_rows.x == b (exact), or None if there is none.

    Entries are integers or Fractions; x is a list of Fractions.  This is
    phase 1 alone on the integer simplex_core: x is the basic
    solution it ends at, and an artificial left basic at zero (on a
    redundant row) is ignored.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    rows = [
        list(row) + [rhs] if rhs >= 0 else [-x for x in row] + [-rhs]
        for row, rhs in zip(a_rows, b)
    ]
    # artificial basis.  The start is d times [A | I | b], d the
    # determinant of the integral basis diag(lcm of row denominators).
    d = prod(lcm(*(x.denominator for x in row)) for row in rows)
    tab = [[int(x * d) for x in row] for row in rows]
    for i, row in enumerate(tab):
        row[n:n] = [d * (k == i) for k in range(m)]
    basis = [n + i for i in range(m)]
    cost = [-sum(row[j] for row in tab) for j in range(n)] + [0] * m
    cost.append(-sum(row[-1] for row in tab))
    d = simplex_core(tab, basis, cost, d)
    if cost[-1] < 0:
        return None
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], d)
    return x


def in_cone(vectors, target):
    """Whether the integer target is a nonnegative combination of the
    integer vectors.

    Phase 1 alone, from the artificial basis of [A | I | b] with the
    vectors as the columns of A and each row signed so that b >= 0; that
    basis is the identity, so the scale starts at 1.  The target is in
    the cone exactly when phase 1 drives the sum of the artificials to
    zero; the cost row's last entry is minus that sum on the final
    scale.  The I block is not stored: an artificial that leaves the
    basis may stay at zero without changing that verdict, so none
    re-enters, and pivots on the other columns never read it.
    """
    if not vectors or not target:
        return not any(target)
    tab = [
        (list(row) if b >= 0 else [-v for v in row]) + [abs(b)]
        for row, b in zip(zip(*vectors), target)
    ]
    n = len(vectors)
    cost = [-sum(col) for col in zip(*tab)]
    simplex_core(tab, list(range(n, n + len(target))), cost, 1)
    return cost[-1] >= 0


def nonneg_combination(vectors, target):
    """Fractions lam >= 0 with sum lam_i vectors_i == target, or None."""
    if not vectors:
        return [] if all(x == 0 for x in target) else None
    rows = [[v[i] for v in vectors] for i in range(len(target))]
    return solve_nonneg(rows, list(target))


def simplex_max(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """max c.x over free x with a_ub.x <= b_ub and a_eq.x == b_eq.

    Free variables are split into differences of nonnegatives and slacks
    are appended, then everything goes through rational_solve_nonneg.
    Returns (status, x, value) as that does.
    """
    n = len(c)
    n_ub = len(a_ub)
    rows = [
        list(row) + [-x for x in row] + [int(k == i) for k in range(n_ub)]
        for i, row in enumerate(a_ub)
    ]
    rows += [list(row) + [-x for x in row] + [0] * n_ub for row in a_eq]
    obj = [-x for x in c] + list(c) + [0] * n_ub
    status, z, value = rational_solve_nonneg(rows, list(b_ub) + list(b_eq), obj)
    if status != "optimal":
        return (status, None, None)
    return ("optimal", [z[j] - z[n + j] for j in range(n)], -value)


def max_strict_slack(rows, eq_rows=()):
    """Largest t <= 1 with rows.x >= t and eq_rows.x == 0; returns (t, x).

    The system is homogeneous in x, so t is 1 exactly when some x has
    rows.x > 0 and eq_rows.x == 0, and then a multiple of it has
    rows.x >= 1.  That is the phase-1 problem rows.x - s == 1,
    eq_rows.x == 0 over x = u - v with u, v, s >= 0.  Otherwise t is 0,
    at x = 0.
    """
    if not rows and not eq_rows:
        return (Fraction(1), [])
    n = len(rows[0]) if rows else len(eq_rows[0])
    m = len(rows)
    a = [list(r) + [-v for v in r] + [-int(k == i) for k in range(m)] for i, r in enumerate(rows)]
    a += [list(r) + [-v for v in r] + [0] * m for r in eq_rows]
    z = solve_nonneg(a, [1] * m + [0] * len(eq_rows))
    if z is None:
        return (_ZERO, [_ZERO] * n)
    return (Fraction(1), [z[j] - z[n + j] for j in range(n)])


def crossing_normals(dm):
    """Arrangement normals whose hyperplane meets the relative interior
    of the effective cone: the points of its span strictly inside its
    facets, so the dual's lineality rows are equalities.  Only these can
    separate chambers; the rest keep a constant sign over the whole cone
    and never branch."""
    dual = vgit.effective_cone(dm).dual()
    crossing = []
    for n in vgit._table(dm)[0]:
        t, _ = max_strict_slack(list(dual.rays), eq_rows=[n, *dual.lin])
        if t > 0:
            crossing.append(n)
    return tuple(crossing)


def enumerate_cells(dm):
    """The sign vectors over the walls of crossing_normals, sorted: a
    DFS that carries an interior witness down each branch and solves
    every other child's LP from scratch."""
    eff_rows = list(vgit.effective_cone(dm).facet_normals)
    normals = crossing_normals(dm)
    t, x0 = max_strict_slack(eff_rows)
    if t <= 0:
        raise AssertionError("effective cone must be full-dimensional")
    cells = []

    def rec(signs, rows, witness):
        if len(signs) == len(normals):
            cells.append(tuple(signs))
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


def kernel_basis(m):
    """Basis of the saturated integer kernel of m, as a list of vectors.

    They are the columns of the Smith form's right transform over zero
    diagonal entries; unimodularity of the transform makes them a basis
    of the full lattice ker(m) cap Z^cols.
    """
    _, factors, right = smith_normal_form(m)
    rank = sum(1 for f in factors if f)
    return [tuple(row[j] for row in right) for j in range(rank, len(right))]


def arrangement_normals(dm):
    """Hyperplanes spanned by rank-1-deficient subsets of the degrees."""
    rank = dm.cl_free_rank
    vectors = [vec for vec, _ in vgit._degree_classes(dm)]
    normals = set()
    for sub in combinations(vectors, rank - 1):
        if matrix_rank(sub) != rank - 1:
            continue
        ker = kernel_basis(sub)
        if len(ker) != 1:
            continue
        normals.add(sign_normalized(ker[0]))
    return tuple(sorted(normals))


def basis_inverses(vectors, dim):
    """(normals, bases) of the span of the integer dim-vectors, from one
    fraction-free search.

    bases lists (indices, rows), one per linearly independent set of the
    vectors that spans their span, the index sets in lexicographic
    order: rows[i] . vectors[indices[j]] is d if i == j and 0 otherwise,
    with d > 0 the scale of that basis.  normals is a basis of the rows
    orthogonal to every vector.  So a vector chi is in the span when
    every normal vanishes on it, and then chi is the sum over i of
    (rows[i] . chi / d) vectors[indices[i]].

    The search runs on the tableau [A | I] with the vectors as the
    columns of A, pivoted by _pivot as in the simplex, so each row is on
    the scale d of the basis picked so far.  Adding a vector pivots its
    column on the first row not yet pivoted where it is nonzero; a
    column that is zero on all of them lies in the span of the vectors
    picked, and the branch ends there without an inverse.  Each child
    keeps only the columns of the later vectors and the I block, and the
    last vector of a basis pivots only its own column and the I block.
    Then the I block of a pivoted row is that vector's row of the
    inverse, and the I block of each other row is a normal.
    """
    k = len(vectors)
    rank = matrix_rank(vectors)
    identity = _identity(dim)
    if rank == 0:
        return [list(unit) for unit in identity], [((), [])]
    bases = []
    normals = []

    def rec(lo, tab, d, free, picked):
        # tab's columns: vectors lo..k-1, then the I block; vector lo is
        # the last one picked, if any
        depth = len(picked)
        for c in range(lo + bool(picked), k - rank + depth + 1):
            j = c - lo
            p = next((i for i in free if tab[i][j]), None)
            if p is None:
                continue  # vectors[c] lies in the span of those picked
            rest = [i for i in free if i != p]
            if depth + 1 < rank:
                child = [row[j:] for row in tab]
                rec(c, child, _pivot(child, d, p, 0), rest, picked + [(c, p)])
                continue
            leaf = [row[j : j + 1] + row[k - lo :] for row in tab]
            _pivot(leaf, d, p, 0)
            rows = [leaf[q][1:] for _, q in picked] + [leaf[p][1:]]
            bases.append((tuple(v for v, _ in picked) + (c,), rows))
            if len(bases) == 1:
                normals.extend(leaf[q][1:] for q in rest)

    rec(0, [[*(v[i] for v in vectors), *identity[i]] for i in range(dim)], 1, list(range(dim)), [])
    del rec  # rec's closure holds rec, a cycle that would keep bases alive past the caller until a collection
    return normals, bases


def basis_table(dm):
    """(orthogonal, normals, table) of the degree classes from
    basis_inverses: orthogonal spans the rows orthogonal to every class,
    normals holds the distinct sign-normalized rows of the inverses,
    sorted, and table holds (class mask, signed indices) per basis, j
    standing for normals[j] and N + j for -normals[j]."""
    vectors = [vec for vec, _ in vgit._degree_classes(dm)]
    orthogonal, bases = basis_inverses(vectors, dm.cl_free_rank)
    normals = tuple(sorted({sign_normalized(row) for _, rows in bases for row in rows}))
    index = {n: j for j, n in enumerate(normals)}
    table = tuple(
        (
            sum(1 << c for c in basis),
            tuple(
                index[sign_normalized(row)] + (len(normals) if sign_normalized(row) != primitive(row) else 0)
                for row in rows
            ),
        )
        for basis, rows in bases
    )
    return tuple(map(tuple, orthogonal)), normals, table


def chambers_cover_effective(dm) -> bool:
    """Certify the enumerated cells tile the effective cone.

    For every cell and every crossing hyperplane, if the cell has a
    facet on that hyperplane interior to the effective cone (an LP with
    one equality), the sign-flipped neighbor must also have been
    enumerated.  Any missing neighbor would be an uncovered open
    region.
    """
    eff_rows = list(vgit.effective_cone(dm).facet_normals)
    normals = crossing_normals(dm)
    cells = vgit._enumerate_cells(dm)
    patterns = set(cells)
    for signs in cells:
        for i, n in enumerate(normals):
            rows = eff_rows + [
                tuple(s * v for v in m)
                for j, (s, m) in enumerate(zip(signs, normals))
                if j != i
            ]
            t, _ = max_strict_slack(rows, eq_rows=[n])
            if t > 0:
                neighbor = signs[:i] + (-signs[i],) + signs[i + 1 :]
                if neighbor not in patterns:
                    return False
    return True


def lp_membership(dm, chi):
    """(classes, member masks) of the degree classes whose cone contains
    chi, each decided by an in_cone LP on a mask of at most
    cl_free_rank classes (Caratheodory), the largest first, where
    toricgit.vgit reads signs off the basis inverses.  A mask with a
    non-member immediate superset is a non-member without an LP, and
    every superset of a member is a member."""
    classes = vgit._degree_classes(dm)
    k = len(classes)
    vectors = [vec for vec, _ in classes]
    top = min(dm.cl_free_rank, k)
    tested = set()
    for size in range(top, -1, -1):
        for subset in combinations(range(k), size):
            mask = sum(1 << c for c in subset)
            if size < top and any(
                mask | (1 << c) not in tested for c in range(k) if not (mask >> c) & 1
            ):
                continue
            if in_cone([vectors[c] for c in subset], tuple(chi)):
                tested.add(mask)
    members = {m for m in range(2**k) if any(m & t == t for t in tested)}
    return classes, members


def stable_base_locus_codim(fan, dm, chi):
    """n_rays minus the largest support over every mask that is a member
    for the ample character and not for chi, None when there is none,
    where toricgit.vgit weighs only the maximal such masks by the sizes
    of their degree classes."""
    classes, member = vgit._class_membership(dm, tuple(chi))
    _, ample_member = vgit._class_membership(dm, vgit.ample_character(fan, dm))
    sizes = [
        len(vgit._mask_support(classes, mask))
        for mask in range(1 << len(classes))
        if (ample_member & ~member) >> mask & 1
    ]
    return dm.n_rays - max(sizes) if sizes else None


def chamber_closure(dm, chi):
    """Closure of chi's chamber: the intersection of the cones of every
    set of degree classes that contains chi, one double description per
    member mask of lp_membership, where toricgit.vgit intersects the
    basis cones of a chamber's key."""
    classes, members = lp_membership(dm, chi)
    vectors = [vec for vec, _ in classes]
    acc = cone_from_inequalities(dm.cl_free_rank, [])
    for mask in sorted(members):
        gens = [vectors[c] for c in range(len(classes)) if (mask >> c) & 1]
        acc = acc.intersect(cone_from_generators(dm.cl_free_rank, gens))
    return acc


def strictly_contains(cone, v):
    """Membership of v in the relative interior of the cone."""
    d = cone.dual()
    return all(_dot(n, v) > 0 for n in d.rays) and all(_dot(l, v) == 0 for l in d.lin)


def is_boundary_character(dm, chi):
    """True when some support cone contains chi without chi being in
    its topological interior: one double description per member mask
    of lp_membership, full-dimensional cones contributing their
    boundaries and lower-dimensional ones all of themselves."""
    classes, members = lp_membership(dm, chi)
    rank = dm.cl_free_rank
    vectors = [vec for vec, _ in classes]
    for mask in sorted(members):
        gens = [vectors[c] for c in range(len(classes)) if (mask >> c) & 1]
        cone = cone_from_generators(rank, gens)
        if cone.dim_of() < rank or not strictly_contains(cone, chi):
            return True
    return False


def smallest_hitting_set_size(ideal):
    """Size of a smallest set of variables meeting every support.

    The unit ideal (no supports) keeps the library's sentinel n + 1.
    """
    n = ideal.n_vars
    supports = [set(s) for s in ideal.generator_supports]
    if not supports:
        return n + 1
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            if all(s.intersection(subset) for s in supports):
                return size
    raise AssertionError("the set of all variables meets every support")


def is_m_neighborly(fan, m):
    """Does every m-set of rays lie in some maximal cone, as Python sets?"""
    if m < 1:
        raise ValueError("m must be positive")
    if m > fan.n_rays:
        return False
    cone_sets = [set(c) for c in fan.max_cones]
    return all(
        any(set(sub) <= cs for cs in cone_sets)
        for sub in combinations(range(fan.n_rays), m)
    )


def _max_neighborly(fan):
    m = 1
    while m < fan.n_rays and is_m_neighborly(fan, m + 1):
        m += 1
    return m


def contains_monomial(ideal, support):
    """Is the squarefree monomial with this support in the ideal?"""
    s = set(support)
    return any(set(g) <= s for g in ideal.generator_supports)


@dataclass(frozen=True)
class FaceComplex:
    """Simplicial complex on n_verts vertices, stored by its facets."""

    n_verts: int
    facets: tuple

    def __post_init__(self):
        facets = tuple(sorted(set(tuple(sorted(f)) for f in self.facets)))
        if not _is_antichain(tuple(map(_mask, facets))):
            raise ValueError("facets must be an antichain")
        object.__setattr__(self, "facets", facets)


def _minimal_hitting_sets(supports, n_vars):
    """All inclusion-minimal sets meeting every support.

    Branch on the elements of the first unhit support, smallest first;
    prune revisited partial selections, reduce to an antichain at the
    end.  Capped by toricgit.cox.MAX_HITTING_SET_VARS, read at call
    time, with the message of zero_locus_codim.
    """
    if n_vars > cox.MAX_HITTING_SET_VARS:
        raise ValueError(
            f"hitting-set search is capped at {cox.MAX_HITTING_SET_VARS} variables"
        )
    supports = sorted(supports, key=len)
    found = set()
    seen = set()

    def rec(chosen):
        if chosen in seen:
            return
        seen.add(chosen)
        for s in supports:
            if not chosen & set(s):
                for v in s:
                    rec(chosen | {v})
                return
        found.add(tuple(sorted(chosen)))

    rec(frozenset())
    minimal = [
        h
        for h in found
        if not any(set(o) < set(h) for o in found)
    ]
    return sorted(minimal)


def stanley_reisner(ideal) -> FaceComplex:
    """Faces are the supports whose monomial avoids the ideal.

    Facets are computed as complements of the minimal hitting sets of
    the generator supports.  The no-generator ideal gets the full
    simplex (single facet = everything).
    """
    n = ideal.n_vars
    hitting = _minimal_hitting_sets(ideal.generator_supports, n)
    facets = [tuple(sorted(set(range(n)) - set(h))) for h in hitting]
    return FaceComplex(n, tuple(facets))


def prime_decomposition(ideal):
    """Components are the coordinate primes over complements of facets.

    Squarefree monomial ideals decompose into the primes generated by
    the variables outside each facet of the Stanley-Reisner complex.
    The no-generator ideal yields no components.
    """
    complex_ = stanley_reisner(ideal)
    n = ideal.n_vars
    comps = [
        tuple(sorted(set(range(n)) - set(f))) for f in complex_.facets
    ]
    return sorted(c for c in comps if c)


def ample_signature_matches_irrelevant_ideal(fan, dm) -> bool:
    """Cox consistency: ample unstable facets are the SR facets.

    The semistable locus of an ample character must be the complement
    of the irrelevant ideal's zero set, so the maximal unstable
    supports coincide with the Stanley-Reisner facets.
    """
    ample = vgit.ample_character(fan, dm)
    sig = vgit.unstable_supports(dm, ample)
    sr = stanley_reisner(cox.irrelevant_ideal(fan))
    return sig.facets == sr.facets and not sig.outside_effective


def chamber_fan(fan, sig):
    """The fan on fan's rays whose maximal cones are the complements of
    the minimal semistable ray sets of a chamber signature.  A set is
    semistable when it lies in no unstable facet, that is when it meets
    the complement of each, so the minimal ones are the minimal hitting
    sets of those complements.  Built untrusted, so the wall pass and
    the fan axiom certify it; FanError when the cones are no fan."""
    n = fan.n_rays
    complements = [tuple(sorted(set(range(n)) - set(f))) for f in sig.facets]
    semistable = _minimal_hitting_sets(complements, n)
    cones = [tuple(sorted(set(range(n)) - set(h))) for h in semistable]
    return Fan(fan.dim, fan.rays, cones)


def moving_chamber_is_a_fan(fan, dm, chi, sig):
    """Is the chamber of chi, with signature sig, the nef cone of
    chamber_fan(fan, sig)?  For a chamber inside the moving cone of a
    complete simplicial projective fan it must be (Cox, Little and
    Schenck, ch. 15; Hu and Keel 2000): that fan is complete and
    projective, has fan's grading, and its nef cone, read off its own
    wall rows, is the chamber's closure from lp_membership.  False when
    any of this fails, a ValueError included."""
    try:
        small = chamber_fan(fan, sig)
        report = validate(small)
        if not (report.complete and report.projective) or cox.degree_map(small) != dm:
            return False
        return cones_equal(vgit.nef_cone(small, dm), chamber_closure(dm, chi))
    except ValueError:
        return False


def nef_cone_by_cones(fan, dm):
    """The nef cone as the intersection over maximal cones sigma of
    cone(degrees off sigma) = {chi : inv(M_sigma) chi >= 0}, M_sigma the
    matrix whose columns are those degrees: one scaled inverse per cone,
    and ValueError when the result has no interior."""
    normals = set()
    for c in fan.max_cones:
        off = [dm.degrees_free[i] for i in range(fan.n_rays) if i not in c]
        inv, _ = scaled_inverse(list(zip(*off)))
        normals.update(primitive(row) for row in inv)
    nef = cone_from_inequalities(dm.cl_free_rank, normals)
    if nef.dim_of() < dm.cl_free_rank:
        raise ValueError("nef cone has empty interior; the fan is not projective")
    return nef


def vertex_nef(fan, coefficients):
    """Is D nef on a complete simplicial fan?  Exactly when every vertex
    u_sigma, the solution of <u, v_i> = -a_i over the rays of sigma, lies
    in P_D: <u_sigma, v_rho> >= -a_rho for every ray rho outside sigma."""
    for cone in fan.max_cones:
        u = rational_solve([fan.rays[i] for i in cone], [-coefficients[i] for i in cone])
        for rho in range(fan.n_rays):
            if rho not in cone and _dot(u, fan.rays[rho]) < -coefficients[rho]:
                return False
    return True


def acts_freely_by_smith(fan, dm):
    """For every maximal cone, do the degree rows of the rays outside it,
    with a row t_k * e per torsion factor, have the identity as Smith
    form?"""
    r, width = dm.cl_free_rank, dm.cl_free_rank + len(dm.torsion)
    relations = [
        tuple(tk if j == r + k else 0 for j in range(width))
        for k, tk in enumerate(dm.torsion)
    ]
    for sigma in fan.max_cones:
        rows = [
            dm.degrees_free[i] + dm.degrees_torsion[i]
            for i in range(fan.n_rays)
            if i not in sigma
        ]
        if smith_normal_form(rows + relations)[1] != (1,) * width:
            return False
    return True


# ---------------------------------------------------------------------------
# the Fourier-Motzkin walk


def divisor_polytope(fan, div):
    """Half-space list for {u : <u, v_rho> >= -a_rho}, one row per ray."""
    if len(div.coefficients) != fan.n_rays:
        raise ValueError("divisor does not match the fan")
    return tuple((r, a) for r, a in zip(fan.rays, div.coefficients))


def _normalize_row(row):
    coeffs, c = row
    v = primitive((*coeffs, c))
    return (v[:-1], v[-1])


def _dedupe_rows(rows):
    """Keep only the binding constant for each coefficient pattern."""
    best = {}
    for coeffs, c in rows:
        if coeffs in best:
            best[coeffs] = min(best[coeffs], c)
        else:
            best[coeffs] = c
    return [(k, v) for k, v in sorted(best.items())]


def _eliminate_var(rows, j):
    """Fourier-Motzkin step removing variable j from (coeffs, c) rows."""
    passthrough = []
    pos = []
    neg = []
    for row in rows:
        a = row[0][j]
        if a == 0:
            passthrough.append(row)
        elif a > 0:
            pos.append(row)
        else:
            neg.append(row)
    out = list(passthrough)
    for p in pos:
        ap = p[0][j]
        for q in neg:
            aq = q[0][j]
            coeffs = tuple(-aq * x + ap * y for x, y in zip(p[0], q[0]))
            out.append(_normalize_row((coeffs, -aq * p[1] + ap * q[1])))
    return _dedupe_rows(out)


# Steps the Fourier-Motzkin walk may take before the walk gives
# up, reached in about a second.  A memo hit is no step, and the memo of
# one call holds at most one entry per step.  The non-nef divisors in
# the benchmark's pool take at most 3,075 steps (132,342 without it).
_NODE_BUDGET = 1_500_000

def _enumerate(d, polytope):
    """Lattice points of the polytope by the Fourier-Motzkin walk."""
    rows = [_normalize_row((tuple(r), int(a))) for r, a in polytope]
    systems = [None] * (d + 1)
    systems[d] = _dedupe_rows(rows)
    for j in range(d, 1, -1):
        systems[j - 1] = _eliminate_var(systems[j], j - 1)
    # constant rows either prove emptiness or are vacuous
    for sys_rows in systems[1:]:
        for coeffs, c in sys_rows:
            if not any(coeffs) and c < 0:
                return 0
    # bounds[j]: the rows of systems[j + 1] that bound u_j, each split
    # as (|a|, coefficients of u_0..u_(j-2), coefficient of u_(j-1), c)
    # for the constraint a * u_j + (rest) >= 0; lower bounds have a > 0.
    bounds = []
    for j in range(d):
        lows, highs = [], []
        for coeffs, c in systems[j + 1]:
            a = coeffs[j]
            row = (abs(a), coeffs[: max(j - 1, 0)], coeffs[j - 1] if j else 0, c)
            if a > 0:
                lows.append(row)
            elif a < 0:
                highs.append(row)
        bounds.append((lows, highs))
    visited = 1
    # Given the prefix u_0..u_(j-1), the number of completions depends
    # only on the residual constants c + <coeffs[:j], prefix> of the rows
    # that read u_j or a later coordinate: the other rows are constants
    # the prefix satisfies.  lo..hi come from bounds[j], rows that are
    # fixed nonnegative combinations of those rows, so they are
    # functions of the residuals too.  So count(j, ...) is memoized on
    # the residuals, for the levels 1 <= j <= d - 3 that have a loop
    # above and two below; open_rows[j] holds those rows as
    # (coeffs[:j], c).  A hit is no step, and only a miss, which costs
    # at least one step, stores an entry.
    open_rows = {
        j: [(coeffs[:j], c) for coeffs, c in systems[d] if any(coeffs[j:])]
        for j in range(1, d - 2)
    }
    memo = {}

    def level_rows(j, prefix):
        # rest = p + s * u_(j-1) for each row bounding u_j
        lows, highs = bounds[j]
        if not lows or not highs:
            raise ValueError("unbounded divisor polytope; is the fan complete?")
        return (
            [(a, c + _dot(head, prefix), s) for a, head, s, c in lows],
            [(a, c + _dot(head, prefix), s) for a, head, s, c in highs],
        )

    def count(j, prefix, lo, hi):
        # points with u_0..u_(j-1) = prefix and lo <= u_j <= hi
        nonlocal visited
        if j == d - 1:
            return hi - lo + 1
        key = None
        if j in open_rows:
            key = (j, *[c + _dot(head, prefix) for head, c in open_rows[j]])
            if key in memo:
                return memo[key]
        visited += hi - lo + 1
        if visited > _NODE_BUDGET:
            raise ValueError(
                f"section count needs more than {_NODE_BUDGET} enumeration steps"
            )
        lows, highs = level_rows(j + 1, prefix)
        # plain loops seeded by the first row: twice as fast as max/min
        # over a generator on the few rows a level has
        (la, lp, ls), lows = lows[0], lows[1:]
        (ha, hp, hs), highs = highs[0], highs[1:]
        leaf = j + 2 == d
        total = 0
        for u in range(lo, hi + 1):
            clo = -((lp + ls * u) // la)
            for a, p, s in lows:
                v = -((p + s * u) // a)
                if v > clo:
                    clo = v
            chi = (hp + hs * u) // ha
            for a, p, s in highs:
                v = (p + s * u) // a
                if v < chi:
                    chi = v
            if clo <= chi:
                if leaf:
                    total += chi - clo + 1
                else:
                    total += count(j + 1, prefix + (u,), clo, chi)
        if key is not None:
            memo[key] = total
        return total

    lows, highs = level_rows(0, ())
    lo = max(-(p // a) for a, p, _ in lows)
    hi = min(p // a for a, p, _ in highs)
    return count(0, (), lo, hi) if lo <= hi else 0


def walk_sections(fan, div):
    """The lattice points of P_D by the Fourier-Motzkin walk."""
    return _enumerate(fan.dim, divisor_polytope(fan, div))
