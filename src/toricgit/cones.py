"""Rational polyhedral cones with exact dual descriptions.

A cone is stored canonically as (lineality basis, extremal rays reduced
modulo the lineality space): the basis is the primitive rows of the
reduced row echelon form of the lineality space, and each ray is zero on
its pivot columns.  Duality is computed by the double description
method: each inequality either eats one lineality direction or splits
the current ray set Fourier-Motzkin style, combining only adjacent
positive/negative pairs, so no redundant ray ever appears and no LP is
needed.  Both descriptions of a cone are therefore available
exactly, and containment, intersection and equality reduce to integer
dot products.

The basis table of a vector configuration lives here too: which cones
of its bases hold a given point, the question that vgit asks of a
character and fans.count_sections of a divisor's class.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .linalg import _bareiss, _pivot, matrix_rank, primitive, sign_normalized
from .linalg import _dot
from .lp import _identity, scaled_inverse

# Tableau entries one basis table may write, charged as its hyperplane
# search runs: 50 to 120 ns each (Python 3.11, 2 cores), so 1 to 2.4 s
# at the budget.  A surface with 40 rays charges 6.6e6 (0.34 s), one
# with 50 rays 1.7e7 (0.8 s); the rank-8, 16-class probe of the tests
# 1.9e6 (0.17 s), 18 classes in rank 8 5.5e6 (0.64 s).
_TABLE_BUDGET = 20_000_000


def _combine(u, cu, v, cv):
    """Integer combination cu*u + cv*v, made primitive."""
    return primitive(tuple(cu * x + cv * y for x, y in zip(u, v)))


def _canonical_form(lin, rays):
    """(basis, rays): a canonical form of the cone rays + span(lin).

    lin must be linearly independent, as double description leaves it.
    The pivot columns are those of lin's row echelon form, each the
    first that raises the rank of the columns before it; with (inv, d)
    the scaled inverse of lin on them, inv . lin is the reduced
    row echelon form of span(lin) times d, and its primitive rows are
    the basis: each positive in its own pivot column and zero in the
    others.  Each ray is reduced by those rows to zero on the pivot
    columns and made primitive; the rays come back sorted, distinct and
    nonzero.  Both depend only on the cone, not on the presentation.
    """
    piv = _bareiss(lin)[0]
    inv, _ = scaled_inverse([[l[c] for c in piv] for l in lin])
    basis = tuple(
        primitive(tuple(_dot(row, col) for col in zip(*lin))) for row in inv
    )
    out = set()
    for r in rays:
        for j, b in zip(piv, basis):
            if r[j]:
                r = _combine(r, b[j], b, -r[j])
        if any(r):
            out.add(primitive(r))
    return basis, tuple(sorted(out))


def duals_from_inequalities(dim, normals):
    """Generators (lineality basis, extremal rays) of the solution cone
    {x : <a, x> >= 0 for every a in normals}.

    Starts from all of Q^dim and adds one halfspace at a time.  While a
    lineality direction pairs nontrivially with the new normal, that
    direction is consumed: it becomes a ray and everything else is
    sheared into the hyperplane.  Otherwise the standard positive/zero/
    negative ray split applies, combining a positive ray p with a
    negative ray n only when they are adjacent: no third ray is tight on
    every processed normal that both p and n are tight on (Motzkin et
    al. 1953; Fukuda and Prodon 1996).  Each ray carries that tight set
    as a bitmask over the normals processed so far.  The intermediate
    rays are then exactly the extremal ones modulo the lineality.
    """
    lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = {}  # ray -> bitmask of the processed normals it is tight on
    todo = sorted(set(primitive(n) for n in normals if any(n)))
    for k, a in enumerate(todo):
        bit = 1 << k
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
            rays = {_combine(r, d0, l0, -_dot(a, r)): z | bit for r, z in rays.items()}
            rays[l0] = bit - 1  # l0 was orthogonal to every earlier normal
            continue
        signed = [(r, z, _dot(a, r)) for r, z in rays.items()]
        rays = {r: z | bit if s == 0 else z for r, z, s in signed if s >= 0}
        masks = [z for _, z, _ in signed]
        pos = [t for t in signed if t[2] > 0]
        neg = [t for t in signed if t[2] < 0]
        for p, zp, dp in pos:
            for n, zn, dn in neg:
                common = zp & zn
                if sum(z & common == common for z in masks) == 2:
                    rays[_combine(p, -dn, n, dp)] = common | bit
    return _canonical_form(lin, rays)


class RationalCone:
    """Canonical rational cone: lineality rows plus extremal rays."""

    __slots__ = ("dim", "rays", "lin", "_dual")

    def __init__(self, dim, rays, lin):
        self.dim = dim
        self._dual = None
        self.rays = tuple(rays)
        self.lin = tuple(lin)

    @property
    def generators(self):
        """Full generating list: rays plus both signs of the lineality basis."""
        out = list(self.rays)
        for l in self.lin:
            out.append(l)
            out.append(tuple(-x for x in l))
        return tuple(out)

    def dual(self):
        if self._dual is None:
            lin, rays = duals_from_inequalities(self.dim, self.generators)
            d = RationalCone(self.dim, rays, lin)
            d._dual = self
            self._dual = d
        return self._dual

    @property
    def facet_normals(self):
        return self.dual().generators

    def contains(self, v):
        d = self.dual()
        return all(_dot(n, v) >= 0 for n in d.rays) and all(
            _dot(l, v) == 0 for l in d.lin
        )

    def dim_of(self):
        return matrix_rank(list(self.rays) + list(self.lin))

    def intersect(self, other):
        if self.dim != other.dim:
            raise ValueError("ambient dimension mismatch")
        normals = tuple(self.facet_normals) + tuple(other.facet_normals)
        lin, rays = duals_from_inequalities(self.dim, normals)
        return RationalCone(self.dim, rays, lin)

    def __repr__(self):
        return f"RationalCone(dim={self.dim}, rays={list(self.rays)}, lin={list(self.lin)})"


def cone_from_generators(dim, gens):
    gens = [tuple(int(x) for x in g) for g in gens]
    if any(len(g) != dim for g in gens):
        raise ValueError("generator of wrong dimension")
    lin, rays = duals_from_inequalities(dim, gens)  # this is the dual cone
    dual = RationalCone(dim, rays, lin)
    lin2, rays2 = duals_from_inequalities(dim, dual.generators)
    cone = RationalCone(dim, rays2, lin2)
    cone._dual = dual
    dual._dual = cone
    return cone


def cone_from_inequalities(dim, normals):
    normals = [tuple(int(x) for x in n) for n in normals]
    if any(len(n) != dim for n in normals):
        raise ValueError("normal of wrong dimension")
    lin, rays = duals_from_inequalities(dim, normals)
    return RationalCone(dim, rays, lin)


def cones_equal(c1, c2):
    """Equality as point sets, via mutual containment of generators."""
    if c1.dim != c2.dim:
        return False
    return all(c2.contains(g) for g in c1.generators) and all(
        c1.contains(g) for g in c2.generators
    )


@lru_cache(maxsize=256)
def _basis_table(vectors):
    """(normals, side, table) of a tuple of distinct integer vectors,
    their chirotope (Bjorner, Las Vergnas, Sturmfels, White and Ziegler,
    Oriented Matroids, ch. 3).

    vgit keys it by the degree classes of a grading and
    fans.count_sections by those of a fan's rays, so both read one
    table.  normals holds the N distinct normals of _hyperplanes,
    sorted; every wall of every basis cone lies on one of their
    hyperplanes.  side[j] is 0 when vectors lie on both sides of
    normals[j], whose hyperplane then crosses their cone, and else the
    sign of the side that holds them: signed by it, the others are the
    cone's facet normals when the vectors span, as every facet is
    spanned by rank - 1 independent vectors.  table holds (mask, signed
    indices) per basis T of the span of the vectors, masks in
    lexicographic order: for x in that span, cone(T) = {x : rows . x >=
    0}, index j standing for the row normals[j] and N + j for
    -normals[j].  The row of vector c is the normal of T less c, signed
    positive on c; a zero there, or a dependent T less c, means T is no
    basis.  When the vectors span, these are the primitive rows of
    inv(M_T), with M_T the matrix whose columns are T.  ValueError when
    the work passes _TABLE_BUDGET."""
    k, rank = len(vectors), matrix_rank(vectors)
    # the loop over the bases below is charged up front
    hyperplanes, dots = _hyperplanes(vectors, len(vectors[0]), comb(k, rank) * rank)
    normals = tuple(sorted(dots))
    ids = list(range(2 * len(normals)))  # one shared int per signed index
    # per normal, each vector's signed index, None on the hyperplane
    sides = {
        n: [ids[j] if x > 0 else ids[j + len(normals)] if x < 0 else None for x in dots[n]]
        for j, n in enumerate(normals)
    }
    side = tuple((j + len(normals) not in s) - (j not in s) for j, s in enumerate(sides.values()))
    rows = {mask: sides[n] for mask, n in hyperplanes.items()}
    absent = [None] * k
    table = []
    for basis in combinations(range(k), rank):
        mask = sum(1 << c for c in basis)
        idx = tuple(rows.get(mask ^ 1 << c, absent)[c] for c in basis)
        if None not in idx:
            table.append((mask, idx))
    return normals, side, tuple(table)


def _hyperplanes(vectors, dim, charged=0):
    """(hyperplanes, dots): hyperplanes maps each independent set of
    rank - 1 of the integer dim-vectors, rank being theirs, as a mask,
    to the sign-normalized primitive normal, within their span, of the
    hyperplane that the set spans; dots[normal] is a positive multiple
    of its dot product with each vector.

    One fraction-free search on the tableau [A | I], with the vectors as
    the columns of A and one row per coordinate that _bareiss picks as
    independent on their span, so each row is (u . A | u) for some u and
    each normal is zero off those coordinates.  The tableau is first
    pivoted onto a basis, each row on the last column where it is
    nonzero, its own vector: every row then holds the scale d at its own
    vector and 0 at the others', and keeps that through any later pivot
    on another row.  Adding a vector drops one row: with no pivot the row
    of the vector itself, if left, and otherwise, after a _pivot on the
    vector's column, the row nonzero there whose own vector comes first,
    so that few vectors still to come lose their rows.  A column zero on
    every row left lies in the span of those picked, and the branch ends.
    Rows are copied only to pivot.  After rank - 1 vectors the one row
    left vanishes on them: its I block is the normal, its A block the
    normal's dot products with the vectors.  Each branch is charged its
    rows, each pivot twice its rows times its columns (the copy and the
    pivot), and each normal its columns, on top of charged: ValueError
    past _TABLE_BUDGET."""
    coords = _bareiss(vectors)[0]
    k, identity = len(vectors), _identity(dim)
    tab = [[*(v[i] for v in vectors), *identity[i]] for i in coords]
    d, own, width = 1, [], k + dim
    for i, row in enumerate(tab):
        own.append(next(c for c in reversed(range(k)) if row[c]))
        d = _pivot(tab, d, i, own[-1])
    hyperplanes, dots, work = {}, {}, charged + len(tab) ** 2 * width

    def rec(lo, rows, own, d, mask):
        nonlocal work
        if len(rows) == 1:
            work += width
            normal = sign_normalized(rows[0][k:])
            hyperplanes[mask] = normal
            if normal not in dots:
                sign = 1 if next(x for x in rows[0][k:] if x) > 0 else -1
                dots[normal] = tuple(sign * x for x in rows[0][:k])
            return
        for c in range(lo, k - len(rows) + 2):
            work += 30 + len(rows)  # the scan of column c, and the Python calls of a branch
            if c in own:
                p, child, e = own.index(c), rows, d
            else:
                nonzero = [i for i, row in enumerate(rows) if row[c]]
                if not nonzero:
                    continue  # vectors[c] lies in the span of those picked
                p, child = min(nonzero, key=own.__getitem__), [row[:] for row in rows]
                e, work = _pivot(child, d, p, c), work + 2 * len(rows) * width
            if work > _TABLE_BUDGET:
                raise ValueError(
                    f"basis table of {k} distinct degree vectors in rank {len(tab)} "
                    f"needs more than {_TABLE_BUDGET} tableau entries"
                )
            rec(c + 1, child[:p] + child[p + 1 :], own[:p] + own[p + 1 :], e, mask | 1 << c)

    try:
        rec(0, tab, own, d, 0)
    finally:
        del rec  # rec's closure holds rec, a cycle that would keep its tableaux alive until a collection
    return hyperplanes, dots


def _least_members(table, dots):
    """The supports of the nonnegative coordinate vectors of a point
    over the bases of table, given its dot product dots[j] with each
    normal j of _basis_table: one class mask per basis whose cone holds
    the point, repeats allowed.  For a point in the span of the vectors,
    cone(S) holds it exactly when S holds one of them; with no zero dot
    they are the masks of those bases.  The signed indices negative on
    the point, and those zero on it, are two sets, so a basis whose cone
    holds it off its walls costs two isdisjoint tests."""
    n = len(dots)
    negative = {j if x < 0 else j + n for j, x in enumerate(dots) if x}
    zero = {j + h for j, x in enumerate(dots) if not x for h in (0, n)}
    return [
        mask if zero.isdisjoint(idx) else sum(1 << c for c, i in zip(_bits(mask), idx) if i not in zero)
        for mask, idx in table
        if negative.isdisjoint(idx)  # no coordinate is negative
    ]


def _bits(x):
    """Positions of the set bits of x, ascending.  The '0b' prefix of
    bin(x) ends the reversed string and holds no '1'."""
    return [i for i, b in enumerate(reversed(bin(x))) if b == "1"]
