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
"""

from __future__ import annotations

from .linalg import _bareiss, matrix_rank, primitive
from .linalg import _dot
from .lp import scaled_inverse


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
