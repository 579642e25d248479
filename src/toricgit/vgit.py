"""Variation of GIT for the class-group torus acting on Cox coordinates.

A character is an integer vector in the free part of the class group.
The unstable locus of a character is the union of coordinate subspaces
indexed by supports S with the character outside cone(degrees over S);
that family is downward-closed, so it is stored by its maximal elements
(the signature).  Chambers are the regions of the effective cone where
the signature is constant, enumerated through the hyperplane
arrangement spanned by the degree vectors.

Everything here works with the free part only; torsion residues ride
along in the DegreeMap but never influence cone geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .cones import RationalCone, _basis_table, _bits, _least_members, cone_from_generators, cone_from_inequalities
from .fans import _nef_off
from .linalg import _dot, matrix_rank, primitive
from .lp import SlackTableau

MAX_DEGREE_CLASSES = 16


@dataclass(frozen=True)
class ChamberSignature:
    """Maximal unstable supports of a character, canonically sorted.

    outside_effective marks characters with no semistable points at
    all; their single facet is the full index set.
    """

    facets: tuple
    outside_effective: bool = False

    def __post_init__(self):
        object.__setattr__(
            self,
            "facets",
            tuple(sorted(tuple(sorted(f)) for f in self.facets)),
        )

    def max_facet_size(self):
        return max((len(f) for f in self.facets), default=0)


def _check_character(dm, chi):
    chi = tuple(int(x) for x in chi)
    if len(chi) != dm.cl_free_rank:
        raise ValueError(
            f"character has {len(chi)} coordinates, class group free rank "
            f"is {dm.cl_free_rank}"
        )
    return chi


@lru_cache(maxsize=8192)
def _degree_classes(dm):
    """Rays grouped by their free degree vector, deterministic order."""
    groups = {}
    for i, d in enumerate(dm.degrees_free):
        groups.setdefault(d, []).append(i)
    return tuple((vec, tuple(idx)) for vec, idx in sorted(groups.items()))


def _table(dm):
    """cones._basis_table of the grading's degree classes, the one table
    that section counts on its fan read too."""
    return _basis_table(tuple(vec for vec, _ in _degree_classes(dm)))


def _bit_set_classes(dm):
    """The degree classes, for a reader that builds sets of 2**k bits
    over them: ValueError past MAX_DEGREE_CLASSES."""
    classes = _degree_classes(dm)
    if len(classes) > MAX_DEGREE_CLASSES:
        raise ValueError(f"too many distinct degree vectors ({len(classes)} > {MAX_DEGREE_CLASSES})")
    return classes


def _bit_set(masks):
    """The 2**k-bit set of the class masks."""
    bits = 0
    for mask in masks:
        bits |= 1 << mask
    return bits


@lru_cache(maxsize=32)
def _class_membership(dm, chi):
    """For every subset of degree classes: does its cone contain chi?

    Masks are bit sets over the class list, and the answers come back
    as one int used as a 2**k-bit set, bit mask set when cone(mask)
    contains chi.  By Caratheodory chi is in cone(S) exactly when it is
    in cone(T) for some linearly independent T within S, and T extends
    to a basis B of the span of the classes; the coordinates of chi in
    B are then nonnegative and vanish off T.  So, for chi in that span,
    the members are the supersets of the supports of the nonnegative
    coordinate vectors over the bases of _basis_table, which
    _least_members reads off one dot product per normal, and one
    superset closure sets them all.  A chi off the span (one rank test)
    is in no cone.  No LP runs.  The cache is small because one entry
    holds up to 2**MAX_DEGREE_CLASSES bits.
    """
    classes = _bit_set_classes(dm)
    normals, _, table = _table(dm)
    rank = len(table[0][1])  # below cl_free_rank when the classes do not span
    if rank < dm.cl_free_rank and matrix_rank([*(v for v, _ in classes), chi]) > rank:
        return classes, 0
    return classes, _superset_closure(len(classes), _bit_set(_least_members(table, [_dot(n, chi) for n in normals])))


def _mask_support(classes, mask):
    idx = []
    for c, (_, members) in enumerate(classes):
        if (mask >> c) & 1:
            idx.extend(members)
    return tuple(sorted(idx))


@lru_cache(maxsize=8192)
def unstable_supports(dm, chi) -> ChamberSignature:
    """Maximal supports S with chi outside cone(deg over S).

    Membership depends only on which degree classes S touches, so the
    search runs over class masks.  A character outside the effective
    cone has every support unstable; that comes back flagged with the
    full set as its single facet.
    """
    chi = _check_character(dm, chi)
    classes, member = _class_membership(dm, chi)
    if not member:  # up-closed, so empty exactly when the full mask is out
        return ChamberSignature(
            facets=(tuple(range(dm.n_rays)),), outside_effective=True
        )
    return _signature(classes, member)


def unstable_codim(dm, chi) -> int:
    """Codimension of the unstable locus in Cox coordinate space."""
    sig = unstable_supports(dm, chi)
    return dm.n_rays - sig.max_facet_size()


def effective_cone(dm):
    return cone_from_generators(dm.cl_free_rank, dm.degrees_free)


def moving_cone(dm):
    """Intersection over each variable of the cone omitting its degree.

    Dropping one ray of a degree class with multiplicity two or more
    leaves the generating set unchanged, so only singleton classes cut
    the intersection down.
    """
    acc = effective_cone(dm)
    classes = _degree_classes(dm)
    for c, (_, members) in enumerate(classes):
        if len(members) > 1:
            continue
        gens = [
            vec for cc, (vec, _) in enumerate(classes) if cc != c
        ]
        acc = acc.intersect(cone_from_generators(dm.cl_free_rank, gens))
    return acc


@lru_cache(maxsize=8192)
def nef_cone(fan, dm):
    """The classes chi whose divisors pass every wall row of the fan.

    fans._nef_off is the nef cone on the divisors that vanish on
    sigma0 = max_cones[0], one per class.  The degrees of the rays off
    sigma0 form a basis of Cl (x) Q, so the class of such a divisor h
    is the sum of h_i deg(off_i), an isomorphism: it maps the extremal
    rays of that cone onto those of the nef cone in Cl (x) Q, and no
    double description runs here.  Full-dimensional exactly for
    projective fans; anything thinner is reported as an error because
    no ample character exists, and so is a fan that the wall pass does
    not prove complete.
    """
    nef = _nef_off(fan)
    if nef is None:
        raise ValueError("nef cone needs a complete fan")
    if nef.dim_of() < nef.dim:
        raise ValueError("nef cone has empty interior; the fan is not projective")
    off = [dm.degrees_free[i] for i in range(fan.n_rays) if i not in fan.max_cones[0]]
    rays = sorted(primitive(tuple(_dot(r, col) for col in zip(*off))) for r in nef.rays)
    return RationalCone(dm.cl_free_rank, rays, ())


def ample_character(fan, dm):
    """Deterministic interior point of the nef cone: sum of its rays."""
    nef = nef_cone(fan, dm)
    gens = nef.generators
    return tuple(sum(g[i] for g in gens) for i in range(dm.cl_free_rank))


def is_boundary_character(dm, chi) -> bool:
    """True when the signature is not locally constant at chi.

    That happens exactly when some support cone contains chi without
    chi being in its topological interior, that is when chi lies in a
    proper face of a support cone or in a lower-dimensional one.  By
    Caratheodory chi then lies in the cone of fewer than cl_free_rank
    independent classes; conversely such a cone is a lower-dimensional
    support cone containing chi.  So chi is on a wall exactly when some
    member mask has fewer than cl_free_rank classes: one AND of the
    membership bits with the set of those masks.
    """
    chi = _check_character(dm, chi)
    classes, member = _class_membership(dm, chi)
    return bool(member & _masks_below(len(classes), dm.cl_free_rank))


@lru_cache(maxsize=256)
def _masks_below(k, size):
    """The 2**k-bit set of class masks with fewer than size classes."""
    return sum(
        1 << sum(1 << c for c in subset)
        for n in range(min(size, k + 1))
        for subset in combinations(range(k), n)
    )


def _spans(dm):
    """Whether the degree classes span Cl (x) Q, by the size of a basis."""
    return len(_table(dm)[2][0][1]) == dm.cl_free_rank


@lru_cache(maxsize=256)
def _without_class(k, c):
    """The 2**k-bit set of class masks that leave out class c."""
    block = (1 << (1 << c)) - 1
    period = 1 << (c + 1)
    return block * (((1 << (1 << k)) - 1) // ((1 << period) - 1))


def _superset_closure(k, member):
    """Every superset of a member, on a 2**k-bit set of class masks:
    one shift per class moves each mask without the class onto the mask
    with it."""
    for c in range(k):
        member |= (member & _without_class(k, c)) << (1 << c)
    return member


def _maximal(k, masks):
    """The masks of a 2**k-bit set with no immediate superset in it: its
    maximal ones when it holds every mask between two of its masks."""
    covered = 0
    for c in range(k):
        covered |= (masks >> (1 << c)) & _without_class(k, c)
    return masks & ~covered


def _signature(classes, member):
    """Signature of a character whose member masks are the up-closed
    2**k-bit set member: its maximal non-members, as supports."""
    k = len(classes)
    unstable = _maximal(k, ~member & ((1 << (1 << k)) - 1))
    return ChamberSignature(facets=tuple(_mask_support(classes, mask) for mask in _bits(unstable)))


@lru_cache(maxsize=8192)
def _chamber_keys(dm):
    """(key, signature) per chamber, sorted by signature.

    Cells of the wall arrangement are enumerated by sign-vector search
    with exact LP pruning; no LP runs after it.  A cell lies on no
    arrangement hyperplane, so the basis cones that contain it fix its
    chamber and its signature (Cox, Little and Schenck, ch. 14-15).  Its
    sign on each normal, from its sign vector on the crossing normals
    and side on the others, is nonzero, so _least_members reads that set
    as whole bases: the key is the 2**k-bit set of their class masks.
    Cells sharing a key are one chamber.
    """
    classes = _bit_set_classes(dm)
    _, side, table = _table(dm)
    chambers = {}
    for signs in _enumerate_cells(dm):
        crossing = iter(signs)
        key = _bit_set(_least_members(table, [s or next(crossing) for s in side]))
        if key not in chambers:
            # a character off every hyperplane is in cone(S) exactly when S
            # holds one of the basis cones that contain it (Caratheodory)
            chambers[key] = _signature(classes, _superset_closure(len(classes), key))
    return tuple(sorted(chambers.items(), key=lambda c: c[1].facets))


def chamber_signatures(dm):
    """The signature of each chamber, sorted."""
    return tuple(sig for _, sig in _chamber_keys(dm))


def enumerate_chambers(dm):
    """One (interior character, signature) pair per chamber, in the
    order of chamber_signatures.

    A chamber's character is the sum of the primitive rays of its
    closure, the intersection of the basis cones whose masks are the
    bits of its key, so it does
    not depend on the simplex's pivot path; it is the rule
    ample_character uses for the nef cone.  It takes one double
    description per chamber, so it is built only where it is printed.
    """
    keys = _chamber_keys(dm)
    normals, _, table = _table(dm)
    signed = normals + tuple(tuple(-v for v in n) for n in normals)
    indices = dict(table)
    chambers = []
    for key, sig in keys:
        rows = [signed[i] for mask in _bits(key) for i in indices[mask]]
        rays = cone_from_inequalities(dm.cl_free_rank, rows).rays
        chambers.append((tuple(sum(r[i] for r in rays) for i in range(dm.cl_free_rank)), sig))
    return tuple(chambers)


# Tableau entries one cell search may charge: rows times columns of
# each tableau it re-optimises, counted with the added rows before they
# are added.  The corpus peaks at 52,934 per grading; the k = 8 to 16
# probes of the tests reach the budget in 3.5-4.5 s on 2 cores.
_TABLEAU_BUDGET = 20_000_000


def _enumerate_cells(dm):
    """All strictly feasible sign vectors over the crossing normals of
    _basis_table, sorted.

    Each cell is an open region: the effective cone's facet normals,
    read off the table's side and sorted, strict, plus a strict sign per
    crossing hyperplane, so no double description runs.  The DFS carries
    an interior witness down each branch, so the child on the witness's
    own side needs no LP at all.  It also carries the SlackTableau of
    rows.x >= 1 of the nearest ancestor that ran one, with the rows
    added since; every other child adds those rows and its own to that
    tableau by dual simplex, and is an empty cell when they have no
    point.  No LP runs the primal simplex, the root's included (reverse
    search, Avis and Fukuda 1996).  Each re-optimisation charges the
    entries of the tableau it pivots, and a search past _TABLEAU_BUDGET
    entries raises ValueError, so the budget bounds time even as the
    tableaux grow.
    """
    if not _spans(dm):
        raise ValueError("degrees do not span the class group; the effective cone has no interior")
    arrangement, side, _ = _table(dm)
    eff_rows = sorted(n if s > 0 else tuple(-v for v in n) for n, s in zip(arrangement, side) if s)
    normals = [n for n, s in zip(arrangement, side) if not s]
    if not eff_rows:
        raise ValueError("the effective cone is the whole space; the cell search needs a facet")
    root = SlackTableau.solve(eff_rows)
    cells = []
    entries = 0

    def rec(signs, tableau, pending, witness):
        nonlocal entries
        # witness is the tableau's x times its scale, which is positive,
        # so it has the signs of x
        if len(signs) == len(normals):
            cells.append(tuple(signs))
            return
        n = normals[len(signs)]
        d = _dot(n, witness)
        first = 1 if d >= 0 else -1
        for s in (first, -first):
            row = tuple(s * v for v in n)
            if s == first and d != 0:
                rec(signs + [s], tableau, pending + [row], witness)
                continue
            rows = pending + [row]
            m = len(tableau.tab) + len(rows)
            entries += m * (2 * tableau.n + m + 1)
            if entries > _TABLEAU_BUDGET:
                raise ValueError(
                    f"chamber cell search needs more than {_TABLEAU_BUDGET} "
                    "simplex tableau entries"
                )
            child = tableau.with_rows(rows)
            if child is not None:
                rec(signs + [s], child, [], child.scaled_solution())

    try:
        rec([], root, [], root.scaled_solution())
    finally:
        del rec  # rec's closure holds rec, a cycle that would keep cells alive until a collection
    return tuple(sorted(cells))


def stable_base_locus_codim(fan, dm, chi):
    """Codimension in X of the stable base locus of the class chi.

    None means the base locus is empty.  Otherwise the answer is
    n_rays minus the largest support that is chi-unstable yet
    semistable for an ample character: those supports survive the
    ample GIT quotient and descend to X with the same codimension.
    """
    chi = _check_character(dm, chi)
    classes, member = _class_membership(dm, chi)
    if not member:
        raise ValueError(f"character {chi} is outside the effective cone")
    ample = ample_character(fan, dm)
    _, ample_member = _class_membership(dm, ample)
    # the largest support lies on a maximal mask, weighed by class sizes
    top = _bits(_maximal(len(classes), ample_member & ~member))
    sizes = [sum(len(classes[c][1]) for c in _bits(mask)) for mask in top]
    if not sizes:
        return None
    return dm.n_rays - max(sizes)


def unstable_inclusion_forces_nef(fan, dm) -> bool:
    """Unstable-locus inclusion pins the nef chamber.

    For every chamber signature: containing the ample unstable
    locus is only allowed for the nef chamber itself.  This is the
    one-chamber-at-a-time content of the descent argument for
    restriction maps; a single counterexample falsifies it.
    """
    ample = ample_character(fan, dm)
    nef_sig = unstable_supports(dm, ample)
    for sig in chamber_signatures(dm):
        contains_ample_unstable = all(
            any(set(af) <= set(f) for f in sig.facets) for af in nef_sig.facets
        )
        if contains_ample_unstable and sig != nef_sig:
            return False
    return True

