"""Simplicial fans: construction, validation, divisors, section counts.

A Fan stores primitive ray vectors and maximal cones as index tuples.
The constructor checks the structure: primitive distinct rays, maximal
cones forming an antichain, every ray used.  A fan from any other
source (fan_from_json, a direct call) is then certified: its cones must
be simplicial and meet in common faces.  The trusted constructors skip
that certification, since their cones are independent and form a fan by
construction.  Each full-dimensional maximal cone is eliminated once,
into the facet normals that the certificate, validate and Brion's
formula read.  One cached wall pass over the ridges proves
a complete fan (every ridge joins two cones on opposite sides, one
generic probe lies in one cone), and its wall rows cut out Brion's nef
test and the nef cone that validate and vgit.nef_cone read; any other
input falls back to intersecting every pair of maximal cones.  Brion's
formula counts every section, on the fan or on a chamber fan, which the
basis table of the rays' classes picks (cones._basis_table).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product
from math import comb, factorial, gcd, lcm, perm, prod
from operator import and_, or_
from types import MappingProxyType

from .cones import _basis_table, _bits, _least_members
from .cones import cone_from_generators, cone_from_inequalities, cones_equal, duals_from_inequalities
from .linalg import cokernel, matrix_rank, primitive, smith_normal_form
from .linalg import _dot
from .lp import scaled_inverse


class FanError(ValueError):
    """Structurally invalid fan input."""


@dataclass(frozen=True)
class FanReport:
    simplicial: bool
    smooth: bool
    complete: bool
    projective: bool


@dataclass(frozen=True)
class TorusInvariantDivisor:
    """Integer coefficients indexed like the host fan's rays."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(int(c) for c in self.coefficients)
        )

    def scale(self, m):
        return TorusInvariantDivisor(tuple(m * c for c in self.coefficients))

    def plus(self, other):
        return TorusInvariantDivisor(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )


class Fan:
    """Immutable simplicial fan in Z^dim; keeps its hash and cone masks."""

    __slots__ = ("dim", "rays", "max_cones", "_masks", "_hash")

    def __init__(self, dim, rays, max_cones, _trusted=False):
        dim = int(dim)
        if dim < 1:
            raise FanError("fan dimension must be at least 1")
        rays = tuple(tuple(map(int, r)) for r in rays)
        if not rays:
            raise FanError("a fan needs at least one ray")
        for r in rays:
            if len(r) != dim:
                raise FanError(f"ray {r} has wrong dimension")
            if not any(r):
                raise FanError("zero vector is not a ray")
            if gcd(*r) != 1:
                raise FanError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise FanError("duplicate rays")
        cones = tuple(tuple(sorted(int(i) for i in c)) for c in max_cones)
        if not cones:
            raise FanError("a fan needs at least one maximal cone")
        seen = set()
        for c in cones:
            if not c:
                raise FanError("empty cone listed as maximal")
            if c in seen:
                raise FanError(f"duplicate maximal cone {c}")
            seen.add(c)
            if len(set(c)) != len(c):
                raise FanError(f"repeated ray index in cone {c}")
            if c[0] < 0 or c[-1] >= len(rays):
                raise FanError(f"cone {c} references a missing ray")
        ordered = tuple(sorted(cones))
        masks = tuple(map(_mask, ordered))
        if not _is_antichain(masks):
            # name the first nested pair in the order of the pair loop
            a, b = next(
                (a, b) for a in cones for b in cones if a != b and set(a) <= set(b)
            )
            raise FanError(f"cone {a} is contained in cone {b}")
        if len(set().union(*cones)) < len(rays):
            raise FanError("every ray must appear in some maximal cone")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", ordered)
        object.__setattr__(self, "_masks", masks)  # in the order of max_cones
        object.__setattr__(self, "_hash", hash((dim, rays, ordered)))
        if not _trusted:
            _check_fan_axiom(self)

    def __setattr__(self, name, value):
        raise AttributeError("Fan is immutable")

    @property
    def n_rays(self):
        return len(self.rays)

    def cone_rays(self, cone):
        return tuple(self.rays[i] for i in cone)

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.dim == other.dim
            and self.rays == other.rays
            and self.max_cones == other.max_cones
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"Fan(dim={self.dim}, n_rays={self.n_rays}, "
            f"n_max_cones={len(self.max_cones)})"
        )


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _is_antichain(masks) -> bool:
    """Does no set, given as a bitmask, lie inside another?

    Distinct sets of one size never contain each other, so each set is
    tested only against the smaller ones, grouped by size.  A set given
    twice contains itself.  Fan and the squarefree ideals of cox share it.
    """
    by_size = {}
    for m in set(masks):
        by_size.setdefault(m.bit_count(), []).append(m)
    if sum(map(len, by_size.values())) < len(masks):
        return False
    smaller = []
    for size in sorted(by_size):
        group = by_size[size]
        if any(m & b == b for m in group for b in smaller):
            return False
        smaller.extend(group)
    return True


@lru_cache(maxsize=8192)
def _subset_cone(fan, idx):
    return cone_from_generators(fan.dim, [fan.rays[i] for i in idx])


def _check_fan_axiom(fan):
    """Certify a fan that no trusted constructor built: simplicial
    cones meeting in common faces.

    A cone that is not full-dimensional takes a rank test; the others
    take their one elimination into facet normals, _cone_inverses, which
    rejects dependent rays.  The wall pass proves the axiom for a complete fan.
    Anything else (an incomplete fan, or invalid input) intersects every
    pair of maximal cones by double description.
    """
    for c in fan.max_cones:
        if len(c) != fan.dim and matrix_rank(fan.cone_rays(c)) != len(c):
            raise FanError(f"cone {c} is not simplicial (dependent rays)")
    if _walls(fan) is not None:
        return
    for a, b in combinations(fan.max_cones, 2):
        common = tuple(sorted(set(a) & set(b)))
        inter = _subset_cone(fan, a).intersect(_subset_cone(fan, b))
        want = _subset_cone(fan, common)
        if not cones_equal(inter, want):
            raise FanError(
                f"cones {a} and {b} overlap beyond their common face {common}"
            )


# ---------------------------------------------------------------------------
# JSON interchange


def fan_from_json(data):
    """Build a Fan from a {dim, rays, max_cones} dict, strictly typed."""

    def as_int(x, what):
        if isinstance(x, bool) or not isinstance(x, int):
            raise FanError(f"{what} must be an integer, got {x!r}")
        return x

    def as_list(x, what):
        if not isinstance(x, list):
            raise FanError(f"{what} must be a list, got {type(x).__name__}")
        return x

    if not isinstance(data, dict):
        raise FanError("fan JSON must be an object")
    missing = {"dim", "rays", "max_cones"} - set(data)
    if missing:
        raise FanError(f"fan JSON missing keys: {sorted(missing)}")
    dim = as_int(data["dim"], "dim")
    rays = [
        [x if type(x) is int else as_int(x, "ray entry") for x in as_list(r, "ray")]
        for r in as_list(data["rays"], "rays")
    ]
    cones = [
        [i if type(i) is int else as_int(i, "cone index") for i in as_list(c, "cone")]
        for c in as_list(data["max_cones"], "max_cones")
    ]
    return Fan(dim, rays, cones)


def fan_to_json(fan):
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def divisor_from_json(data, fan):
    if not isinstance(data, dict) or "coefficients" not in data:
        raise FanError("divisor JSON must be an object with 'coefficients'")
    coeffs = data["coefficients"]
    if not isinstance(coeffs, list):
        raise FanError("divisor coefficients must be a list")
    if len(coeffs) != fan.n_rays:
        raise FanError(
            f"divisor has {len(coeffs)} coefficients, fan has {fan.n_rays} rays"
        )
    for c in coeffs:
        if isinstance(c, bool) or not isinstance(c, int):
            raise FanError(f"divisor coefficient must be an integer, got {c!r}")
    return TorusInvariantDivisor(tuple(coeffs))


# ---------------------------------------------------------------------------
# validation


@lru_cache(maxsize=1024)
def _cone_inverses(fan):
    """(normals, d) of each full-dimensional maximal cone, d its index:
    <normals[i], v_j> is d if i == j else 0, the facets' inward normals.

    This is the one elimination of each such cone, and its simplicial
    test: a cone with dependent rays raises FanError.  Read-only, since
    the wall pass, validate and the section counts share it.
    """
    out = {}
    for c in fan.max_cones:
        if len(c) == fan.dim:
            try:
                out[c] = _facet_normals(fan.cone_rays(c))
            except ValueError:
                msg = f"cone {c} is not simplicial (dependent rays)"
                raise FanError(msg) from None
    return MappingProxyType(out)


def _facet_normals(rays):
    """(normals, |det|) of independent rays, the scaled inverse's columns."""
    inv, d = scaled_inverse(rays)
    return tuple(zip(*inv)), d


@lru_cache(maxsize=1024)
def _walls(fan):
    """The distinct wall rows of a complete fan, or None when this one
    pass over the ridges does not prove the fan complete.

    The proof is a pseudomanifold certificate: every maximal cone is
    full-dimensional, every ridge lies in exactly two, on opposite sides
    of it, and one generic probe lies in exactly one cone (De Loera,
    Rambau and Santos, Triangulations, 2010, ch. 4).  It proves the fan
    axiom too; None proves nothing.  A ridge with sides (c1, r1) and
    (c2, r2) gives the row d * (coordinates of v_r2 in the basis of c1)
    with -d at r2, the strict convexity of a support function across
    the wall (Cox, Little and Schenck, Toric Varieties, ch. 6); its
    entry at r1 is negative iff the sides are opposite.  Its entry at
    the i-th ray of c1 is <u_i, v_r2>, u_i the i-th facet normal of c1.
    The ridges are taken in any order, since no reader depends on the
    order of the rows.  Walls repeat rows (bl4_1 x bl4_1: 324 rows, 6
    distinct), so only distinct rows are kept.  A row vanishes on
    principal divisors, and a divisor D with coefficients a is nef
    exactly when w.a <= 0 for every row w.  Cached, since three callers
    read it: the fan-axiom certificate, Brion's nef test in _brion_data,
    and _nef_off, the nef cone that validate and vgit.nef_cone read.
    """
    inverses = _cone_inverses(fan)
    if len(inverses) != len(fan.max_cones):
        return None
    by_ridge = {}
    for c in fan.max_cones:
        for drop in range(len(c)):
            by_ridge.setdefault(c[:drop] + c[drop + 1 :], []).append((c, c[drop]))
    rows = []
    for sides in by_ridge.values():
        if len(sides) != 2:
            return None
        (c1, r1), (_, r2) = sides
        (normals, d), v = inverses[c1], fan.rays[r2]
        row = [0] * fan.n_rays
        for idx, u in zip(c1, normals):
            row[idx] = _dot(u, v)
        row[r2] = -d
        if row[r1] >= 0:
            return None
        rows.append(primitive(row))
    # The probe lies on no facet hyperplane, so it is interior to each
    # cone it hits.
    normals = [ns for ns, _ in inverses.values()]
    w = _probe(fan.dim, normals)
    if sum(all(_dot(n, w) > 0 for n in ns) for ns in normals) != 1:
        return None
    return tuple(dict.fromkeys(rows))


@lru_cache(maxsize=1024)
def _nef_off(fan):
    """The nef cone of a complete fan on the rays off max_cones[0], or
    None when _walls is None.

    A wall row w vanishes on principal divisors, which take any values
    on the rays of the full-dimensional sigma0 = max_cones[0]; so each
    class has one representative h that is 0 on sigma0, and it is nef
    exactly when w_off.h <= 0 for every row, w_off the row on the rays
    off sigma0.  No w_off is zero and the cone is pointed in
    Q^(n_rays - dim); it is full-dimensional exactly when the fan is
    projective.  One double description, read by validate and
    vgit.nef_cone.
    """
    walls = _walls(fan)
    if walls is None:
        return None
    off = [i for i in range(fan.n_rays) if i not in fan.max_cones[0]]
    normals = {primitive(tuple(-w[i] for i in off)) for w in walls}
    return cone_from_inequalities(len(off), normals)


def _probe(dim, normals):
    """w = (1, q, ..., q^(dim-1)) with q above every normal's entry sum.

    Every nonzero normal n has _dot(n, w) != 0: each |n_i| < q, so its
    last nonzero term outweighs all the earlier ones together.  normals
    is an iterable of lists of vectors.
    """
    q = 1 + max(sum(map(abs, n)) for ns in normals for n in ns)
    return [q**i for i in range(dim)]


@lru_cache(maxsize=8192)
def validate(fan) -> FanReport:
    """Recompute the smooth, complete and projective flags from scratch.

    All three flags read the one scaled inverse of each
    full-dimensional cone.  Such a cone is smooth iff its |det| is 1; a
    lower-dimensional one iff its Smith invariant factors are all 1.
    Complete is the wall pass, which on a valid fan is exactly
    completeness.  Projective is an interior of the nef cone _nef_off,
    cut out by the pass's rows: an ample divisor is strictly convex
    across every wall.  Every cone is simplicial: fan_from_json
    certifies it, and a trusted constructor builds only independent
    cones.
    """
    inverses = _cone_inverses(fan)

    def unimodular(c):
        if c in inverses:
            return inverses[c][1] == 1
        return set(smith_normal_form(fan.cone_rays(c))[1]) == {1}

    smooth = all(unimodular(c) for c in fan.max_cones)
    nef = _nef_off(fan)
    complete = nef is not None
    return FanReport(
        simplicial=True,
        smooth=smooth,
        complete=complete,
        projective=complete and nef.dim_of() == nef.dim,
    )


# ---------------------------------------------------------------------------
# neighborliness


def is_m_neighborly(fan, m) -> bool:
    """Does every m-element set of rays span a cone of the fan?

    For a simplicial fan any subset of a cone's generators spans a face,
    so it suffices that each m-subset of rays, as a bitmask, lies inside
    one of the fan's cone masks.  m above the ray count returns False.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > fan.n_rays:
        return False
    for sub in map(sum, combinations([1 << i for i in range(fan.n_rays)], m)):
        for c in fan._masks:
            if sub & c == sub:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# constructors


def projective_space_fan(n) -> Fan:
    """Rays e_1..e_n and -(e_1+...+e_n); all n-subsets are maximal."""
    if n < 1:
        raise ValueError("n must be positive")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    cones = list(combinations(range(n + 1), n))
    return Fan(n, rays, cones, _trusted=True)


def product_fan(f1, f2) -> Fan:
    d1, d2 = f1.dim, f2.dim
    rays = [r + (0,) * d2 for r in f1.rays] + [(0,) * d1 + r for r in f2.rays]
    shift = f1.n_rays
    cones = [
        tuple(c1) + tuple(i + shift for i in c2)
        for c1 in f1.max_cones
        for c2 in f2.max_cones
    ]
    return Fan(d1 + d2, rays, cones, _trusted=True)


def star_subdivision(fan, face) -> Fan:
    """Insert the ray through the barycenter of a cone and re-triangulate.

    face is a tuple of ray indices spanning a cone of the fan of
    dimension at least 2 (subdividing a single ray would be a no-op and
    is rejected).
    """
    face = tuple(sorted(set(int(i) for i in face)))
    if len(face) < 2:
        raise ValueError("star subdivision needs a face of dimension >= 2")
    if not any(set(face) <= set(c) for c in fan.max_cones):
        raise ValueError(f"{face} does not span a cone of the fan")
    new_ray = primitive(
        tuple(sum(fan.rays[i][j] for i in face) for j in range(fan.dim))
    )
    if new_ray in fan.rays:
        raise ValueError("barycenter ray already present in the fan")
    rays = fan.rays + (new_ray,)
    new_idx = fan.n_rays
    cones = []
    for c in fan.max_cones:
        if set(face) <= set(c):
            for i in face:
                cones.append(tuple(sorted(set(c) - {i} | {new_idx})))
        else:
            cones.append(c)
    return Fan(fan.dim, rays, cones, _trusted=True)


def blowup_pn_along_linear(n, m) -> Fan:
    """Blow up projective n-space along a torus-invariant linear subspace.

    The center is the m-dimensional orbit closure of the coordinate cone
    spanned by e_1..e_{n-m}: m = 0 blows up a point, m = n-2 a
    codimension-two subspace.  m = n-1 would be a divisor (a no-op) and
    is rejected.
    """
    if not 0 <= m <= n - 2:
        raise ValueError("need 0 <= m <= n-2")
    return star_subdivision(projective_space_fan(n), tuple(range(n - m)))


def projective_bundle_fan(base, divisors) -> Fan:
    """Fan of the projectivization of O(D_1) + ... + O(D_k).

    Fiber rays are f_1..f_{k-1} = standard basis of the new coordinates
    and f_k = -(f_1+...+f_{k-1}); the base ray v lifts with fiber
    coordinates (a_1 - a_k, ..., a_{k-1} - a_k) where a_i is the D_i
    coefficient at v.  Maximal cones pair each maximal base cone with
    each facet of the fiber simplex.  With this orientation the class of
    (fiber coordinate i) plus the pullback of D_i is independent of i
    and is the relative hyperplane class; the section-count identity in
    the tests pins the sign.
    """
    k = len(divisors)
    if k < 2:
        raise ValueError("need at least two summands")
    for d in divisors:
        if len(d.coefficients) != base.n_rays:
            raise ValueError("divisor does not match the base fan")
    db, fib = base.dim, k - 1
    rays = []
    for rho, v in enumerate(base.rays):
        a = [d.coefficients[rho] for d in divisors]
        rays.append(v + tuple(a[i] - a[k - 1] for i in range(fib)))
    for i in range(fib):
        rays.append((0,) * db + tuple(1 if j == i else 0 for j in range(fib)))
    rays.append((0,) * db + (-1,) * fib)
    n = base.n_rays
    fiber_idx = range(n, n + k)
    cones = []
    for c in base.max_cones:
        for omit in fiber_idx:
            fiber_part = [i for i in fiber_idx if i != omit]
            cones.append(tuple(sorted(list(c) + fiber_part)))
    return Fan(db + fib, rays, cones, _trusted=True)


def bundle_o1_divisor(divisors, d=1) -> TorusInvariantDivisor:
    """Divisor on the bundle fan with class d*(relative hyperplane).

    Uses the representative d*(last fiber divisor + pullback of D_k);
    any other index gives a linearly equivalent divisor.
    """
    k = len(divisors)
    coeffs = [d * c for c in divisors[-1].coefficients]
    coeffs += [0] * (k - 1) + [d]
    return TorusInvariantDivisor(tuple(coeffs))


# ---------------------------------------------------------------------------
# divisors and sections


# Lattice points that the half-open parallelepipeds of one fan's maximal
# cones may hold in all, their summed index (a smooth cone holds one),
# and cones of one chamber fan.  A count on a fan at the budget takes
# about 0.85 s (Python 3.11, 2 cores).
_INDEX_BUDGET = 200_000


def count_sections(fan, div) -> int:
    """Number of lattice points of P_D = {u : <u, v_rho> >= -a_rho}.

    One engine counts: Brion's formula, on a complete fan on which D is
    nef: the fan itself, or with D less the fixed part that _chamber
    finds, or else D's chamber fan, which Fan certifies.  An empty P_D
    counts 0.  ValueError for a divisor of the wrong length, an
    unbounded P_D, a count past _INDEX_BUDGET, which bounds the work in
    every dimension, and a basis table past cones._TABLE_BUDGET.
    """
    a = div.coefficients
    if len(a) != fan.n_rays:
        raise ValueError("divisor does not match the fan")
    brion = _brion_data(fan)
    count = brion and _brion_count(brion, a)
    if count is None:
        chamber = _chamber(fan, a)
        if chamber is None:
            return 0
        masks, fixed = chamber
        if any(fixed):
            count = brion and _brion_count(brion, tuple(x - f for x, f in zip(a, fixed)))
    if count is None:
        used, brion = _chamber_fan(fan, masks)
        count = brion and _brion_count(brion, tuple(a[i] for i in used))
    if count is None:
        raise AssertionError("a chamber fan is not complete, or the divisor not nef on it")
    return count


def _chamber(fan, a):
    """(masks, fixed) of D's chamber, or None when P_D is empty.

    By Gale duality, d rays sigma span a vertex of P_D exactly when the
    classes of the rays off sigma form a basis B of Cl (x) Q with [D] in
    cone(B), and the vertex's slacks are the coordinates of [D] in B
    (Cox, Little and Schenck, Toric Varieties, ch. 14-15).  Nudged to
    D' = Q^n D + (Q^(n-1), ..., Q, 1), Q large, [D'] lies on no wall, so
    P_D' is simple, its vertices are vertices of P_D, and D is nef on
    their fan, the normal fan of P_D' (the GIT chamber of D's class,
    nudged; Hu and Keel, 2000).  For a normal nu of the classes' basis
    table, <nu, [D']> has the sign of <nu, [D]>, or where that is 0 the
    sign ties[nu] of the first ray off nu's hyperplane, a symbolic
    perturbation (Edelsbrunner and Mucke, Simulation of Simplicity,
    1990).  So one dot product per normal, read by _least_members, gives
    masks, the class bases whose cones hold [D'], and _chamber_fan
    expands them to cones.  A ray in none of those cones is the one ray
    of a class in every basis, and P_D meets its inequality with slack
    at least fixed[r], the least ceiling of the coordinate of [D] at
    that class over the bases; fixed is 0 on every other ray.  Rays that
    do not span take one double description instead.
    """
    gale = _gale(fan)
    if gale is None:
        # the rays do not span, so P_D holds a line: empty or unbounded
        d = fan.dim
        rows = [(*r, c) for r, c in zip(fan.rays, a)] + [(0,) * d + (1,)]
        if any(x[-1] > 0 for x in duals_from_inequalities(d + 1, rows)[1]):
            raise ValueError("unbounded divisor polytope; is the fan complete?")
        return None
    projection, classes, members, ties, bounded = gale
    normals, _, table = _basis_table(classes)
    cls = [_dot(row, a) for row in projection]
    dots = [_dot(nu, cls) for nu in normals]
    masks = tuple(_least_members(table, [x or t for x, t in zip(dots, ties)]))
    if not masks:
        return None
    if not bounded:
        raise ValueError("unbounded divisor polytope; is the fan complete?")
    fixed = [0] * fan.n_rays
    alone = [c for c in _bits(reduce(and_, masks)) if len(members[c]) == 1]
    if alone:
        least, chosen = {}, set(masks)
        for mask, idx in table:
            if mask in chosen:
                for c in alone:
                    # the row of class c in this basis, and its coordinate
                    j = idx[(mask & ((1 << c) - 1)).bit_count()] % len(normals)
                    up = -(-dots[j] // _dot(normals[j], classes[c]))
                    least[c] = min(least.get(c, up), up)
        for c, up in least.items():
            fixed[members[c][0]] = up
    return masks, fixed


@lru_cache(maxsize=1024)
def _cokernel(fan):
    """linalg.cokernel of the rays: the fan's one Smith form, which
    cox.degree_map and the section counts share."""
    return cokernel(fan.rays)


@lru_cache(maxsize=1024)
def _gale(fan):
    """(projection, classes, members, ties, bounded) of the Gale dual of
    the rays, or None when they do not span.

    The class of a divisor a is projection . a, from _cokernel.  classes
    are the distinct classes of the rays, sorted as vgit._degree_classes
    sorts them, so a grading and its fan share cones._basis_table(classes),
    the one cache that holds the table; members[c] lists the rays of
    class c.  ties[j] is the sign of <nu_j, deg r> for the first ray r
    off the hyperplane of the table's normal nu_j, which exists, as the
    classes span.  bounded says whether the rays positively span, so
    that every P_D is bounded: by Gale duality, whether the classes are
    acyclic, that is, none is 0 and their cone is pointed, so that the
    facet normals that the table's side marks span.
    """
    data = _cokernel(fan)
    if data.free_rank != fan.n_rays - fan.dim:
        return None
    groups = {}
    for r, deg in enumerate(zip(*data.projection) if data.free_rank else [()] * fan.n_rays):
        groups.setdefault(deg, []).append(r)
    classes = tuple(sorted(groups))
    members = tuple(tuple(groups[v]) for v in classes)
    normals, side, table = _basis_table(classes)
    order = sorted(range(len(classes)), key=lambda c: members[c][0])
    ties = [0] * len(normals)
    for mask, idx in table:
        for c, i in zip(_bits(mask), idx):
            # each normal is the row of class c of some basis, and lies
            # on the basis' other classes h, so only the rest are dotted
            j, h = i % len(normals), mask ^ 1 << c
            if not ties[j]:
                x = next(x for x in (_dot(normals[j], classes[o]) for o in order if not h >> o & 1) if x)
                ties[j] = 1 if x > 0 else -1
    facets = [nu for nu, s in zip(normals, side) if s]
    bounded = all(map(any, classes)) and matrix_rank(facets) == data.free_rank
    return data.projection, classes, members, tuple(ties), bounded


@lru_cache(maxsize=1024)
def _chamber_fan(fan, masks):
    """(used, Brion data) of the chamber fan of _chamber's class bases
    masks, used its rays in the fan's order.  Each basis expands to one
    cone per choice of one ray in each of its classes, the complement of
    the choice, and each cone is charged to _INDEX_BUDGET, as Brion's
    formula will sum over it.  Fan certifies the chamber fan as it
    would any other input; the cache spares a repeated count that
    certification, about 50 of 85 us warm on subdivision15."""
    members, full = _gale(fan)[2], (1 << fan.n_rays) - 1
    cones = []
    for mask in masks:
        for choice in product(*(members[c] for c in _bits(mask))):
            cones.append(full ^ _mask(choice))
            _charge(len(cones))
    used = tuple(_bits(reduce(or_, cones)))
    pos = {i: k for k, i in enumerate(used)}
    chamber = Fan(fan.dim, [fan.rays[i] for i in used], [[pos[i] for i in _bits(c)] for c in cones])
    return used, _brion_data(chamber)


def _charge(index):
    if index > _INDEX_BUDGET:
        raise ValueError(
            f"section count needs more than {_INDEX_BUDGET} parallelepiped "
            "points, the budget on the summed cone index of Brion's formula"
        )


@lru_cache(maxsize=256)
def _brion_data(fan):
    """(den, walls, cones) of Brion's formula, or None when _walls does
    not prove the fan complete.

    A cone's vertex u solves <u, v_i> = -a_i, its tangent cone is
    spanned by the primitive edges g_j of its facet normals w_j (index
    det), and its lattice points are u plus the points p of the
    half-open parallelepiped of the g_j (Brion, 1988; Beck and
    Robins, Computing the Continuous Discretely, ch. 3).  With lam the
    wall pass's probe, b_j = <lam, g_j> and alpha = <lam, p>, the cone
    adds the constant term at t = 0 of sum_p e^(t alpha) / prod_j
    (1 - e^(t b_j)) = (-1)^d / prod_j b_j * sum_p sum_k s_k
    alpha^(d-k) / (d-k)!, s_k those of the Todd series prod_j T(t b_j)
    = exp(sum_k l_k p_k t^k), p_k = sum_j b_j^k, so n s_n = sum_k k l_k
    p_k s_(n-k) (_todd).  A cone is kept as (ray indices, b, Horner
    coefficients over the common den, group).  A unimodular one has
    group None and alpha = -sum_j b_j a_j.  Otherwise, m_j = <g_j, v_j>,
    the k_j = <p, v_j> + a_j run over 0..m_j - 1, k - a lies in the
    lattice of the rays' columns, so k = (a + h) mod m over the subgroup
    H it makes in prod_j Z/m_j, whose order is the cone's index, and
    alpha = <h, lw> / det - sum_j b_j floor((a_j + h_j) / m_j), lw_j =
    <lam, w_j>.  group is (m, generators of H, lw, det): each count
    lists H afresh, so an entry holds O(d^2) per cone at any index.
    """
    walls = _walls(fan)
    if walls is None:
        return None
    d, inverses = fan.dim, _cone_inverses(fan)
    _charge(sum(det > 1 and det ** (d - 1) // prod(gcd(*w) for w in ws) or 1 for ws, det in inverses.values()))
    lam = _probe(d, [ws for ws, _ in inverses.values()])
    scale, weights, horner = _todd(d)
    cones = []
    for cone, (ws, det) in inverses.items():
        gs = ws if det == 1 else [primitive(w) for w in ws]
        b = [_dot(lam, g) for g in gs]
        group = None
        if det > 1:
            m = [_dot(g, fan.rays[i]) for g, i in zip(gs, cone)]
            gens = [tuple(fan.rays[i][t] % mj for i, mj in zip(cone, m)) for t in range(d)]
            group = (m, gens, [_dot(lam, w) for w in ws], det)
        power_sums = [sum(x**k for x in b) for k in range(1, d + 1)]
        series = [1]  # S_0, S_1, ...
        for row in weights:
            series.append(sum(w * p * s for w, p, s in zip(row, power_sums, reversed(series))))
        num = [h * s for h, s in zip(horner, series)]
        den = scale**d * factorial(d) * prod(b)
        g = gcd(den, *num) * (1 if den > 0 else -1)
        cones.append((cone, tuple(b), [x // g for x in num], den // g, group))
    common = lcm(*(den for _, _, _, den, _ in cones))
    return common, walls, tuple(
        (cone, b, tuple(x * (common // den) for x in num), group)
        for cone, b, num, den, group in cones
    )


@lru_cache(maxsize=16)
def _todd(d):
    """(scale, weights, horner) in dimension d: S_n = n! scale^n s_n =
    sum_k weights[n - 1][k - 1] p_k S_(n-k), each weight (n-1)!/(n-k)!
    scale^k k l_k an integer, and num_k = horner_k * S_k.

    l_k is the x^k coefficient of log(x / (e^x - 1)) = -x/2 - x^2/24 + ...:
    k l_k = -B_k / k!, B_1 = 1/2, from sum_(j<=m) C(m+1, j) B_j = m + 1,
    each Bernoulli number kept as the integer f B_k, f = (d+1)! (von
    Staudt-Clausen); scale is the lcm of the denominators of the l_k."""
    f, bern = factorial(d + 1), []
    for m in range(d + 1):
        bern.append(f - sum(comb(m + 1, j) * b for j, b in enumerate(bern)) // (m + 1))
    log = [(-b, f * k * factorial(k)) for k, b in enumerate(bern[1:], 1)]  # l_k as (num, den)
    scale = lcm(*(den // gcd(num, den) for num, den in log))
    lead = [scale**k * k * num // den for k, (num, den) in enumerate(log, 1)]
    weights = [[perm(n - 1, k) * w for k, w in enumerate(lead[:n])] for n in range(1, d + 1)]
    return scale, weights, [(-1) ** d * comb(d, k) * scale ** (d - k) for k in range(d + 1)]


def _subgroup(gens, m):
    """The subgroup of prod_j Z/m_j that gens generate, in the box
    0 <= h_j < m_j: each generator adds cosets until one repeats."""
    group = [(0,) * len(m)]
    for g in gens:
        members, step = set(group), g
        while step not in members:
            members.update(tuple((x + y) % k for x, y, k in zip(h, step, m)) for h in group)
            step = tuple((x + y) % k for x, y, k in zip(step, g, m))
        group = list(members)
    return group


def _brion_count(brion, coefficients):
    """Brion's sum for the divisor, or None when it is not nef.

    D is nef exactly when its support function is convex across every
    wall, that is w.a <= 0 for each wall row w; tested before any sum.
    """
    den, walls, cones = brion
    if any(_dot(w, coefficients) > 0 for w in walls):
        return None
    total = 0
    for cone, b, poly, group in cones:
        a = [coefficients[i] for i in cone]
        if group is None:
            alphas = (-_dot(a, b),)
        else:
            m, gens, lw, det = group
            alphas = (
                _dot(h, lw) // det - sum(bj * ((aj + hj) // mj) for bj, aj, hj, mj in zip(b, a, h, m))
                for h in _subgroup(gens, m)
            )
        for alpha in alphas:
            acc = 0
            for c in poly:
                acc = acc * alpha + c
            total += acc
    count, rem = divmod(total, den)
    if rem:
        raise AssertionError("Brion's sum is not an integer")
    return count
