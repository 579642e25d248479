"""Simplicial fans: construction, validation, divisors, section counts.

A Fan stores primitive ray vectors and maximal cones as index tuples.
Everything downstream assumes the constructor checks passed, so the
constructor is strict: primitive distinct rays, linearly independent
cone generators, maximal cones forming an antichain, and (unless built
by an internal constructor that guarantees it) the geometric fan axiom
that any two cones meet in a common face.
One wall pass proves the axiom for a complete fan (every ridge joins
two cones on opposite sides, one generic probe lies in one cone); any
other input falls back to intersecting every pair of maximal cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm, perm, prod
from types import MappingProxyType

from .cones import cone_from_generators, cones_equal
from .linalg import IntMatrix, matrix_rank, primitive, smith_normal_form
from .linalg import _dot
from .lp import max_strict_slack, scaled_inverse


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
    """Immutable simplicial fan in Z^dim."""

    __slots__ = ("dim", "rays", "max_cones")

    def __init__(self, dim, rays, max_cones, _trusted=False):
        dim = int(dim)
        if dim < 1:
            raise FanError("fan dimension must be at least 1")
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        if not rays:
            raise FanError("a fan needs at least one ray")
        for r in rays:
            if len(r) != dim:
                raise FanError(f"ray {r} has wrong dimension")
            if not any(r):
                raise FanError("zero vector is not a ray")
            if primitive(r) != r:
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
            if matrix_rank([rays[i] for i in c]) != len(c):
                raise FanError(f"cone {c} is not simplicial (dependent rays)")
        for a in cones:
            for b in cones:
                if a != b and set(a) <= set(b):
                    raise FanError(f"cone {a} is contained in cone {b}")
        used = set(i for c in cones for i in c)
        if used != set(range(len(rays))):
            raise FanError("every ray must appear in some maximal cone")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", tuple(sorted(cones)))
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
        return hash((self.dim, self.rays, self.max_cones))

    def __repr__(self):
        return (
            f"Fan(dim={self.dim}, n_rays={self.n_rays}, "
            f"n_max_cones={len(self.max_cones)})"
        )


@lru_cache(maxsize=8192)
def _subset_cone(fan, idx):
    return cone_from_generators(fan.dim, [fan.rays[i] for i in idx])


def _check_fan_axiom(fan):
    """Geometric fan condition: cones meet in common faces.

    The wall certificate proves it for a complete fan.  Anything else
    (an incomplete fan, or invalid input) intersects every pair of
    maximal cones by double description.
    """
    if _wall_certificate(fan):
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
        [as_int(x, "ray entry") for x in as_list(r, "ray")]
        for r in as_list(data["rays"], "rays")
    ]
    cones = [
        [as_int(i, "cone index") for i in as_list(c, "cone")]
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
    """(inv, d) of each full-dimensional maximal cone: column i of inv is
    the inward normal of the facet opposite ray i, d the cone's index.
    Read-only, since validate and the section counts share it."""
    out = {}
    for c in fan.max_cones:
        if len(c) == fan.dim:
            inv, d = scaled_inverse(fan.cone_rays(c))
            out[c] = (tuple(map(tuple, inv)), d)
    return MappingProxyType(out)


def _ridges(fan):
    """Each ridge (a maximal cone minus one ray) mapped to its
    (maximal cone, dropped ray) pairs, in max_cones order."""
    by_ridge = {}
    for c in fan.max_cones:
        for drop in range(len(c)):
            ridge = c[:drop] + c[drop + 1 :]
            by_ridge.setdefault(ridge, []).append((c, c[drop]))
    return by_ridge


@lru_cache(maxsize=1024)
def _wall_certificate(fan):
    """Pseudomanifold certificate that the cones form a complete fan.

    Every maximal cone is full-dimensional, every ridge lies in exactly
    two, on opposite sides of it, and one generic probe lies in exactly
    one cone (De Loera, Rambau and Santos, Triangulations, 2010, ch. 4).
    It proves the fan axiom too; False proves nothing.  Cached, since
    the constructor and validate both ask it of a fan read from JSON.
    """
    inverses = _cone_inverses(fan)
    if len(inverses) != len(fan.max_cones):
        return False
    normals = {
        c: [primitive(n) for n in zip(*inv)] for c, (inv, _) in inverses.items()
    }
    for sides in _ridges(fan).values():
        if len(sides) != 2:
            return False
        (c1, r1), (_, r2) = sides
        if _dot(normals[c1][c1.index(r1)], fan.rays[r2]) >= 0:
            return False
    # The probe lies on no facet hyperplane, so it is interior to each
    # cone it hits.
    w = _probe(fan.dim, normals.values())
    return sum(all(_dot(n, w) > 0 for n in ns) for ns in normals.values()) == 1


def _probe(dim, normals):
    """w = (1, q, ..., q^(dim-1)) with q above every normal's entry sum.

    Every nonzero normal n has _dot(n, w) != 0: each |n_i| < q, so its
    last nonzero term outweighs all the earlier ones together.  normals
    is an iterable of lists of vectors.
    """
    q = 1 + max(sum(abs(x) for x in n) for ns in normals for n in ns)
    return [q**i for i in range(dim)]


def _is_projective(fan, inverses):
    """Strictly convex support function LP on a complete fan.

    One unknown h per ray; on each maximal cone the linear extension is
    determined by the h values of its generators, and across each wall
    the extension must exceed the h of the opposite ray by a common
    positive slack.  Projective iff the maximal slack is positive.
    """
    rows = []
    for _ridge, ((cone, _), (_, opp)) in sorted(_ridges(fan).items()):
        # d times the coordinates of the opposite ray in the cone's basis
        inv, d = inverses[cone]
        row = [0] * fan.n_rays
        for idx, col in zip(cone, zip(*inv)):
            row[idx] = _dot(fan.rays[opp], col)
        row[opp] = -d
        rows.append(primitive(row))
    # Walls repeat the same row many times (bl4_1 x bl4_1: 324 rows, 6
    # distinct); repeats leave the feasible region, and so t > 0, alone.
    t, _ = max_strict_slack(list(dict.fromkeys(rows)))
    return t > 0


@lru_cache(maxsize=8192)
def validate(fan) -> FanReport:
    """Recompute the smooth, complete and projective flags from scratch.

    All three flags read one scaled inverse per full-dimensional cone.
    Such a cone is smooth iff its |det| is 1; a lower-dimensional one
    iff its Smith invariant factors are all 1.  Complete is the wall
    certificate, which on a valid fan is exactly completeness.
    Projectivity is the support-function LP over the same walls,
    attempted only on complete fans.
    """
    inverses = _cone_inverses(fan)

    def unimodular(c):
        if c in inverses:
            return inverses[c][1] == 1
        snf = smith_normal_form(IntMatrix.from_rows(fan.cone_rays(c)))
        return set(snf.invariant_factors()) == {1}

    smooth = all(unimodular(c) for c in fan.max_cones)
    complete = _wall_certificate(fan)
    return FanReport(
        simplicial=True,  # Fan.__init__ rejects a cone with dependent rays
        smooth=smooth,
        complete=complete,
        projective=complete and _is_projective(fan, inverses),
    )


# ---------------------------------------------------------------------------
# neighborliness


def is_m_neighborly(fan, m) -> bool:
    """Does every m-element set of rays span a cone of the fan?

    For a simplicial fan any subset of a cone's generators spans a face,
    so it suffices that each m-subset of rays lies inside some maximal
    cone.  m above the ray count returns False.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > fan.n_rays:
        return False
    cone_sets = [set(c) for c in fan.max_cones]
    return all(
        any(set(sub) <= cs for cs in cone_sets)
        for sub in combinations(range(fan.n_rays), m)
    )


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


def bundle_o1_divisor(base, divisors, d=1, twist=None) -> TorusInvariantDivisor:
    """Divisor on the bundle fan with class d*(relative hyperplane) + p*(twist).

    Uses the representative d*(last fiber divisor + pullback of D_k);
    any other index gives a linearly equivalent divisor.
    """
    k = len(divisors)
    coeffs = [d * c for c in divisors[-1].coefficients]
    if twist is not None:
        coeffs = [a + b for a, b in zip(coeffs, twist.coefficients)]
    coeffs += [0] * (k - 1) + [d]
    return TorusInvariantDivisor(tuple(coeffs))


# ---------------------------------------------------------------------------
# divisors and sections


def divisor_polytope(fan, div):
    """Half-space list for {u : <u, v_rho> >= -a_rho}, one row per ray."""
    if len(div.coefficients) != fan.n_rays:
        raise ValueError("divisor does not match the fan")
    return tuple((r, a) for r, a in zip(fan.rays, div.coefficients))


def _normalize_row(row):
    coeffs, c = row
    g = 0
    for x in coeffs:
        g = gcd(g, x)
    g = gcd(g, c)
    if g > 1:
        return (tuple(x // g for x in coeffs), c // g)
    return (tuple(coeffs), c)


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


# Steps the Fourier-Motzkin walk may take before count_sections gives
# up, reached in about a second.  A memo hit is no step, and the memo of
# one call holds at most one entry per step.  The non-nef divisors in
# the benchmark's pool take at most 3,075 steps (132,342 without it).
_NODE_BUDGET = 1_500_000

# B_k / k! for k = 0..8 as (numerator, denominator): the Taylor
# coefficients of the Todd function x / (e^x - 1) up to the dimension cap.
_TODD = (
    (1, 1), (-1, 2), (1, 12), (0, 1), (-1, 720),
    (0, 1), (1, 30240), (0, 1), (-1, 1209600),
)


def count_sections(fan, div) -> int:
    """Number of lattice points of the divisor polytope P_D.

    On a smooth complete fan with D nef this is Brion's formula: every
    tangent cone of P_D is unimodular, so the count is a sum over the
    maximal cones of a constant term of a Todd series, in exact integer
    arithmetic.  Every other input takes an exact recursive enumeration:
    Fourier-Motzkin projects the constraint system down one coordinate
    at a time, then prefixes are walked with the exact integer bounds
    each level provides.  The subwalks of a level with a loop above and
    two below are memoized on the constants they still read, in a dict
    that lives for one call.  A walk past _NODE_BUDGET steps raises
    ValueError; memo hits are not steps, and the memo holds at most one
    entry per step.  Unbounded polytopes (the fan is not complete) are
    rejected; an empty polytope counts 0.
    """
    if fan.dim > 8:
        raise ValueError("section counting is capped at ambient dimension 8")
    polytope = divisor_polytope(fan, div)
    brion = _brion_data(fan)
    if brion is not None:
        count = _brion_count(brion, div.coefficients)
        if count is not None:
            return count
    return _enumerate(fan.dim, polytope)


@lru_cache(maxsize=256)
def _brion_data(fan):
    """Per-fan data of Brion's formula, or None unless smooth and complete.

    For D = sum a_rho D_rho the vertex of cone sigma is u = -inv.a_sigma,
    its tangent cone is spanned by the columns w_j of inv, and lam, the
    wall certificate's probe, has b_j = <lam, w_j> != 0.  With
    alpha = <lam, u> the cone contributes the constant term at t = 0 of
    e^(t alpha) / prod_j (1 - e^(t b_j))
      = (-1)^d / prod_j b_j * sum_k s_k alpha^(d-k) / (d-k)!,
    s_k the coefficients of the Todd series prod_j T(t b_j).  Returns
    (den, cones): each cone as (ray indices, b, outside rays as (rho,
    coordinates of v_rho in the cone's basis), integer Horner
    coefficients), and den the one denominator they share.
    """
    report = validate(fan)
    if not (report.smooth and report.complete):
        return None
    d = fan.dim
    inverses = _cone_inverses(fan)
    edges = {c: list(zip(*inv)) for c, (inv, _) in inverses.items()}
    lam = _probe(d, edges.values())
    scale = lcm(*(den for _, den in _TODD[: d + 1]))
    todd = [num * (scale // den) for num, den in _TODD[: d + 1]]
    cones = []
    for cone, ws in edges.items():
        b = [_dot(lam, w) for w in ws]
        series = [1] + [0] * d  # scale^j times the product of j factors
        for bj in b:
            factor = [t * bj**k for k, t in enumerate(todd)]
            series = [
                sum(series[i] * factor[k - i] for i in range(k + 1))
                for k in range(d + 1)
            ]
        num = [(-1) ** d * s * perm(d, k) for k, s in enumerate(series)]
        den = scale**d * factorial(d) * prod(b)
        g = gcd(den, *num) * (1 if den > 0 else -1)
        outside = tuple(
            (rho, tuple(_dot(w, fan.rays[rho]) for w in ws))
            for rho in range(fan.n_rays)
            if rho not in cone
        )
        cones.append((cone, tuple(b), outside, [x // g for x in num], den // g))
    common = lcm(*(den for *_, den in cones))
    return common, tuple(
        (cone, b, outside, tuple(x * (common // den) for x in num))
        for cone, b, outside, num, den in cones
    )


def _brion_count(brion, coefficients):
    """Brion's sum for the divisor, or None when it is not nef.

    D is nef exactly when every vertex u_sigma lies in P_D, that is
    <u_sigma, v_rho> >= -a_rho for each ray rho outside sigma.
    """
    den, cones = brion
    total = 0
    for cone, b, outside, poly in cones:
        a = [coefficients[i] for i in cone]
        for rho, coords in outside:
            if _dot(a, coords) > coefficients[rho]:
                return None
        alpha = -_dot(a, b)
        acc = 0
        for c in poly:
            acc = acc * alpha + c
        total += acc
    count, rem = divmod(total, den)
    if rem:
        raise AssertionError("Brion's sum is not an integer")
    return count


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
    # Given the prefix u_0..u_(j-1) and lo..hi from bounds[j], the number
    # of completions depends only on lo, hi and the residual constants
    # c + <coeffs[:j], prefix> of the rows that read u_j or a later
    # coordinate: the other rows are constants the prefix satisfies.  So
    # count(j, ...) is memoized on them, for the levels 1 <= j <= d - 3
    # that have a loop above and two below; open_rows[j] holds those rows
    # as (coeffs[:j], c).  A hit is no step, and only a miss, which
    # costs at least one step, stores an entry.
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
            key = (j, lo, hi, *[c + _dot(head, prefix) for head, c in open_rows[j]])
            if key in memo:
                return memo[key]
        visited += hi - lo + 1
        if visited > _NODE_BUDGET:
            raise ValueError(
                f"section count needs more than {_NODE_BUDGET} enumeration "
                "steps; Brion's formula covers only nef divisors on smooth "
                "complete fans"
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
