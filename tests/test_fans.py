"""Fan construction, validation flags, neighborliness, section counts.

Section counts are checked four ways: Brion's formula, on the fan or on
a chamber fan, against the Fourier-Motzkin walk of the oracles, an
LP-boxed brute-force scan, a Cox-ring monomial count, and closed-form
counts for the classical families.
"""

import contextlib
import gc
import importlib
import json
import math
import pkgutil
import random
import time
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import combinations, product as iproduct
from math import comb, factorial, gcd, lcm, perm, prod
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import oracles
from oracles import cox_ring_sections, divisor_polytope, nef_cone_by_cones, rational_solve
from oracles import simplex_max, vertex_nef, walk_sections
import toricgit
from toricgit import cones, fans, linalg, vgit
from toricgit.cli import main
from toricgit.checks import (
    PRODUCT_PAIRS,
    _divisor_with_class_multiple,
    builtin_corpus,
    bundle_over_blowup_fan,
)
from toricgit.cox import degree_map
from toricgit.vgit import nef_cone
from toricgit.fans import (
    Fan,
    FanError,
    TorusInvariantDivisor,
    blowup_pn_along_linear,
    bundle_o1_divisor,
    count_sections,
    divisor_from_json,
    fan_from_json,
    fan_to_json,
    is_m_neighborly,
    product_fan,
    projective_bundle_fan,
    projective_space_fan,
    star_subdivision,
    validate,
)
from toricgit.linalg import _dot, det, primitive


def p1():
    return projective_space_fan(1)


def p2():
    return projective_space_fan(2)


def hyperplane_multiple(fan, m):
    """m times the divisor of the last ray (the hyperplane class on P^n)."""
    return TorusInvariantDivisor((0,) * (fan.n_rays - 1) + (m,))


def clear_every_cache():
    """Clear every lru_cache of every toricgit module."""
    for info in pkgutil.iter_modules(toricgit.__path__):
        module = importlib.import_module(f"toricgit.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__:
                obj.cache_clear()


def lattice_points_by_box_scan(fan, div):
    """Oracle: LP-determined exact bounding box, then brute-force scan.

    Independent of Brion's formula and of the walk: coordinate bounds
    come from 2d rational LPs, membership from direct dot products.
    """
    d = fan.dim
    rows = divisor_polytope(fan, div)
    a_ub = [[Fraction(-x) for x in r] for r, _ in rows]
    b_ub = [Fraction(a) for _, a in rows]
    box = []
    for i in range(d):
        bounds = []
        for sign in (1, -1):
            c = [Fraction(0)] * d
            c[i] = Fraction(sign)
            status, x, value = simplex_max(c, a_ub, b_ub, [], [])
            if status == "infeasible":
                return 0
            if status == "unbounded":
                raise ValueError("unbounded polytope in oracle")
            bounds.append(value if sign == 1 else -value)
        hi, lo = bounds
        import math

        box.append(range(math.ceil(lo), math.floor(hi) + 1))
    count = 0
    for u in iproduct(*box):
        if all(sum(x * y for x, y in zip(u, r)) >= -a for r, a in rows):
            count += 1
    return count


# ---------------------------------------------------------------------------
# constructor strictness


class TestFanConstructor:
    def test_rejects_non_primitive_ray(self):
        with pytest.raises(FanError, match="primitive"):
            Fan(2, [(2, 0), (0, 1)], [(0, 1)])

    def test_rejects_zero_ray(self):
        with pytest.raises(FanError, match="zero"):
            Fan(2, [(0, 0), (0, 1)], [(0, 1)])

    def test_rejects_duplicate_rays(self):
        with pytest.raises(FanError, match="duplicate"):
            Fan(2, [(1, 0), (1, 0)], [(0, 1)])

    def test_rejects_dependent_cone_generators(self):
        with pytest.raises(FanError, match="simplicial"):
            Fan(2, [(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)])

    def test_rejects_missing_ray_index(self):
        with pytest.raises(FanError, match="missing ray"):
            Fan(2, [(1, 0), (0, 1)], [(0, 3)])

    def test_rejects_nested_maximal_cones(self):
        with pytest.raises(FanError, match="contained"):
            Fan(2, [(1, 0), (0, 1)], [(0,), (0, 1)])

    def test_rejects_unused_ray(self):
        with pytest.raises(FanError, match="appear"):
            Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1)])

    def test_rejects_overlapping_cones(self):
        # cone(e1, e1+e2) sits inside cone(e1, e2); their common face
        # by index is just e1, so the overlap violates the fan axiom
        with pytest.raises(FanError, match="overlap"):
            Fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])

    @pytest.mark.parametrize("bad", [-1.7, Fraction(-17, 10), "-1"])
    def test_rejects_a_ray_entry_that_is_not_an_integer(self, bad):
        # int() would truncate -1.7 to the ray (-1, -1), a valid P^2
        with pytest.raises(TypeError):
            Fan(2, [(1, 0), (0, 1), (-1, bad)], [(0, 1), (1, 2), (0, 2)])

    def test_rejects_double_cover(self):
        # A pentagram: every ridge joins two cones on opposite sides of
        # it, but the cones wind twice around the origin, so the probe
        # lies in two of them and the pairwise check names the overlap.
        rays = [(1, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)]
        cones = [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)]
        with pytest.raises(FanError) as exc:
            Fan(2, rays, cones)
        assert str(exc.value) == (
            "cones (0, 2) and (1, 3) overlap beyond their common face ()"
        )

    def test_p1_power_10_builds_within_budget(self):
        # 1,024 maximal cones: testing every pair for containment took
        # about 1.3 s on a 2-core machine, the bitmask check by size
        # about 0.02 s
        start = time.perf_counter()
        f = p1()
        for _ in range(9):
            f = product_fan(f, p1())
        elapsed = time.perf_counter() - start
        assert len(f.max_cones) == 1024
        assert elapsed < 0.3, elapsed

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 5), min_size=1), min_size=1, max_size=8, unique=True))
    def test_antichain_check_matches_pair_loop(self, sets):
        cones = [tuple(sorted(c)) for c in sets]
        pairs = [(i, j) for i, a in enumerate(cones) for j, b in enumerate(cones) if a != b and set(a) <= set(b)]
        assert fans._nested_pair(tuple(map(fans._mask, cones))) == (pairs[0] if pairs else None)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 5), min_size=1), min_size=2, max_size=8, unique=True))
    def test_nested_pair_message_names_the_pair_loop_first_match(self, sets):
        # the first pair (a, b) of the input order with a inside b
        cones = [tuple(sorted(c)) for c in sets]
        pairs = [(a, b) for a in cones for b in cones if a != b and set(a) <= set(b)]
        assume(pairs)
        a, b = pairs[0]
        rays = [(1, i) for i in range(6)]
        with pytest.raises(FanError) as info:
            Fan(2, rays, cones, _trusted=True)
        assert str(info.value) == f"cone {a} is contained in cone {b}"

    def test_nested_pair_among_many_cones_is_named_fast(self):
        # 3,000 one-ray cones with the nested pair last: each cone is
        # tested only against the larger ones
        rays = [(1, i) for i in range(3001)]
        cones = [(i,) for i in range(3000)] + [(2999, 3000)]
        start = time.perf_counter()
        with pytest.raises(FanError) as info:
            Fan(2, rays, cones)
        assert time.perf_counter() - start < 0.2
        assert str(info.value) == "cone (2999,) is contained in cone (2999, 3000)"

    def test_accepts_proper_subdivision(self):
        f = Fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
        assert f.n_rays == 3

    def test_hash_is_the_field_tuple_hash(self, corpus):
        # computed once at construction, with the value of the hash it
        # replaced, so no set or dict order changes
        for _, f in corpus:
            assert hash(f) == hash((f.dim, f.rays, f.max_cones))

    def test_equal_fans_built_apart_are_equal_and_hash_equal(self):
        a = p2()
        b = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(2, 1), (0, 2), (1, 0)])
        assert a is not b and a == b and hash(a) == hash(b)
        assert a._masks == b._masks
        c = fan_from_json(fan_to_json(product_fan(p1(), p2())))
        d = product_fan(p1(), p2())
        assert c == d and hash(c) == hash(d)
        assert a != c and Fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)]) != a

    def test_immutable(self):
        f = p2()
        with pytest.raises(AttributeError):
            f.dim = 5

    def test_equality_and_hash(self):
        assert p2() == p2()
        assert hash(p2()) == hash(p2())
        assert p2() != p1()


class TestJson:
    def test_roundtrip(self):
        f = blowup_pn_along_linear(3, 1)
        assert fan_from_json(fan_to_json(f)) == f

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"dim": True}, "dim must be an integer, got True"),
            ({"dim": 1.0}, "dim must be an integer, got 1.0"),
            ({"dim": "1"}, "dim must be an integer, got '1'"),
            ({"rays": [[1, 0], [True, 1]]}, "ray entry must be an integer, got True"),
            ({"rays": [[1, 0], [1.0, 1]]}, "ray entry must be an integer, got 1.0"),
            ({"rays": [[1, 0], ["1", 1]]}, "ray entry must be an integer, got '1'"),
            ({"max_cones": [[0, True]]}, "cone index must be an integer, got True"),
            ({"max_cones": [[0, 1.0]]}, "cone index must be an integer, got 1.0"),
            ({"max_cones": [[0, "1"]]}, "cone index must be an integer, got '1'"),
            ({"rays": [[2, 0], [0, 1]]}, "ray (2, 0) is not primitive"),
            ({"rays": [[0, 0], [0, 1]]}, "zero vector is not a ray"),
        ],
    )
    def test_entry_errors_name_the_entry(self, data, message):
        # one bad entry in an otherwise valid fan, so its error is the first
        fan = {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]], **data}
        with pytest.raises(FanError) as exc:
            fan_from_json(fan)
        assert str(exc.value) == message

    def test_rejects_missing_keys(self):
        with pytest.raises(FanError, match="missing"):
            fan_from_json({"dim": 2, "rays": []})

    def test_rejects_non_list_rays(self):
        with pytest.raises(FanError, match="list"):
            fan_from_json({"dim": 2, "rays": "nope", "max_cones": []})

    @pytest.mark.parametrize(
        "cones,message",
        [
            ([[0, 1], [1], [1, 2], [0, 2]], "cone (1,) is contained in cone (0, 1)"),
            ([[0, 1, 2], [0, 1], [1, 2]], "cone (0, 1) is contained in cone (0, 1, 2)"),
            ([[0, 2], [0, 1], [1, 2], [2]], "cone (2,) is contained in cone (0, 2)"),
        ],
    )
    def test_nested_cones_name_the_first_pair(self, cones, message):
        # the first (a, b) with a inside b, a over the cones as listed
        # and b within a
        data = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": cones}
        with pytest.raises(FanError) as exc:
            fan_from_json(data)
        assert str(exc.value) == message

    def test_divisor_length_checked(self):
        with pytest.raises(FanError, match="coefficients"):
            divisor_from_json({"coefficients": [1, 2]}, p2())

    def test_divisor_roundtrip(self):
        d = divisor_from_json({"coefficients": [1, -2, 3]}, p2())
        assert d.coefficients == (1, -2, 3)


# ---------------------------------------------------------------------------
# validation flags


def twisted_cube_fan():
    """A complete fan that is not projective.

    Face fan over the cube with vertex (1,1,1) moved to (1,2,3) and
    face diagonals chosen in a twisted pattern, found by exhaustive
    search over diagonal patterns.
    """
    rays = [
        (-1, -1, -1), (-1, -1, 1), (-1, 1, -1), (-1, 1, 1),
        (1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 2, 3),
    ]
    cones = [
        (0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 4, 5),
        (1, 2, 3), (1, 3, 5), (2, 3, 6), (2, 4, 6),
        (3, 5, 7), (3, 6, 7), (4, 5, 7), (4, 6, 7),
    ]
    return Fan(3, rays, cones)


def cyclic_face_fan(n):
    """The face fan of the cyclic polytope C(n, 4), complete, simplicial
    and projective, 2-neighborly but not 3-neighborly.

    Rays: the points (t, t^2, t^3, t^4), t = i - (n - 1)/2 for i < n,
    less their centroid, times 4, rounded, each divided by the gcd of
    its entries.  Cones: the facets of the polytope, the 4-sets S for
    which any two indices off S have an even number of S between them
    (Gale's evenness condition; Ziegler, Lectures on Polytopes, 0.7).
    """
    ts = [Fraction(2 * i - (n - 1), 2) for i in range(n)]
    points = [[t**k for k in range(1, 5)] for t in ts]
    centroid = [sum(column) / n for column in zip(*points)]
    rays = []
    for point in points:
        r = [round(4 * (x - c)) for x, c in zip(point, centroid)]
        rays.append([x // gcd(*r) for x in r])
    cones = [
        s
        for s in combinations(range(n), 4)
        if all(sum(i < k < j for k in s) % 2 == 0 for i, j in combinations(sorted(set(range(n)) - set(s)), 2))
    ]
    return Fan(4, rays, cones)


class TestValidate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_projective_space_all_flags(self, n):
        rep = validate(projective_space_fan(n))
        assert rep.simplicial and rep.smooth and rep.complete and rep.projective

    def test_incomplete_fan(self):
        f = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
        rep = validate(f)
        assert rep.simplicial and rep.smooth
        assert not rep.complete and not rep.projective

    def test_weighted_projective_not_smooth(self):
        # P(1,1,2): complete and projective but the cone on
        # (0,1),(-1,-2) has index 2
        f = Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (0, 2), (1, 2)])
        rep = validate(f)
        assert rep.complete and rep.projective
        assert not rep.smooth

    def test_lower_dimensional_cone_smoothness(self):
        # both rays primitive, but together they generate an index-2
        # sublattice of their saturation, so the fan is singular
        f = Fan(3, [(1, 0, 0), (1, 2, 0)], [(0, 1)])
        assert not validate(f).smooth
        g = Fan(3, [(1, 0, 0), (0, 1, 0)], [(0, 1)])
        assert validate(g).smooth

    def test_product_inherits_flags(self):
        f = product_fan(p2(), blowup_pn_along_linear(2, 0))
        rep = validate(f)
        assert rep.simplicial and rep.smooth and rep.complete and rep.projective

    def test_product_of_blowups_projective(self):
        # 324 wall rows, only 6 of them distinct
        bl4_1 = blowup_pn_along_linear(4, 1)
        rep = validate(product_fan(bl4_1, bl4_1))
        assert rep.simplicial and rep.smooth and rep.complete and rep.projective

    def test_product_with_incomplete_factor(self):
        half = Fan(1, [(1,)], [(0,)])
        rep = validate(product_fan(half, p1()))
        assert not rep.complete

    def test_complete_non_projective_instance(self):
        # No strictly convex support function exists: the nef cone of
        # the wall rows has no interior.
        f = twisted_cube_fan()
        rep = validate(f)
        assert rep.simplicial
        assert rep.complete
        assert not rep.projective

    def test_fan_missing_a_ridge_not_complete(self):
        # two opposite quadrants only: rays span the plane and cones are
        # full-dimensional, but ridges pair up wrong
        f = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (2, 3)])
        assert not validate(f).complete


# ---------------------------------------------------------------------------
# the wall certificate against the pairwise fan-axiom check


def h_vector(faces):
    """h[i] = sum_(k <= i) (-1)^(i-k) C(d - k, i - k) faces[k], d =
    len(faces) - 1: the inverse of faces[k] = sum_(i <= k) C(d - i, k -
    i) h[i], which the wall pass sums."""
    d = len(faces) - 1
    return tuple(
        sum((-1) ** (i - k) * comb(d - k, i - k) * faces[k] for k in range(i + 1)) for i in range(d + 1)
    )


def assert_face_numbers_route(f):
    """A complete fan answers is_m_neighborly from the face numbers of
    its wall pass, as the set oracle does, and takes no m-set loop; the
    face numbers count the faces of its cones, and the h-vector they
    give is symmetric."""
    faces = fans._walls(f)[1]
    h = h_vector(faces)
    assert h == h[::-1], (f, h)  # Dehn-Sommerville
    cones = {s for c in f.max_cones for k in range(len(c) + 1) for s in combinations(c, k)}
    assert faces == tuple(sum(len(s) == k for s in cones) for k in range(f.dim + 1)), f
    with mock.patch.object(fans, "combinations", side_effect=AssertionError):
        answers = [is_m_neighborly(f, m) for m in range(1, f.n_rays + 2)]
    assert answers == [oracles.is_m_neighborly(f, m) for m in range(1, f.n_rays + 2)], f


def complete_fans():
    corpus = builtin_corpus()
    by_name = dict(corpus)
    yield from (fan for _, fan in corpus)
    yield from (product_fan(by_name[a], by_name[b]) for a, b in PRODUCT_PAIRS)
    power = p1()
    for _ in range(5):
        power = product_fan(power, p1())
        yield power  # (P^1)^2 .. (P^1)^6


class TestWallCertificate:
    def test_complete_fans_never_reach_the_pairwise_check(self, monkeypatch):
        def refuse(dim, normals):
            raise AssertionError("complete fan reached the pairwise check")

        monkeypatch.setattr(fans, "cone_from_inequalities", refuse)
        for fan in complete_fans():
            assert fan_from_json(fan_to_json(fan)) == fan

    def test_incomplete_fan_takes_the_pairwise_check(self, monkeypatch):
        calls = []
        cone_from_inequalities = fans.cone_from_inequalities

        def counting(dim, normals):
            calls.append(normals)
            return cone_from_inequalities(dim, normals)

        monkeypatch.setattr(fans, "cone_from_inequalities", counting)
        f = fan_from_json(
            {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0]], "max_cones": [[0, 1], [1, 2]]}
        )
        assert calls
        assert not validate(f).complete

    def test_pairwise_check_takes_one_double_description_per_pair(self, monkeypatch):
        # one per maximal cone for its inequality rows, one per pair for
        # the intersection
        power = p1()
        for _ in range(2):
            power = product_fan(power, p1())
        half_plane = Fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)], _trusted=True)
        cut = Fan(3, power.rays, power.max_cones[1:], _trusted=True)
        calls = []
        cone_from_inequalities = fans.cone_from_inequalities

        def counting(dim, normals):
            calls.append(normals)
            return cone_from_inequalities(dim, normals)

        monkeypatch.setattr(fans, "cone_from_inequalities", counting)
        for f, n_cones in ((half_plane, 2), (cut, 7)):
            assert len(f.max_cones) == n_cones
            calls.clear()
            fans._check_fan_axiom(f)
            assert len(calls) == n_cones + comb(n_cones, 2)
            assert not validate(f).complete

    def test_wall_rows_match_rational_coordinates(self):
        # a ridge's row is the relation v_r2 = sum x_i v_i over the rays
        # of one side c1, with -1 at r2; the other side gives a positive
        # multiple of it, so the rows are read here from every side, by
        # Fraction elimination on the dense columns of each cone
        for fan in complete_fans():
            want = set()
            for c in fan.max_cones:
                columns = [list(col) for col in zip(*fan.cone_rays(c))]
                for r1 in c:
                    ridge = set(c) - {r1}
                    (other,) = [o for o in fan.max_cones if o != c and ridge < set(o)]
                    (r2,) = set(other) - ridge
                    x = rational_solve(columns, list(fan.rays[r2]))
                    row = [0] * fan.n_rays
                    for idx, xi in zip(c, x):
                        row[idx] = xi
                    row[r2] = -1
                    scale = lcm(*(v.denominator for v in row if v))
                    want.add(primitive(tuple(int(v * scale) for v in row)))
            assert set(fans._walls(fan)[0]) == want

    def test_p1_power_12_from_json_within_budget(self):
        # 4,096 cones and 24,576 ridges: each wall row is 12 dot
        # products of the cone's facet normals with the opposite ray;
        # the whole validate takes 0.45-0.75 s on a busy 2-core machine.
        # Best of three cold runs, so a busy host does not decide it.
        f = p1()
        for _ in range(11):
            f = product_fan(f, p1())
        data = fan_to_json(f)
        best = float("inf")
        for _ in range(3):
            for cached in (fans._cone_inverses, fans._walls, fans._nef_off, validate):
                cached.cache_clear()
            start = time.perf_counter()
            report = validate(fan_from_json(data))
            best = min(best, time.perf_counter() - start)
        assert report == fans.FanReport(True, True, True, True)
        assert best < 1.2, best

    def test_certificate_matches_the_probe_oracle(self):
        # The wall pass proves a fan complete exactly when the
        # pseudomanifold checks and the big-integer probe of the oracle
        # pass: h[0] == 1 is the probe test.  Complete fans, fans that
        # are not, and a pseudomanifold that winds twice around the
        # origin, a cycle of six cones whose ridges all pass but which
        # covers each generic point twice (h[0] = 2).
        rays = [(1, 0), (-1, 2), (-1, -2), (1, 1), (-1, 0), (1, -2)]
        twice = Fan(2, rays, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], _trusted=True)
        cut = product_fan(product_fan(p1(), p1()), p1())
        cut = Fan(3, cut.rays, cut.max_cones[1:], _trusted=True)
        not_complete = [
            Fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)]),
            Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (2, 3)]),
            cut,
            twice,
        ]
        complete = [*complete_fans(), twisted_cube_fan(), *map(cyclic_face_fan, range(9, 12))]
        for f in complete + not_complete:
            assert (fans._walls(f) is not None) == oracles.wall_certificate(f) == (f in complete), f
        assert not validate(twice).complete

    def test_one_certificate_per_fan(self):
        # The constructor and validate share one cached certificate.
        data = fan_to_json(blowup_pn_along_linear(3, 1))
        for cached in (fans._walls, fans._nef_off, validate):
            cached.cache_clear()
        assert validate(fan_from_json(data)).complete
        info = fans._walls.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_certificate_implies_pairwise_check(self, data):
        # A perturbed corpus fan may overlap itself; whenever the
        # certificate accepts one, the pairwise oracle must accept it too.
        small = [f for _, f in builtin_corpus() if f.dim <= 4]
        fan = data.draw(st.sampled_from(small))
        rays = list(fan.rays)
        index = st.integers(0, fan.n_rays - 1)
        moved = st.lists(index, min_size=1, max_size=2, unique=True)
        shift = st.lists(st.integers(-2, 2), min_size=fan.dim, max_size=fan.dim)
        for i in data.draw(moved):
            delta = data.draw(shift)
            rays[i] = primitive(tuple(x + y for x, y in zip(rays[i], delta)))
        try:
            f = Fan(fan.dim, rays, fan.max_cones, _trusted=True)
            accepted = fans._walls(f) is not None
        except FanError:  # a zero or repeated ray, or dependent rays
            assume(False)
        event(f"certificate accepts: {accepted}")
        assert accepted == oracles.wall_certificate(f)
        if accepted:
            # the pairwise check alone: raises FanError if the cones overlap
            with mock.patch.object(fans, "_walls", lambda *_: None):
                fans._check_fan_axiom(f)


class TestOneElimination:
    """Each full-dimensional maximal cone is eliminated once: its scaled
    inverse is also its simplicial test."""

    @staticmethod
    def spy(monkeypatch):
        # the cached passes would hide calls made for an equal fan earlier
        for cached in (fans._cone_inverses, fans._walls, fans._nef_off, validate):
            cached.cache_clear()
        ranks, inverses = [], []
        rank, inverse = fans.matrix_rank, fans.scaled_inverse

        def spy_rank(rows):
            ranks.append(len(rows))
            return rank(rows)

        def spy_inverse(rows):
            inverses.append(len(rows))
            return inverse(rows)

        monkeypatch.setattr(fans, "matrix_rank", spy_rank)
        monkeypatch.setattr(fans, "scaled_inverse", spy_inverse)
        return ranks, inverses

    @pytest.mark.parametrize(
        "data",
        [
            fan_to_json(blowup_pn_along_linear(3, 1)),
            # incomplete, with a cone of dimension 2 in Z^3
            {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0]],
             "max_cones": [[0, 1, 2], [1, 3]]},
        ],
    )
    def test_json_fan_inverts_each_full_cone_once(self, monkeypatch, data):
        ranks, inverses = self.spy(monkeypatch)
        f = fan_from_json(data)
        validate(f)
        assert ranks == [len(c) for c in f.max_cones if len(c) < f.dim]
        assert inverses == [f.dim for c in f.max_cones if len(c) == f.dim]

    def test_trusted_constructor_eliminates_nothing_until_validated(self, monkeypatch):
        ranks, inverses = self.spy(monkeypatch)
        f = projective_space_fan(6)
        assert ranks == inverses == []
        assert validate(f).projective
        assert ranks == [] and inverses == [6] * len(f.max_cones)

    def test_dependent_full_cone_is_rejected_by_its_inverse(self):
        # (1, 0) and (-1, 0) span a line, not a cone of dimension 2
        data = {"dim": 2, "rays": [[1, 0], [-1, 0], [0, 1]], "max_cones": [[0, 1], [0, 2]]}
        with pytest.raises(FanError) as exc:
            fan_from_json(data)
        assert str(exc.value) == "cone (0, 1) is not simplicial (dependent rays)"


def nef_cone_is_full(fan):
    """The Gale-dual route to projectivity: the nef cone in Cl(X) (x) Q
    has an interior exactly when the fan is projective.  The library's
    nef cone, from the wall rows, and the oracle's, one inverse per
    cone, must agree: both canonical cones equal, or both raising."""
    dm = degree_map(fan)
    verdicts = []
    for build in (nef_cone, nef_cone_by_cones):
        try:
            nef = build(fan, dm)
        except ValueError as exc:
            if "empty interior" not in str(exc):
                raise
            verdicts.append(None)
        else:
            verdicts.append((nef.rays, nef.lin))
    assert verdicts[0] == verdicts[1]
    return verdicts[0] is not None


class TestProjectivityOracle:
    """validate's nef cone of the wall rows against the nef cone cut
    out by one inverse per cone in the class group."""

    def test_complete_fans(self):
        for fan in complete_fans():
            rep = validate(fan)
            assert rep.complete
            assert rep.projective == nef_cone_is_full(fan)

    def test_twisted_cube(self):
        f = twisted_cube_fan()
        assert validate(f).complete
        assert not validate(f).projective
        assert not nef_cone_is_full(f)

    # seeds 0, 1 and 5 subdivide it into a projective fan
    @pytest.mark.parametrize("seed", range(12))
    def test_star_subdivisions_of_the_twisted_cube(self, seed):
        rng = random.Random(seed)
        f = twisted_cube_fan()
        for _ in range(rng.randint(1, 3)):
            cone = rng.choice(f.max_cones)
            face = rng.sample(cone, rng.randint(2, len(cone)))
            with contextlib.suppress(ValueError):  # barycenter already a ray
                f = star_subdivision(f, face)
        rep = validate(f)
        assert rep.complete
        assert rep.projective == nef_cone_is_full(f)


# ---------------------------------------------------------------------------
# neighborliness


class TestNeighborly:
    def test_projective_space(self):
        f = projective_space_fan(4)
        for m in range(1, 5):
            assert is_m_neighborly(f, m)
        assert not is_m_neighborly(f, 5)

    def test_product_of_lines_not_2_neighborly(self):
        f = product_fan(p1(), p1())
        assert is_m_neighborly(f, 1)
        assert not is_m_neighborly(f, 2)

    def test_point_blowup_not_2_neighborly(self):
        # the exceptional ray and the far ray of P^4 span no cone
        assert not is_m_neighborly(blowup_pn_along_linear(4, 0), 2)

    def test_line_blowup_of_p4_is_2_but_not_3_neighborly(self):
        f = blowup_pn_along_linear(4, 1)
        assert is_m_neighborly(f, 2)
        assert not is_m_neighborly(f, 3)

    def test_m_beyond_ray_count(self):
        assert not is_m_neighborly(p2(), 17)

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            is_m_neighborly(p2(), 0)

    def test_monotone_in_m(self):
        for f in [p2(), blowup_pn_along_linear(3, 1), product_fan(p1(), p2())]:
            values = [is_m_neighborly(f, m) for m in range(1, f.n_rays + 1)]
            # once False, stays False
            assert values == sorted(values, reverse=True)

    def test_bitmasks_match_the_set_oracle(self, corpus):
        # The corpus, the products of the analyze benchmark (all of
        # PRODUCT_PAIRS), (P^1)^2..(P^1)^6, the non-projective twisted
        # cube, the cyclic face fans C(n, 4) for n = 9..11, the
        # half-plane fan, which is not complete, and P^2 and a
        # subdivided plane given with unsorted cone tuples, for every m
        # from 0 to n_rays + 1.  Every fan but the half-plane is
        # complete and takes the face-number route.
        by_name = dict(corpus)
        fans_ = [f for _, f in corpus]
        fans_ += [product_fan(by_name[a], by_name[b]) for a, b in PRODUCT_PAIRS]
        power = p1()
        for _ in range(5):
            power = product_fan(power, p1())
            fans_.append(power)
        fans_ += [twisted_cube_fan(), *map(cyclic_face_fan, range(9, 12))]
        fans_.append(Fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)]))
        fans_.append(Fan(2, [(1, 0), (0, 1), (-1, -1)], [(2, 1), (2, 0), (1, 0)]))
        fans_.append(Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(3, 2), (1, 0), (2, 1), (0, 3)]))
        checked = complete = 0
        for f in fans_:
            assert f._masks == tuple(sum(1 << i for i in c) for c in f.max_cones)
            if fans._walls(f) is not None:
                assert_face_numbers_route(f)
                complete += 1
            for m in range(f.n_rays + 2):
                if m == 0:
                    for test in (is_m_neighborly, oracles.is_m_neighborly):
                        with pytest.raises(ValueError, match="m must be positive"):
                            test(f, m)
                    continue
                assert is_m_neighborly(f, m) == oracles.is_m_neighborly(f, m), (f, m)
                checked += 1
        assert checked == sum(f.n_rays + 1 for f in fans_)
        assert complete == len(fans_) - 1
        assert not is_m_neighborly(fans_[-3], 2)  # the half-plane: rays 0 and 2
        assert is_m_neighborly(fans_[-2], 2) and not is_m_neighborly(fans_[-2], 3)

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_cyclic_face_fans_are_two_but_not_three_neighborly(self, n):
        f = cyclic_face_fan(n)
        assert validate(f).complete and validate(f).projective
        faces = fans._walls(f)[1]
        assert h_vector(faces) == (1, n - 4, comb(n - 3, 2), n - 4, 1)
        assert faces == (1, n, comb(n, 2), n * (n - 3), n * (n - 3) // 2)
        assert is_m_neighborly(f, 2) and not is_m_neighborly(f, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_star_subdivisions_match_the_set_oracle(self, data):
        bases = [f for _, f in builtin_corpus() if 2 <= f.dim <= 3] + [twisted_cube_fan()]
        f = data.draw(st.sampled_from(bases))
        for _ in range(data.draw(st.integers(1, 3))):
            cone = data.draw(st.sampled_from(f.max_cones))
            face = data.draw(st.lists(st.sampled_from(cone), min_size=2, unique=True))
            with contextlib.suppress(ValueError):  # barycenter already a ray
                f = star_subdivision(f, face)
        assert_face_numbers_route(f)

    def test_incomplete_fan_charges_each_mask_test(self, monkeypatch):
        # the half-plane fan, m = 1: ray 0 and ray 1 lie in the first
        # cone (one test each), ray 2 only in the second (two tests)
        f = Fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
        assert fans._walls(f) is None
        monkeypatch.setattr(fans, "_NEIGHBORLY_BUDGET", 4)
        assert is_m_neighborly(f, 1)
        monkeypatch.setattr(fans, "_NEIGHBORLY_BUDGET", 3)
        with pytest.raises(ValueError, match="more than 3 tests of 1 rays against a cone"):
            is_m_neighborly(f, 1)

    def test_incomplete_fan_past_the_budget_raises(self):
        # P^22 less one maximal cone is 11-neighborly, but its C(23, 11)
        # 11-sets take more mask tests than the budget allows
        p = projective_space_fan(22)
        f = Fan(22, p.rays, p.max_cones[1:], _trusted=True)
        assert fans._walls(f) is None
        assert is_m_neighborly(f, 3)
        with pytest.raises(ValueError, match="11-neighborliness of a fan that is not complete"):
            is_m_neighborly(f, 11)


# ---------------------------------------------------------------------------
# constructors


class TestConstructors:
    def test_p2_shape(self):
        f = p2()
        assert f.rays == ((1, 0), (0, 1), (-1, -1))
        assert f.max_cones == ((0, 1), (0, 2), (1, 2))

    def test_product_shape(self):
        f = product_fan(p1(), p1())
        assert f.rays == ((1, 0), (-1, 0), (0, 1), (0, -1))
        assert len(f.max_cones) == 4

    def test_star_subdivision_of_p2_vertex(self):
        f = star_subdivision(p2(), (0, 1))
        expected = Fan(
            2,
            [(1, 0), (0, 1), (-1, -1), (1, 1)],
            [(0, 3), (1, 3), (0, 2), (1, 2)],
        )
        assert f == expected

    def test_star_subdivision_rejects_single_ray(self):
        with pytest.raises(ValueError, match="dimension >= 2"):
            star_subdivision(p2(), (0,))

    @pytest.mark.parametrize("bad", [1.7, Fraction(17, 10), "1"])
    def test_star_subdivision_rejects_an_index_that_is_not_an_integer(self, bad):
        # int() would truncate 1.7 to 1 and subdivide the face (0, 1)
        with pytest.raises(TypeError):
            star_subdivision(p2(), (0, bad))

    def test_star_subdivision_rejects_non_face(self):
        with pytest.raises(ValueError, match="does not span"):
            star_subdivision(p2(), (0, 1, 2))

    def test_blowup_validates(self):
        for n, m in [(2, 0), (3, 0), (3, 1), (4, 1), (4, 2), (5, 2)]:
            f = blowup_pn_along_linear(n, m)
            assert f.n_rays == n + 2
            rep = validate(f)
            assert rep.smooth and rep.projective

    def test_blowup_rejects_divisorial_center(self):
        with pytest.raises(ValueError):
            blowup_pn_along_linear(3, 2)

    def test_blowups_stay_projective_iterated(self):
        f = p2()
        for face in [(0, 1), (1, 2), (0, 3)]:
            f = star_subdivision(f, face)
            assert validate(f).projective

    def test_hirzebruch_bundle_matches_textbook_fan(self):
        # P(O + O(aH)) over P^1 should be the Hirzebruch surface, whose
        # standard fan has rays e1, e2, -e1+a*e2, -e2.  The constructor
        # uses its own fiber orientation, so compare through the
        # explicit lattice isomorphism (x, y) -> (x, -y).
        for a in range(4):
            base = p1()
            divs = [
                TorusInvariantDivisor((0, 0)),
                TorusInvariantDivisor((0, a)),
            ]
            built = projective_bundle_fan(base, divs)
            standard = Fan(
                2,
                [(1, 0), (0, 1), (-1, a), (0, -1)],
                [(0, 1), (1, 2), (2, 3), (3, 0)],
            )
            mapped_rays = [(x, -y) for (x, y) in standard.rays]
            perm = [built.rays.index(tuple(r)) for r in mapped_rays]
            mapped_cones = [tuple(sorted(perm[i] for i in c)) for c in standard.max_cones]
            assert sorted(mapped_cones) == list(built.max_cones)
            assert [tuple(r) for r in sorted(mapped_rays)] == sorted(built.rays)

    def test_bundle_requires_two_summands(self):
        with pytest.raises(ValueError, match="two summands"):
            projective_bundle_fan(p1(), [TorusInvariantDivisor((0, 0))])

    def test_bundle_divisor_length_checked(self):
        with pytest.raises(ValueError, match="match the base"):
            projective_bundle_fan(p1(), [TorusInvariantDivisor((0, 0, 0))] * 2)

    def test_bundle_validates_smooth_projective(self):
        base = p2()
        divs = [hyperplane_multiple(base, d) for d in (0, 1, 2)]
        f = projective_bundle_fan(base, divs)
        assert f.dim == 4 and f.n_rays == 6
        rep = validate(f)
        assert rep.smooth and rep.projective


# ---------------------------------------------------------------------------
# section counts


class TestSectionCounts:
    @pytest.mark.parametrize("bad", [1.9, Fraction(19, 10), "1"])
    def test_rejects_a_coefficient_that_is_not_an_integer(self, bad):
        # int() would truncate 1.9 to 1 and count the 3 sections of O(1)
        with pytest.raises(TypeError):
            TorusInvariantDivisor((bad, 0, 0))

    @pytest.mark.parametrize(
        "m,expected", [(0, 1), (1, 3), (2, 6), (3, 10), (-1, 0), (-5, 0)]
    )
    def test_p2_hyperplane_powers(self, m, expected):
        # h^0(P^2, O(m)) = C(m+2, 2)
        assert count_sections(p2(), hyperplane_multiple(p2(), m)) == expected

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (2, 3), (0, 4)])
    def test_p1xp1_bidegree(self, a, b):
        f = product_fan(p1(), p1())
        d = TorusInvariantDivisor((0, a, 0, b))
        assert count_sections(f, d) == (a + 1) * (b + 1)

    def test_blowup_pencil_of_lines(self):
        # on Bl_pt P^2: h^0(H) = 3, h^0(H - E) = 2, h^0(E) = 1
        f = blowup_pn_along_linear(2, 0)
        H = TorusInvariantDivisor((0, 0, 1, 0))
        E = TorusInvariantDivisor((0, 0, 0, 1))
        assert count_sections(f, H) == 3
        assert count_sections(f, H.plus(E.scale(-1))) == 2
        assert count_sections(f, E) == 1

    def test_empty_polytope(self):
        f = blowup_pn_along_linear(2, 0)
        # E - H is never effective
        d = TorusInvariantDivisor((0, 0, -1, 1))
        assert count_sections(f, d) == 0

    def test_unbounded_rejected(self):
        f = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
        with pytest.raises(ValueError, match="unbounded"):
            count_sections(f, TorusInvariantDivisor((1, 1)))

    def test_empty_polytope_of_an_unbounded_fan_counts_zero(self):
        # the upper half plane: u_1 >= 1 and -u_1 >= 1 meet nowhere
        f = Fan(2, [(1, 0), (-1, 0), (0, 1)], [(0, 2), (1, 2)])
        d = TorusInvariantDivisor((-1, -1, 0))
        assert count_sections(f, d) == 0 == walk_sections(f, d)

    def test_incomplete_fan_whose_rays_span_counts(self):
        # two of the three cones of P^2: the polytope is bounded all the
        # same, the triangle of O(3)
        f = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
        assert not validate(f).complete
        d = TorusInvariantDivisor((1, 1, 1))
        assert count_sections(f, d) == 10 == lattice_points_by_box_scan(f, d)

    def test_divisor_length_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            count_sections(p2(), TorusInvariantDivisor((1, 1)))

    def test_many_degree_classes_count_a_non_nef_divisor(self):
        # P^2 blown up 17 times along the rays (1, j): 20 rays, 20
        # distinct degree classes in rank 18, past the 16 classes of the
        # 2**k-bit membership sets, which the count does not build.  Its
        # basis table (1,123 normals, 189 bases) is the cold cost, about
        # 0.03 s on 2 cores; warm, a count takes about 1 ms.
        f = p2()
        for j in range(17):
            f = star_subdivision(f, (f.rays.index((1, j)), f.rays.index((0, 1))))
        assert len(set(degree_map(f).degrees_free)) == 20
        coeffs = (0, 0, 3) + (2,) * 17
        assert fans._brion_count(fans._brion_data(f), coeffs) is None
        d = TorusInvariantDivisor(coeffs)
        for fn in (fans._cokernel, fans._gale, fans._chamber_fan, cones._basis_table):
            fn.cache_clear()
        start = time.perf_counter()
        count = count_sections(f, d)
        elapsed = time.perf_counter() - start
        assert len(cones._basis_table(fans._gale(f)[1])[2]) == 189
        assert count == lattice_points_by_box_scan(f, d) == walk_sections(f, d)
        assert elapsed < 2, elapsed

    def test_forty_rays_count_a_non_nef_divisor(self):
        # 40 rays, 40 classes in rank 38: C(40, 3) = 9,880 hyperplane
        # sets.  A search that pivoted a tableau of 38 rows at each of its
        # C(41, 37) = 101,270 branches would write about 3e8 entries; on
        # the tableau pivoted onto a basis first, a branch that picks a
        # vector of that basis drops its row with no pivot, and the
        # search charges 6.6e6.  Cold, the count takes about 0.5 s on 2
        # cores.
        f = p2()
        for j in range(37):
            f = star_subdivision(f, (f.rays.index((1, j)), f.rays.index((0, 1))))
        assert len(set(degree_map(f).degrees_free)) == 40
        coeffs = (0, 0, 3) + (2,) * 37
        assert fans._brion_count(fans._brion_data(f), coeffs) is None
        d = TorusInvariantDivisor(coeffs)
        for fn in (fans._cokernel, fans._gale, fans._chamber_fan, cones._basis_table):
            fn.cache_clear()
        start = time.perf_counter()
        count = count_sections(f, d)
        elapsed = time.perf_counter() - start
        assert count == lattice_points_by_box_scan(f, d) == walk_sections(f, d)
        assert elapsed < 5, elapsed

    def test_dimension_nine_stops_at_index_budget(self, tmp_path, capsys):
        # P(1, ..., 1, 300000): the cone off the last ray has index
        # 300,000, past the budget, which bounds the work in any dimension
        rays = [[int(i == j) for j in range(9)] for i in range(9)] + [[-1] * 8 + [-300_000]]
        fan = {"dim": 9, "rays": rays, "max_cones": [[i for i in range(10) if i != k] for k in range(10)]}
        (tmp_path / "fan.json").write_text(json.dumps(fan), encoding="utf-8")
        (tmp_path / "div.json").write_text(json.dumps({"coefficients": [0] * 9 + [1]}), encoding="utf-8")
        code = main(["sections", str(tmp_path / "fan.json"), str(tmp_path / "div.json")])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == (
            "error: section count needs more than 200000 parallelepiped points, "
            "the budget on the summed cone index of Brion's formula\n"
        )

    def test_table_past_its_budget_exits_two(self, tmp_path, capsys):
        # 20 rays of dimension 10, each its own cone: e_1..e_10 and ten
        # others with distinct classes, which span, so a count reads the
        # basis table of 20 classes in rank 10, whose search would take
        # about 4 s on 2 cores.  The budget stops it midway.
        rng = random.Random(3)
        rays = [[int(i == j) for j in range(10)] for i in range(10)]
        while len(rays) < 20:
            v = [rng.randint(-2, 1) for _ in range(10)]
            if gcd(*v) == 1 and v not in rays and sum(x != 0 for x in v) >= 2:
                rays.append(v)
        fan = {"dim": 10, "rays": rays, "max_cones": [[i] for i in range(20)]}
        (tmp_path / "fan.json").write_text(json.dumps(fan), encoding="utf-8")
        (tmp_path / "div.json").write_text(json.dumps({"coefficients": [1] * 20}), encoding="utf-8")
        start = time.perf_counter()
        code = main(["sections", str(tmp_path / "fan.json"), str(tmp_path / "div.json")])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == (
            "error: basis table of 20 distinct degree vectors in rank 10 needs more "
            "than 20000000 tableau entries\n"
        )
        assert elapsed < 5, elapsed

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_counts_past_dimension_eight(self, n):
        # 3H on P^n, and aH + bE on Bl_pt P^n: nef for b <= 0, and for
        # b > 0 counted on a chamber fan
        f = projective_space_fan(n)
        assert count_sections(f, hyperplane_multiple(f, 3)) == comb(n + 3, 3)
        bl = blowup_pn_along_linear(n, 0)
        for a, b, nef in ((2, -1, True), (3, 2, False), (1, 3, False)):
            coeffs = (0,) * n + (a, b)
            assert (fans._brion_count(fans._brion_data(bl), coeffs) is not None) == nef
            count = count_sections(bl, TorusInvariantDivisor(coeffs))
            assert count == cox_ring_sections(bl.rays, bl.max_cones, coeffs), (a, b)

    @given(
        coeffs=st.lists(st.integers(-2, 4), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_p2_counts_match_box_scan(self, coeffs):
        d = TorusInvariantDivisor(tuple(coeffs))
        assert count_sections(p2(), d) == lattice_points_by_box_scan(p2(), d)

    @given(coeffs=st.lists(st.integers(-2, 3), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_hirzebruch_counts_match_box_scan(self, coeffs):
        base = p1()
        divs = [TorusInvariantDivisor((0, 0)), TorusInvariantDivisor((0, 2))]
        f = projective_bundle_fan(base, divs)
        d = TorusInvariantDivisor(tuple(coeffs))
        assert count_sections(f, d) == lattice_points_by_box_scan(f, d)

    @given(
        coeffs=st.lists(st.integers(-3, 5), min_size=3, max_size=3),
        shift=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, coeffs, shift):
        # adding the divisor of a character translates the polytope
        f = p2()
        d1 = TorusInvariantDivisor(tuple(coeffs))
        d2 = TorusInvariantDivisor(
            tuple(
                c + sum(u * x for u, x in zip(shift, r))
                for c, r in zip(coeffs, f.rays)
            )
        )
        assert count_sections(f, d1) == count_sections(f, d2)


# a weighted projective plane P(1, 2, 1): complete, simplicial, not smooth
WEIGHTED_P2 = Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
# P^1 x P^1 divided by Z/2: Cl = Z^2 + Z/2, since the rays span an
# index-2 sublattice
TORSION_QUOTIENT = Fan(
    2, [(1, 1), (-1, 1), (-1, -1), (1, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
)


class TestBrionPath:
    """Brion's formula, the one counting engine: on the fan for a nef
    divisor, on a chamber fan for any other, held against the
    Fourier-Motzkin walk of the oracles."""

    def test_todd_table(self):
        # (x / (e^x - 1)) * ((e^x - 1) / x) = 1, (e^x - 1) / x = sum x^j / (j+1)!
        todd = [Fraction(1)]
        for k in range(1, 13):
            todd.append(-sum(t / factorial(k - i + 1) for i, t in enumerate(todd)))
        for d in range(1, 13):
            scale, weights, _ = fans._todd(d)
            # weights[n - 1][k - 1] = (n-1)!/(n-k)! scale^k k l_k, so the
            # last of row n is n! scale^n l_n
            log = [Fraction(0)] + [Fraction(row[-1], factorial(n) * scale**n) for n, row in enumerate(weights, 1)]
            for n, row in enumerate(weights, 1):
                assert row == [perm(n - 1, k - 1) * k * scale**k * log[k] for k in range(1, n + 1)]
            # log(x / (e^x - 1)) = sum l_k x^k: its exponential, sum_m
            # (sum l_k x^k)^m / m! truncated at x^d, is that series
            exp, power = [Fraction(0)] * (d + 1), [Fraction(1)] + [Fraction(0)] * d
            for m in range(d + 1):
                exp = [e + p / factorial(m) for e, p in zip(exp, power)]
                power = [sum(power[i] * log[k - i] for i in range(k + 1)) for k in range(d + 1)]
            assert exp == todd[: d + 1], d

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_nef_counts_match_enumeration(self, data):
        small = [f for _, f in builtin_corpus() if f.dim <= 4]
        fan = data.draw(st.sampled_from(small))
        dm = degree_map(fan)
        gens = nef_cone(fan, dm).generators
        weights = data.draw(
            st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens))
        )
        chi = tuple(
            sum(w * g[i] for w, g in zip(weights, gens))
            for i in range(dm.cl_free_rank)
        )
        div = _divisor_with_class_multiple(dm, chi)
        brion = fans._brion_count(fans._brion_data(fan), div.coefficients)
        assert brion is not None
        assert brion == walk_sections(fan, div)

    @pytest.mark.parametrize(
        "n,k", [(1, 7), (2, 9), (3, 5), (4, 12), (5, 3), (6, 10), (7, 20), (8, 40)]
    )
    def test_projective_space_binomials(self, n, k):
        # h^0(P^n, O(k)) = C(n+k, n); P^8 with 40H has 377,348,994 points
        f = projective_space_fan(n)
        with mock.patch.object(fans, "_chamber", side_effect=AssertionError):
            assert count_sections(f, hyperplane_multiple(f, k)) == comb(n + k, n)

    @pytest.mark.parametrize(
        "degrees", [(3,), (0, 5), (2, 1, 4), (1, 3, 0, 2), (2,) * 5]
    )
    def test_product_of_lines(self, degrees):
        # h^0 of O(a_1, ..., a_k) on (P^1)^k is the product of a_i + 1
        f = p1()
        for _ in degrees[1:]:
            f = product_fan(f, p1())
        div = TorusInvariantDivisor(tuple(x for a in degrees for x in (0, a)))
        with mock.patch.object(fans, "_chamber", side_effect=AssertionError):
            assert count_sections(f, div) == prod(a + 1 for a in degrees)

    @pytest.mark.parametrize(
        "fan,coeffs",
        [
            (blowup_pn_along_linear(2, 0), (0, 0, 0, 1)),  # E
            (blowup_pn_along_linear(2, 0), (0, 0, 1, 3)),  # H + 3E
            (blowup_pn_along_linear(3, 0), (0, 0, 0, 4, 1)),  # 4H + E
            (WEIGHTED_P2, (0, 0, 3)),  # not smooth
            (WEIGHTED_P2, (1, 2, 0)),
            (TORSION_QUOTIENT, (2, 0, 1, 0)),
        ],
    )
    def test_non_nef_or_non_smooth_enumerates(self, fan, coeffs):
        # a divisor that is not nef reads its chamber off the basis
        # table of the classes; a nef one on a non-smooth fan counts on
        # the fan, by the parallelepipeds of its cones
        div = TorusInvariantDivisor(coeffs)
        nef = fans._brion_count(fans._brion_data(fan), coeffs) is not None
        with mock.patch.object(fans, "_chamber", wraps=fans._chamber) as chamber:
            count = count_sections(fan, div)
        assert chamber.call_count == (not nef)
        assert count == lattice_points_by_box_scan(fan, div) == walk_sections(fan, div)

    def test_enumeration_budget(self):
        # 30H + E on Bl_pt P^3 is not nef; its polytope is 30 times the
        # standard simplex.  The oracle walk of dimension 3 is not
        # memoized, so every prefix is a step: 1 + 31 values of u_0 + 496
        # of (u_0, u_1).  count_sections counts it on the chamber fan,
        # without a step.
        f = blowup_pn_along_linear(3, 0)
        div = TorusInvariantDivisor((0, 0, 0, 30, 1))
        assert count_sections(f, div) == comb(33, 3)
        with mock.patch.object(oracles, "_NODE_BUDGET", 528):
            assert walk_sections(f, div) == comb(33, 3)
        with mock.patch.object(oracles, "_NODE_BUDGET", 527):
            with pytest.raises(ValueError, match="enumeration steps"):
                walk_sections(f, div)
            assert count_sections(f, div) == comb(33, 3)

    def test_memo_keeps_heavy_bundle_divisor_in_small_budget(self):
        # the unmemoized oracle walk takes 132,342 steps on this divisor,
        # the memoized one under 3,000
        f = bundle_over_blowup_fan()
        div = TorusInvariantDivisor((0, 2, 1, 8, 7, 0, 6, 3, 8))
        assert fans._brion_count(fans._brion_data(f), div.coefficients) is None
        with mock.patch.object(oracles, "_NODE_BUDGET", 10_000):
            assert walk_sections(f, div) == 1511694
        assert count_sections(f, div) == 1511694

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_wall_nef_test_matches_vertices(self, data):
        fan = data.draw(st.sampled_from(smooth_complete_fans()))
        coeffs = tuple(
            data.draw(st.lists(st.integers(-3, 8), min_size=fan.n_rays, max_size=fan.n_rays))
        )
        nef = vertex_nef(fan, coeffs)
        event("nef" if nef else "not nef")
        assert (fans._brion_count(fans._brion_data(fan), coeffs) is not None) == nef

    def test_non_nef_divisor_on_p3_reads_an_empty_chamber(self):
        # -H + 0 on P^3: the wall rows reject it, and no basis cone of
        # the classes holds its class, so its polytope, that of O(-1), is
        # empty, as the oracle walk finds
        f = projective_space_fan(3)
        div = TorusInvariantDivisor((1, 0, 0, -2))
        assert fans._brion_count(fans._brion_data(f), div.coefficients) is None
        with mock.patch.object(fans, "_chamber", wraps=fans._chamber) as chamber:
            assert count_sections(f, div) == 0
        chamber.assert_called_once()
        assert fans._chamber(f, div.coefficients) is None
        assert walk_sections(f, div) == 0

    def test_cone_inverses_are_facet_normals(self, corpus):
        # each stored normal u_i pairs to d with its own ray and to 0
        # with the others, and d is the cone's index: on the corpus and
        # on the chamber fan that count_sections builds for D_3 on
        # subdivision15, from a cold cache
        fans._chamber_fan.cache_clear()
        with mock.patch.object(fans, "_check_fan_axiom", wraps=fans._check_fan_axiom) as cert:
            count_sections(dict(corpus)["subdivision15"], TorusInvariantDivisor((0, 0, 0, 1, 0, 0, 0)))
        chamber = cert.call_args.args[0]
        checked = 0
        for fan in [f for _, f in corpus] + [chamber]:
            for cone, (normals, d) in fans._cone_inverses(fan).items():
                rays = fan.cone_rays(cone)
                assert d == abs(det(rays))
                for i, u in enumerate(normals):
                    assert [_dot(u, v) for v in rays] == [d * (i == j) for j in range(len(rays))]
                checked += 1
        assert checked == sum(len(c) == f.dim for f in [f for _, f in corpus] + [chamber] for c in f.max_cones)

    def test_cone_inverses_are_shared_and_read_only(self):
        f = blowup_pn_along_linear(3, 0)
        inverses = fans._cone_inverses(f)
        assert fans._cone_inverses(f) is inverses
        with pytest.raises(TypeError):
            inverses[f.max_cones[0]] = None


@cache
def smooth_complete_fans():
    """The smooth complete corpus fans of dimension at most 4, and two
    products."""
    corpus = dict(builtin_corpus())
    out = [f for f in corpus.values() if f.dim <= 4 and validate(f).smooth and validate(f).complete]
    return out + [product_fan(p1(), corpus["f1"]), product_fan(p1(), p1())]


@cache
def walk_fans():
    """Smooth complete fans of dimension 4 to 6 from the corpus, and
    products with P^1."""
    corpus = dict(builtin_corpus())
    return [
        corpus["bl4_1"],
        corpus["bl5_2"],
        corpus["bundle_over_blowup"],
        product_fan(p1(), corpus["bl3_0"]),
        product_fan(p1(), product_fan(p1(), corpus["f1"])),
    ]


class TestCoxRingOracle:
    """count_sections against monomials of degree [D] in the Cox ring."""

    FANS = [
        p2(),
        blowup_pn_along_linear(2, 0),
        product_fan(p1(), p1()),
        projective_bundle_fan(
            p1(), [TorusInvariantDivisor((0, 0)), TorusInvariantDivisor((0, 2))]
        ),
        blowup_pn_along_linear(3, 0),
        WEIGHTED_P2,
        TORSION_QUOTIENT,
    ]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_count_sections(self, data):
        fan = data.draw(st.sampled_from(self.FANS))
        coeffs = data.draw(
            st.lists(st.integers(-2, 4), min_size=fan.n_rays, max_size=fan.n_rays)
        )
        expected = cox_ring_sections(fan.rays, fan.max_cones, coeffs)
        assert count_sections(fan, TorusInvariantDivisor(tuple(coeffs))) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_memoized_walk(self, data):
        # non-nef divisors on fans of dimension 4 to 6, where the walk
        # memoizes the levels 1..d-3
        fan = data.draw(st.sampled_from(walk_fans()))
        coeffs = data.draw(
            st.lists(st.integers(-1, 3), min_size=fan.n_rays, max_size=fan.n_rays)
        )
        assume(fans._brion_count(fans._brion_data(fan), coeffs) is None)
        expected = cox_ring_sections(fan.rays, fan.max_cones, coeffs)
        event(f"dim {fan.dim}, {'no' if expected == 0 else 'some'} sections")
        div = TorusInvariantDivisor(tuple(coeffs))
        assert count_sections(fan, div) == expected == walk_sections(fan, div)

    def test_torsion_separates_classes(self):
        # D_0 and D_2 share their free class but differ by torsion, so
        # x_0 is the only monomial of degree [D_0]
        f = TORSION_QUOTIENT
        dm = degree_map(f)
        assert dm.torsion == (2,)
        d0, d2 = (1, 0, 0, 0), (0, 0, 1, 0)
        assert dm.divisor_class(d0)[0] == dm.divisor_class(d2)[0]
        assert cox_ring_sections(f.rays, f.max_cones, d0) == 1
        assert count_sections(f, TorusInvariantDivisor(d0)) == 1


# weighted projective planes P(1, q1, q2), P(1, 1, 1, 2), and a fan with
# torsion in dimension 3: complete, simplicial, not smooth
NON_SMOOTH = [
    WEIGHTED_P2,
    TORSION_QUOTIENT,
    Fan(2, [(1, 0), (0, 1), (-2, -3)], [(0, 1), (1, 2), (0, 2)]),
    Fan(2, [(1, 0), (0, 1), (-3, -5)], [(0, 1), (1, 2), (0, 2)]),
    Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)], list(combinations(range(4), 3))),
    product_fan(TORSION_QUOTIENT, projective_space_fan(1)),
]


class TestChamberRoute:
    """Divisors that are not nef, and non-smooth fans, against the
    oracle walk, the box scan and the Cox ring."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_non_smooth_fans(self, data):
        fan = data.draw(st.sampled_from(NON_SMOOTH))
        coeffs = data.draw(st.lists(st.integers(-2, 5), min_size=fan.n_rays, max_size=fan.n_rays))
        div = TorusInvariantDivisor(tuple(coeffs))
        nef = fans._brion_count(fans._brion_data(fan), coeffs) is not None
        event("nef" if nef else "not nef")
        count = count_sections(fan, div)
        assert count == walk_sections(fan, div) == lattice_points_by_box_scan(fan, div)
        assert count == cox_ring_sections(fan.rays, fan.max_cones, coeffs)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_non_nef_divisors_on_smooth_fans(self, data):
        fan = data.draw(st.sampled_from(smooth_complete_fans()))
        coeffs = data.draw(st.lists(st.integers(-2, 6), min_size=fan.n_rays, max_size=fan.n_rays))
        assume(fans._brion_count(fans._brion_data(fan), coeffs) is None)
        div = TorusInvariantDivisor(tuple(coeffs))
        count = count_sections(fan, div)
        event("no sections" if count == 0 else "sections")
        assert count == walk_sections(fan, div) == lattice_points_by_box_scan(fan, div)
        assert count == cox_ring_sections(fan.rays, fan.max_cones, coeffs)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_fixed_part_is_the_least_slack_over_the_vertices(self, data):
        # fixed[r] is the ceiling of the least slack <u, v_r> + a_r over
        # the vertices u of P_D, which is 0 on a ray tight at some
        # vertex: held against every vertex, solved over Fraction from
        # each set of d independent rays and kept when it lies in P_D
        fan = data.draw(st.sampled_from(smooth_complete_fans()))
        coeffs = data.draw(st.lists(st.integers(-2, 6), min_size=fan.n_rays, max_size=fan.n_rays))
        assume(fans._brion_count(fans._brion_data(fan), coeffs) is None)
        vertices = set()
        for sigma in combinations(range(fan.n_rays), fan.dim):
            rays = [fan.rays[i] for i in sigma]
            if det(rays):
                u = rational_solve(rays, [-coeffs[i] for i in sigma])
                if all(_dot(u, v) >= -c for v, c in zip(fan.rays, coeffs)):
                    vertices.add(tuple(u))
        chamber = fans._chamber(fan, coeffs)
        event("empty" if not vertices else "fixed part" if any(chamber[1]) else "no fixed part")
        assert (chamber is None) == (not vertices)
        if vertices:
            least = [min(_dot(u, v) + c for u in vertices) for v, c in zip(fan.rays, coeffs)]
            assert chamber[1] == [math.ceil(x) for x in least]

    def test_chamber_fan_is_certified(self, corpus):
        # D_3 on subdivision15 is not nef, and its polytope's normal fan
        # is not refined by the fan: it counts on a chamber fan that Fan
        # certifies as it would any other input, once per chamber, so
        # the chamber fans' cache starts cold
        f = dict(corpus)["subdivision15"]
        coeffs = (0, 0, 0, 1, 0, 0, 0)
        fans._chamber_fan.cache_clear()
        with mock.patch.object(fans, "_check_fan_axiom", wraps=fans._check_fan_axiom) as cert:
            count = count_sections(f, TorusInvariantDivisor(coeffs))
        cert.assert_called_once()
        chamber = cert.call_args.args[0]
        assert validate(chamber).complete and len(chamber.max_cones) == 6
        assert count == 2 == cox_ring_sections(f.rays, f.max_cones, coeffs)

    def test_cached_brion_data_does_not_grow_with_the_index(self):
        # A non-unimodular cone keeps the generators of its subgroup, not
        # its parallelepiped points: nef and non-nef counts on three
        # fans of summed index 120,006 leave under 1 MB in the caches,
        # where a cache of their points would hold all 120,006 of them.
        caches = (fans._brion_data, fans._cone_inverses, fans._walls, validate)
        caches += (fans._cokernel, fans._gale, fans._chamber_fan, cones._basis_table)
        for fn in caches:
            fn.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in (15_000, 20_000, 25_000):
                # two cones of index k
                f = Fan(2, [(1, 0), (0, 1), (-1, 0), (-1, -k)], [(0, 1), (1, 2), (2, 3), (0, 3)])
                assert count_sections(f, TorusInvariantDivisor((0, 1, 0, 1))) == 2
                assert fans._brion_count(fans._brion_data(f), (1, 0, 1, 0)) is None
                assert count_sections(f, TorusInvariantDivisor((1, 0, 1, 0))) == 2
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000

    def test_chamber_fan_is_charged_to_the_budget(self):
        # every cone of a chamber fan is a cone Brion's formula will sum:
        # the one class basis of the half-plane fan's three rays expands
        # to the three cones of P^2, charged before the fan is built
        f = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
        d = TorusInvariantDivisor((1, 1, 1))
        masks, fixed = fans._chamber(f, d.coefficients)
        assert (masks, fixed) == ((1,), [0, 0, 0])
        fans._chamber_fan.cache_clear()
        with mock.patch.object(fans, "_INDEX_BUDGET", 2):
            with mock.patch.object(fans, "Fan", side_effect=AssertionError("built past the budget")):
                with pytest.raises(ValueError, match="more than 2 parallelepiped points"):
                    fans._chamber_fan(f, masks)
        with mock.patch.object(fans, "_INDEX_BUDGET", 3):
            assert count_sections(f, d) == 10

    def test_degenerate_vertex_takes_the_tie_break(self, corpus):
        # the first cone's vertex is a degenerate vertex of P_D for this
        # divisor, so its class lies on walls of the basis cones: the
        # tie-break must pick the cones of one perturbed polytope, or the
        # chamber fan's cones overlap and Fan refuses it
        f = dict(corpus)["subdivision13"]
        coeffs = (2, 3, 1, 1, 1, 0)
        assert fans._brion_count(fans._brion_data(f), coeffs) is None
        projection, classes, _, _, _ = fans._gale(f)
        normals = cones._basis_table(classes)[0]
        cls = [_dot(row, coeffs) for row in projection]
        assert 0 in [_dot(n, cls) for n in normals]
        count = count_sections(f, TorusInvariantDivisor(coeffs))
        assert count == 32 == walk_sections(f, TorusInvariantDivisor(coeffs))
        assert count == cox_ring_sections(f.rays, f.max_cones, coeffs)

    def test_rays_that_do_not_span_take_the_gale_route(self):
        # (1, 0) and (-1, 0) leave u_2 free, so P_D holds a line: it is
        # unbounded unless empty.  Their classes key a basis table like
        # any fan's, which holds the class of D exactly when P_D is not
        # empty (Farkas), and bounded is False, so no double description
        # runs: the count answers with it refused, from cold caches
        f = Fan(2, [(1, 0), (-1, 0)], [(0,), (1,)])
        for fn in (fans._cokernel, fans._gale, fans._brion_data, cones._basis_table):
            fn.cache_clear()
        refuse = AssertionError("a double description ran")
        with mock.patch.object(cones, "duals_from_inequalities", side_effect=refuse):
            assert fans._gale(f)[-1] is False
            with pytest.raises(ValueError, match="unbounded divisor polytope"):
                count_sections(f, TorusInvariantDivisor((0, 0)))
            assert count_sections(f, TorusInvariantDivisor((-1, -1))) == 0

    def test_probe_ties_match_the_table_decoding_on_the_corpus(self, corpus):
        # the first nonzero dot product of each normal with the classes,
        # by first ray, is the sign of the first class off its
        # hyperplane: the ties that decoding the table's signed indices
        # gives, and the sign on the big-integer probe class, which
        # weighs the classes by falling powers of q
        for name, f in corpus:
            _, classes, members, ties, _ = fans._gale(f)
            assert ties == oracles.table_ties(classes, members) == oracles.q_weighted_ties(f), name

    @pytest.mark.parametrize("n_rays", [20, 36, 52])
    def test_ties_match_the_probe_class_on_many_rays(self, n_rays):
        # Seeded star subdivisions of P^2 with n distinct classes, so the
        # probe class weighs the first by q^(n-1).  It is largest at 52
        # rays, past which the basis table refuses; the 52-ray table
        # takes about 3.5 s cold on 2 cores.
        rng = random.Random(n_rays)
        f = p2()
        while f.n_rays < n_rays:
            f = star_subdivision(f, rng.choice(f.max_cones))
        _, classes, _, ties, _ = fans._gale(f)
        assert len(classes) == n_rays
        assert ties == oracles.q_weighted_ties(f)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_probe_ties_match_the_table_decoding(self, data):
        # rays that need not span, with repeated and zero classes
        dim = data.draw(st.integers(1, 3))
        vec = st.tuples(*[st.integers(-3, 3)] * dim).filter(lambda v: gcd(*v) == 1)
        rays = data.draw(st.lists(vec, min_size=1, max_size=dim + 4, unique=True))
        _, classes, members, ties, _ = fans._gale(Fan(dim, rays, [(i,) for i in range(len(rays))]))
        event(f"{len(classes)} classes")
        assert ties == oracles.table_ties(classes, members)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_bounded_exactly_when_the_rays_positively_span(self, data):
        # Rays that do not positively span, whether they span or not,
        # leave every nonempty P_D unbounded.  _gale tells them apart by
        # Gale duality: they span and their classes are acyclic, none 0
        # and their cone pointed, so that the facet normals that the
        # table's side marks span.  Held against the cone of the rays by
        # double description, the whole space exactly when they
        # positively span.  P_D of D = (1, ..., 1) holds 0, so it is
        # counted, or refused as unbounded.
        dim = data.draw(st.integers(1, 3))
        vec = st.tuples(*[st.integers(-2, 2)] * dim).filter(lambda v: gcd(*v) == 1)
        rays = data.draw(st.lists(vec, min_size=dim, max_size=2 if dim == 1 else dim + 3, unique=True))
        fan = Fan(dim, rays, [(i,) for i in range(len(rays))])
        gale = fans._gale(fan)
        positive = len(cones.cone_from_generators(dim, rays).lin) == dim
        event("positively spanning" if positive else "not positively spanning")
        assert gale[-1] == positive
        div = TorusInvariantDivisor((1,) * len(rays))
        if positive:
            assert count_sections(fan, div) == lattice_points_by_box_scan(fan, div)
        else:
            with pytest.raises(ValueError, match="unbounded divisor polytope"):
                count_sections(fan, div)

    @pytest.mark.parametrize("count_first", [False, True])
    def test_one_smith_form_and_one_table_per_query(self, corpus, monkeypatch, count_first):
        # One character query on a corpus fan, its signature, wall test,
        # stable base locus and a non-nef section count, builds one Smith
        # form, fans._cokernel, and one basis table, which the grading
        # and the count share, whichever of vgit and fans asks first.
        f = dict(corpus)["subdivision15"]
        coeffs = (0, 0, 0, 1, 0, 0, 0)
        smith, real = [], linalg.smith_normal_form

        def counting(rows):
            smith.append(rows)
            return real(rows)

        def query():
            dm = degree_map(f)
            chi = dm.divisor_class(coeffs)[0]
            vgit.unstable_supports(dm, chi)
            vgit.is_boundary_character(dm, chi)
            vgit.stable_base_locus_codim(f, dm, chi)

        def count():
            assert fans._brion_count(fans._brion_data(f), coeffs) is None
            assert count_sections(f, TorusInvariantDivisor(coeffs)) == 2

        monkeypatch.setattr(linalg, "smith_normal_form", counting)
        clear_every_cache()
        try:
            for step in (count, query) if count_first else (query, count):
                step()
            table = cones._basis_table.cache_info()
        finally:
            clear_every_cache()
        assert len(smith) == 1
        assert (table.misses, table.currsize) == (1, 1)


class TestBundleProjectionFormula:
    """Section counts of the relative hyperplane class.

    Pushing the d-th twist down to the base gives the d-th symmetric
    power of the summand bundle, so counts must match sums of binomial
    coefficients.  These identities pin the fiber-coordinate sign in the
    bundle constructor: the reversed convention fails them whenever the
    summand degrees are asymmetric.
    """

    @staticmethod
    def h0_pn(n, m):
        if m < 0:
            return 0
        out = 1
        for i in range(n):
            out = out * (m + n - i) // (i + 1)
        return out

    @pytest.mark.parametrize("degs", [(0, 1), (1, 2), (0, 3), (-1, 1)])
    def test_rank_two_over_p1(self, degs):
        base = p1()
        divs = [TorusInvariantDivisor((0, d)) for d in degs]
        f = projective_bundle_fan(base, divs)
        o1 = bundle_o1_divisor(divs)
        expected = sum(self.h0_pn(1, d) for d in degs)
        assert count_sections(f, o1) == expected

    @pytest.mark.parametrize("degs", [(0, 1, 2), (0, 0, 1), (1, 1, 3), (-1, 0, 2)])
    def test_rank_three_over_p2(self, degs):
        base = p2()
        divs = [hyperplane_multiple(base, d) for d in degs]
        f = projective_bundle_fan(base, divs)
        o1 = bundle_o1_divisor(divs)
        expected = sum(self.h0_pn(2, d) for d in degs)
        assert count_sections(f, o1) == expected

    def test_second_twist_is_symmetric_square(self):
        base = p1()
        degs = (0, 1)
        divs = [TorusInvariantDivisor((0, d)) for d in degs]
        f = projective_bundle_fan(base, divs)
        o2 = bundle_o1_divisor(divs, d=2)
        # Sym^2(O + O(1)) = O + O(1) + O(2)
        assert count_sections(f, o2) == 1 + 2 + 3

    def test_twist_by_pullback(self):
        base = p1()
        degs = (0, 1)
        divs = [TorusInvariantDivisor((0, d)) for d in degs]
        f = projective_bundle_fan(base, divs)
        L = TorusInvariantDivisor((0, 2))
        twisted = bundle_o1_divisor(divs).plus(
            TorusInvariantDivisor(L.coefficients + (0,) * len(divs))
        )
        # O(1) + p*O(2) pushes to O(2) + O(3)
        assert count_sections(f, twisted) == 3 + 4

    def test_pullback_alone_counts_base_sections(self):
        base = p2()
        divs = [hyperplane_multiple(base, d) for d in (0, 1)]
        f = projective_bundle_fan(base, divs)
        L = hyperplane_multiple(base, 2)
        # the pullback puts zero on every fiber ray
        pullback = TorusInvariantDivisor(L.coefficients + (0,) * len(divs))
        assert count_sections(f, pullback) == 6
