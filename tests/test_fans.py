"""Fan construction, validation flags, neighborliness, section counts.

Section counts are checked four ways: the two engines under test
(Brion's formula and the recursive projection counter) against each
other, an LP-boxed brute-force scan, a Cox-ring monomial count, and
closed-form counts for the classical families.
"""

from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import comb, factorial, prod
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracles import cox_ring_sections, simplex_max
from toricgit import fans
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
    divisor_polytope,
    fan_from_json,
    fan_to_json,
    is_m_neighborly,
    product_fan,
    projective_bundle_fan,
    projective_space_fan,
    star_subdivision,
    validate,
)
from toricgit.linalg import primitive


def p1():
    return projective_space_fan(1)


def p2():
    return projective_space_fan(2)


def hyperplane_multiple(fan, m):
    """m times the divisor of the last ray (the hyperplane class on P^n)."""
    return TorusInvariantDivisor((0,) * (fan.n_rays - 1) + (m,))


def lattice_points_by_box_scan(fan, div):
    """Oracle: LP-determined exact bounding box, then brute-force scan.

    Independent of the recursive projection counter: coordinate bounds
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

    def test_accepts_proper_subdivision(self):
        f = Fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
        assert f.n_rays == 3

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

    def test_rejects_float_entries(self):
        with pytest.raises(FanError, match="integer"):
            fan_from_json({"dim": 2, "rays": [[1.0, 0]], "max_cones": [[0]]})

    def test_rejects_bool_entries(self):
        with pytest.raises(FanError, match="integer"):
            fan_from_json({"dim": 2, "rays": [[True, 0]], "max_cones": [[0]]})

    def test_rejects_missing_keys(self):
        with pytest.raises(FanError, match="missing"):
            fan_from_json({"dim": 2, "rays": []})

    def test_rejects_non_list_rays(self):
        with pytest.raises(FanError, match="list"):
            fan_from_json({"dim": 2, "rays": "nope", "max_cones": []})

    def test_divisor_length_checked(self):
        with pytest.raises(FanError, match="coefficients"):
            divisor_from_json({"coefficients": [1, 2]}, p2())

    def test_divisor_roundtrip(self):
        d = divisor_from_json({"coefficients": [1, -2, 3]}, p2())
        assert d.coefficients == (1, -2, 3)


# ---------------------------------------------------------------------------
# validation flags


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
        # Face fan over the cube with vertex (1,1,1) moved to (1,2,3)
        # and face diagonals chosen in a twisted pattern.  Found by
        # exhaustive search over diagonal patterns; both the wall LP
        # here and an independent per-cone-functional LP agree that no
        # strictly convex support function exists.
        rays = [
            (-1, -1, -1), (-1, -1, 1), (-1, 1, -1), (-1, 1, 1),
            (1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 2, 3),
        ]
        cones = [
            (0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 4, 5),
            (1, 2, 3), (1, 3, 5), (2, 3, 6), (2, 4, 6),
            (3, 5, 7), (3, 6, 7), (4, 5, 7), (4, 6, 7),
        ]
        f = Fan(3, rays, cones)
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
        def refuse(fan, idx):
            raise AssertionError("complete fan reached the pairwise check")

        monkeypatch.setattr(fans, "_subset_cone", refuse)
        for fan in complete_fans():
            assert fan_from_json(fan_to_json(fan)) == fan

    def test_incomplete_fan_takes_the_pairwise_check(self, monkeypatch):
        calls = []
        subset_cone = fans._subset_cone

        def counting(fan, idx):
            calls.append(idx)
            return subset_cone(fan, idx)

        monkeypatch.setattr(fans, "_subset_cone", counting)
        f = fan_from_json(
            {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0]], "max_cones": [[0, 1], [1, 2]]}
        )
        assert calls
        assert not validate(f).complete

    def test_one_certificate_per_fan(self):
        # The constructor and validate share one cached certificate.
        data = fan_to_json(blowup_pn_along_linear(3, 1))
        fans._wall_certificate.cache_clear()
        validate.cache_clear()
        assert validate(fan_from_json(data)).complete
        info = fans._wall_certificate.cache_info()
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
        except FanError:
            assume(False)
        accepted = fans._wall_certificate(f)
        event(f"certificate accepts: {accepted}")
        if accepted:
            # the pairwise check alone: raises FanError if the cones overlap
            with mock.patch.object(fans, "_wall_certificate", lambda *_: False):
                fans._check_fan_axiom(f)


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

    def test_dimension_cap(self):
        f = projective_space_fan(9)
        with pytest.raises(ValueError, match="capped"):
            count_sections(f, hyperplane_multiple(f, 1))

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
    """Brion's formula on nef divisors of smooth complete fans, held
    against the Fourier-Motzkin enumeration, which handles the rest."""

    def test_todd_table(self):
        # (x / (e^x - 1)) * ((e^x - 1) / x) = 1, (e^x - 1) / x = sum x^j / (j+1)!
        todd = [Fraction(1)]
        for k in range(1, 9):
            todd.append(-sum(t / factorial(k - i + 1) for i, t in enumerate(todd)))
        assert [Fraction(n, d) for n, d in fans._TODD] == todd

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
        assert brion == fans._enumerate(fan.dim, divisor_polytope(fan, div))

    @pytest.mark.parametrize(
        "n,k", [(1, 7), (2, 9), (3, 5), (4, 12), (5, 3), (6, 10), (7, 20), (8, 40)]
    )
    def test_projective_space_binomials(self, n, k):
        # h^0(P^n, O(k)) = C(n+k, n); P^8 with 40H has 377,348,994 points
        f = projective_space_fan(n)
        with mock.patch.object(fans, "_enumerate", side_effect=AssertionError):
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
        with mock.patch.object(fans, "_enumerate", side_effect=AssertionError):
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
        div = TorusInvariantDivisor(coeffs)
        with mock.patch.object(fans, "_enumerate", wraps=fans._enumerate) as walk:
            count = count_sections(fan, div)
        walk.assert_called_once()
        assert count == lattice_points_by_box_scan(fan, div)

    def test_enumeration_budget(self):
        # 30H + E on Bl_pt P^3 is not nef; its polytope is 30 times the
        # standard simplex.  A walk of dimension 3 is not memoized, so
        # every prefix is a step: 1 + 31 values of u_0 + 496 of (u_0, u_1)
        f = blowup_pn_along_linear(3, 0)
        div = TorusInvariantDivisor((0, 0, 0, 30, 1))
        assert count_sections(f, div) == comb(33, 3)
        with mock.patch.object(fans, "_NODE_BUDGET", 528):
            assert count_sections(f, div) == comb(33, 3)
        with mock.patch.object(fans, "_NODE_BUDGET", 527):
            with pytest.raises(ValueError, match="enumeration steps"):
                count_sections(f, div)

    def test_memo_keeps_heavy_bundle_divisor_in_small_budget(self):
        # the unmemoized walk takes 132,342 steps on this divisor, the
        # memoized one under 3,000
        f = bundle_over_blowup_fan()
        div = TorusInvariantDivisor((0, 2, 1, 8, 7, 0, 6, 3, 8))
        assert fans._brion_count(fans._brion_data(f), div.coefficients) is None
        with mock.patch.object(fans, "_NODE_BUDGET", 10_000):
            assert count_sections(f, div) == 1511694

    def test_cone_inverses_are_shared_and_read_only(self):
        f = blowup_pn_along_linear(3, 0)
        inverses = fans._cone_inverses(f)
        assert fans._cone_inverses(f) is inverses
        with pytest.raises(TypeError):
            inverses[f.max_cones[0]] = None


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
        assert count_sections(fan, TorusInvariantDivisor(tuple(coeffs))) == expected

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
        o1 = bundle_o1_divisor(base, divs)
        expected = sum(self.h0_pn(1, d) for d in degs)
        assert count_sections(f, o1) == expected

    @pytest.mark.parametrize("degs", [(0, 1, 2), (0, 0, 1), (1, 1, 3), (-1, 0, 2)])
    def test_rank_three_over_p2(self, degs):
        base = p2()
        divs = [hyperplane_multiple(base, d) for d in degs]
        f = projective_bundle_fan(base, divs)
        o1 = bundle_o1_divisor(base, divs)
        expected = sum(self.h0_pn(2, d) for d in degs)
        assert count_sections(f, o1) == expected

    def test_second_twist_is_symmetric_square(self):
        base = p1()
        degs = (0, 1)
        divs = [TorusInvariantDivisor((0, d)) for d in degs]
        f = projective_bundle_fan(base, divs)
        o2 = bundle_o1_divisor(base, divs, d=2)
        # Sym^2(O + O(1)) = O + O(1) + O(2)
        assert count_sections(f, o2) == 1 + 2 + 3

    def test_twist_by_pullback(self):
        base = p1()
        degs = (0, 1)
        divs = [TorusInvariantDivisor((0, d)) for d in degs]
        f = projective_bundle_fan(base, divs)
        L = TorusInvariantDivisor((0, 2))
        twisted = bundle_o1_divisor(base, divs, d=1, twist=L)
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
