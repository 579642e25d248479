"""Grading exactness, ideal combinatorics, zero-locus codimensions.

The Stanley-Reisner complex and prime decomposition of tests/oracles.py
are checked against exhaustive subset enumeration, and the zero-locus
codimension against both; the grading is checked through basis-independent
statements (relations, ranks, spans) since the Smith basis is free to
twist coordinates.
"""

import time
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    FaceComplex,
    _minimal_hitting_sets,
    acts_freely_by_smith,
    contains_monomial,
    prime_decomposition,
    smallest_hitting_set_size,
    stanley_reisner,
)
from toricgit import cox, linalg
from toricgit.checks import PRODUCT_PAIRS
from toricgit.cox import (
    MAX_HITTING_SET_VARS,
    DegreeMap,
    SquarefreeIdeal,
    _acts_freely,
    degree_map,
    irrelevant_ideal,
    zero_locus_codim,
)
from toricgit.fans import (
    Fan,
    blowup_pn_along_linear,
    is_m_neighborly,
    product_fan,
    projective_space_fan,
    validate,
)
from toricgit.linalg import smith_normal_form


def torsion_example_fan():
    """Complete plane fan whose rays span an index-2 sublattice."""
    return Fan(2, [(1, 2), (1, -2), (-1, 0)], [(0, 1), (0, 2), (1, 2)])


def assert_sum_relations(fan, dm):
    """Every lattice functional must pair to zero against the degrees."""
    for i in range(fan.dim):
        for k in range(dm.cl_free_rank):
            total = sum(
                r[i] * dm.degrees_free[rho][k] for rho, r in enumerate(fan.rays)
            )
            assert total == 0
        for k, modulus in enumerate(dm.torsion):
            total = sum(
                r[i] * dm.degrees_torsion[rho][k]
                for rho, r in enumerate(fan.rays)
            )
            assert total % modulus == 0


class TestDegreeMap:
    def test_rejects_incomplete_fan(self):
        f = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
        with pytest.raises(ValueError, match="complete"):
            degree_map(f)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_projective_space(self, n):
        f = projective_space_fan(n)
        dm = degree_map(f)
        assert dm.cl_free_rank == 1
        assert dm.torsion == ()
        degs = set(dm.degrees_free)
        assert len(degs) == 1
        assert abs(next(iter(degs))[0]) == 1
        assert_sum_relations(f, dm)

    def test_product_of_lines(self):
        f = product_fan(projective_space_fan(1), projective_space_fan(1))
        dm = degree_map(f)
        assert dm.cl_free_rank == 2
        assert dm.degrees_free[0] == dm.degrees_free[1]
        assert dm.degrees_free[2] == dm.degrees_free[3]
        a, b = dm.degrees_free[0], dm.degrees_free[2]
        assert abs(a[0] * b[1] - a[1] * b[0]) == 1
        assert_sum_relations(f, dm)

    def test_point_blowup_of_plane(self):
        f = blowup_pn_along_linear(2, 0)  # rays e1, e2, -e1-e2, e1+e2
        dm = degree_map(f)
        assert dm.cl_free_rank == 2
        d = dm.degrees_free
        assert d[0] == d[1]
        # <e1, .> relation: deg(x_0) - deg(x_2) + deg(x_3) = 0
        assert tuple(x + y for x, y in zip(d[0], d[3])) == d[2]
        assert_sum_relations(f, dm)

    def test_rank_formula_on_samples(self):
        for f in [
            projective_space_fan(3),
            blowup_pn_along_linear(4, 1),
            product_fan(projective_space_fan(2), projective_space_fan(2)),
        ]:
            dm = degree_map(f)
            assert dm.cl_free_rank == f.n_rays - f.dim
            assert_sum_relations(f, dm)

    def test_degrees_span_the_free_part(self):
        for f in [projective_space_fan(2), blowup_pn_along_linear(3, 1)]:
            dm = degree_map(f)
            _, factors, _ = smith_normal_form(dm.degrees_free)
            assert list(factors) == [1] * dm.cl_free_rank

    def test_torsion_quotient(self):
        f = torsion_example_fan()
        dm = degree_map(f)
        assert dm.cl_free_rank == 1
        assert dm.torsion == (2,)
        assert_sum_relations(f, dm)

    def test_divisor_class_is_linear(self):
        f = blowup_pn_along_linear(2, 0)
        dm = degree_map(f)
        free1, tors1 = dm.divisor_class((1, 0, 0, 0))
        free2, tors2 = dm.divisor_class((0, 0, 1, 2))
        free_sum, _ = dm.divisor_class((1, 0, 1, 2))
        assert free_sum == tuple(a + b for a, b in zip(free1, free2))
        assert tors1 == tors2 == ()
        assert free1 == dm.degrees_free[0]


class TestCacheKeys:
    # DegreeMap and SquarefreeIdeal key caches and hash once, at
    # construction, with the value of the dataclass hash they replaced.

    def test_hash_is_the_field_tuple_hash(self, corpus):
        for _, f in corpus:
            dm = degree_map(f)
            fields = (dm.n_rays, dm.cl_free_rank, dm.torsion, dm.degrees_free, dm.degrees_torsion)
            assert hash(dm) == hash(fields)
            ideal = irrelevant_ideal(f)
            assert hash(ideal) == hash((ideal.n_vars, ideal.generator_supports))

    def test_equal_objects_built_apart_are_equal_and_hash_equal(self, corpus):
        for _, f in corpus:
            dm = degree_map(f)
            twin = DegreeMap(
                n_rays=dm.n_rays,
                cl_free_rank=dm.cl_free_rank,
                torsion=tuple(dm.torsion),
                degrees_free=tuple(tuple(d) for d in dm.degrees_free),
                degrees_torsion=tuple(tuple(d) for d in dm.degrees_torsion),
            )
            assert twin is not dm and twin == dm and hash(twin) == hash(dm)
            ideal = irrelevant_ideal(f)
            shuffled = [tuple(reversed(s)) for s in reversed(ideal.generator_supports)]
            other = SquarefreeIdeal(ideal.n_vars, tuple(shuffled))
            assert other is not ideal and other == ideal and hash(other) == hash(ideal)
        assert SquarefreeIdeal(3, ((0,),)) != SquarefreeIdeal(3, ((1,),))
        dm = degree_map(projective_space_fan(2))
        assert DegreeMap(3, 1, (), ((1,), (1,), (2,)), ((),) * 3) != dm


class TestIrrelevantIdeal:
    def test_projective_plane(self):
        ideal = irrelevant_ideal(projective_space_fan(2))
        assert ideal.generator_supports == ((0,), (1,), (2,))

    def test_product_of_lines(self):
        f = product_fan(projective_space_fan(1), projective_space_fan(1))
        ideal = irrelevant_ideal(f)
        assert ideal.generator_supports == ((0, 2), (0, 3), (1, 2), (1, 3))

    def test_point_blowup_of_plane(self):
        ideal = irrelevant_ideal(blowup_pn_along_linear(2, 0))
        assert len(ideal.generator_supports) == 4
        assert all(len(s) == 2 for s in ideal.generator_supports)

    def test_single_cone_fan_gives_unit_ideal(self):
        f = Fan(1, [(1,)], [(0,)])
        assert irrelevant_ideal(f).generator_supports == ()

    def test_antichain_enforced(self):
        with pytest.raises(ValueError, match="antichain"):
            SquarefreeIdeal(3, ((0,), (0, 1)))

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SquarefreeIdeal(3, ((),))

    def test_containment_across_sizes_beside_a_same_size_pair(self):
        # (0, 1) and (2, 3) share a size and are fine; (0, 1) lies in
        # (0, 1, 2), one size up.
        with pytest.raises(ValueError, match="antichain"):
            SquarefreeIdeal(4, ((0, 1), (2, 3), (0, 1, 2)))
        with pytest.raises(ValueError, match="antichain"):
            SquarefreeIdeal(4, ((0, 1, 2), (3,), (1, 2, 3)))

    def test_distinct_supports_of_one_size_accepted(self):
        pairs = tuple(combinations(range(5), 2))
        ideal = SquarefreeIdeal(5, tuple(reversed(pairs)))
        assert ideal.generator_supports == pairs

    def test_repeated_index_is_the_same_set(self):
        # (0, 0, 1) is the set {0, 1}: it equals (1, 0) and lies in
        # (0, 1, 2), although the tuples have the same length.
        with pytest.raises(ValueError, match="antichain"):
            SquarefreeIdeal(3, ((0, 0, 1), (1, 0)))
        with pytest.raises(ValueError, match="antichain"):
            SquarefreeIdeal(3, ((0, 0, 1), (0, 1, 2)))

    @given(
        raw=st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=6), max_size=7
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_antichain_check_matches_every_pair(self, raw):
        supports = {tuple(sorted(s)) for s in raw}
        nested = any(
            a != b and set(a) <= set(b) for a in supports for b in supports
        )
        if nested:
            with pytest.raises(ValueError, match="antichain"):
                SquarefreeIdeal(6, tuple(raw))
        else:
            ideal = SquarefreeIdeal(6, tuple(raw))
            assert ideal.generator_supports == tuple(sorted(supports))


def brute_force_facets(ideal):
    """Maximal subsets not containing any generator support."""
    n = ideal.n_vars
    faces = []
    for size in range(n + 1):
        for sub in combinations(range(n), size):
            if not contains_monomial(ideal, sub):
                faces.append(set(sub))
    return sorted(
        tuple(sorted(f))
        for f in faces
        if not any(f < g for g in faces)
    )


class TestStanleyReisner:
    def test_point_ideal(self):
        ideal = SquarefreeIdeal(3, ((0,), (1,), (2,)))
        assert stanley_reisner(ideal).facets == ((),)

    def test_product_of_lines_facets(self):
        f = product_fan(projective_space_fan(1), projective_space_fan(1))
        complex_ = stanley_reisner(irrelevant_ideal(f))
        assert complex_.facets == ((0, 1), (2, 3))

    def test_no_generators_full_simplex(self):
        complex_ = stanley_reisner(SquarefreeIdeal(4, ()))
        assert complex_.facets == ((0, 1, 2, 3),)

    def test_matches_brute_force_on_fans(self):
        for f in [
            projective_space_fan(3),
            blowup_pn_along_linear(3, 1),
            blowup_pn_along_linear(4, 0),
            product_fan(projective_space_fan(1), projective_space_fan(2)),
        ]:
            ideal = irrelevant_ideal(f)
            assert stanley_reisner(ideal).facets == tuple(
                brute_force_facets(ideal)
            )

    def test_facet_antichain_type_invariant(self):
        with pytest.raises(ValueError, match="antichain"):
            FaceComplex(3, ((0,), (0, 1)))


class TestPrimeDecomposition:
    def test_projective_plane(self):
        ideal = irrelevant_ideal(projective_space_fan(2))
        assert prime_decomposition(ideal) == [(0, 1, 2)]

    def test_product_of_lines(self):
        f = product_fan(projective_space_fan(1), projective_space_fan(1))
        ideal = irrelevant_ideal(f)
        assert prime_decomposition(ideal) == [(0, 1), (2, 3)]

    def test_no_generators_no_components(self):
        assert prime_decomposition(SquarefreeIdeal(4, ())) == []

    @pytest.mark.parametrize(
        "fan_builder",
        [
            lambda: projective_space_fan(3),
            lambda: blowup_pn_along_linear(2, 0),
            lambda: blowup_pn_along_linear(4, 1),
            lambda: product_fan(
                projective_space_fan(1), projective_space_fan(2)
            ),
        ],
    )
    def test_membership_equivalence_exhaustive(self, fan_builder):
        # x^A lies in I iff it lies in every coordinate-prime component
        f = fan_builder()
        ideal = irrelevant_ideal(f)
        comps = prime_decomposition(ideal)
        n = ideal.n_vars
        for mask in range(2**n):
            support = {i for i in range(n) if (mask >> i) & 1}
            in_ideal = contains_monomial(ideal, support)
            in_all = all(support & set(c) for c in comps)
            assert in_ideal == in_all


class TestZeroLocusCodim:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_projective_space(self, n):
        ideal = irrelevant_ideal(projective_space_fan(n))
        assert zero_locus_codim(ideal) == n + 1

    def test_product_of_lines(self):
        f = product_fan(projective_space_fan(1), projective_space_fan(1))
        assert zero_locus_codim(irrelevant_ideal(f)) == 2

    def test_point_blowup_of_plane(self):
        assert zero_locus_codim(irrelevant_ideal(blowup_pn_along_linear(2, 0))) == 2

    def test_line_blowup_of_p4(self):
        # the supports form K_{3,3}; both minimal vertex covers have size 3
        assert zero_locus_codim(irrelevant_ideal(blowup_pn_along_linear(4, 1))) == 3

    def test_point_blowup_of_p4(self):
        assert zero_locus_codim(irrelevant_ideal(blowup_pn_along_linear(4, 0))) == 2

    def test_empty_ideal_sentinel(self):
        assert zero_locus_codim(SquarefreeIdeal(5, ())) == 6

    def test_equivalence_with_neighborliness(self):
        fans = [
            projective_space_fan(2),
            projective_space_fan(4),
            product_fan(projective_space_fan(1), projective_space_fan(1)),
            product_fan(projective_space_fan(1), projective_space_fan(3)),
            blowup_pn_along_linear(2, 0),
            blowup_pn_along_linear(4, 0),
            blowup_pn_along_linear(4, 1),
            blowup_pn_along_linear(5, 2),
        ]
        for f in fans:
            codim = zero_locus_codim(irrelevant_ideal(f))
            for m in range(1, 5):
                assert (codim >= m + 1) == is_m_neighborly(f, m), (f, m)


def p1_power(k):
    power = projective_space_fan(1)
    for _ in range(k - 1):
        power = product_fan(power, projective_space_fan(1))
    return power


def oracle_fans(corpus):
    by_name = dict(corpus)
    yield from corpus
    for a, b in PRODUCT_PAIRS:
        yield f"{a}x{b}", product_fan(by_name[a], by_name[b])
    for k in range(2, 8):
        yield f"(P1)^{k}", p1_power(k)


class TestSmallestHittingSet:
    def test_fans_match_subset_scan(self, corpus):
        for name, f in oracle_fans(corpus):
            ideal = irrelevant_ideal(f)
            assert zero_locus_codim(ideal) == smallest_hitting_set_size(ideal), name

    def test_fans_match_minimal_hitting_sets(self, corpus):
        for name, f in oracle_fans(corpus):
            ideal = irrelevant_ideal(f)
            hitting = _minimal_hitting_sets(ideal.generator_supports, ideal.n_vars)
            assert zero_locus_codim(ideal) == min(map(len, hitting)), name

    def test_never_lists_the_minimal_hitting_sets(self, corpus, monkeypatch):
        # cox keeps no lister; the one left is the oracle's, and the
        # codimension must not reach it either
        def listing(*args):
            raise AssertionError("zero_locus_codim listed minimal hitting sets")

        assert not hasattr(cox, "_minimal_hitting_sets")
        monkeypatch.setattr(oracles, "_minimal_hitting_sets", listing)
        zero_locus_codim.cache_clear()  # a cached answer would run no search
        for _, f in corpus:
            zero_locus_codim(irrelevant_ideal(f))

    def test_p1_power_10_within_one_second(self):
        # 20 variables and 1,024 supports of size 10: listing every
        # minimal hitting set took about 7 s on a 2-core machine.
        f = p1_power(10)
        zero_locus_codim.cache_clear()
        start = time.perf_counter()
        codim = zero_locus_codim(irrelevant_ideal(f))
        elapsed = time.perf_counter() - start
        assert codim == 2
        assert elapsed < 1, elapsed

    def test_cap_rejects_more_variables(self):
        zero_locus_codim.cache_clear()  # a cached answer would hide the cap
        ideal = SquarefreeIdeal(21, tuple((i,) for i in range(21)))
        with pytest.raises(ValueError, match="capped at 20 variables"):
            zero_locus_codim(ideal)
        with pytest.raises(ValueError, match="capped at 20 variables"):
            stanley_reisner(ideal)
        assert zero_locus_codim(SquarefreeIdeal(21, ())) == 22

    def test_cap_is_one_constant(self, monkeypatch):
        assert MAX_HITTING_SET_VARS == 20
        zero_locus_codim.cache_clear()  # a cached answer would hide the cap
        monkeypatch.setattr(cox, "MAX_HITTING_SET_VARS", 3)
        ideal = SquarefreeIdeal(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError, match="capped at 3 variables"):
            zero_locus_codim(ideal)
        with pytest.raises(ValueError, match="capped at 3 variables"):
            stanley_reisner(ideal)


def acts_freely(fan):
    return _acts_freely(fan, degree_map(fan))


@st.composite
def gradings_with_cones(draw):
    """A stand-in fan (n_rays, max_cones of dim rays each) and a grading
    with r = n - dim free coordinates and up to two torsion factors, so
    each cone's degree and torsion rows form a square matrix."""
    r, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = r + dim
    torsion = tuple(draw(st.lists(st.integers(2, 5), max_size=2)))
    free = tuple(
        tuple(draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))) for _ in range(n)
    )
    residues = tuple(tuple(draw(st.integers(0, t - 1)) for t in torsion) for _ in range(n))
    cones = draw(
        st.lists(st.sampled_from(list(combinations(range(n), dim))), min_size=1, max_size=3)
    )
    fan = SimpleNamespace(n_rays=n, max_cones=tuple(cones))
    return fan, DegreeMap(n, r, torsion, free, residues)


class TestFreeAction:
    @settings(max_examples=300, deadline=None)
    @given(gradings_with_cones())
    def test_determinant_matches_smith_form(self, case):
        fan, dm = case
        free = acts_freely_by_smith(fan, dm)
        event("free" if free else "not free")
        assert _acts_freely(fan, dm) == free

    def test_fans_match_smith_form(self, corpus):
        for name, f in oracle_fans(corpus):
            dm = degree_map(f)
            assert _acts_freely(f, dm) == acts_freely_by_smith(f, dm), name

    def test_takes_no_smith_form(self, corpus, monkeypatch):
        def refuse(rows):
            raise AssertionError("_acts_freely ran a Smith form")

        dms = [(f, degree_map(f)) for _, f in oracle_fans(corpus)]
        assert not hasattr(cox, "smith_normal_form")
        monkeypatch.setattr(linalg, "smith_normal_form", refuse)
        for f, dm in dms:
            _acts_freely(f, dm)

    def test_smooth_fans(self):
        assert acts_freely(projective_space_fan(3))
        assert acts_freely(blowup_pn_along_linear(3, 1))

    def test_singular_cone(self):
        f = Fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert not validate(f).smooth
        assert not acts_freely(f)

    def test_torsion_stabiliser(self):
        # Cl = Z + Z/3 and every free degree is 1: only the torsion rows
        # see the Z/3 stabiliser of each maximal cone.
        f = Fan(2, [(2, -1), (-1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        dm = degree_map(f)
        assert dm.torsion == (3,) and set(dm.degrees_free) == {(1,)}
        assert not validate(f).smooth
        assert not acts_freely(f)


# ---------------------------------------------------------------------------
# randomized ideals


def antichain_ideals(draw):
    n = draw(st.integers(3, 8))
    n_supports = draw(st.integers(1, 6))
    raw = [
        draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n).map(
                lambda s: tuple(sorted(s))
            )
        )
        for _ in range(n_supports)
    ]
    minimal = [
        s for s in set(raw) if not any(set(o) < set(s) for o in raw)
    ]
    return SquarefreeIdeal(n, tuple(minimal))


ideals = st.composite(antichain_ideals)()


@st.composite
def small_ideals(draw):
    """Antichain ideals on at most 10 variables, the unit ideal included."""
    n = draw(st.integers(1, 10))
    raw = draw(
        st.lists(
            st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n),
            max_size=8,
        )
    )
    minimal = {tuple(sorted(s)) for s in raw if not any(o < s for o in raw)}
    return SquarefreeIdeal(n, tuple(minimal))


class TestRandomIdeals:
    @given(ideal=ideals)
    @settings(max_examples=60, deadline=None)
    def test_facets_match_brute_force(self, ideal):
        assert stanley_reisner(ideal).facets == tuple(brute_force_facets(ideal))

    @given(ideal=ideals)
    @settings(max_examples=60, deadline=None)
    def test_decomposition_membership(self, ideal):
        comps = prime_decomposition(ideal)
        n = ideal.n_vars
        for mask in range(2**n):
            support = {i for i in range(n) if (mask >> i) & 1}
            assert contains_monomial(ideal, support) == all(
                support & set(c) for c in comps
            )

    @given(ideal=ideals)
    @settings(max_examples=60, deadline=None)
    def test_codim_is_smallest_component(self, ideal):
        comps = prime_decomposition(ideal)
        if comps:
            assert zero_locus_codim(ideal) == min(len(c) for c in comps)

    @given(ideal=small_ideals())
    @settings(max_examples=200, deadline=None)
    def test_codim_matches_subset_scan(self, ideal):
        assert zero_locus_codim(ideal) == smallest_hitting_set_size(ideal)
