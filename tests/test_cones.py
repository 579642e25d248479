"""Cone duality: frozen small examples plus randomized cross-checks.

Membership has three independent routes here: facet-normal dot products
(double description), simplex feasibility, and for small instances an
LP-free exhaustive search over linearly independent generator subsets.
The property tests hold them against each other, and hold the
adjacency-filtered double description against the pairwise-pruned one
in oracles.py.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import event, given, settings, strategies as st

import oracles
from oracles import cones_equal, in_cone, intersect, rational_solve
from toricgit import cones
from toricgit.cones import (
    RationalCone,
    cone_from_generators,
    duals_from_inequalities,
    cone_from_inequalities,
)
from toricgit.linalg import _bareiss, _dot, det, matrix_rank, primitive, sign_normalized


def ray_sum(cone):
    """Sum of the extremal rays: a relative interior point."""
    return tuple(sum(r[i] for r in cone.rays) for i in range(cone.dim))


def vecs(dim, lo=-4, hi=4):
    return st.tuples(*[st.integers(min_value=lo, max_value=hi)] * dim)


def caratheodory_member(gens, target, dim):
    """LP-free membership: search independent subsets of size <= dim."""
    if all(x == 0 for x in target):
        return True
    for k in range(1, dim + 1):
        for sub in combinations(gens, k):
            sol = rational_solve([[g[d] for g in sub] for d in range(dim)], target)
            if sol is None:
                continue
            ok = all(
                sum(Fraction(l) * g[d] for l, g in zip(sol, sub)) == target[d]
                for d in range(dim)
            )
            if ok and all(l >= 0 for l in sol):
                return True
    return False


def test_quadrant_is_self_dual():
    c = cone_from_generators(2, [(1, 0), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))
    assert c.lin == ()
    assert set(c.facet_normals) == {(0, 1), (1, 0)}


def test_frozen_facet_example():
    # worked by hand: normals orthogonal to each generator, inward
    c = cone_from_generators(2, [(1, 0), (1, 2)])
    assert set(c.facet_normals) == {(0, 1), (2, -1)}


def test_halfplane_has_lineality():
    c = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
    assert c.lin == ((1, 0),)
    assert c.rays == ((0, 1),)
    assert c.dim_of() == 2


def test_zero_cone_and_full_space():
    z = cone_from_generators(2, [])
    assert z.rays == () and z.lin == ()
    assert len(z.facet_normals) == 4  # both signs of both axes
    assert z.contains((0, 0)) and not z.contains((1, 0))
    f = cone_from_inequalities(3, [])
    assert len(f.lin) == 3
    assert f.contains((5, -7, 2))
    assert f.facet_normals == ()


@pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "1"])
def test_generators_that_are_not_integers_are_refused(bad):
    # int() would truncate 1.5 to 1 and return the ray (1, 0)
    with pytest.raises(TypeError):
        cone_from_generators(2, [(bad, 0)])


@pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "1"])
def test_normals_that_are_not_integers_are_refused(bad):
    # int() would truncate 1.5 to 1 and return the half-plane x >= 0
    with pytest.raises(TypeError):
        cone_from_inequalities(2, [(bad, 0)])


def test_intersect_frozen_example():
    quad = cone_from_generators(2, [(1, 0), (0, 1)])
    below_diag = cone_from_inequalities(2, [(1, -1)])
    got = intersect(quad, below_diag)
    want = cone_from_generators(2, [(1, 0), (1, 1)])
    assert cones_equal(got, want)
    assert got.rays == ((1, 0), (1, 1))


def test_relative_interior_point():
    quad = cone_from_generators(2, [(1, 0), (0, 1)])
    p = ray_sum(quad)
    assert p == (1, 1)
    assert oracles.strictly_contains(quad, p)
    assert not oracles.strictly_contains(quad, (1, 0))
    half_line = cone_from_generators(2, [(2, 0)])
    assert ray_sum(half_line) == (1, 0)
    assert oracles.strictly_contains(half_line, (1, 0))


def test_contains_boundary_and_outside():
    c = cone_from_generators(2, [(1, 0), (1, 2)])
    assert c.contains((1, 0))
    assert c.contains((2, 1))
    assert not c.contains((-1, 0))
    assert not c.contains((0, 1))
    assert c.contains((Fraction(1, 2), Fraction(1, 2)))


def test_equality_ignores_generator_presentation():
    a = cone_from_generators(2, [(1, 0), (0, 1)])
    b = cone_from_generators(2, [(1, 0), (1, 1), (0, 1), (2, 3)])
    assert cones_equal(a, b)
    assert b.rays == ((0, 1), (1, 0))


@settings(max_examples=80, deadline=None)
@given(st.lists(vecs(3), min_size=0, max_size=6))
def test_roundtrip_generators_inequalities(gens):
    c = cone_from_generators(3, gens)
    again = cone_from_inequalities(3, c.facet_normals)
    assert cones_equal(c, again)
    # every input generator is contained
    for g in gens:
        assert c.contains(g)


@settings(max_examples=80, deadline=None)
@given(st.lists(vecs(3), min_size=1, max_size=5), vecs(3))
def test_contains_agrees_with_lp_and_caratheodory(gens, v):
    c = cone_from_generators(3, gens)
    by_facets = c.contains(v)
    assert by_facets == in_cone(gens, v)
    assert by_facets == caratheodory_member(gens, v, 3)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(vecs(3), min_size=1, max_size=4),
    st.lists(vecs(3), min_size=1, max_size=4),
)
def test_intersect_commutative_and_sound(g1, g2):
    a = cone_from_generators(3, g1)
    b = cone_from_generators(3, g2)
    ab = intersect(a, b)
    ba = intersect(b, a)
    assert cones_equal(ab, ba)
    assert cones_equal(ab, intersect(ab, a))
    for g in ab.generators:
        assert a.contains(g) and b.contains(g)


@settings(max_examples=60, deadline=None)
@given(st.lists(vecs(4, -3, 3), min_size=0, max_size=6))
def test_double_dual_is_identity(gens):
    c = cone_from_generators(4, gens)
    dd = c.dual().dual()
    assert cones_equal(c, dd)
    assert c.rays == dd.rays and c.lin == dd.lin


@settings(max_examples=60, deadline=None)
@given(st.lists(vecs(3), min_size=1, max_size=5))
def test_relative_interior_is_strict(gens):
    c = cone_from_generators(3, gens)
    if not c.rays and not c.lin:
        return
    p = ray_sum(c)
    assert c.contains(p)
    assert oracles.strictly_contains(c, p)


@settings(max_examples=40, deadline=None)
@given(st.lists(vecs(3), min_size=1, max_size=3))
def test_lineality_from_sign_pairs(gens):
    doubled = gens + [tuple(-x for x in g) for g in gens]
    c = cone_from_generators(3, doubled)
    assert len(c.lin) == matrix_rank(gens)
    assert c.rays == ()


@st.composite
def inequality_systems(draw):
    """(dim, normals): dim 1-5 and up to 9 normals, a few of them
    replaced by a zero row, a repeat of the previous normal, or its
    negation, which makes an equality and so leaves lineality behind."""
    dim = draw(st.integers(min_value=1, max_value=5))
    normals = draw(st.lists(vecs(dim, -3, 3), max_size=9))
    for i in draw(st.lists(st.integers(min_value=0, max_value=8), max_size=3)):
        kind = draw(st.sampled_from(("zero", "repeat", "negate")))
        if i >= len(normals):
            continue
        if kind == "zero":
            normals[i] = (0,) * dim
        elif kind == "repeat":
            normals[i] = normals[i - 1]
        else:
            normals[i] = tuple(-x for x in normals[i - 1])
    return dim, normals


@settings(max_examples=300, deadline=None)
@given(inequality_systems())
def test_duals_match_pairwise_pruned_oracle(system):
    dim, normals = system
    got = oracles.canonical_form(*duals_from_inequalities(dim, normals))
    assert got == oracles.duals_from_inequalities(dim, normals)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inequality_systems())
def test_duals_are_stored_as_the_double_description_leaves_them(system):
    # rays primitive, distinct and sorted, none in the span of an
    # independent primitive lineality basis; the same cone as the
    # oracle's pairwise-pruned double description
    dim, normals = system
    lin, rays = duals_from_inequalities(dim, normals)
    event(f"lineality {len(lin)}")
    assert all(any(r) and r == primitive(r) for r in rays)
    assert list(rays) == sorted(set(rays))
    assert all(l == primitive(l) for l in lin)
    assert matrix_rank(list(lin)) == len(lin)
    assert all(matrix_rank([*lin, r]) > len(lin) for r in rays)
    lin2, rays2 = oracles.duals_from_inequalities(dim, normals)
    assert cones_equal(RationalCone(dim, rays, lin), RationalCone(dim, rays2, lin2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda d: st.tuples(st.just(d), st.lists(vecs(d, -3, 3), max_size=6))))
def test_cone_from_generators_is_the_dual_of_its_inequalities(case):
    dim, gens = case
    c = cone_from_generators(dim, gens)
    d = cone_from_inequalities(dim, gens).dual()
    assert (c.rays, c.lin) == (d.rays, d.lin)
    assert c.dual().dual() is c


@st.composite
def lineality_presentations(draw):
    """(lin, rays, lin2, rays2): an independent list lin and a second
    basis lin2 of its span, an invertible recombination of it; rays2
    are the rays shifted by integer combinations of lin, scaled by
    positive integers and reordered."""
    dim = draw(st.integers(min_value=1, max_value=5))
    lin = []
    for v in draw(st.lists(vecs(dim, -3, 3), max_size=4)):
        if matrix_rank(lin + [v]) > len(lin):
            lin.append(v)
    k = len(lin)
    mix = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=k, max_size=k))
    if det(mix) == 0:
        mix = [[int(i == j) for j in range(k)] for i in range(k)]
    lin2 = [tuple(sum(c * l[i] for c, l in zip(row, lin)) for i in range(dim)) for row in mix]
    rays = draw(st.lists(vecs(dim, -3, 3), max_size=5))
    rays2 = []
    for r in rays:
        scale = draw(st.integers(min_value=1, max_value=3))
        shift = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        rays2.append(
            tuple(scale * x + sum(c * l[i] for c, l in zip(shift, lin)) for i, x in enumerate(r))
        )
    return lin, rays, lin2, draw(st.permutations(rays2))


@settings(max_examples=200, deadline=None)
@given(lineality_presentations())
def test_canonical_form_ignores_presentation(case):
    lin, rays, lin2, rays2 = case
    assert oracles.canonical_form(lin, rays) == oracles.canonical_form(lin2, rays2)


@settings(max_examples=200, deadline=None)
@given(lineality_presentations())
def test_canonical_basis_is_echelon_and_spans(case):
    lin, rays, _, _ = case
    basis, reduced = oracles.canonical_form(lin, rays)
    pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
    assert pivots == sorted(set(pivots))
    for b, p in zip(basis, pivots):
        assert b[p] > 0
        assert all(other[p] == 0 for other in basis if other is not b)
    assert len(basis) == len(lin) == matrix_rank(list(basis) + lin)
    for r in reduced:
        assert all(r[p] == 0 for p in pivots)
        assert matrix_rank(lin + [r]) > len(lin)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda d: st.lists(vecs(d, -2, 2), min_size=1, max_size=9, unique=True)))
def test_hyperplanes_match_the_definition(vectors):
    # One mask per independent set of rank - 1 vectors, whether the
    # vectors span or not, its normal zero on the set and primitive,
    # sign-normalized and zero off the coordinates _bareiss picks; and
    # each normal's dots carry the sign of its dot product with every
    # vector.
    vectors = tuple(vectors)
    rank = matrix_rank(vectors)
    event(f"corank {len(vectors) - rank}")
    hyperplanes, dots = cones._hyperplanes(vectors, len(vectors[0]))
    sets = [s for s in combinations(range(len(vectors)), max(rank - 1, 0)) if matrix_rank([vectors[c] for c in s]) == rank - 1]
    assert sorted(hyperplanes) == sorted(sum(1 << c for c in s) for s in sets)
    coords = set(_bareiss(vectors)[0])
    for mask, normal in hyperplanes.items():
        assert normal == sign_normalized(normal)
        assert all(not x for i, x in enumerate(normal) if i not in coords)
        assert not any(_dot(normal, v) for c, v in enumerate(vectors) if mask >> c & 1)
    assert set(dots) == set(hyperplanes.values())
    for normal, row in dots.items():
        assert [(x > 0) - (x < 0) for x in row] == [(x > 0) - (x < 0) for x in (_dot(normal, v) for v in vectors)]
