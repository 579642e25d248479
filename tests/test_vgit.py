"""Unstable loci, chamber decomposition, cone computations.

The monotone class-mask search is checked against brute-force
enumeration of all 2^n supports with cone membership decided by a
different route (dual facet inequalities instead of the simplex).
"""

import contextlib
import gc
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import cones_equal, intersect
from toricgit import cones, cox, fans, linalg, lp, vgit
from toricgit.checks import PRODUCT_PAIRS
from toricgit.cli import main
from toricgit.cones import cone_from_generators, cone_from_inequalities
from toricgit.cox import degree_map
from toricgit.fans import (
    Fan,
    TorusInvariantDivisor,
    blowup_pn_along_linear,
    fan_to_json,
    product_fan,
    projective_bundle_fan,
    projective_space_fan,
    star_subdivision,
    validate,
)
from toricgit.vgit import (
    ChamberSignature,
    ample_character,
    chamber_signatures,
    effective_cone,
    enumerate_chambers,
    is_boundary_character,
    moving_cone,
    nef_cone,
    stable_base_locus_codim,
    unstable_codim,
    unstable_inclusion_forces_nef,
    unstable_supports,
)
from toricgit.cox import DegreeMap
from toricgit.linalg import _dot, matrix_rank, primitive, sign_normalized


def f1():
    return blowup_pn_along_linear(2, 0)


def p1xp1():
    return product_fan(projective_space_fan(1), projective_space_fan(1))


def intersection_chain_nef(fan, dm):
    """The nef cone as an intersection over maximal cones of the cone
    the degrees off each one generate: two double descriptions per cone
    and no inverse."""
    acc = cone_from_inequalities(dm.cl_free_rank, [])
    for c in fan.max_cones:
        off = [dm.degrees_free[i] for i in range(fan.n_rays) if i not in c]
        acc = intersect(acc, cone_from_generators(dm.cl_free_rank, off))
    return acc


def chamber_fans(corpus):
    """(name, fan, degree map) for every corpus fan."""
    return [(name, fan, degree_map(fan)) for name, fan in corpus]


def small_vectors(r, min_size, max_size, nonzero=False):
    """Lists of integer r-vectors with entries in -3..3."""
    vec = st.tuples(*[st.integers(min_value=-3, max_value=3)] * r)
    return st.lists(vec.filter(any) if nonzero else vec, min_size=min_size, max_size=max_size)


def graded_by(gens):
    """A torsion-free degree map whose degrees are the given vectors."""
    return DegreeMap(
        n_rays=len(gens),
        cl_free_rank=len(gens[0]),
        torsion=(),
        degrees_free=tuple(gens),
        degrees_torsion=tuple(() for _ in gens),
    )



def probe_grading(k, seed, rank=4):
    """k distinct nonzero degrees drawn from {0..3}^rank."""
    rng = random.Random(seed)
    degrees = []
    while len(degrees) < k:
        vec = tuple(rng.randint(0, 3) for _ in range(rank))
        if any(vec) and vec not in degrees:
            degrees.append(vec)
    return graded_by(degrees)

def split_normals(dm):
    """(facets, crossing) read off the basis table's side: the normals
    it puts every class on one side of, signed so they are nonnegative
    on the classes and sorted, and those its hyperplane crosses."""
    normals, side, _ = vgit._table(dm)
    facets = sorted(n if s > 0 else tuple(-v for v in n) for n, s in zip(normals, side) if s)
    return tuple(facets), tuple(n for n, s in zip(normals, side) if not s)


def clear_vgit_caches():
    for obj in vars(vgit).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def blowup_points(n, k):
    """P^n blown up at the torus-fixed points of its first k maximal cones."""
    fan = projective_space_fan(n)
    for cone in fan.max_cones[:k]:
        fan = star_subdivision(fan, cone)
    return fan


def weighted_projective_space(weights):
    """The fan of P(weights): rays e_1..e_n and -(w_1, ..., w_n), w_0 = 1."""
    n = len(weights) - 1
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [tuple(-w for w in weights[1:])]
    return Fan(n, rays, [tuple(i for i in range(n + 1) if i != k) for k in range(n + 1)])


def run_chambers(fan, tmp_path, capsys):
    """(exit code, stdout, stderr, seconds) of `toricgit chambers FAN
    --json`, run on cold vgit caches and leaving them cold."""
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan_to_json(fan)), encoding="utf-8")
    clear_vgit_caches()
    try:
        start = time.perf_counter()
        code = main(["chambers", str(path), "--json"])
        elapsed = time.perf_counter() - start
    finally:
        clear_vgit_caches()
    out, err = capsys.readouterr()
    return code, out, err, elapsed


def analyze_bundle_pool(by_name):
    """The projective bundles of the analyze-json benchmark pool."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [
        (name, projective_bundle_fan(by_name[base], [TorusInvariantDivisor(c) for c in summands]))
        for name, base, summands in workloads.bundle_pool()
    ]


def nef_fans(corpus):
    """(name, fan) for the corpus, the PRODUCT_PAIRS products, (P^1)^2
    to (P^1)^6 and the projective bundles of the analyze-json pool."""
    by_name = dict(corpus)
    fans = list(corpus)
    fans += [(f"{a}x{b}", product_fan(by_name[a], by_name[b])) for a, b in PRODUCT_PAIRS]
    power = by_name["p1"]
    for k in range(2, 7):
        power = product_fan(power, by_name["p1"])
        fans.append((f"p1^{k}", power))
    return fans + analyze_bundle_pool(by_name)


def twisted_cube():
    """A complete fan that is not projective: the face fan of a cube
    with one vertex moved and its faces split along twisted diagonals."""
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


def projectivity_fans(corpus):
    """(name, fan) for nef_fans, the twisted cube and its star
    subdivisions by seeds 0-11 (seeds 0, 1 and 5 make it projective)."""
    out = nef_fans(corpus) + [("twisted", twisted_cube())]
    for seed in range(12):
        rng = random.Random(seed)
        f = twisted_cube()
        for _ in range(rng.randint(1, 3)):
            cone = rng.choice(f.max_cones)
            face = rng.sample(cone, rng.randint(2, len(cone)))
            with contextlib.suppress(ValueError):  # barycenter already a ray
                f = star_subdivision(f, face)
        out.append((f"twisted/{seed}", f))
    return out


def brute_force_facets(dm, chi):
    """Maximal unstable supports by scanning all 2^n subsets.

    Membership goes through dual descriptions (facet normal dots), not
    the simplex used by the implementation under test.
    """
    n = dm.n_rays
    cone_cache = {}
    unstable = []
    for mask in range(2**n):
        support = tuple(i for i in range(n) if (mask >> i) & 1)
        key = tuple(sorted(set(dm.degrees_free[i] for i in support)))
        if key not in cone_cache:
            cone_cache[key] = cone_from_generators(dm.cl_free_rank, key)
        if not cone_cache[key].contains(chi):
            unstable.append(set(support))
    maximal = [s for s in unstable if not any(s < o for o in unstable)]
    return tuple(sorted(tuple(sorted(s)) for s in maximal))


class TestUnstableSupports:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_projective_space_origin_only(self, n):
        f = projective_space_fan(n)
        dm = degree_map(f)
        amp = ample_character(f, dm)
        sig = unstable_supports(dm, amp)
        assert sig.facets == ((),)
        assert not sig.outside_effective
        assert unstable_codim(dm, amp) == n + 1

    def test_product_of_lines(self):
        f = p1xp1()
        dm = degree_map(f)
        amp = ample_character(f, dm)
        assert unstable_supports(dm, amp).facets == ((0, 1), (2, 3))
        assert unstable_codim(dm, amp) == 2

    @pytest.mark.parametrize("query", [unstable_supports, is_boundary_character])
    def test_rejects_a_character_that_is_not_an_integer(self, query):
        # int() would truncate 5/2 to 2 and answer for the character 2
        dm = degree_map(projective_space_fan(2))
        for bad in (Fraction(5, 2), 2.5, "2"):
            with pytest.raises(TypeError):
                query(dm, (bad,))

    def test_a_cached_character_does_not_answer_a_float(self):
        # the cache is keyed by chi, and (2.0,) == (2,): the check runs
        # before the lookup, so the float is refused warm as it is cold
        dm = degree_map(projective_space_fan(2))
        assert not unstable_supports(dm, (2,)).outside_effective
        with pytest.raises(TypeError):
            unstable_supports(dm, (2.0,))

    def test_p1_x_p3_ample_codim_two(self):
        f = product_fan(projective_space_fan(1), projective_space_fan(3))
        dm = degree_map(f)
        assert unstable_codim(dm, ample_character(f, dm)) == 2

    def test_line_blowup_of_p4_codim_three(self):
        f = blowup_pn_along_linear(4, 1)
        dm = degree_map(f)
        assert unstable_codim(dm, ample_character(f, dm)) == 3

    def test_exceptional_class_on_f1(self):
        dm = degree_map(f1())
        E = dm.degrees_free[3]
        assert unstable_supports(dm, E).facets == ((0, 1, 2),)
        assert unstable_codim(dm, E) == 1

    def test_outside_effective_flag(self):
        f = f1()
        dm = degree_map(f)
        amp = ample_character(f, dm)
        chi = tuple(-x for x in amp)
        sig = unstable_supports(dm, chi)
        assert sig.outside_effective
        assert sig.facets == (tuple(range(dm.n_rays)),)
        assert unstable_codim(dm, chi) == 0

    def test_wrong_character_length(self):
        dm = degree_map(f1())
        with pytest.raises(ValueError, match="coordinates"):
            unstable_supports(dm, (1,))

    @pytest.mark.parametrize(
        "fan_builder",
        [
            lambda: projective_space_fan(2),
            f1,
            p1xp1,
            lambda: blowup_pn_along_linear(3, 1),
            lambda: product_fan(projective_space_fan(1), projective_space_fan(2)),
        ],
    )
    def test_matches_brute_force_for_ample(self, fan_builder):
        f = fan_builder()
        dm = degree_map(f)
        amp = ample_character(f, dm)
        assert unstable_supports(dm, amp).facets == brute_force_facets(dm, amp)

    @given(chi=st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_random_characters_f1(self, chi):
        dm = degree_map(f1())
        assert unstable_supports(dm, chi).facets == brute_force_facets(dm, chi)

    @given(
        chi=st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
        k=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_invariance(self, chi, k):
        dm = degree_map(p1xp1())
        scaled = tuple(k * x for x in chi)
        assert unstable_supports(dm, chi) == unstable_supports(dm, scaled)

    def test_signature_canonical_sorting(self):
        sig = ChamberSignature(facets=((2, 0), (1,)))
        assert sig.facets == ((0, 2), (1,))


class TestMembership:
    """_class_membership reads signs off the inverses of the bases of
    the span of the degree classes and runs no LP; double description
    decides every bit of the table on its own."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_bit_matches_double_description(self, data):
        r = data.draw(st.integers(min_value=1, max_value=4))
        vec = st.tuples(*[st.integers(min_value=-2, max_value=2)] * r)
        gens = data.draw(st.lists(vec, min_size=1, max_size=8))
        if data.draw(st.booleans()):
            gens[-1] = (0,) * r
        if r > 1 and data.draw(st.booleans()):
            gens = [g[:-1] + (0,) for g in gens]  # every degree in one hyperplane
        kind = data.draw(st.sampled_from(["zero", "degree", "two degrees", "random"]))
        if kind == "zero":
            chi = (0,) * r
        elif kind == "degree":
            chi = data.draw(st.sampled_from(gens))
        elif kind == "two degrees":
            a, b = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens))
            chi = tuple(x + y for x, y in zip(a, b))
        else:
            chi = data.draw(vec)
        classes, _, member = vgit._class_membership(graded_by(gens), chi)
        k = len(classes)
        vectors = [v for v, _ in classes]
        assert 0 <= member < 1 << (1 << k)
        for mask in range(1 << k):
            cone = cone_from_generators(r, [vectors[c] for c in range(k) if (mask >> c) & 1])
            assert (member >> mask) & 1 == cone.contains(chi), (gens, chi, mask)

    def test_bases_have_at_most_rank_classes(self, corpus):
        # The table lists every independent set of as many classes as
        # their rank, in lexicographic order, each with the rows of its
        # inverse as signed indices into the sorted arrangement normals;
        # that rank is at most cl_free_rank.  The rows they stand for are
        # the primitive rows of oracles.basis_inverses.
        dms = [degree_map(fan) for _, fan in corpus] + [probe_grading(10, 2)]
        sizes = []
        for dm in dms:
            vectors = [v for v, _ in vgit._degree_classes(dm)]
            rank = matrix_rank(vectors)
            normals, _, table = vgit._table(dm)
            assert vgit._spans(dm) == (rank == dm.cl_free_rank)
            assert list(normals) == sorted({sign_normalized(n) for n in normals})
            assert [mask for mask, _ in table] == [
                sum(1 << c for c in subset)
                for subset in combinations(range(len(vectors)), rank)
                if matrix_rank([vectors[c] for c in subset]) == rank
            ]
            signed = normals + tuple(tuple(-v for v in n) for n in normals)
            inverses = oracles.basis_inverses(vectors, dm.cl_free_rank)[1]
            assert [[signed[i] for i in idx] for _, idx in table] == [
                [primitive(row) for row in inv] for _, inv in inverses
            ]
            for mask, idx in table:
                rows = [signed[i] for i in idx]
                basis = [vectors[c] for c in range(len(vectors)) if (mask >> c) & 1]
                for i, row in enumerate(rows):
                    assert [_dot(row, v) > 0 for v in basis] == [j == i for j in range(rank)]
                    assert all(_dot(row, v) >= 0 for v in basis)
                sizes.append((len(rows), dm.cl_free_rank))
        assert len(sizes) == 653
        assert all(n <= rank for n, rank in sizes)
        assert {4} <= {n for n, rank in sizes if rank == 4}  # the cap is reached

    def test_table_equals_the_inverse_rows_oracle(self, corpus):
        # One normal per hyperplane gives the same normals and signed
        # indices as sign-normalizing and numbering every row of every
        # basis inverse, on the 54 corpus gradings and five probes up to
        # 16 classes in rank 8.
        dms = {degree_map(fan) for _, fan in corpus}
        assert len(dms) == 54
        dms |= {
            probe_grading(16, 2, rank=8),
            probe_grading(14, 1, 6),
            probe_grading(12, 1, 4),
            probe_grading(16, 3, 5),
            probe_grading(10, 2),
        }
        try:
            for dm in dms:
                orthogonal, normals, table = oracles.basis_table(dm)
                assert orthogonal == () and vgit._spans(dm)
                got_normals, _, got_table = vgit._table(dm)
                assert (got_normals, got_table) == (normals, table), dm
        finally:
            clear_vgit_caches()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_table_matches_inverse_rows_on_drawn_gradings(self, data):
        # Spanning or not, the table lists the bases of the inverse
        # search; when the classes span, its rows are the primitive
        # inverse rows, and when they do not, each row takes the signs
        # of the inverse row on every class.
        r = data.draw(st.integers(min_value=1, max_value=4))
        vec = st.tuples(*[st.integers(min_value=-2, max_value=2)] * r)
        gens = data.draw(st.lists(vec, min_size=1, max_size=8))
        if r > 1 and data.draw(st.booleans()):
            gens = [g[:-1] + (0,) for g in gens]  # every degree in one hyperplane
        dm = graded_by(gens)
        vectors = [v for v, _ in vgit._degree_classes(dm)]
        orthogonal, inverses = oracles.basis_inverses(vectors, r)
        normals, _, table = vgit._table(dm)
        assert vgit._spans(dm) == (not orthogonal)
        assert [mask for mask, _ in table] == [sum(1 << c for c in basis) for basis, _ in inverses]
        signed = normals + tuple(tuple(-v for v in n) for n in normals)
        rows = [[signed[i] for i in idx] for _, idx in table]
        want = [[primitive(row) for row in inv] for _, inv in inverses]
        if not orthogonal:
            assert rows == want

        def signs(row):
            return [(x > 0) - (x < 0) for x in (_dot(row, v) for v in vectors)]

        assert [list(map(signs, b)) for b in rows] == [list(map(signs, b)) for b in want]

    def test_queries_run_no_simplex(self, corpus, monkeypatch, inverse_raises):
        # The 65 corpus gradings, the k = 10 probe and gradings whose
        # degrees do not span: no membership query pivots a simplex
        # tableau, and no integer inverse raises on a dependent set.
        dms = [(degree_map(fan), fan) for _, fan in corpus]
        dms.append((probe_grading(10, 2), None))
        for gens in (
            [(1, 0), (2, 0), (3, 0)],
            [(1, 1, 0), (0, 1, 0), (1, 2, 0), (0, 0, 0)],
            [(0, 0)],
            [(1, -1, 2), (-2, 2, -4)],
        ):
            dms.append((graded_by(gens), None))
        amples = {dm: ample_character(fan, dm) for dm, fan in dms if fan is not None}
        pivots = []

        def refuse(name):
            def wrapper(*args):
                pivots.append(name)
                raise AssertionError(f"a membership query ran {name}")

            return wrapper

        assert not hasattr(lp, "_simplex_core")  # lp keeps no primal loop
        monkeypatch.setattr(lp, "_dual_simplex", refuse("_dual_simplex"))
        clear_vgit_caches()
        n_queries = n_codims = 0
        try:
            for dm, fan in dms:
                degrees = [v for v, _ in vgit._degree_classes(dm)]
                characters = [(0,) * dm.cl_free_rank, tuple(map(sum, zip(*degrees)))]
                characters += degrees[:3] + [tuple(range(-1, dm.cl_free_rank - 1))]
                if fan is not None:
                    characters.append(amples[dm])
                for chi in characters:
                    sig = unstable_supports(dm, chi)
                    is_boundary_character(dm, chi)
                    n_queries += 1
                    if fan is not None and not sig.outside_effective:
                        stable_base_locus_codim(fan, dm, chi)
                        n_codims += 1
        finally:
            clear_vgit_caches()
        assert pivots == [] and inverse_raises == []
        assert len(dms) == 70 and n_queries > 400 and n_codims > 300

    def test_k16_probe_within_two_seconds(self):
        # The sign test reads at most C(16, 4) = 1,820 bases here; an
        # LP on every mask whose immediate supersets are members, up to
        # 2**16 of them, took about 6 s on a 2-core machine.
        dm = probe_grading(16, 2)
        chi = tuple(map(sum, zip(*dm.degrees_free)))
        clear_vgit_caches()
        try:
            start = time.perf_counter()
            sig = unstable_supports(dm, chi)
            on_wall = is_boundary_character(dm, chi)
            elapsed = time.perf_counter() - start
        finally:
            clear_vgit_caches()
        assert not sig.outside_effective and on_wall
        assert elapsed < 2, elapsed

    def test_rank8_k16_within_the_lp_cost(self):
        # The most bases the caps accept: 16 distinct classes in rank 8,
        # C(16, 8) = 12,870 sets, 12,776 of them bases here, over 10,898
        # arrangement normals.  On a 2-core machine the first character
        # takes 0.55-0.75 s, nearly all of it building the table from one
        # normal per hyperplane, against 1.3-1.6 s from every row of every
        # basis inverse and 2.5-2.9 s with one LP per mask; the next takes
        # 0.08-0.17 s, against 2.0-2.5 s with one LP per mask, its
        # membership test 0.03-0.06 s against 0.11-0.17 s with one dot
        # product per row of every basis.
        dm = probe_grading(16, 2, rank=8)
        chi = tuple(map(sum, zip(*dm.degrees_free)))
        clear_vgit_caches()
        try:
            start = time.perf_counter()
            sig = unstable_supports(dm, chi)
            first = time.perf_counter() - start
            start = time.perf_counter()
            nxt = unstable_supports(dm, tuple(x + 1 for x in chi))
            on_wall = is_boundary_character(dm, chi)
            second = time.perf_counter() - start
            n_bases = len(vgit._table(dm)[2])
        finally:
            clear_vgit_caches()
        assert n_bases == 12776
        assert not sig.outside_effective and not nxt.outside_effective and not on_wall
        assert first < 6 and second < 1.5, (first, second)

    def test_rank8_k16_table_is_small(self):
        # The cache keeps up to 256 tables, so one table bounds a long
        # session.  Measured with tracemalloc: with a tuple of rows per
        # basis the table held 25.5 MB after a 50.8 MB build peak; as
        # signed indices into 10,898 normals, built from every row of
        # every basis inverse, it held 5.7 MB after a peak of about
        # 43 MB; built from one normal per hyperplane, with the signed
        # indices shared from one list, it holds 5.8 MB after a peak of
        # about 10 MB.
        dm = probe_grading(16, 2, rank=8)
        clear_vgit_caches()
        vgit._degree_classes(dm)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            n_bases = len(vgit._table(dm)[2])
            peak, held = tracemalloc.get_traced_memory()[::-1]
        finally:
            tracemalloc.stop()
            clear_vgit_caches()
        assert n_bases == 12776
        assert held - before < 10_000_000, held - before
        assert peak - before <= 15_000_000, peak - before


class TestCones:
    def test_projective_space_all_cones_agree(self):
        f = projective_space_fan(3)
        dm = degree_map(f)
        eff = effective_cone(dm)
        assert cones_equal(eff, moving_cone(dm))
        assert cones_equal(eff, nef_cone(f, dm))
        assert len(eff.generators) == 1

    def test_product_of_lines_cones_agree(self):
        f = p1xp1()
        dm = degree_map(f)
        assert cones_equal(effective_cone(dm), moving_cone(dm))
        assert cones_equal(effective_cone(dm), nef_cone(f, dm))

    def test_f1_moving_equals_nef_strictly_inside_effective(self):
        f = f1()
        dm = degree_map(f)
        nef = nef_cone(f, dm)
        assert cones_equal(moving_cone(dm), nef)
        assert not cones_equal(nef, effective_cone(dm))
        for g in nef.generators:
            assert effective_cone(dm).contains(g)

    def test_moving_cone_matches_intersection_chain(self, corpus):
        # one double description over every cone's inequality rows
        # gives the canonical cone the chain of intersections gave
        by_name = dict(corpus)
        dms = {degree_map(f) for _, f in corpus}
        assert len(dms) == 54
        dms |= {degree_map(product_fan(by_name[a], by_name[b])) for a, b in PRODUCT_PAIRS}
        for dm in dms:
            got, want = moving_cone(dm), oracles.moving_cone_by_intersections(dm)
            assert cones_equal(got, want), dm
            assert (got.rays, got.lin) == (want.rays, want.lin), dm

    def test_moving_cone_reads_the_rows_of_a_cone_that_does_not_span(self):
        # leaving out the singleton class e1 leaves e2 and e3, whose
        # cone spans a plane: its rows hold the lineality pair +-e1
        dm = graded_by([(1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)])
        assert cone_from_inequalities(3, [(0, 1, 0), (0, 0, 1)]).lin
        got, want = moving_cone(dm), oracles.moving_cone_by_intersections(dm)
        assert (got.rays, got.lin) == (want.rays, want.lin)
        assert (got.rays, got.lin) == (((0, 0, 1), (0, 1, 0)), ())

    def test_nef_interior_has_stable_signature(self):
        f = f1()
        dm = degree_map(f)
        nef = nef_cone(f, dm)
        assert nef.dim_of() == dm.cl_free_rank

    def test_non_projective_fan_rejected(self):
        f = twisted_cube()
        dm = degree_map(f)
        with pytest.raises(ValueError, match="not projective"):
            nef_cone(f, dm)

    def test_nef_cone_matches_intersection_chain(self, corpus):
        for name, f in nef_fans(corpus):
            dm = degree_map(f)
            want = intersection_chain_nef(f, dm)
            got = nef_cone(f, dm)
            assert (got.rays, got.lin) == (want.rays, want.lin), name
            amp = tuple(sum(g[i] for g in want.generators) for i in range(dm.cl_free_rank))
            assert ample_character(f, dm) == amp, name
            per_cone = oracles.nef_cone_by_cones(f, dm)
            assert (got.rays, got.lin) == (per_cone.rays, per_cone.lin), name

    def test_nef_cone_takes_no_inverse(self, corpus, monkeypatch):
        # nef_cone maps the rays of the fan's one nef double description,
        # fans._nef_off, into the class group: no inverse of the degrees
        assert not hasattr(vgit, "scaled_inverse")
        calls = []
        real = linalg.scaled_inverse

        def counting(rows):
            calls.append(rows)
            return real(rows)

        for module in (linalg, cones, fans):
            if vars(module).get("scaled_inverse") is real:
                monkeypatch.setattr(module, "scaled_inverse", counting)
        for name, f in nef_fans(corpus):
            dm = degree_map(f)
            validate(f)
            nef_cone.cache_clear()
            before = len(calls)
            nef_cone(f, dm)
            assert calls[before:] == [], name

    def test_projectivity_matches_phase_one_lp(self, corpus):
        # validate reads the double description that nef_cone reads, so
        # the phase-1 LP of the oracles decides it independently: some x
        # has w.x > 0 on every wall row w exactly when the fan is
        # projective
        verdicts = []
        for name, f in projectivity_fans(corpus):
            rows = list(fans._walls(f))
            want = oracles.max_strict_slack(rows)[0] > 0
            rep = validate(f)
            assert rep.complete, name
            assert rep.projective == want, name
            verdicts.append(want)
        assert (len(verdicts), verdicts.count(False)) == (173, 10)

    def test_one_double_description_decides_projectivity(self, corpus, monkeypatch):
        # A cold validate and ample_character share one double
        # description of the wall rows and run no simplex.
        family = [(name, f, degree_map(f)) for name, f in projectivity_fans(corpus)]
        dds = []
        real_dd = cones.duals_from_inequalities

        def counting_dd(*args):
            dds.append(args)
            return real_dd(*args)

        monkeypatch.setattr(cones, "duals_from_inequalities", counting_dd)
        assert not hasattr(lp, "_simplex_core")  # lp keeps no primal loop
        for name, f, dm in family:
            for cached in (fans._cone_inverses, fans._walls, fans._nef_off, validate, nef_cone):
                cached.cache_clear()
            before = len(dds)
            if validate(f).projective:
                ample_character(f, dm)
            else:
                with pytest.raises(ValueError, match="not projective"):
                    ample_character(f, dm)
            assert len(dds) - before == 1, name

    def test_nef_cone_of_an_incomplete_fan_is_a_value_error(self):
        f = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
        dm = DegreeMap(3, 1, (), ((1,), (1,), (1,)), ((), (), ()))
        with pytest.raises(ValueError, match="complete fan"):
            nef_cone(f, dm)

    def test_ample_character_is_interior(self):
        for f in [projective_space_fan(2), f1(), blowup_pn_along_linear(3, 1)]:
            dm = degree_map(f)
            amp = ample_character(f, dm)
            assert oracles.strictly_contains(nef_cone(f, dm), amp)
            assert not is_boundary_character(dm, amp)


class TestChambers:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projective_space_single_chamber(self, n):
        dm = degree_map(projective_space_fan(n))
        assert len(enumerate_chambers(dm)) == 1

    def test_product_of_lines_single_chamber(self):
        assert len(enumerate_chambers(degree_map(p1xp1()))) == 1

    def test_f1_two_chambers(self):
        f = f1()
        dm = degree_map(f)
        chambers = enumerate_chambers(dm)
        assert len(chambers) == 2
        sigs = [sig for _, sig in chambers]
        assert len(set(sigs)) == 2
        amp = ample_character(f, dm)
        assert unstable_supports(dm, amp) in sigs

    def test_representatives_are_interior(self):
        for f in [f1(), p1xp1(), blowup_pn_along_linear(3, 1)]:
            dm = degree_map(f)
            for chi, sig in enumerate_chambers(dm):
                assert not is_boundary_character(dm, chi)
                assert unstable_supports(dm, chi) == sig

    @pytest.mark.parametrize(
        "fan_builder",
        [
            lambda: projective_space_fan(2),
            f1,
            p1xp1,
            lambda: blowup_pn_along_linear(3, 1),
            lambda: product_fan(projective_space_fan(1), projective_space_fan(2)),
        ],
    )
    def test_cover_certified(self, fan_builder):
        dm = degree_map(fan_builder())
        assert oracles.chambers_cover_effective(dm)

    def test_cover_certified_on_corpus(self, corpus):
        gradings = {dm for _, _, dm in chamber_fans(corpus)}
        assert len(gradings) == 54
        for dm in gradings:
            assert oracles.chambers_cover_effective(dm)

    def test_non_spanning_grading_is_a_value_error(self):
        # degrees on one line: the effective cone has no interior
        dm = DegreeMap(3, 2, (), ((1, 0), (2, 0), (3, 0)), ((), (), ()))
        for search in (chamber_signatures, enumerate_chambers):
            with pytest.raises(ValueError, match="do not span the class group"):
                search(dm)
        # the same with asserts stripped
        code = (
            "from toricgit.cox import DegreeMap\n"
            "from toricgit.vgit import chamber_signatures\n"
            "dm = DegreeMap(3, 2, (), ((1, 0), (2, 0), (3, 0)), ((), (), ()))\n"
            "try:\n"
            "    chamber_signatures(dm)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "do not span the class group" in proc.stdout

    def test_rank_six_stops_at_cell_budget(self, tmp_path, capsys):
        # P^4 blown up at its five fixed points: 30 crossing walls; the
        # budget stops the search in about 2 s on a 2-core machine
        fan = blowup_points(4, 5)
        assert degree_map(fan).cl_free_rank == 6
        code, out, err, elapsed = run_chambers(fan, tmp_path, capsys)
        assert (code, out) == (2, "")
        assert err == "error: chamber cell search needs more than 20000000 simplex tableau entries\n"
        assert elapsed < 15, elapsed

    def test_seventeen_classes_refused(self, tmp_path, capsys):
        # P(1, ..., 17): 17 distinct degrees, whose membership sets would
        # be ints of 2**17 bits; refused before the hyperplane search
        fan = weighted_projective_space(range(1, 18))
        code, out, err, _ = run_chambers(fan, tmp_path, capsys)
        assert (code, out) == (2, "")
        assert err == "error: too many distinct degree vectors (17 > 16)\n"
        dm = degree_map(fan)
        with mock.patch.object(cones, "_hyperplanes", side_effect=AssertionError("the hyperplanes were searched")):
            for query in (unstable_supports, is_boundary_character):
                with pytest.raises(ValueError, match="too many distinct degree vectors"):
                    query(dm, (1,))

    def test_nef_cone_equals_ample_chamber_closure(self):
        for f in [projective_space_fan(2), f1(), p1xp1(), blowup_pn_along_linear(3, 1)]:
            dm = degree_map(f)
            amp = ample_character(f, dm)
            assert cones_equal(nef_cone(f, dm), oracles.chamber_closure(dm, amp))

    def test_wall_character_is_boundary(self):
        dm = degree_map(f1())
        H = dm.degrees_free[2]
        assert is_boundary_character(dm, H)

    def test_zero_character_is_boundary(self):
        dm = degree_map(f1())
        assert is_boundary_character(dm, (0, 0))

    def test_boundary_matches_double_description_oracle(self, corpus):
        # Seeded characters: sums of degree classes with about half of
        # the weights zero, which land on walls and faces often, and
        # small vectors in any direction.
        by_name = dict(corpus)
        fans = [fan for _, fan in corpus]
        fans += [product_fan(by_name[a], by_name[b]) for a, b in PRODUCT_PAIRS]
        rng = random.Random(1010)
        seen = {True: 0, False: 0}
        for fan in fans:
            dm = degree_map(fan)
            vectors = [vec for vec, _ in vgit._degree_classes(dm)]
            for trial in range(40):
                if trial % 4:
                    weights = [rng.randint(1, 3) if rng.random() < 0.5 else 0 for _ in vectors]
                    chi = tuple(
                        sum(w * v[i] for w, v in zip(weights, vectors))
                        for i in range(dm.cl_free_rank)
                    )
                else:
                    chi = tuple(rng.randint(-3, 3) for _ in range(dm.cl_free_rank))
                got = is_boundary_character(dm, chi)
                assert got == oracles.is_boundary_character(dm, chi), (fan, chi)
                seen[got] += 1
        assert sum(seen.values()) == 40 * len(fans)
        assert min(seen.values()) > 500

    def test_k8_probe_stops_at_cell_budget(self):
        # 40 crossing walls: the whole search took 19 s on a 2-core
        # machine; the budget stops it in about 4 s
        dm = probe_grading(8, 1)
        clear_vgit_caches()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match="more than 20000000 simplex tableau entries"):
                enumerate_chambers(dm)
            elapsed = time.perf_counter() - start
        finally:
            clear_vgit_caches()
        assert elapsed < 15, elapsed

    def test_k12_probe_stops_at_cell_budget(self):
        # each re-optimisation carries a row per wall decided on its
        # branch, so a budget of 10,000 re-optimisations let this probe
        # run for about 40 s on a 2-core machine; the tableau entries
        # charged stop it in about 4 s
        dm = probe_grading(12, 1)
        clear_vgit_caches()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match="more than 20000000 simplex tableau entries"):
                chamber_signatures(dm)
            elapsed = time.perf_counter() - start
        finally:
            clear_vgit_caches()
        assert elapsed < 20, elapsed


class TestStableBaseLocus:
    def test_ample_is_empty(self):
        for f in [projective_space_fan(2), f1(), p1xp1()]:
            dm = degree_map(f)
            amp = ample_character(f, dm)
            assert stable_base_locus_codim(f, dm, amp) is None

    def test_exceptional_divisor_on_f1(self):
        f = f1()
        dm = degree_map(f)
        E = dm.degrees_free[3]
        assert stable_base_locus_codim(f, dm, E) == 1

    def test_nef_boundary_class_is_free(self):
        # H on F1 is nef but not ample: still base point free
        f = f1()
        dm = degree_map(f)
        H = dm.degrees_free[2]
        assert stable_base_locus_codim(f, dm, H) is None

    def test_outside_effective_rejected(self):
        f = f1()
        dm = degree_map(f)
        amp = ample_character(f, dm)
        with pytest.raises(ValueError, match="outside"):
            stable_base_locus_codim(f, dm, tuple(-x for x in amp))

    def test_maximal_masks_match_all_masks_oracle(self, corpus):
        # stable_base_locus_codim weighs only the maximal masks that the
        # ample character has and chi lacks; the oracle takes the support
        # of every such mask.  The probe gradings have no fan, so each of
        # a few positive combinations of their degrees stands in for the
        # ample character, and a copy with repeated degrees weighs classes
        # of several rays.
        rng = random.Random(30)

        def combinations_of(dm, n):
            vectors = [v for v, _ in vgit._degree_classes(dm)]
            out = []
            for _ in range(n):
                w = [rng.randint(0, 2) for _ in vectors]
                out.append(tuple(_dot(w, col) for col in zip(*vectors)))
            return out

        cases = []
        for _, fan in corpus:
            dm = degree_map(fan)
            cases.append((fan, dm, None, combinations_of(dm, 6)))
        for k, seed, rank in [(6, 1, 3), (8, 2, 4), (10, 2, 4), (12, 3, 5)]:
            dm = probe_grading(k, seed, rank)
            repeated = graded_by(list(dm.degrees_free) + list(dm.degrees_free[: k // 2]))
            for grading in (dm, repeated):
                for ample in combinations_of(grading, 3):
                    cases.append((None, grading, ample, combinations_of(grading, 6)))
        n_compared = n_loci = 0
        for fan, dm, ample, characters in cases:
            if fan is None:
                patch = mock.patch.object(vgit, "ample_character", lambda f, d: ample)
            else:
                patch = contextlib.nullcontext()
            with patch:
                for chi in characters:
                    if unstable_supports(dm, chi).outside_effective:
                        continue
                    want = oracles.stable_base_locus_codim(fan, dm, chi)
                    assert stable_base_locus_codim(fan, dm, chi) == want, (dm, chi, ample)
                    n_compared += 1
                    n_loci += want is not None
        assert n_compared > 400 and n_loci > 100, (n_compared, n_loci)


class TestStructuralProperties:
    @pytest.mark.parametrize(
        "fan_builder",
        [
            lambda: projective_space_fan(2),
            lambda: projective_space_fan(4),
            f1,
            p1xp1,
            lambda: blowup_pn_along_linear(3, 1),
            lambda: blowup_pn_along_linear(4, 1),
            lambda: product_fan(projective_space_fan(1), projective_space_fan(3)),
        ],
    )
    def test_ample_unstable_codim_at_least_two(self, fan_builder):
        f = fan_builder()
        dm = degree_map(f)
        assert unstable_codim(dm, ample_character(f, dm)) >= 2

    @pytest.mark.parametrize(
        "fan_builder",
        [
            lambda: projective_space_fan(3),
            f1,
            p1xp1,
            lambda: blowup_pn_along_linear(4, 1),
            lambda: product_fan(projective_space_fan(1), projective_space_fan(3)),
        ],
    )
    def test_cox_consistency(self, fan_builder):
        f = fan_builder()
        dm = degree_map(f)
        assert oracles.ample_signature_matches_irrelevant_ideal(f, dm)

    def test_cox_consistency_with_torsion(self):
        f = Fan(2, [(1, 2), (1, -2), (-1, 0)], [(0, 1), (0, 2), (1, 2)])
        dm = degree_map(f)
        assert dm.torsion == (2,)
        assert oracles.ample_signature_matches_irrelevant_ideal(f, dm)

    @pytest.mark.parametrize(
        "fan_builder",
        [lambda: projective_space_fan(2), f1, p1xp1, lambda: blowup_pn_along_linear(3, 1)],
    )
    def test_unstable_inclusion_forces_nef(self, fan_builder):
        f = fan_builder()
        dm = degree_map(f)
        assert unstable_inclusion_forces_nef(f, dm)


def moving_chambers(corpus):
    """(fan, degree map, witness, signature, every witness of the
    grading) per chamber whose witness is interior to the moving cone,
    over the corpus and the PRODUCT_PAIRS products.  The
    moving cone holds the full-dimensional nef cone, so its relative
    interior is its interior."""
    by_name = dict(corpus)
    fans = [fan for _, fan in corpus]
    fans += [product_fan(by_name[a], by_name[b]) for a, b in PRODUCT_PAIRS]
    out = []
    n_chambers = 0
    for fan in fans:
        dm = degree_map(fan)
        moving = moving_cone(dm)
        chambers = enumerate_chambers(dm)
        n_chambers += len(chambers)
        witnesses = [chi for chi, _ in chambers]
        for chi, sig in chambers:
            if oracles.strictly_contains(moving, chi):
                out.append((fan, dm, chi, sig, witnesses))
    assert n_chambers == 369
    return out


class TestMovingChambersAreFans:
    """Each chamber inside the moving cone is the nef cone of the fan
    its signature names, certified by that fan's own wall pass: the
    oracle shares neither the cell search nor the membership table."""

    def test_every_moving_chamber_is_a_fan(self, corpus):
        cases = moving_chambers(corpus)
        assert len(cases) == 95
        for fan, dm, chi, sig, _ in cases:
            assert oracles.moving_chamber_is_a_fan(fan, dm, chi, sig), (fan, chi)

    def test_a_signature_missing_a_facet_fails(self, corpus):
        n_mutants = 0
        for fan, dm, chi, sig, _ in moving_chambers(corpus):
            for k in range(len(sig.facets)):
                dropped = ChamberSignature(sig.facets[:k] + sig.facets[k + 1 :])
                assert not oracles.moving_chamber_is_a_fan(fan, dm, chi, dropped), (fan, chi, k)
                n_mutants += 1
        assert n_mutants == 400

    def test_another_chambers_witness_fails(self, corpus):
        # the witness of the next chamber of the same grading
        n_mutants = 0
        for fan, dm, chi, sig, witnesses in moving_chambers(corpus):
            other = witnesses[(witnesses.index(chi) + 1) % len(witnesses)]
            if other != chi:
                assert not oracles.moving_chamber_is_a_fan(fan, dm, other, sig), (fan, chi)
                n_mutants += 1
        assert n_mutants == 82


class TestPastRankFour:
    """Rank-5 fans built the way the paper builds new Mori dream spaces,
    from blowups and products, checked against oracles that share no
    code with the cell search: the cells against a search that solves
    every LP from scratch, every chamber inside the moving cone against
    the nef cone of the fan its signature names, and the products' cells
    against the cover certificate."""

    def check_against_oracles(self, fan, dm, chambers):
        """The number of chambers inside the moving cone, each of which
        must pass the moving-chamber oracle."""
        assert vgit._enumerate_cells(dm) == oracles.enumerate_cells(dm)
        moving = moving_cone(dm)
        inside = [(chi, sig) for chi, sig in chambers if oracles.strictly_contains(moving, chi)]
        for chi, sig in inside:
            assert oracles.moving_chamber_is_a_fan(fan, dm, chi, sig), chi
        return len(inside)

    def test_bl4pts_p3_from_the_cli(self, tmp_path, capsys):
        # about 0.15 s on a 2-core machine
        fan = blowup_points(3, 4)
        dm = degree_map(fan)
        assert dm.cl_free_rank == 5
        code, out, err, elapsed = run_chambers(fan, tmp_path, capsys)
        assert (code, err) == (0, "")
        assert elapsed < 1, elapsed
        chambers = [
            (tuple(c["interior_point"]), ChamberSignature(tuple(map(tuple, c["facets"]))))
            for c in json.loads(out)
        ]
        assert len(chambers) == 148
        for chi, sig in chambers:
            assert not is_boundary_character(dm, chi)
            assert unstable_supports(dm, chi) == sig
        assert self.check_against_oracles(fan, dm, chambers) == 46

    @pytest.mark.parametrize(
        ("base", "blown_up", "n_chambers", "n_moving"),
        [(1, (3, 3), 19, 8), (2, (2, 3), 18, 1)],
    )
    def test_product_with_a_blowup(self, base, blown_up, n_chambers, n_moving):
        # P^1 x Bl_3pts P^3 and P^2 x Bl_3pts P^2
        fan = product_fan(projective_space_fan(base), blowup_points(*blown_up))
        dm = degree_map(fan)
        assert dm.cl_free_rank == 5
        chambers = enumerate_chambers(dm)
        assert len(chambers) == n_chambers
        assert self.check_against_oracles(fan, dm, chambers) == n_moving
        assert oracles.chambers_cover_effective(dm)


class TestCanonicalWitnesses:
    """A chamber's witness is the sum of the primitive rays of its
    closure, so it depends on the chamber alone and not on the LP."""

    def test_witness_is_closure_ray_sum(self, corpus):
        fans = chamber_fans(corpus)
        assert len(fans) == 65
        n_chambers = 0
        for name, fan, dm in fans:
            for chi, sig in enumerate_chambers(dm):
                closure = oracles.chamber_closure(dm, chi)
                assert closure.lin == (), name
                ray_sum = tuple(sum(r[i] for r in closure.rays) for i in range(dm.cl_free_rank))
                assert chi == ray_sum, name
                assert not is_boundary_character(dm, chi), name
                assert unstable_supports(dm, chi) == sig, name
                n_chambers += 1
        assert n_chambers == 350

    def test_nef_chamber_witness_is_ample_character(self, corpus):
        for name, fan, dm in chamber_fans(corpus):
            amp = ample_character(fan, dm)
            nef_sig = unstable_supports(dm, amp)
            assert [chi for chi, sig in enumerate_chambers(dm) if sig == nef_sig] == [amp], name

    def test_output_independent_of_pivot_path(self, corpus):
        # the oracle solves every cell LP from scratch by phase 1, so
        # its search carries other witnesses than the warm start's
        fans = chamber_fans(corpus)
        clear_vgit_caches()
        warm_start = [enumerate_chambers(dm) for _, _, dm in fans]
        clear_vgit_caches()
        try:
            with mock.patch.object(vgit, "_enumerate_cells", oracles.enumerate_cells):
                two_phase = [enumerate_chambers(dm) for _, _, dm in fans]
        finally:
            clear_vgit_caches()
        assert two_phase == warm_start

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda r: st.lists(
                st.tuples(*[st.integers(min_value=-2, max_value=2)] * r),
                min_size=r,
                max_size=6,
                unique=True,
            )
        )
    )
    def test_signatures_match_lp_membership(self, gens):
        # the chamber signatures and witnesses come from the cell
        # search and basis cones; the membership table of
        # unstable_supports and the LP membership of
        # oracles.chamber_closure are the oracles.  The signature pass
        # alone gives the same signatures in the same order.
        assume(matrix_rank(gens) == len(gens[0]))
        dm = graded_by(gens)
        if not effective_cone(dm).facet_normals:
            with pytest.raises(ValueError, match="whole space"):
                enumerate_chambers(dm)
            return
        chambers = enumerate_chambers(dm)
        assert chambers
        for chi, sig in chambers:
            assert sig == unstable_supports(dm, chi), (gens, chi)
            rays = oracles.chamber_closure(dm, chi).rays
            assert chi == tuple(sum(r[i] for r in rays) for i in range(dm.cl_free_rank))
        assert len({sig for _, sig in chambers}) == len(chambers)
        assert list(chamber_signatures(dm)) == [sig for _, sig in chambers]

    def test_chambers_run_no_membership_lp(self, corpus, monkeypatch):
        by_name = dict(corpus)
        dms = {dm for _, _, dm in chamber_fans(corpus)}
        dms |= {degree_map(product_fan(by_name[a], by_name[b])) for a, b in PRODUCT_PAIRS}
        want = {dm: enumerate_chambers(dm) for dm in dms}

        def refuse(*args):
            raise AssertionError("enumerate_chambers ran a membership query")

        monkeypatch.setattr(vgit, "_class_membership", refuse)
        clear_vgit_caches()
        try:
            for dm in dms:
                assert enumerate_chambers(dm) == want[dm]
        finally:
            clear_vgit_caches()
        assert len(dms) == 61

    def test_cell_search_runs_no_phase_one(self, corpus, monkeypatch):
        # lp has no phase-1 LP left, and no primal loop at all: the root
        # LP of each fan, like every other, is a dual simplex from the
        # slack basis
        assert not hasattr(lp, "in_cone") and not hasattr(vgit, "in_cone")
        assert not hasattr(lp, "_simplex_core")
        fans = chamber_fans(corpus)
        calls = {"reoptimise": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(lp, "_dual_simplex", counting("reoptimise", lp._dual_simplex))
        dms = {dm for _, _, dm in fans}  # fans may share a grading
        clear_vgit_caches()
        try:
            for dm in dms:
                vgit._enumerate_cells(dm)
        finally:
            clear_vgit_caches()
        assert len(dms) == 54
        assert calls["reoptimise"] > len(dms)

    def test_cells_match_from_scratch_oracle(self, corpus):
        by_name = dict(corpus)
        fans = [fan for _, fan in corpus]
        fans += [product_fan(by_name[a], by_name[b]) for a, b in PRODUCT_PAIRS]
        n_fans = 0
        for fan in fans:
            dm = degree_map(fan)
            assert vgit._enumerate_cells(dm) == oracles.enumerate_cells(dm)
            n_fans += 1
        assert n_fans == 75

    def test_cell_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # 25 crossing normals, 100 chambers: a search that recursed once
        # per crossing normal would pass a limit 20 frames above here
        dm = graded_by([
            (1, 1, -1), (1, 2, -1), (1, 3, 2), (1, 2, 1), (1, -3, 3),
            (1, 0, 3), (1, -2, 2), (1, -3, -2), (1, -3, -1),
        ])
        assert vgit._table(dm)[1].count(0) == 25
        want = vgit._enumerate_cells(dm)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 20)
        try:
            got = vgit._enumerate_cells(dm)
        finally:
            sys.setrecursionlimit(limit)
        assert got == want
        assert len(vgit.chamber_signatures(dm)) == 100

    def test_cell_sign_vectors_pinned(self, corpus):
        # The digest was recorded from the cells of the search that also
        # returned an integer witness per cell, with the witnesses dropped.
        by_name = dict(corpus)
        fans = [fan for _, fan in corpus]
        fans += [product_fan(by_name[a], by_name[b]) for a, b in PRODUCT_PAIRS]
        digest = hashlib.sha256()
        n_cells = 0
        for fan in fans:
            cells = vgit._enumerate_cells(degree_map(fan))
            digest.update(repr(cells).encode())
            n_cells += len(cells)
        assert n_cells == 647
        assert digest.hexdigest() == (
            "ed4db05b23b3c954efee6d52ba9de517309b62011bc55de38a7ba046ef346966"
        )

    def test_grid_characters_fall_in_enumerated_cells(self, corpus):
        # Chamber completeness: a lattice point strictly inside the
        # effective cone and on no crossing wall lies in an open cell,
        # which the search must have returned.  The samples are
        # combinations of the degree classes with about half of the
        # weights zero, so they also reach cells along the boundary.
        rng = random.Random(9104)
        for name, _, dm in chamber_fans(corpus):
            eff_rows = effective_cone(dm).facet_normals
            normals = split_normals(dm)[1]
            cells = set(vgit._enumerate_cells(dm))
            vectors = [vec for vec, _ in vgit._degree_classes(dm)]
            for _ in range(1500):
                weights = [rng.randint(1, 20) if rng.random() < 0.5 else 0 for _ in vectors]
                chi = [sum(w * v[i] for w, v in zip(weights, vectors)) for i in range(dm.cl_free_rank)]
                dots = [_dot(n, chi) for n in normals]
                if 0 in dots or any(_dot(e, chi) <= 0 for e in eff_rows):
                    continue
                assert tuple(1 if x > 0 else -1 for x in dots) in cells, (name, chi)

    def test_walls_match_oracles_on_corpus_and_products(self, corpus):
        by_name = dict(corpus)
        dms = [degree_map(fan) for _, fan in corpus]
        dms += [degree_map(product_fan(by_name[a], by_name[b])) for a, b in PRODUCT_PAIRS]
        for dm in dms:
            if dm.cl_free_rank > 1:  # the kernel oracle skips the empty set's normal
                assert vgit._table(dm)[0] == oracles.arrangement_normals(dm)
            assert split_normals(dm)[1] == oracles.crossing_normals(dm)

    def test_effective_facets_match_double_description(self, corpus):
        # the cell search reads the effective cone's facets off the
        # basis table's side, each normal signed so that every class is
        # on its nonnegative side; the double description of
        # cone(degrees) is the oracle
        by_name = dict(corpus)
        dms = {degree_map(fan) for _, fan in corpus}
        dms |= {degree_map(product_fan(by_name[a], by_name[b])) for a, b in PRODUCT_PAIRS}
        for rank in range(2, 6):
            for k in range(rank, rank + 6):
                dms |= {probe_grading(k, seed, rank) for seed in range(1, 11)}
        dms.add(graded_by([(1, 0), (-1, 0), (0, 1)]))  # a half-plane
        n_spanning = n_flipped = 0
        for dm in dms:
            if not vgit._spans(dm):
                continue  # no interior, and the cell search refuses it first
            facets = split_normals(dm)[0]
            assert facets == effective_cone(dm).facet_normals, dm
            n_spanning += 1
            n_flipped += any(f not in vgit._table(dm)[0] for f in facets)
        assert (n_spanning, n_flipped) == (298, 188)

    def test_signatures_run_no_double_description(self, corpus, monkeypatch):
        dms = {dm for _, _, dm in chamber_fans(corpus)}
        want = {dm: chamber_signatures(dm) for dm in dms}

        def refuse(*args):
            raise AssertionError("the signature pass ran a double description")

        clear_vgit_caches()
        monkeypatch.setattr(cones, "duals_from_inequalities", refuse)
        try:
            for dm in dms:
                assert chamber_signatures(dm) == want[dm]
        finally:
            clear_vgit_caches()
        assert len(dms) == 54

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_side_matches_lp_and_double_description(self, data):
        # Spanning or not, the normals that side marks crossing are
        # those an LP finds crossing the effective cone's relative
        # interior; when the classes span, the others, signed by side,
        # are the facet normals of its double description.
        r = data.draw(st.integers(min_value=1, max_value=4))
        gens = data.draw(small_vectors(r, min_size=1, max_size=r + 4))
        if r > 1 and data.draw(st.booleans()):
            gens = [g[:-1] + (0,) for g in gens]  # every degree in one hyperplane
        dm = graded_by(gens)
        facets, crossing = split_normals(dm)
        assert crossing == oracles.crossing_normals(dm), gens
        if vgit._spans(dm):
            assert facets == effective_cone(dm).facet_normals, gens

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=4).flatmap(lambda r: small_vectors(r, r, r + 4)))
    def test_arrangement_normals_match_kernel_oracle(self, gens):
        assume(matrix_rank(gens) == len(gens[0]))
        dm = graded_by(gens)
        assert vgit._table(dm)[0] == oracles.arrangement_normals(dm)


def test_recursive_searches_leave_no_reference_cycles(corpus):
    # A recursive closure holds itself through its own cell, so unless
    # the search frees it, every list it closes over waits for the cyclic
    # collector; on the rank-8, 16-class probe that was about 31 MB of
    # basis rows.  With automatic collection off, each call must leave
    # the collector nothing, the cell and hyperplane searches also when
    # their budgets stop them.
    fan = dict(corpus)["bl4_1"]
    dm = degree_map(fan)
    vectors = [vec for vec, _ in vgit._degree_classes(dm)]
    ideal = cox.irrelevant_ideal(fan)

    def stopped_cell_search():
        with mock.patch.object(vgit, "_TABLEAU_BUDGET", 0):
            try:
                vgit._enumerate_cells(dm)
            except ValueError:
                return
        raise AssertionError("the cell search ran past a budget of 0")

    def stopped_hyperplane_search():
        with mock.patch.object(cones, "_TABLE_BUDGET", 0):
            try:
                cones._hyperplanes(vectors, dm.cl_free_rank)
            except ValueError:
                return
        raise AssertionError("the hyperplane search ran past a budget of 0")

    calls = {
        "basis_inverses": lambda: oracles.basis_inverses(vectors, dm.cl_free_rank),
        "hyperplane search": lambda: cones._hyperplanes(vectors, dm.cl_free_rank),
        "stopped hyperplane search": stopped_hyperplane_search,
        "cell search": lambda: vgit._enumerate_cells(dm),
        "stopped cell search": stopped_cell_search,
        "zero_locus_codim": lambda: cox.zero_locus_codim(ideal),
    }
    vgit._table(dm)  # the cached table the cell search reads
    gc.collect()
    gc.disable()
    try:
        left = {}
        for name, call in calls.items():
            call()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == dict.fromkeys(calls, 0)
