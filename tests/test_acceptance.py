"""Acceptance gate: one timed test per criterion.

Run under pytest -v for a one-line pass/fail verdict per criterion.
Every bound is wall-clock for the whole criterion body, on cold
caches when this file runs first in the session.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations
from math import gcd

import pytest

from oracles import ample_signature_matches_irrelevant_ideal, chamber_closure, cones_equal
from toricgit.checks import (
    PRODUCT_PAIRS,
    check_bundle_unstable_locus,
    check_moving_vs_nef_example,
    check_neighborly_codim_equivalence,
    check_product_unstable_locus,
    check_rank_one_unstable_origin,
    check_small_unstable_locus,
    check_two_neighborly_equivalence,
    _bundle_over_blowup_data,
)
from toricgit.cones import cone_from_generators
from toricgit.cox import degree_map
from toricgit.linalg import det, smith_normal_form
from toricgit.vgit import (
    ample_character,
    enumerate_chambers,
    nef_cone,
    unstable_codim,
    unstable_inclusion_forces_nef,
    unstable_supports,
)


@contextmanager
def deadline(criterion, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"criterion {criterion}: PASS in {elapsed:.2f}s (bound {seconds}s)")
    assert elapsed < seconds, (
        f"criterion {criterion} exceeded its {seconds}s bound ({elapsed:.2f}s)"
    )


def test_criterion_1_two_neighborly_equivalence(corpus):
    with deadline(1, 10.0):
        assert len(corpus) >= 60
        assert all(fan.n_rays <= 14 for _, fan in corpus)
        for name, fan in corpus:
            assert check_two_neighborly_equivalence(fan).passed, name


def test_criterion_2_m_neighborly_generalization(corpus):
    with deadline(2, 30.0):
        for m in (1, 2, 3, 4):
            for name, fan in corpus:
                assert check_neighborly_codim_equivalence(fan, m).passed, (name, m)


def test_criterion_3_small_locus_instances(corpus):
    fans = dict(corpus)
    with deadline("3a", 1.0):
        blowup = check_small_unstable_locus(fans["bl4_1"])
        assert blowup.passed
        assert blowup.witness["unstable_codim"] == 3
    with deadline("3b", 1.0):
        product = check_small_unstable_locus(fans["p1xp3"])
        assert not product.passed
        assert product.witness["unstable_codim"] == 2
    with deadline("3c", 1.0):
        for n in (2, 3, 4, 5):
            space = check_rank_one_unstable_origin(fans[f"p{n}"])
            assert space.passed
            assert space.witness["unstable_codim"] == n + 1


def test_criterion_4_ample_codim_bound(corpus):
    with deadline(4, 5.0):
        for name, fan in corpus:
            dm = degree_map(fan)
            codim = unstable_codim(dm, ample_character(fan, dm))
            assert codim >= 2, name
            if name == "p1":
                assert codim == 2


def test_criterion_5_product_formula(corpus):
    fans = dict(corpus)
    with deadline(5, 30.0):
        assert len(PRODUCT_PAIRS) == 10
        for a, b in PRODUCT_PAIRS:
            result = check_product_unstable_locus(fans[a], fans[b])
            assert result.passed, (a, b)
            c1, c2, cp = result.witness["codims"]
            assert cp == min(c1, c2)
            assert len(result.witness["section_trials"]) == 3


def test_criterion_6_bundle_construction():
    with deadline(6, 60.0):
        base, divisors = _bundle_over_blowup_data()
        result = check_bundle_unstable_locus(base, divisors, m_max=8)
        assert result.passed
        assert result.witness["minimal_m"] <= 8
        assert result.witness["unstable_codim"] >= 3
        assert {d["d"] for d in result.witness["section_counts"]} == {0, 1, 2}


def test_criterion_7_moving_vs_nef():
    with deadline(7, 60.0):
        result = check_moving_vs_nef_example()
        assert result.passed
        assert result.witness["stable_base_locus_codim"] == 3
        assert result.witness["separating_character"] is not None
        assert result.witness["ample_base_locus"] == "empty"


def test_criterion_8_chamber_machinery(corpus):
    fans = dict(corpus)
    with deadline(8, 120.0):
        assert len(enumerate_chambers(degree_map(fans["f1"]))) == 2
        for name in ("p1", "p2", "p3", "p4", "p5", "p1xp1"):
            assert len(enumerate_chambers(degree_map(fans[name]))) == 1, name
        for name, fan in corpus:
            dm = degree_map(fan)
            assert ample_signature_matches_irrelevant_ideal(fan, dm), name
            amp = ample_character(fan, dm)
            nef_sig = unstable_supports(dm, amp)
            reps = [chi for chi, sig in enumerate_chambers(dm) if sig == nef_sig]
            assert len(reps) == 1, name
            assert cones_equal(chamber_closure(dm, reps[0]), nef_cone(fan, dm)), name
            assert unstable_inclusion_forces_nef(fan, dm), name


def brute_force_facets(dm, chi):
    """All-2^n-supports oracle with dual-side (facet dot) membership."""
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


def invariant_factors_by_minor_gcds(rows):
    """Determinant-divisor route: s_k = gcd(k-minors) / gcd((k-1)-minors)."""
    n_rows, n_cols = len(rows), len(rows[0])
    previous = 1
    factors = []
    for k in range(1, min(n_rows, n_cols) + 1):
        divisor = 0
        for ri in combinations(range(n_rows), k):
            for ci in combinations(range(n_cols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                divisor = gcd(divisor, det(sub))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
    return factors


def test_criterion_9_oracle_suites(corpus):
    with deadline(9, 120.0):
        for name, fan in corpus:
            dm = degree_map(fan)
            amp = ample_character(fan, dm)
            assert unstable_supports(dm, amp).facets == brute_force_facets(dm, amp), name
        rng = random.Random(7151)
        for _ in range(200):
            n_rows = rng.randint(1, 4)
            n_cols = rng.randint(1, 4)
            rows = [
                [rng.randint(-9, 9) for _ in range(n_cols)] for _ in range(n_rows)
            ]
            _, factors, _ = smith_normal_form(rows)
            nonzero = [d for d in factors if d != 0]
            assert nonzero == invariant_factors_by_minor_gcds(rows)
