"""The named verification suite and its built-in corpus."""

import importlib
import json

import pytest

from toricgit import checks, cones, lp, vgit
from toricgit.checks import (
    CheckResult,
    builtin_corpus,
    bundle_over_blowup_fan,
    check_bundle_unstable_locus,
    check_moving_vs_nef_example,
    check_neighborly_codim_equivalence,
    check_product_unstable_locus,
    check_quotient_properties,
    check_rank_one_unstable_origin,
    check_small_unstable_locus,
    check_two_neighborly_equivalence,
    check_unstable_inclusion_forces_nef,
    run_all,
    _bundle_over_blowup_data,
)
from toricgit.cox import degree_map, irrelevant_ideal, zero_locus_codim
from toricgit.fans import Fan, TorusInvariantDivisor, validate
from toricgit.vgit import (
    chamber_signatures,
    moving_cone,
    nef_cone,
)


def by_name(corpus):
    return dict(corpus)


def clear_caches():
    for layer in ("linalg", "lp", "cones", "fans", "cox", "vgit", "checks", "cli"):
        module = importlib.import_module(f"toricgit.{layer}")
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear") and getattr(fn, "__module__", None) == module.__name__:
                fn.cache_clear()


class TestCorpus:
    def test_size_and_bounds(self, corpus):
        assert len(corpus) >= 60
        assert len({name for name, _ in corpus}) == len(corpus)
        assert all(f.n_rays <= 14 for _, f in corpus)

    def test_all_members_smooth_and_projective(self, corpus):
        for name, f in corpus:
            report = validate(f)
            assert report.smooth, name
            assert report.projective, name

    def test_deterministic_rebuild(self, corpus):
        builtin_corpus.cache_clear()
        rebuilt = builtin_corpus()
        assert rebuilt == corpus

    def test_expected_members(self, corpus):
        names = {name for name, _ in corpus}
        assert {"p1", "p5", "p1xp3", "f1", "bl4_1", "bundle_over_blowup"} <= names
        fans = by_name(corpus)
        assert fans["bundle_over_blowup"].n_rays == 9
        assert fans["bundle_over_blowup"].dim == 6


class TestNeighborlyEquivalences:
    def test_two_neighborly_on_whole_corpus(self, corpus):
        for name, f in corpus:
            assert check_two_neighborly_equivalence(f).passed, name

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_general_m_on_whole_corpus(self, corpus, m):
        for name, f in corpus:
            assert check_neighborly_codim_equivalence(f, m).passed, (name, m)

    def test_f1_both_sides_false(self, corpus):
        r = check_two_neighborly_equivalence(by_name(corpus)["f1"])
        assert r.passed
        assert r.witness["two_neighborly"] is False
        assert r.witness["irrelevant_codim"] == 2

    def test_p2_both_sides_true(self, corpus):
        r = check_two_neighborly_equivalence(by_name(corpus)["p2"])
        assert r.passed
        assert r.witness["two_neighborly"] is True
        assert r.witness["irrelevant_codim"] == 3


class TestSmallUnstableLocus:
    def test_blowup_of_p4_along_line(self, corpus):
        r = check_small_unstable_locus(by_name(corpus)["bl4_1"])
        assert r.passed
        assert r.witness["unstable_codim"] == 3

    def test_p4(self, corpus):
        r = check_small_unstable_locus(by_name(corpus)["p4"])
        assert r.passed
        assert r.witness["unstable_codim"] == 5

    def test_p1_x_p3_fails_at_exactly_two(self, corpus):
        r = check_small_unstable_locus(by_name(corpus)["p1xp3"])
        assert not r.passed
        assert r.witness["unstable_codim"] == 2

    def test_p2_x_p2(self, corpus):
        r = check_small_unstable_locus(by_name(corpus)["p2xp2"])
        assert r.passed
        assert r.witness["unstable_codim"] == 3

    def test_rejects_non_projective(self):
        incomplete = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="projective"):
            check_small_unstable_locus(incomplete)


class TestRankOne:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_projective_spaces(self, corpus, n):
        r = check_rank_one_unstable_origin(by_name(corpus)[f"p{n}"])
        assert r.passed
        assert r.witness["unstable_codim"] == n + 1
        assert r.witness["facets"] == [()]

    def test_p1_reported_not_raised(self, corpus):
        r = check_rank_one_unstable_origin(by_name(corpus)["p1"])
        assert not r.passed
        assert r.witness["dim"] == 1

    def test_weighted_projective_plane_accepted(self):
        weighted = Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (0, 2), (1, 2)])
        r = check_rank_one_unstable_origin(weighted)
        assert r.passed
        assert r.witness["unstable_codim"] == 3

    def test_torsion_lattice_rejected(self):
        fake = Fan(2, [(1, 2), (1, -2), (-1, 0)], [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError, match="torsion"):
            check_rank_one_unstable_origin(fake)

    def test_higher_rank_rejected(self, corpus):
        with pytest.raises(ValueError, match="rank"):
            check_rank_one_unstable_origin(by_name(corpus)["f1"])


class TestProduct:
    def test_p1_x_p1(self, corpus):
        fans = by_name(corpus)
        r = check_product_unstable_locus(fans["p1"], fans["p1"])
        assert r.passed
        assert r.witness["codims"] == [2, 2, 2]
        assert r.witness["facets"] == [(0, 1), (2, 3)]

    def test_p1_x_p3_codim_two(self, corpus):
        fans = by_name(corpus)
        r = check_product_unstable_locus(fans["p1"], fans["p3"])
        assert r.passed
        assert r.witness["codims"] == [2, 4, 2]

    def test_p2_x_p2_codim_three(self, corpus):
        fans = by_name(corpus)
        r = check_product_unstable_locus(fans["p2"], fans["p2"])
        assert r.passed
        assert r.witness["codims"] == [3, 3, 3]

    def test_blowup_squared_keeps_small_locus(self, corpus):
        fans = by_name(corpus)
        r = check_product_unstable_locus(fans["bl4_1"], fans["bl4_1"])
        assert r.passed
        assert r.witness["codims"] == [3, 3, 3]

    def test_mixed_rank_factors(self, corpus):
        fans = by_name(corpus)
        r = check_product_unstable_locus(fans["f1"], fans["p2"])
        assert r.passed
        assert r.witness["codims"][2] == 2

    def test_section_trials_recorded(self, corpus):
        fans = by_name(corpus)
        r = check_product_unstable_locus(fans["p1"], fans["p2"])
        assert len(r.witness["section_trials"]) == 3
        for t in r.witness["section_trials"]:
            assert t["product_count"] == t["factor_product"]


class TestBundle:
    def test_example_over_blowup(self):
        base, divisors = _bundle_over_blowup_data()
        r = check_bundle_unstable_locus(base, divisors)
        assert r.passed
        assert r.witness["minimal_m"] == 1
        assert r.witness["unstable_codim"] == 3
        assert r.witness["facets"] == [
            (0, 1, 2, 3, 4, 5),
            (0, 1, 2, 6, 7, 8),
            (3, 4, 5, 6, 7, 8),
        ]

    def test_section_counts_in_witness(self):
        base, divisors = _bundle_over_blowup_data()
        r = check_bundle_unstable_locus(base, divisors)
        counts = {c["d"]: c["bundle"] for c in r.witness["section_counts"]}
        assert counts[0] == 1
        assert counts[1] == 11
        assert counts[2] == 56

    def test_trivial_bundle_over_p2(self, corpus):
        p2 = by_name(corpus)["p2"]
        zero = TorusInvariantDivisor((0,) * p2.n_rays)
        r = check_bundle_unstable_locus(p2, (zero, zero, zero))
        assert r.passed
        assert r.witness["minimal_m"] == 1

    def test_two_summands_rejected(self, corpus):
        p2 = by_name(corpus)["p2"]
        zero = TorusInvariantDivisor((0,) * p2.n_rays)
        with pytest.raises(ValueError, match="at least 3"):
            check_bundle_unstable_locus(p2, (zero, zero))

    def test_bad_base_rejected(self, corpus):
        p1xp1 = by_name(corpus)["p1xp1"]
        zero = TorusInvariantDivisor((0,) * p1xp1.n_rays)
        with pytest.raises(ValueError, match="codimension below 3"):
            check_bundle_unstable_locus(p1xp1, (zero, zero, zero))


class TestMovingVsNef:
    def test_full_example(self):
        r = check_moving_vs_nef_example()
        assert r.passed
        assert r.witness["stable_base_locus_codim"] == 3
        assert r.witness["ample_base_locus"] == "empty"
        assert r.witness["separating_character"] is not None

    def test_separating_character_is_genuinely_separating(self):
        r = check_moving_vs_nef_example()
        fan = bundle_over_blowup_fan(r.witness["m"])
        dm = degree_map(fan)
        chi = tuple(r.witness["separating_character"])
        assert moving_cone(dm).contains(chi)
        assert not nef_cone(fan, dm).contains(chi)


class TestQuotientProperties:
    def test_whole_corpus(self, corpus):
        for name, f in corpus:
            assert check_quotient_properties(f).passed, name

    def test_p1_is_sharp(self, corpus):
        r = check_quotient_properties(by_name(corpus)["p1"])
        assert r.passed
        assert r.witness["unstable_codim"] == 2


class TestForcesNef:
    @pytest.mark.parametrize("name", ["p2", "f1", "p1xp1", "bl3_0", "bundle_over_blowup"])
    def test_named_fans(self, corpus, name):
        r = check_unstable_inclusion_forces_nef(by_name(corpus)[name])
        assert r.passed
        assert r.witness["n_chambers"] >= 1

    def test_reads_signatures_without_witnesses(self, corpus, monkeypatch):
        def refuse(*args):
            raise AssertionError("the chamber check built chamber witnesses")

        monkeypatch.setattr(vgit, "enumerate_chambers", refuse)
        monkeypatch.setattr(checks, "enumerate_chambers", refuse, raising=False)
        n_fans = 0
        for name, fan in corpus:
            r = check_unstable_inclusion_forces_nef(fan)
            assert r.passed, name
            assert r.witness["n_chambers"] == len(chamber_signatures(degree_map(fan))), name
            n_fans += 1
        assert n_fans == 65

    def test_run_all_builds_no_chamber_witness(self, corpus, monkeypatch):
        # Building each chamber's interior point took one double
        # description per chamber of the 54 distinct corpus gradings:
        # 467 calls per cold run_all when every chamber had one.  The
        # cell search's effective cone took two more per grading, until
        # its facets came from the arrangement normals.
        calls = []
        counted = cones.duals_from_inequalities

        def counting(*args):
            calls.append(args)
            return counted(*args)

        monkeypatch.setattr(cones, "duals_from_inequalities", counting)
        clear_caches()
        try:
            run_all()
            n_calls = len(calls)
        finally:
            clear_caches()
        dms = {degree_map(fan) for _, fan in corpus}
        n_chambers = sum(len(chamber_signatures(dm)) for dm in dms)
        assert n_chambers == 287
        assert len(dms) == 54
        assert n_calls == 467 - n_chambers - 2 * len(dms) == 72


class TestRunAll:
    def test_one_irrelevant_ideal_per_fan(self, corpus):
        # the two-neighborly check and the four m-neighborly checks of
        # each corpus entry read one cached ideal and codimension per
        # distinct fan (some entries build equal fans)
        clear_caches()
        try:
            run_all()
            ideals = irrelevant_ideal.cache_info()
            codims = zero_locus_codim.cache_info()
        finally:
            clear_caches()
        n_fans = len({fan for _, fan in corpus})
        assert (len(corpus), n_fans) == (65, 54)
        assert ideals.misses == n_fans
        assert ideals.hits + ideals.misses == 5 * len(corpus)
        assert codims.misses <= n_fans
        assert codims.hits + codims.misses == 5 * len(corpus)

    def test_one_scratch_solve_per_root_and_fan(self, monkeypatch, inverse_raises):
        # The only LPs a cold run_all solves from the empty tableau are
        # the roots of the chamber cell searches, one per distinct
        # grading, and none of them can run the primal simplex, which lp
        # no longer holds: membership, projectivity and section counts
        # run no LP, and no integer inverse raises on a dependent set of
        # degree classes.
        calls = {"scratch": 0, "roots": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        scratch = staticmethod(counting("scratch", lp.SlackTableau.solve))
        monkeypatch.setattr(lp.SlackTableau, "solve", scratch)
        monkeypatch.setattr(vgit, "_enumerate_cells", counting("roots", vgit._enumerate_cells))
        clear_caches()
        try:
            assert not [r.name for r in run_all() if not r.passed]
        finally:
            clear_caches()
        assert inverse_raises == []
        assert calls["scratch"] == calls["roots"] == 54
        assert not hasattr(lp, "_simplex_core")

    def test_everything_passes(self):
        results = run_all()
        failed = [r.name for r in results if not r.passed]
        assert failed == []
        assert len(results) == 476

    def test_results_are_json_serializable(self):
        results = run_all()
        for r in results:
            payload = json.dumps(r.as_json())
            parsed = json.loads(payload)
            assert parsed["name"] == r.name
            assert parsed["passed"] is r.passed

    def test_witnesses_nonempty(self):
        for r in run_all():
            assert r.witness

    def test_expected_failure_entries_present(self):
        names = {r.name for r in run_all()}
        assert "small-unstable-locus-caveat[p1xp3]" in names
        assert "rank-one-dimension-floor[p1]" in names
        assert "moving-vs-nef" in names


def test_check_result_shape():
    r = CheckResult("demo", True, {"value": (1, 2)})
    assert r.as_json() == {"name": "demo", "passed": True, "witness": {"value": [1, 2]}}
