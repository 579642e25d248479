"""Tests of the benchmark harness itself (not of toricgit).

    python3 -m pytest bench/tests -q

They run ops on a few small fans only, so they take seconds.
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import certify  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from toricgit import checks, cli, fans, lp, vgit  # noqa: E402

SMALL = ("p1#", "p2#", "f1#", "p1xp1#", "bl3_0#")


def small_queries(tmp_path, seed=3):
    w = workloads.CharacterQueries(seed)
    w.setup(tmp_path)
    w.load_reference()
    w.ops = [op for op in w.ops if op[0].startswith(SMALL)]
    return w


def ctx():
    return workloads.Context(tracing.lru_caches())


def test_clean_pass_has_no_failures(tmp_path):
    w = small_queries(tmp_path)
    result = w.run_pass(ctx())
    assert result.attempted == len(w.ops) == 4 * len(SMALL)
    assert result.failed == 0
    assert len(result.latencies) == result.attempted


def test_corrupted_reference_entry_fails(tmp_path):
    w = small_queries(tmp_path)
    key = w.ops[2][0]
    w.reference[key] = w.reference[key].replace("false", "true", 1).replace("[]", "[0]", 1)
    result = w.run_pass(ctx())
    assert result.failed == 1
    assert result.failed / result.attempted > 0


def test_pivot_limit_counts_as_failed_and_run_continues(tmp_path, monkeypatch):
    w = workloads.AnalyzeJson(0)
    w.setup(tmp_path)
    w.load_reference()
    w.ops = [op for op in w.ops if op[0] in ("p1", "p2", "f1", "p1xp1")]
    original = cli.validate
    calls = []

    def flaky(fan):
        calls.append(fan)
        if len(calls) == 2:
            raise lp.PivotLimit("simplex did not terminate")
        return original(fan)

    # cli.main catches ValueError and OSError only, so this escapes it.
    monkeypatch.setattr(cli, "validate", flaky)
    result = w.run_pass(ctx())
    assert result.attempted == 4
    assert result.failed == 1


def test_check_all_raising_check_is_one_failure(monkeypatch):
    corpus = dict(checks.builtin_corpus())

    def mini_suite():
        return [
            checks.check_two_neighborly_equivalence(corpus["p2"]),
            checks.check_small_unstable_locus(corpus["bl4_1"]),
            checks.check_rank_one_unstable_origin(corpus["p3"]),
        ]

    monkeypatch.setattr(cli, "run_all", mini_suite)
    expected = [r.as_json() for r in mini_suite()]
    w = workloads.CheckAll(0)
    w.reference_text = json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"
    w.reference = [workloads.canonical(e) for e in expected]
    assert w.run_pass(ctx()).failed == 0

    def broken(fan):
        raise lp.PivotLimit("simplex did not terminate")

    monkeypatch.setattr(checks, "check_small_unstable_locus", broken)
    result = w.run_pass(ctx())
    assert result.attempted == 3
    assert len(result.latencies) == 3
    assert result.failed == 1


def test_tracer_patches_importers_and_restores(tmp_path):
    originals = (vgit.in_cone, fans.max_strict_slack, fans.validate, vgit.unstable_supports)
    w = small_queries(tmp_path)
    caches = tracing.lru_caches()
    workloads.Context(caches).clear_caches()
    t = tracing.Tracer()
    t.install()
    try:
        assert vgit.in_cone is not originals[0]
        assert fans.max_strict_slack is not originals[1]
        assert fans.validate.cache_info().currsize >= 0
        assert w.run_pass(workloads.Context(caches, t)).failed == 0
        _key, fan, coefficients = next(q for q in w.queries if q[0] == w.ops[0][0])
        workloads.character_query(fan, coefficients)  # a guaranteed cache hit
        t.note_caches(caches)
    finally:
        t.uninstall()
    assert (vgit.in_cone, fans.max_strict_slack, fans.validate, vgit.unstable_supports) == originals
    m = tracing.layer_metrics(t)
    assert m["vgit.unstable_supports.calls"] == len(w.ops) + 1
    assert 0 < m["vgit.unstable_supports.hit_ratio"] < 1
    assert m["lp.in_cone.calls"] > 0 and 0 < m["lp.in_cone.true_ratio"] < 1
    assert m["fans.count_sections.calls"] == len(w.ops) + 1
    assert m["fans.count_sections.points"] > 0
    assert m["vgit.enumerate_chambers.calls"] == 0
    assert all(m[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)
    stats = t.aggregate()
    for name, (calls, inclusive, self_s, _errors) in stats.items():
        assert calls > 0 and inclusive >= self_s >= -1e-6, name
    spans = tmp_path / "spans.tsv.gz"
    t.write_spans(spans)
    assert spans.stat().st_size > 0


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    t = tracing.Tracer()
    per_layer = set(tracing.layer_metrics(t)) | {"trace.overhead_s"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", range(0, 40, 7))
def test_every_seed_draws_referenced_inputs(tmp_path, seed):
    for cls in (workloads.AnalyzeJson, workloads.CharacterQueries):
        w = cls(seed)
        w.setup(tmp_path)
        w.load_reference()
        assert len(w.ops) == len(w.reference)
    assert len(workloads.AnalyzeJson(seed).choose_bundles()) == 30


def test_check_all_reference_is_476_passing_and_canonical():
    text = (workloads.REFERENCE_DIR / "check_all.json").read_text(encoding="utf-8")
    entries = json.loads(text)
    assert len(entries) == 476 and all(e["passed"] for e in entries)
    assert json.dumps(entries, sort_keys=True, separators=(",", ":")) + "\n" == text


def test_oracles_agree_with_library_on_small_fans():
    corpus = dict(checks.builtin_corpus())
    for name in ("f1", "p1xp1", "bl3_0", "subdivision01"):
        fan = corpus[name]
        dm = workloads._lib("cox").degree_map(fan)
        for c in workloads.divisor_pool(name, fan)[:3]:
            chi = dm.divisor_class(c)[0]
            facets = [list(f) for f in vgit.unstable_supports(dm, chi).facets]
            assert certify.brute_force_facets(dm.degrees_free, dm.cl_free_rank, chi) == facets
            assert certify.box_count(fan, c) == fans.count_sections(
                fan, fans.TorusInvariantDivisor(c)
            )


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 97) == 97
    assert run.percentile([5.0], 95) == 5.0


def test_pass_cut_at_deadline_leaves_time_metrics_unchanged(tmp_path):
    w = small_queries(tmp_path)
    full = w.run_pass(ctx())
    key, fn = w.ops[1]
    deadline = time.perf_counter() + 0.5

    def slow():
        out = fn()
        time.sleep(max(0.0, deadline - time.perf_counter()))
        return out

    w.ops[1] = (key, slow)
    cut = w.run_pass(ctx(), stop_at=deadline)
    assert not cut.complete and cut.failed == 0
    assert cut.attempted == len(cut.latencies) == 2
    assert run.pass_metrics([full, cut], 90) == run.pass_metrics([full], 90)


def test_pass_metrics_are_in_reference_seconds():
    host = workloads.PassResult(latencies=[0.001, 0.002, 0.004], wall_s=2.0, scale=0.5)
    m = run.pass_metrics([host], 50)
    assert m == {"total_s": 1.0, "op_p50_ms": 1.0, "op_tail_ms": 1.0}


def test_calibration_samples_are_taken_out_of_op_times():
    cal = calibrate.Calibration()
    cal.start()
    try:
        t0 = cal.clock()
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
        op_s = cal.clock() - t0
    finally:
        cal.stop()
    assert len(cal.samples) >= 5  # start, stop and the timer's
    assert abs(op_s + cal.spent_s - cal.samples[0] - cal.samples[-1] - 0.6) < 0.02
    assert 0 < cal.scale() < 100
    assert 0 < cal.scale() < 100
