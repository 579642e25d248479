"""toricgit benchmark: one workload, one seed, one fresh interpreter.

    python3 bench/run.py --workload check-all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  The run sets up (import, corpus, seeded inputs), then repeats
passes over the workload with every toricgit cache cleared at the start
of a pass until ``--seconds`` have passed; the first pass always runs
to the end.  Each op's output is compared to the certified reference.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics of the
traced one.  Times are in reference seconds (see calibrate.py).  The
last line of standard output is the result object; a run record
(interpreter, nproc, seed, commit, line count of ``src/``) and, when
tracing, the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7  # set-ups per run, each importing the library afresh

sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_library():
    """Import toricgit from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import toricgit
    except ImportError as exc:
        raise SystemExit(f"error: cannot import toricgit from {src}: {exc}")
    if Path(toricgit.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: toricgit was imported from {toricgit.__file__}, not {src}")
    for layer in tracing.LAYERS:
        __import__(f"toricgit.{layer}")


def set_up(workload, workdir, clock=perf_counter):
    """Import, corpus build and seeded input generation; returns seconds.
    The library is imported afresh, as in a new interpreter."""
    for name in [m for m in sys.modules if m == "toricgit" or m.startswith("toricgit.")]:
        del sys.modules[name]
    gc.collect()  # frees the previous set-up's modules and inputs
    start = clock()
    import_library()
    workload.setup(workdir)
    return clock() - start


def set_ups(workload, workdir):
    """SETUP_REPEATS set-ups in reference seconds; the last one's library
    and inputs are the ones the run uses."""
    calibration = calibrate.Calibration()
    calibration.start()
    try:
        host_s = [set_up(workload, workdir, calibration.clock) for _ in range(SETUP_REPEATS)]
    finally:
        calibration.stop()
    return [t * calibration.scale() for t in host_s]


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def calibrated_pass(workload, caches, stop_at=None, tracer=None, calibration=None):
    """One pass that samples the host's speed while it runs."""
    calibration = calibration or calibrate.Calibration()
    calibration.start()
    try:
        result = workload.run_pass(workloads.Context(caches, tracer, calibration), stop_at)
    finally:
        calibration.stop()
    result.scale = calibration.scale()
    return result


def run_passes(workload, caches, seconds):
    """Passes until `seconds` have passed; the first always completes."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        stop_at = start + seconds if passes else None
        passes.append(calibrated_pass(workload, caches, stop_at))
    return passes


def pass_metrics(passes, tail_percentile):
    """Time metrics over the complete passes, in reference seconds.  A
    pass cut at the deadline repeats a prefix of the ops, so it counts
    only towards attempted and failed."""
    complete = [p for p in passes if p.complete]
    latencies = [t * p.scale for p in complete for t in p.latencies]
    return {
        "total_s": statistics.median(p.wall_s * p.scale for p in complete),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * percentile(latencies, tail_percentile),
    }


def src_line_count():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def routing_violations(name, m):
    """Each workload must keep loading the layer it was chosen for."""
    out = []
    if name == "check-all":
        if m["fans.fan_from_json.calls"] != 0:
            out.append("check-all called fans.fan_from_json")
        top = max(tracing.LAYERS, key=lambda layer: m[f"{layer}.self_s"])
        if top != "lp":
            out.append(f"check-all: largest self time is {top}, not lp")
    elif m["vgit.enumerate_chambers.calls"] != 0:
        out.append(f"{name} enumerated chambers")
    return out


END_TO_END_UNITS = {
    "setup_s": "s", "total_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
}


def end_to_end(workload, caches, seconds, setups, record):
    passes = run_passes(workload, caches, seconds)
    record["setup_runs_s"] = setups
    record["tail_percentile"] = workload.tail_percentile
    record["op_latencies_host_s"] = [[round(t, 6) for t in p.latencies] for p in passes]
    metrics = pass_metrics(passes, workload.tail_percentile)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items()}


def per_layer(args, workload, caches, record):
    """Per-layer metrics of a traced pass; times in reference seconds.
    Spans use the calibrated clock, so samples are not charged to the
    layer they interrupt."""
    untraced = calibrated_pass(workload, caches)
    workloads.Context(caches).clear_caches()  # so hit counts start at zero
    calibration = calibrate.Calibration()
    tracer = tracing.Tracer(calibration.clock)
    tracer.install()
    try:
        traced = calibrated_pass(workload, caches, tracer=tracer, calibration=calibration)
        tracer.note_caches(caches)
    finally:
        tracer.uninstall()
    metrics = {
        k: v * traced.scale if tracing.unit(k) == "s" else v
        for k, v in tracing.layer_metrics(tracer).items()
    }
    metrics["trace.overhead_s"] = traced.wall_s * traced.scale - untraced.wall_s * untraced.scale
    record["routing_violations"] = routing_violations(workload.name, metrics)
    for v in record["routing_violations"]:
        print(f"routing check failed: {v}", file=sys.stderr)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    return [untraced, traced], {k: (v, tracing.unit(k)) for k, v in metrics.items()}


def measure(args, workdir):
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setups = [set_up(workload, workdir)] if args.trace else set_ups(workload, workdir)
    workload.load_reference()
    caches = tracing.lru_caches()
    record = {}
    if args.trace:
        passes, metrics = per_layer(args, workload, caches, record)
    else:
        passes, metrics = end_to_end(workload, caches, args.seconds, setups, record)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0 and not record.get("routing_violations"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        python=sys.version, nproc=len(os.sched_getaffinity(0)), commit=commit(),
        src_lines=src_line_count(), failed_ratio=failed / attempted,
        passes=[{"wall_host_s": p.wall_s, "scale": p.scale, "ops": len(p.latencies),
                 "failed": p.failed, "complete": p.complete} for p in passes],
        result=result,
    )
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        result, record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
