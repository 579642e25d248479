"""The three benchmark workloads: inputs, ops and reference outputs.

Every workload calls the library through its public modules, looked up
at call time (``cli.main``, ``vgit.unstable_supports``, ...), so the
outside-in tracer sees each call.  Inputs come from the run seed; the
seeded parts are drawn from fixed pools whose outputs were recorded and
certified once (see certify.py), so every input a seed can produce has a
reference.

- ``check-all``: ``toricgit check all --json`` through ``cli.main``.  One
  op is one outermost public ``check_*`` call made by ``run_all``.
- ``analyze-json``: ``toricgit analyze FAN --json`` through ``cli.main`` on
  fans read back from JSON files, every cache cleared before each fan.
- ``character-queries``: a library session answering ``--char`` queries
  for seeded effective divisors, four per corpus fan.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Fixed seed of the input pools.  Changing it invalidates the references.
POOL_SEED = 80941036

# analyze-json: projective bundles of 2 or 3 summands with coefficients
# 0..2 over these bases.  The pool holds 8 bundles per (base, summands);
# a run draws 3 of each, 30 bundles in all.
BUNDLE_BASES = ("p1", "p2", "p1xp1", "f1", "p3")
BUNDLE_SUMMANDS = (2, 3)
BUNDLE_POOL = 8
BUNDLE_DRAWS = 3
# Products of PRODUCT_PAIRS except bl4_1 x bl4_1, whose analyze takes
# about 94 s, and (P^1)^k up to k = 5: k = 6 and 7 take 16 s and 116 s.
SKIPPED_PRODUCTS = (("bl4_1", "bl4_1"),)
P1_POWERS = (2, 3, 4, 5)

# character-queries: divisor coefficients 0..8, a pool of 16 per corpus
# fan, 4 drawn per fan and run, one from each degree quartile.
DIVISOR_MAX = 8
DIVISOR_POOL = 16
DIVISOR_DRAWS = 4


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _lib(name):
    return importlib.import_module(f"toricgit.{name}")


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    complete: bool = True
    wall_s: float = 0.0  # host seconds, calibration samples excluded
    scale: float = 1.0  # reference seconds per host second (calibrate.py)


class Context:
    """What a pass needs from the harness: cache clearing, op marks and
    a clock that stops while host-speed samples run (calibrate.py)."""

    def __init__(self, caches, tracer=None, calibration=None):
        self.caches = caches
        self.tracer = tracer
        self.calibration = calibration
        self._reported = set()

    def clear_caches(self):
        if self.tracer is not None:
            self.tracer.note_caches(self.caches)
        for fn in self.caches.values():
            fn.cache_clear()

    def mark_op(self, index):
        if self.tracer is not None:
            self.tracer.op = index

    def clock(self):
        return perf_counter() if self.calibration is None else self.calibration.clock()

    def report(self, key, exc):
        """Print the first traceback of each exception type once."""
        kind = type(exc).__name__
        if kind not in self._reported:
            self._reported.add(kind)
            print(f"op {key} raised:", file=sys.stderr)
            traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)


def _load_reference(name):
    with open(REFERENCE_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    def __init__(self, seed):
        self.seed = seed


# ---------------------------------------------------------------------------
# check-all


class CheckAll(Workload):
    name = "check-all"
    tail_percentile = 95

    def setup(self, workdir):
        # Like every workload; run_all builds the corpus again in each
        # pass, as a fresh `check all` does.
        _lib("checks").builtin_corpus()

    def load_reference(self):
        with open(REFERENCE_DIR / "check_all.json", "r", encoding="utf-8") as fh:
            self.reference_text = fh.read()
        self.reference = [canonical(e) for e in json.loads(self.reference_text)]

    def run_pass(self, ctx, stop_at=None):
        """One ``check all --json``; the per-op clock wraps each outermost
        public check_* call in the checks namespace, where run_all looks
        its checks up."""
        checks = _lib("checks")
        cli = _lib("cli")
        timings = []
        raised = set()
        depth = [0]

        def time_op(fn):
            def op(*args, **kwargs):
                outer = depth[0] == 0
                if outer:
                    ctx.mark_op(len(timings))
                    start = ctx.clock()
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    if not outer:
                        raise
                    raised.add(len(timings))
                    ctx.report(f"check-all[{len(timings)}]", exc)
                    return checks.CheckResult(fn.__name__, False, _ErrorWitness(error=repr(exc)))
                finally:
                    depth[0] -= 1
                    if outer:
                        timings.append(ctx.clock() - start)

            return op

        names = [n for n in vars(checks) if n.startswith("check_")]
        saved = {n: getattr(checks, n) for n in names}
        for n in names:
            setattr(checks, n, time_op(saved[n]))
        ctx.clear_caches()
        out = io.StringIO()
        start = ctx.clock()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                cli.main(["check", "all", "--json"])
        except Exception as exc:
            ctx.report("check-all", exc)
        finally:
            wall = ctx.clock() - start
            for n in names:
                setattr(checks, n, saved[n])
        text = out.getvalue()
        try:
            entries = [canonical(e) for e in json.loads(text)]
        except ValueError:
            entries = []
        n_ref = len(self.reference)
        failed = sum(
            1
            for i in range(max(n_ref, len(timings)))
            if i in raised
            or i >= len(entries)
            or i >= n_ref
            or entries[i] != self.reference[i]
        )
        if text != self.reference_text:
            failed = max(failed, 1)
        return PassResult(
            latencies=timings,
            failed=failed,
            attempted=max(n_ref, len(timings)),
            wall_s=wall,
        )


class _ErrorWitness(dict):
    """Witness of a check that raised; missing keys read as None so that
    run_all can still inspect it and go on with the remaining checks."""

    def __missing__(self, key):
        return None


# ---------------------------------------------------------------------------
# op-list workloads


class OpListWorkload(Workload):
    """A seeded list of independent ops, each compared to its reference."""

    cold_per_op = False

    def run_pass(self, ctx, stop_at=None):
        result = PassResult()
        ctx.clear_caches()
        start = ctx.clock()
        for index, (key, fn) in enumerate(self.ops):
            if stop_at is not None and perf_counter() >= stop_at:
                result.complete = False
                break
            if self.cold_per_op:
                ctx.clear_caches()
            ctx.mark_op(index)
            t0 = ctx.clock()
            try:
                out = fn()
            except Exception as exc:
                result.latencies.append(ctx.clock() - t0)
                result.failed += 1
                ctx.report(key, exc)
            else:
                result.latencies.append(ctx.clock() - t0)
                if canonical(out) != self.reference[key]:
                    result.failed += 1
            result.attempted += 1
        result.wall_s = ctx.clock() - start
        return result


def bundle_pool():
    """(name, base name, summand coefficient tuples) for every pool bundle."""
    checks = _lib("checks")
    corpus = dict(checks.builtin_corpus())
    pool = []
    for base_name in BUNDLE_BASES:
        n = corpus[base_name].n_rays
        for k in BUNDLE_SUMMANDS:
            rng = random.Random(f"{POOL_SEED}:bundle:{base_name}:{k}")
            seen = set()
            while len(seen) < BUNDLE_POOL:
                spec = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(k))
                if spec in seen:
                    continue
                seen.add(spec)
                pool.append((f"bundle_{base_name}_k{k}_{len(seen) - 1}", base_name, spec))
    return pool


def analyze_fans(selected_bundles=None):
    """(name, fan) for the fixed fans plus the chosen pool bundles
    (all of the pool when selected_bundles is None)."""
    checks = _lib("checks")
    fans = _lib("fans")
    corpus = checks.builtin_corpus()
    by_name = dict(corpus)
    out = list(corpus)
    for a, b in checks.PRODUCT_PAIRS:
        if (a, b) not in SKIPPED_PRODUCTS:
            out.append((f"product_{a}_{b}", fans.product_fan(by_name[a], by_name[b])))
    p1 = by_name["p1"]
    power = p1
    for k in range(2, max(P1_POWERS) + 1):
        power = fans.product_fan(power, p1)
        if k in P1_POWERS:
            out.append((f"p1^{k}", power))
    for name, base_name, spec in bundle_pool():
        if selected_bundles is None or name in selected_bundles:
            divisors = [fans.TorusInvariantDivisor(c) for c in spec]
            out.append((name, fans.projective_bundle_fan(by_name[base_name], divisors)))
    return out


class AnalyzeJson(OpListWorkload):
    name = "analyze-json"
    tail_percentile = 80
    cold_per_op = True

    def choose_bundles(self):
        rng = random.Random(self.seed)
        chosen = []
        for base_name in BUNDLE_BASES:
            for k in BUNDLE_SUMMANDS:
                for i in sorted(rng.sample(range(BUNDLE_POOL), BUNDLE_DRAWS)):
                    chosen.append(f"bundle_{base_name}_k{k}_{i}")
        return chosen

    def setup(self, workdir):
        fans = _lib("fans")
        chosen = self.choose_bundles()
        entries = analyze_fans(set(chosen))
        random.Random(self.seed).shuffle(entries)
        self.inputs = {}
        self.ops = []
        for name, fan in entries:
            self.inputs[name] = fans.fan_to_json(fan)
            path = Path(workdir) / f"{name}.json"
            path.write_text(json.dumps(self.inputs[name], sort_keys=True), encoding="utf-8")
            self.ops.append((name, partial(analyze, str(path))))

    def load_reference(self):
        data = _load_reference("analyze_json.json")
        self.reference = {}
        for name, fan_json in self.inputs.items():
            if data[name]["fan"] != fan_json:
                raise RuntimeError(f"input {name} differs from its reference fan")
            self.reference[name] = canonical(data[name]["output"])


def analyze(path):
    """``toricgit analyze PATH --json``: exit code and both streams."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = _lib("cli").main(["analyze", path, "--json"])
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def divisor_pool(name, fan):
    rng = random.Random(f"{POOL_SEED}:divisor:{name}")
    return [
        tuple(rng.randint(0, DIVISOR_MAX) for _ in range(fan.n_rays))
        for _ in range(DIVISOR_POOL)
    ]


def character_query(fan, coefficients):
    """One ``--char`` query: signature, wall test, stable base locus and
    section count of an effective divisor.  The character coordinates
    depend on the Smith basis, so they are not part of the answer."""
    cox, vgit, fans = _lib("cox"), _lib("vgit"), _lib("fans")
    dm = cox.degree_map(fan)
    chi = dm.divisor_class(coefficients)[0]
    sig = vgit.unstable_supports(dm, chi)
    return {
        "facets": [list(f) for f in sig.facets],
        "outside_effective": sig.outside_effective,
        "on_boundary": vgit.is_boundary_character(dm, chi),
        "stable_base_locus_codim": vgit.stable_base_locus_codim(fan, dm, chi),
        "sections": fans.count_sections(fan, fans.TorusInvariantDivisor(coefficients)),
    }


class CharacterQueries(OpListWorkload):
    name = "character-queries"
    tail_percentile = 90

    def setup(self, workdir):
        corpus = list(_lib("checks").builtin_corpus())
        rng = random.Random(self.seed)
        rng.shuffle(corpus)
        self.queries = []
        for name, fan in corpus:
            pool = divisor_pool(name, fan)
            # Stratified by degree: one draw from each quarter of the pool
            # sorted by coefficient sum, since the section count, and so
            # the op's cost, grows with the divisor.
            order = sorted(range(DIVISOR_POOL), key=lambda i: (sum(pool[i]), i))
            size = DIVISOR_POOL // DIVISOR_DRAWS
            for s in range(DIVISOR_DRAWS):
                i = rng.choice(order[s * size : (s + 1) * size])
                self.queries.append((f"{name}#{i}", fan, pool[i]))
        self.ops = [(key, partial(character_query, fan, c)) for key, fan, c in self.queries]

    def load_reference(self):
        data = _load_reference("character_queries.json")
        self.reference = {}
        for key, _fan, coefficients in self.queries:
            name, i = key.split("#")
            entry = data[name][int(i)]
            if tuple(entry["coefficients"]) != coefficients:
                raise RuntimeError(f"query {key} differs from its reference input")
            self.reference[key] = canonical(entry["output"])


WORKLOADS = {w.name: w for w in (CheckAll, AnalyzeJson, CharacterQueries)}
