"""Record and certify the benchmark's reference outputs.

    python3 bench/certify.py --record   # record with the library in src/
    python3 bench/certify.py            # certify the stored references

Recording runs every input any seed can draw (the whole bundle and
divisor pools) through the same calls the workloads make and stores the
outputs under ``bench/reference/``.  Certifying checks the stored outputs
by methods other than the ones under test:

- ``check all``: 476 results, every one passing, and the stored text is the
  JSON rendering of its own entries.
- unstable supports (character-queries, and the ample character of every
  analyze-json fan): the brute-force oracle over all 2^n ray supports in
  place of the LP class-mask search.  Membership in each support's cone
  still comes from the library's double description (``cones``), so this
  oracle is independent of the search, not of the cones layer.  On
  analyze-json this ties the reported ``unstable_codim`` (a minimal
  hitting set of the irrelevant ideal) to the GIT side; the rest of each
  analyze report is recorded, not certified.
- section counts on fans of dimension <= 4: box enumeration of lattice
  points, with the box taken from writing each +-e_i in a maximal cone,
  in place of Fourier-Motzkin projection.

Exit status 1 when any stored output disagrees with its oracle.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from math import ceil, floor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from toricgit import checks, cli, cones, cox, fans  # noqa: E402
from tracer import lru_caches  # noqa: E402

REF = workloads.REFERENCE_DIR
EXPECTED_CHECKS = 476


def _write(name, data):
    """A JSON object with one key per line."""
    REF.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {workloads.canonical(data[k])}" for k in sorted(data)]
    with open(REF / name, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def record():
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["check", "all", "--json"])
    REF.mkdir(exist_ok=True)
    (REF / "check_all.json").write_text(out.getvalue(), encoding="utf-8")
    print("recorded check all", file=sys.stderr)

    analyze = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, fan in workloads.analyze_fans():
            data = fans.fan_to_json(fan)
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
            for fn in lru_caches().values():
                fn.cache_clear()
            analyze[name] = {"fan": data, "output": workloads.analyze(str(path))}
    _write("analyze_json.json", analyze)
    print(f"recorded analyze for {len(analyze)} fans", file=sys.stderr)

    queries = {}
    for name, fan in checks.builtin_corpus():
        queries[name] = [
            {"coefficients": list(c), "output": workloads.character_query(fan, c)}
            for c in workloads.divisor_pool(name, fan)
        ]
    _write("character_queries.json", queries)
    print(f"recorded {sum(map(len, queries.values()))} character queries", file=sys.stderr)


# ---------------------------------------------------------------------------
# oracles


def brute_force_facets(degrees, rank, chi, cone_cache=None):
    """Maximal supports S with chi outside cone(degrees over S), over all
    2^n supports; membership by cones.cone_from_generators(...).contains."""
    n = len(degrees)
    cone_cache = {} if cone_cache is None else cone_cache
    unstable = []
    for mask in range(2**n):
        support = tuple(i for i in range(n) if (mask >> i) & 1)
        key = tuple(sorted(set(degrees[i] for i in support)))
        if key not in cone_cache:
            cone_cache[key] = cones.cone_from_generators(rank, key)
        if not cone_cache[key].contains(chi):
            unstable.append(frozenset(support))
    maximal = [s for s in unstable if not any(s < o for o in unstable)]
    return sorted(sorted(s) for s in maximal)


def _solve(rows, rhs):
    """Exact Gauss-Jordan solve of a square nonsingular system, or None."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _box(fan, coefficients):
    """Integer bounds of u_i over {u : <u, v> >= -a_v}: write +-e_i as a
    nonnegative combination of one maximal cone's rays."""
    d = fan.dim
    lo, hi = [], []
    for i in range(d):
        bounds = []
        for sign in (1, -1):
            target = [sign if j == i else 0 for j in range(d)]
            for cone in fan.max_cones:
                rays = [fan.rays[r] for r in cone]
                lam = _solve([[v[k] for v in rays] for k in range(d)], target)
                if lam is not None and all(x >= 0 for x in lam):
                    # sign * u_i = sum lam_r <u, v_r> >= -sum lam_r a_r
                    bounds.append(-sum(x * coefficients[r] for x, r in zip(lam, cone)))
                    break
            else:
                raise ValueError("fan is not complete")
        lo.append(ceil(bounds[0]))
        hi.append(floor(-bounds[1]))
    return lo, hi


def box_count(fan, coefficients):
    """Lattice points of the divisor polytope: walk the box over the first
    d-1 coordinates and count the last one's interval directly."""
    d = fan.dim
    lo, hi = _box(fan, coefficients)
    total = 0
    for prefix in product(*(range(lo[i], hi[i] + 1) for i in range(d - 1))):
        low, high, ok = lo[-1], hi[-1], True
        for v, a in zip(fan.rays, coefficients):
            rest = a + sum(x * y for x, y in zip(v, prefix))
            c = v[-1]
            if c == 0:
                ok = ok and rest >= 0
            elif c > 0:
                low = max(low, -(rest // c))
            else:
                high = min(high, rest // -c)
        if ok and high >= low:
            total += high - low + 1
    return total


# ---------------------------------------------------------------------------


def certify():
    problems = []
    text = (REF / "check_all.json").read_text(encoding="utf-8")
    entries = json.loads(text)
    rendered = json.dumps(entries, sort_keys=True, separators=(",", ":")) + "\n"
    if len(entries) != EXPECTED_CHECKS or not all(e["passed"] for e in entries):
        problems.append("check all: not 476/476 passing")
    if rendered != text:
        problems.append("check all: stored text is not its own JSON rendering")

    corpus = dict(checks.builtin_corpus())
    with open(REF / "character_queries.json", encoding="utf-8") as fh:
        queries = json.load(fh)
    n_sig = n_box = 0
    for name, entries in queries.items():
        fan = corpus[name]
        dm = cox.degree_map(fan)
        cone_cache = {}
        for e in entries:
            c, out = tuple(e["coefficients"]), e["output"]
            chi = dm.divisor_class(c)[0]
            if brute_force_facets(dm.degrees_free, dm.cl_free_rank, chi, cone_cache) != out["facets"]:
                problems.append(f"character-queries {name} {c}: facets")
            n_sig += 1
            if fan.dim <= 4:
                if box_count(fan, c) != out["sections"]:
                    problems.append(f"character-queries {name} {c}: sections")
                n_box += 1
    print(f"certified {n_sig} signatures, {n_box} section counts", file=sys.stderr)

    with open(REF / "analyze_json.json", encoding="utf-8") as fh:
        analyze = json.load(fh)
    for name, entry in analyze.items():
        out = entry["output"]
        report = json.loads(out["stdout"])
        if out["rc"] != 0 or out["stderr"]:
            problems.append(f"analyze-json {name}: exit {out['rc']}")
            continue
        degrees = [tuple(d) for d in report["class_group"]["ray_degrees"]]
        facets = brute_force_facets(
            degrees, report["class_group"]["free_rank"], tuple(report["ample_character"])
        )
        if report["n_rays"] - max(len(f) for f in facets) != report["unstable_codim"]:
            problems.append(f"analyze-json {name}: unstable_codim")
    print(f"certified {len(analyze)} analyze reports", file=sys.stderr)
    for p in problems:
        print(f"MISMATCH {p}", file=sys.stderr)
    return not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help="record before certifying")
    args = parser.parse_args(argv)
    if args.record:
        record()
    return 0 if certify() else 1


if __name__ == "__main__":
    sys.exit(main())
