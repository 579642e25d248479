"""Outside-in tracer for the toricgit layers.

The tracer wraps every public function of the library's modules (and the
public plain methods of the classes they define) from outside the
package: the wrapper replaces the name in the defining module and in
every other toricgit module that imported the same object by name, so
calls such as ``vgit.in_cone`` or ``fans.max_strict_slack`` are seen too.
Nothing in ``src/`` is edited.

Each call records one span: (name, start, end, parent span, op, raised).
Spans live in flat arrays in memory and are written out once, at the
end of the run.  A few functions carry counters on top of the span
(rows sent to ``max_strict_slack``, chambers returned, lattice points
counted, ...), so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("linalg", "lp", "cones", "fans", "cox", "vgit", "checks", "cli")


def library_modules():
    return [importlib.import_module(f"toricgit.{layer}") for layer in LAYERS]


def lru_caches():
    """Every lru_cache-wrapped public or private function of the package,
    keyed by its qualified name."""
    caches = {}
    for module in library_modules():
        layer = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                if getattr(obj, "__module__", None) == module.__name__:
                    caches[f"{layer}.{name}"] = obj
    return caches


def _public_functions(module):
    """(qualified name, owner, attribute, function) for each public
    function defined in the module and each public plain method of the
    classes it defines."""
    layer = module.__name__.rsplit(".", 1)[1]
    out = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_") or not inspect.isfunction(member):
                    continue
                out.append((f"{layer}.{name}.{attr}", obj, attr, member))
        elif callable(obj):
            out.append((f"{layer}.{name}", module, name, obj))
    return out


class Tracer:
    """Span recorder; install() patches the library, uninstall() restores it."""

    def __init__(self, clock=perf_counter):
        self.clock = clock  # bound into the wrappers at install()
        self.names = []
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_idx = array("i")
        self.raised = bytearray()
        self._stack = []
        self.op = -1
        self.counters = {}
        self._patches = []
        self.cache_totals = {}  # name -> (hits, misses)

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = library_modules()
        for module in modules:
            for qualname, owner, attr, fn in _public_functions(module):
                wrapper = self._wrap(qualname, fn)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapper)
                    continue
                for other in modules:
                    if vars(other).get(attr) is fn:
                        self._patch(other, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, qualname, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        count = _COUNTERS.get(qualname)
        counters = self.counters
        stack = self._stack
        name_idx, start, end = self.name_idx, self.start, self.end
        parent, op_idx, raised = self.parent, self.op_idx, self.raised
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_idx.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op_idx.append(tracer.op)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- cache statistics -------------------------------------------------

    def note_caches(self, caches):
        """Accumulate hits and misses before the caches are cleared, so
        hit ratios come from cache_info() deltas over the traced work."""
        for name, fn in caches.items():
            info = fn.cache_info()
            hits, misses = self.cache_totals.get(name, (0, 0))
            self.cache_totals[name] = (hits + info.hits, misses + info.misses)

    # -- results ----------------------------------------------------------

    def aggregate(self):
        """Per-name call count, inclusive seconds, self seconds, errors."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = {}
        for i in range(n):
            name = self.names[self.name_idx[i]]
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = [0, 0.0, 0.0, 0]
            dur = end[i] - start[i]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
            entry[3] += self.raised[i]
        return stats

    def write_spans(self, path):
        """One line per span: name, start, end, parent, op, raised."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\traised\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_idx[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_idx[i]}\t"
                    f"{self.raised[i]}\n"
                )


def _add(counters, key, amount=1):
    counters[key] = counters.get(key, 0) + amount


def _count_max_strict_slack(counters, args, kwargs, result):
    rows = args[0] if args else kwargs.get("rows", ())
    _add(counters, "lp.max_strict_slack.rows", len(rows))
    _add(counters, "lp.max_strict_slack.distinct_rows", len(set(map(tuple, rows))))
    _add(counters, "lp.max_strict_slack.positive", int(result[0] > 0))


def _count_in_cone(counters, args, kwargs, result):
    _add(counters, "lp.in_cone.true", int(bool(result)))


def _count_sections(counters, args, kwargs, result):
    _add(counters, "fans.count_sections.points", result)


def _count_chambers(counters, args, kwargs, result):
    _add(counters, "vgit.enumerate_chambers.chambers", len(result))


_COUNTERS = {
    "lp.max_strict_slack": _count_max_strict_slack,
    "lp.in_cone": _count_in_cone,
    "fans.count_sections": _count_sections,
    "vgit.enumerate_chambers": _count_chambers,
}


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    stats = tracer.aggregate()
    counters = tracer.counters
    caches = tracer.cache_totals

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0, 0))[0]

    def inclusive(name):
        return stats.get(name, (0, 0.0, 0.0, 0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0, 0))[2]

    def hit_ratio(name):
        hits, misses = caches.get(name, (0, 0))
        return _ratio(hits, hits + misses)

    m = {}
    for layer in LAYERS:
        prefix = layer + "."
        m[f"{layer}.self_s"] = sum(v[2] for k, v in stats.items() if k.startswith(prefix))
        m[f"{layer}.errors"] = sum(v[3] for k, v in stats.items() if k.startswith(prefix))
    m["lp.solve_nonneg.calls"] = calls("lp.solve_nonneg")
    m["lp.max_strict_slack.calls"] = calls("lp.max_strict_slack")
    m["lp.max_strict_slack.distinct_row_ratio"] = _ratio(
        counters.get("lp.max_strict_slack.distinct_rows", 0),
        counters.get("lp.max_strict_slack.rows", 0),
    )
    m["lp.max_strict_slack.positive_ratio"] = _ratio(
        counters.get("lp.max_strict_slack.positive", 0), calls("lp.max_strict_slack")
    )
    m["lp.in_cone.calls"] = calls("lp.in_cone")
    m["lp.in_cone.true_ratio"] = _ratio(counters.get("lp.in_cone.true", 0), calls("lp.in_cone"))
    m["cones.duals_from_inequalities.calls"] = calls("cones.duals_from_inequalities")
    m["cones.cone_from_generators.calls"] = calls("cones.cone_from_generators")
    m["cones.intersect.calls"] = calls("cones.RationalCone.intersect")
    m["fans.fan_from_json.calls"] = calls("fans.fan_from_json")
    m["fans.fan_from_json.s"] = inclusive("fans.fan_from_json")
    m["fans.validate.hit_ratio"] = hit_ratio("fans.validate")
    m["fans.count_sections.calls"] = calls("fans.count_sections")
    m["fans.count_sections.self_s"] = self_s("fans.count_sections")
    m["fans.count_sections.points"] = counters.get("fans.count_sections.points", 0)
    m["vgit.unstable_supports.calls"] = calls("vgit.unstable_supports")
    m["vgit.unstable_supports.hit_ratio"] = hit_ratio("vgit.unstable_supports")
    m["vgit.enumerate_chambers.calls"] = calls("vgit.enumerate_chambers")
    m["vgit.enumerate_chambers.chambers"] = counters.get("vgit.enumerate_chambers.chambers", 0)
    m["vgit.is_boundary_character.s"] = inclusive("vgit.is_boundary_character")
    m["vgit.stable_base_locus_codim.s"] = inclusive("vgit.stable_base_locus_codim")
    m["vgit.nef_cone.hit_ratio"] = hit_ratio("vgit.nef_cone")
    m["cox.degree_map.calls"] = calls("cox.degree_map")
    m["cox.zero_locus_codim.self_s"] = self_s("cox.zero_locus_codim")
    m["linalg.smith_normal_form.calls"] = calls("linalg.smith_normal_form")
    m["linalg.matrix_rank.calls"] = calls("linalg.matrix_rank")
    m["trace.spans"] = len(tracer.start)
    return m
