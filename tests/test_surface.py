"""Source-level rules: no dead public names, nothing unreachable from
cli.main, no bare asserts, no unbounded caches, no floats, no LP in the
cone-duality layer, no primal simplex, one Bareiss update, every limit
named, one layer list.

The public surface follows the rule the benchmark tracer wraps by: every
name without a leading underscore that a layer module defines, and every
public method or property of the classes it defines (exceptions aside).
A public name is live when some expression in src/ refers to it; an
import alone does not count.  Reachability from cli.main is the same
rule made transitive, so a routine that only a test-only routine calls
is dead too.  The independent oracles the tests compare the library
against live in tests/oracles.py, not in src/.
"""

import ast
import importlib
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricgit"
LAYERS = ("linalg", "lp", "cones", "fans", "cox", "vgit", "checks", "cli")
MEMBER_KINDS = (property, classmethod, staticmethod)


def public_names():
    """(qualified name, bare name, is a module-level function)."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"toricgit.{layer}")
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, BaseException):
                    continue
                for attr, member in sorted(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, MEMBER_KINDS):
                        out.append((f"{layer}.{name}.{attr}", attr, False))
            elif callable(obj):
                out.append((f"{layer}.{name}", name, True))
    return out


def src_trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def references(nodes):
    """(bare names, attribute names) referred to anywhere in nodes."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
    return names, attrs


def test_every_public_name_is_used_in_src():
    trees = src_trees()
    names, attrs = references(trees.values())
    surface = public_names()
    # the scans themselves found every module
    assert {f"{layer}.py" for layer in LAYERS} <= set(trees)
    assert {qual.split(".")[0] for qual, _, _ in surface} == set(LAYERS)
    unused = sorted(
        qual
        for qual, bare, is_function in surface
        if bare not in attrs and not (is_function and bare in names)
    )
    assert unused == []


def test_every_definition_is_reachable_from_main():
    # A definition is reached when cli.main, a module-level statement
    # other than an import, or the body of a reached definition names it,
    # bare or as an attribute; a method only as an attribute.  A reached
    # class reaches its dunder methods, which Python calls for it.  Every
    # top-level function and class, private or public, and every public
    # method must be reached: a routine in src/ that only the tests call,
    # and whatever only it calls, is not.
    defs = {}  # qualified name -> (bare name, is a method, references of its body)
    roots = []
    for file, tree in src_trees().items():
        layer = file[: -len(".py")]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{layer}.{node.name}"] = (node.name, False, [node])
            elif isinstance(node, ast.ClassDef):
                qual = f"{layer}.{node.name}"
                own = node.decorator_list + node.bases + node.keywords
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef) or m.name.startswith("__"):
                        own.append(m)
                    else:
                        defs[f"{qual}.{m.name}"] = (m.name, True, [m])
                defs[qual] = (node.name, False, own)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append(node)
    # the scan itself found every module
    assert {qual.split(".")[0] for qual in defs} >= set(LAYERS)
    names, attrs = references(roots + defs["cli.main"][2])
    reached = {"cli.main"}
    while True:
        new = [
            qual
            for qual, (bare, is_method, _) in defs.items()
            if qual not in reached and bare in (attrs if is_method else names | attrs)
        ]
        if not new:
            break
        reached.update(new)
        more_names, more_attrs = references(n for qual in new for n in defs[qual][2])
        names |= more_names
        attrs |= more_attrs
    unreached = sorted(
        qual
        for qual, (bare, is_method, _) in defs.items()
        if qual not in reached and not (is_method and bare.startswith("_"))
    )
    assert unreached == []


def test_imports_reach_only_earlier_layers():
    # A layer imports only layers before it in LAYERS, at module level or
    # inside a function, so no lazy import reaches up: the section counts
    # of fans read no class group from cox or vgit.
    def imported(node):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("toricgit"):
                rest = node.module.split(".")[1:]
            elif node.level > 0:
                rest = node.module.split(".") if node.module else []
            else:
                return []
            return rest[:1] or [a.name for a in node.names]
        if isinstance(node, ast.Import):
            return [a.name.split(".")[1] for a in node.names if a.name.startswith("toricgit.")]
        return []

    found, upward = 0, []
    for file, tree in src_trees().items():
        layer = file[: -len(".py")]
        for node in ast.walk(tree):
            for target in imported(node):
                found += 1
                if layer not in LAYERS or LAYERS.index(target) >= LAYERS.index(layer):
                    upward.append((file, node.lineno, target))
    assert found > 20  # the scan itself found the imports
    assert upward == []


def test_no_assert_statements_in_src():
    # python -O strips assert statements; invariants must raise explicitly.
    found = [
        (name, node.lineno)
        for name, tree in src_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_fraction_in_the_simplex_inner_loop():
    # The dual simplex, the scaled inverse and the hyperplane search of
    # the basis table pivot on integer tableaux through linalg._pivot,
    # and a solution is read off scaled, so none of them names a
    # Fraction.  A name that is Fraction itself or a module-level
    # Fraction constant (such as lp._ZERO) counts as a use.
    from fractions import Fraction

    inner = {
        "linalg": {"_pivot", "scaled_inverse"},
        "lp": {"_dual_simplex"},
        "cones": {"_hyperplanes"},
    }
    trees = src_trees()
    functions = [
        (importlib.import_module(f"toricgit.{layer}"), node)
        for layer, names in inner.items()
        for node in trees[f"{layer}.py"].body
        if isinstance(node, ast.FunctionDef) and node.name in names
    ]
    assert {f.name for _, f in functions} == set().union(*inner.values())

    def is_fraction(module, node):
        if isinstance(node, ast.Attribute):
            return node.attr == "Fraction"
        return isinstance(node, ast.Name) and (
            node.id == "Fraction" or isinstance(getattr(module, node.id, None), Fraction)
        )

    found = [
        (f.name, node.lineno)
        for module, f in functions
        for node in ast.walk(f)
        if is_fraction(module, node)
    ]
    assert found == []
    lp = importlib.import_module("toricgit.lp")
    assert not [node.lineno for node in ast.walk(trees["lp.py"]) if is_fraction(lp, node)]


def test_one_bareiss_update():
    # The fraction-free update (p * x - f * y) // d, a floor division of
    # a difference of two products, is written once: in linalg._pivot,
    # behind ranks, determinants, the scaled inverse, the dual simplex
    # and the basis table's hyperplane search.
    def is_update(node):
        diff = getattr(node, "left", None)
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.FloorDiv)
            and isinstance(diff, ast.BinOp)
            and isinstance(diff.op, ast.Sub)
            and all(
                isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mult)
                for t in (diff.left, diff.right)
            )
        )

    trees = src_trees()
    found = [
        (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if is_update(node)
    ]
    pivot = next(
        node
        for node in trees["linalg.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_pivot"
    )
    inside = [("linalg.py", node.lineno) for node in ast.walk(pivot) if is_update(node)]
    assert inside and found == inside


def test_every_cache_is_bounded():
    # functools.cache and lru_cache(maxsize=None) grow without bound in a
    # long-running process.
    def named(node, name):
        return (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        )

    def unbounded(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "functools" and any(a.name == "cache" for a in node.names)
        if isinstance(node, ast.Attribute):
            return named(node.value, "functools") and node.attr == "cache"
        if isinstance(node, ast.Call) and named(node.func, "lru_cache"):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)
        return False

    found = [
        (name, node.lineno)
        for name, tree in src_trees().items()
        for node in ast.walk(tree)
        if unbounded(node)
    ]
    assert found == []


def test_no_floats_in_src():
    # Every answer is exact: no float literal, no use of the name float,
    # and none of the transcendental functions that return one.
    banned = {"exp", "log", "sqrt"}

    def floating(node):
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (float, complex))
        if isinstance(node, ast.Name):
            return node.id == "float"
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr in banned
            )
        if isinstance(node, ast.ImportFrom):
            return node.module == "math" and any(
                a.name in banned for a in node.names
            )
        return False

    found = [
        (name, node.lineno)
        for name, tree in src_trees().items()
        for node in ast.walk(tree)
        if floating(node)
    ]
    assert found == []


def test_cones_uses_no_lp():
    # Double description decides adjacency from tight sets and keeps
    # the lineality basis its elimination leaves, and the basis table
    # signs its normals by dot products, so cones needs nothing of lp:
    # the hyperplane search takes its cached identity from linalg.  lp
    # defines the chamber LP and its pivot limit, nothing else.
    trees = src_trees()
    lp_names = set()
    for node in trees["lp.py"].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            lp_names.add(node.name)
        elif isinstance(node, ast.Assign):
            lp_names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert lp_names == {"SlackTableau", "_dual_simplex", "_pivot_rule", "_MAX_PIVOTS", "PivotLimit"}
    used = set()
    for node in ast.walk(trees["cones.py"]):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    assert used & lp_names == set()
    package = {n.module for n in trees["cones.py"].body if isinstance(n, ast.ImportFrom) and n.level}
    assert package == {"linalg"}


def test_neighborliness_reads_nothing_of_cox():
    # neighborly-codim-equivalence holds is_m_neighborly against cox's
    # smallest hitting set, so the face count must stay a second route:
    # neither it, _face_numbers nor any function of fans they reach
    # names a function, class or constant that cox defines.
    trees = src_trees()
    cox_names = set()
    for node in trees["cox.py"].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            cox_names.add(node.name)
        elif isinstance(node, ast.Assign):
            cox_names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    functions = {n.name: n for n in trees["fans.py"].body if isinstance(n, ast.FunctionDef)}
    reached, todo, used = set(), ["is_m_neighborly", "_face_numbers"], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        names, attrs = references([functions[name]])
        used |= names | attrs
        todo.extend(names & functions.keys())
    assert {"is_m_neighborly", "_face_numbers", "_walls", "_cone_inverses", "_probe"} <= reached
    assert used & cox_names == set()
    assert "cox" not in {n.module for n in trees["fans.py"].body if isinstance(n, ast.ImportFrom)}


def test_projectivity_runs_no_lp():
    # validate and vgit.nef_cone read one double description of the
    # wall rows, fans._nef_off: no module names the strict-slack LP's
    # old entry point, and vgit reads neither the wall rows nor an
    # inverse of its own.
    trees = src_trees()
    names = {
        name: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        | {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.alias))}
        for name, tree in trees.items()
    }
    assert not [name for name, used in names.items() if "max_strict_slack" in used]
    imports = {
        (name, node.module): {a.name for a in node.names}
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
    }
    assert imports[("vgit.py", "fans")] == {"_nef_off"}
    assert [key for key, names in imports.items() if key[0] == "vgit.py" and "scaled_inverse" in names] == []


def test_only_the_chamber_lp_and_its_limit_import_lp():
    # lp keeps the feasibility LP of the chamber cell search, and exact
    # elimination, the scaled inverse included, lives in linalg: vgit
    # imports the tableau, cli the pivot limit it turns into exit 2, and
    # no other module imports lp, at module level or inside a function.
    def from_lp(node):
        # the names imported from lp, or {"lp"} for the module itself
        if isinstance(node, ast.Import):
            return {"lp" for a in node.names if a.name == "toricgit.lp"}
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "toricgit").removeprefix("toricgit.")
            names = {a.name for a in node.names}
            if module == "lp":
                return names
            if module == "toricgit":
                return names & {"lp"}
        return set()

    found = {}
    for name, tree in src_trees().items():
        for node in ast.walk(tree):
            names = from_lp(node)
            if names:
                found.setdefault(name, set()).update(names)
    assert found == {"vgit.py": {"SlackTableau"}, "cli.py": {"PivotLimit"}}


def test_section_counts_run_no_double_description():
    # Every section count, over rays that span or not, reads its
    # divisor's chamber off the basis table of the rays' classes: fans
    # does not import the double description's routine, and neither the
    # count nor the two functions of its route name it.
    tree = src_trees()["fans.py"]
    imported = {a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "duals_from_inequalities" not in imported
    route = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("_chamber", "_gale", "count_sections")
    ]
    assert len(route) == 3
    assert [node.name for node in route if "duals_from_inequalities" in set.union(*references([node]))] == []


def test_no_primal_simplex_in_src():
    # A section count reads its divisor's chamber off the basis table,
    # so nothing in src/ runs the primal simplex: no module defines or
    # names lp's old primal loop, _simplex_core (its copy is the oracle
    # simplex_core), the one loop that follows the pivot rule is the
    # dual simplex, and no SlackTableau method names anything else, so
    # the chamber cell search cannot drift back to a primal phase.
    def named(node, name):
        names, attrs = references([node])
        return name in names | attrs

    trees = src_trees()
    assert [name for name, tree in trees.items() if named(tree, "_simplex_core")] == []
    loops = [
        node.name
        for node in trees["lp.py"].body
        if isinstance(node, ast.FunctionDef) and named(node, "_pivot_rule")
    ]
    assert loops == ["_dual_simplex"]
    tableau = next(
        node
        for node in trees["lp.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "SlackTableau"
    )
    methods = [m for m in tableau.body if isinstance(m, ast.FunctionDef)]
    assert {"solve", "with_rows", "scaled_solution"} <= {m.name for m in methods}
    assert [m.name for m in methods if named(m, "_pivot_rule")] == []


def test_only_the_four_constructors_trust_their_fans():
    # A fan built with _trusted=True skips the simplicial test and the
    # fan axiom, so only constructors whose cones are independent and
    # form a fan by construction may pass it: products and bundles are
    # block-triangular, and a star subdivision swaps a face ray for a
    # barycenter with a nonzero coefficient on that ray.
    def enclosing(tree):
        parent = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parent[child] = node
        return parent

    found = []
    for name, tree in src_trees().items():
        parent = enclosing(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg == "_trusted":
                outer = node
                while not isinstance(outer, (ast.FunctionDef, ast.Module)):
                    outer = parent[outer]
                value = ast.literal_eval(node.value)
                found.append((name, getattr(outer, "name", None), value))
    assert sorted(found) == [
        ("fans.py", "product_fan", True),
        ("fans.py", "projective_bundle_fan", True),
        ("fans.py", "projective_space_fan", True),
        ("fans.py", "star_subdivision", True),
    ]


def test_every_limit_is_named():
    # The inventory of what refuses input: the work budgets (the basis
    # table's among them), the pivot limit, the class-count guard of the
    # readers that build 2**k-bit sets (membership and chamber keys,
    # through one helper), the hitting-set cap and the size of a printed
    # construction.  Each is a module-level int that exactly one
    # function of src/ reads, so a new cap fails here until it is named;
    # an inline one, a size compared with a literal, fails below.
    trees = src_trees()
    limits = [
        node.targets[0].id
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and type(node.value.value) is int
    ]
    readers = {
        limit: [
            f"{name}:{node.name}"
            for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and limit in set.union(*references([node]))
        ]
        for limit in limits
    }
    assert readers == {
        "_INDEX_BUDGET": ["fans.py:_charge"],
        "_NEIGHBORLY_BUDGET": ["fans.py:is_m_neighborly"],
        "_TABLEAU_BUDGET": ["vgit.py:_enumerate_cells"],
        "_MAX_PIVOTS": ["lp.py:_pivot_rule"],
        "_TABLE_BUDGET": ["cones.py:_hyperplanes"],
        "MAX_DEGREE_CLASSES": ["vgit.py:_bit_set_classes"],
        "MAX_HITTING_SET_VARS": ["cox.py:zero_locus_codim"],
        "MAX_CONSTRUCT_ENTRIES": ["cli.py:_refuse_oversized"],
    }

    def literal(node):
        return isinstance(node, ast.Constant) and type(node.value) is int and node.value > 1

    found = [
        (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators)
        if (isinstance(op, ast.Gt) and literal(right)) or (isinstance(op, ast.Lt) and literal(left))
    ]
    assert found == []


def test_one_layer_list():
    # The layer list of tests/conftest.py, of this file and of the
    # benchmark's tracer (read here, not imported) is the module set of
    # src/toricgit/: the tracer clears the caches of the modules it
    # lists between passes, so a cache in a module outside the list
    # would stay warm and its timings would come from warm caches.
    def layers(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return next(
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
        )

    root = SRC.parent.parent
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    conftest = layers(root / "tests" / "conftest.py")
    assert set(conftest) == modules and len(conftest) == len(modules)
    assert layers(root / "bench" / "tracer.py") == conftest == LAYERS
