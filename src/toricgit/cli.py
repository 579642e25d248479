"""Command-line front end.

Exit codes: 0 success (or property true, checks passed), 1 property
false or check failed, 2 malformed or unsupported input (an unbounded
section polytope), a simplex pivot limit, or a computation past its
budget (a section count's cone index, the chamber cell search, the
m-sets of a fan that is not complete, the entries a construction would
print).  Every verb but construct accepts --json for machine output,
and the text reports are a rendering of the same data; construct always
prints its fan as JSON.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .checks import (
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
)
from .cox import degree_map, irrelevant_ideal, zero_locus_codim
from .fans import (
    _shown,
    blowup_pn_along_linear,
    count_sections,
    divisor_from_json,
    fan_from_json,
    fan_to_json,
    is_m_neighborly,
    product_fan,
    projective_bundle_fan,
    projective_space_fan,
    validate,
)
from .vgit import (
    ample_character,
    enumerate_chambers,
    is_boundary_character,
    nef_cone,
    unstable_supports,
)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"JSON in {path} nests too deeply to read") from None


def _load_fan(path):
    return fan_from_json(_load_json(path))


def _parse_character(text, dm):
    try:
        chi = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--char expects comma-separated integers, got {_shown(text)}")
    if len(chi) != dm.cl_free_rank:
        raise ValueError(
            f"--char has {len(chi)} coordinates, class group free rank is "
            f"{dm.cl_free_rank}"
        )
    return chi


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return str(value)


def _print_report(data, indent=0):
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_report(value, indent + 1)
        else:
            print(f"{pad}{key}: {_fmt(value)}")


def _emit(data, as_json):
    if as_json:
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    elif isinstance(data, dict):
        _print_report(data)
    else:
        print(json.dumps(data, indent=2))


def _cmd_validate(args):
    _emit(vars(validate(_load_fan(args.fan))), args.json)
    return 0


def _cmd_analyze(args):
    fan = _load_fan(args.fan)
    report = validate(fan)
    ideal = irrelevant_ideal(fan)
    codim = zero_locus_codim(ideal)
    # An m-set of rays lies in no maximal cone iff it meets every generator
    # support: m-neighborly iff codim >= m + 1 (the unit ideal's n_rays + 1 gives n_rays).
    out = {
        "validation": vars(report),
        "dim": fan.dim,
        "n_rays": fan.n_rays,
        "irrelevant_ideal_generators": [list(s) for s in ideal.generator_supports],
        "unstable_codim": codim,
        "max_neighborly_m": codim - 1,
        "small_unstable_locus": codim >= 3,
        "class_group": None,
    }
    if report.complete:
        dm = degree_map(fan)
        out["class_group"] = {
            "free_rank": dm.cl_free_rank,
            "torsion": list(dm.torsion),
            "ray_degrees": [list(d) for d in dm.degrees_free],
        }
        if report.projective:
            out["ample_character"] = list(ample_character(fan, dm))
    _emit(out, args.json)
    return 0


def _cmd_neighborly(args):
    fan = _load_fan(args.fan)
    answer = is_m_neighborly(fan, args.m)
    if args.json:
        _emit({"m": args.m, "neighborly": answer}, True)
    else:
        print("true" if answer else "false")
    return 0 if answer else 1


def _cmd_chambers(args):
    fan = _load_fan(args.fan)
    dm = degree_map(fan)
    if args.char is not None:
        chi = _parse_character(args.char, dm)
        sig = unstable_supports(dm, chi)
        _emit(
            {
                "character": list(chi),
                "facets": [list(f) for f in sig.facets],
                "codim": dm.n_rays - sig.max_facet_size(),
                "outside_effective": sig.outside_effective,
                "on_boundary": is_boundary_character(dm, chi),
            },
            args.json,
        )
        return 0
    chambers = enumerate_chambers(dm)
    out = [
        {
            "interior_point": list(chi),
            "facets": [list(f) for f in sig.facets],
            "codim": dm.n_rays - sig.max_facet_size(),
        }
        for chi, sig in chambers
    ]
    _emit(out, args.json)
    return 0


def _cmd_nef(args):
    fan = _load_fan(args.fan)
    dm = degree_map(fan)
    # a bad --char is a usage error (exit 2) even on a fan with no nef cone
    chi = None if args.char is None else _parse_character(args.char, dm)
    try:
        nef = nef_cone(fan, dm)
    except ValueError as exc:
        if args.json:
            _emit({"projective": False, "error": str(exc)}, True)
        else:
            print(str(exc))
        return 1
    if chi is not None:
        inside = nef.contains(chi)
        if args.json:
            _emit({"character": list(chi), "nef": inside}, True)
        else:
            print("true" if inside else "false")
        return 0 if inside else 1
    _emit(
        {
            "generators": [list(g) for g in nef.generators],
            "ample_character": list(ample_character(fan, dm)),
        },
        args.json,
    )
    return 0


def _cmd_sections(args):
    fan = _load_fan(args.fan)
    div = divisor_from_json(_load_json(args.divisor), fan)
    count = count_sections(fan, div)
    if args.json:
        _emit({"sections": count}, True)
    else:
        print(count)
    return 0


def _as_int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer argument, got {_shown(text)}")


# Ray coordinates plus cone indices that one construct may print: pn
# and blowup-linear grow with the square of the dimension, product and
# bundle with the product of their inputs' cone counts.
MAX_CONSTRUCT_ENTRIES = 1_000_000


def _refuse_oversized(n, n_rays, n_cones):
    """Refuse, before it is built, a fan in dimension n past the limit."""
    entries = n * (n_rays + n_cones)
    if n > 0 and entries > MAX_CONSTRUCT_ENTRIES:
        raise ValueError(f"construct would print {entries} ray and cone entries, past the limit of {MAX_CONSTRUCT_ENTRIES}")


def _cmd_construct(args):
    kind, params = args.kind, args.params
    if kind == "pn":
        if len(params) != 1:
            raise ValueError("construct pn takes one argument: the dimension")
        n = _as_int(params[0])
        _refuse_oversized(n, n + 1, n + 1)
        fan = projective_space_fan(n)
    elif kind == "product":
        if len(params) != 2:
            raise ValueError("construct product takes two fan files")
        f1, f2 = map(_load_fan, params)
        _refuse_oversized(f1.dim + f2.dim, f1.n_rays + f2.n_rays, len(f1.max_cones) * len(f2.max_cones))
        fan = product_fan(f1, f2)
    elif kind == "blowup-linear":
        if len(params) != 2:
            raise ValueError(
                "construct blowup-linear takes the ambient dimension and the center dimension"
            )
        n, m = map(_as_int, params)
        _refuse_oversized(n, n + 2, (m + 2) * (n - m))  # m + 1 cones split into n - m each
        fan = blowup_pn_along_linear(n, m)
    elif kind == "bundle":
        if len(params) < 3:
            raise ValueError(
                "construct bundle takes a base fan file and at least two divisor files"
            )
        base = _load_fan(params[0])
        divisors = [divisor_from_json(_load_json(p), base) for p in params[1:]]
        k = len(divisors)
        _refuse_oversized(base.dim + k - 1, base.n_rays + k, len(base.max_cones) * k)
        fan = projective_bundle_fan(base, divisors)
    else:
        raise ValueError(f"unknown construction kind {kind!r}")
    print(json.dumps(fan_to_json(fan), sort_keys=True))
    return 0


def _on_fans(check):
    """Runner that loads each file argument as a fan and runs one check."""
    return lambda args: [check(*map(_load_fan, args.args))]


def _run_neighborly_codim(args):
    if args.m is None:
        raise ValueError("check neighborly-codim requires --m")
    return [check_neighborly_codim_equivalence(_load_fan(args.args[0]), args.m)]


def _run_bundle(args):
    files = args.args
    if len(files) < 4:
        raise ValueError(
            "check bundle takes a base fan file and at least three divisor files"
        )
    base = _load_fan(files[0])
    divisors = [divisor_from_json(_load_json(p), base) for p in files[1:]]
    options = {} if args.m_max is None else {"m_max": args.m_max}
    return [check_bundle_unstable_locus(base, divisors, **options)]


# check name -> (fan files it takes, None when it counts its own; runner
# from the parsed arguments to a list of results; the options of check
# it reads), in help order
_CHECKS = {
    "all": (0, lambda args: run_all(), ()),
    "small-unstable-locus": (1, _on_fans(check_small_unstable_locus), ()),
    "two-neighborly": (1, _on_fans(check_two_neighborly_equivalence), ()),
    "neighborly-codim": (1, _run_neighborly_codim, ("--m",)),
    "rank-one": (1, _on_fans(check_rank_one_unstable_origin), ()),
    "product": (2, _on_fans(check_product_unstable_locus), ()),
    "bundle": (None, _run_bundle, ("--m-max",)),
    "moving-vs-nef": (0, _on_fans(check_moving_vs_nef_example), ()),
    "quotient-properties": (1, _on_fans(check_quotient_properties), ()),
    "forces-nef": (1, _on_fans(check_unstable_inclusion_forces_nef), ()),
}


def _cmd_check(args):
    want, run, reads = _CHECKS[args.name]
    got = len(args.args)
    if want != 0 and not got:
        raise ValueError(f"check {args.name} needs input files")
    if want is not None and got != want:
        files = ("no fan files", "1 fan file", "2 fan files")[want]
        raise ValueError(f"check {args.name} takes {files}, got {got}")
    for flag, value in (("--m", args.m), ("--m-max", args.m_max)):
        if value is not None and flag not in reads:
            raise ValueError(f"check {args.name} does not take {flag}")
    results = run(args)
    if args.json:
        _emit([r.as_json() for r in results], True)
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            if len(results) == 1 or not r.passed:
                print(f"{status} {r.name} {json.dumps(r.as_json()['witness'], sort_keys=True)}")
            else:
                print(f"{status} {r.name}")
        if len(results) > 1:
            n_pass = sum(1 for r in results if r.passed)
            print(f"{n_pass}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


_FAN = ("fan", "fan JSON file", None, False)
_DIVISOR = ("divisor", "divisor JSON file with 'coefficients'", None, False)
_JSON = ("--json", bool, False, False, "machine-readable output")
_BARE_JSON = ("--json", bool, False, False, None)
_CHAR = ("--char", str, None, False, "comma-separated character coordinates")
_REQUIRED_M = ("--m", int, None, True, None)

# verb -> (help text, handler, positionals, *options), in help order.  A
# positional is (name, help, choices, takes any number: the last only);
# an option is (flag, type or bool for a bare flag, default, required,
# help), stored as argparse does under the flag less "--", "-" as "_".
_VERBS = {
    "validate": ("report simplicial/smooth/complete/projective flags", _cmd_validate, [_FAN], _JSON),
    "analyze": ("full combinatorial report for one fan", _cmd_analyze, [_FAN], _JSON),
    "neighborly": ("test whether any m rays span a cone", _cmd_neighborly, [_FAN], _JSON, _REQUIRED_M),
    "chambers": ("enumerate GIT chambers or classify one character", _cmd_chambers, [_FAN], _JSON, _CHAR),
    "nef": ("nef cone generators, or membership with --char", _cmd_nef, [_FAN], _JSON, _CHAR),
    "sections": ("count global sections of a divisor", _cmd_sections, [_FAN, _DIVISOR], _BARE_JSON),
    "construct": (
        "emit a fan built by a named constructor",
        _cmd_construct,
        [("kind", None, ("pn", "product", "blowup-linear", "bundle"), False), ("params", None, None, True)],
    ),
    "check": (
        "run a named verification or the whole suite",
        _cmd_check,
        [("name", None, tuple(_CHECKS), False), ("args", "input files for the chosen check", None, True)],
        ("--m", int, None, False, "neighborliness degree"),
        ("--m-max", int, None, False, "largest scaling to try"),
        _BARE_JSON,
    ),
}


def _parse(argv):
    """argv's arguments read from _VERBS, with the verb's handler as
    args.handler, or None for the full parser.  Read are a known verb,
    exact option names once each, values that pass their type and one
    run of positionals, where no value or positional starts with "-"."""
    if not argv or argv[0] not in _VERBS:
        return None
    _, handler, positionals, *options = _VERBS[argv[0]]
    kinds = {opt[0]: opt[1] for opt in options}
    given, places = {}, []
    tokens = enumerate(argv[1:])
    for i, token in tokens:
        if not token.startswith("-"):
            places.append(i)
        elif token in given or token not in kinds:
            return None
        elif kinds[token] is bool:
            given[token] = True
        else:
            value = next(tokens, (i, "-"))[1]  # "-" when none follows
            if value.startswith("-"):
                return None
            try:
                given[token] = kinds[token](value)
            except ValueError:
                return None
    n, many = len(places), positionals[-1][3]
    fits = n == len(positionals) or many and n + 1 >= len(positionals)
    if not n or not fits or places[-1] - places[0] >= n:
        return None  # no positionals, a wrong count, or a split run
    words = argv[1 + places[0] : 1 + places[0] + n]
    args = SimpleNamespace(handler=handler)
    for k, (name, _, choices, many) in enumerate(positionals):
        if choices is not None and words[k] not in choices:
            return None
        setattr(args, name, words[k:] if many else words[k])
    for flag, _, default, required, _ in options:
        if required and flag not in given:
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _build_parser():
    """The full argparse parser, a subparser per verb of _VERBS; it runs
    only on what _parse declines: every help, usage and error text."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse echoes a bad argument whole
            words = (f"{w[:100]}..." if w[100:] else w for w in message.split(" "))
            super().error(" ".join(words))

    parser = Parser(
        prog="toricgit",
        description="Exact GIT and chamber computations for simplicial toric fans.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def bounded_int(text):  # argparse's own int error would echo text whole
        try:
            return int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None

    for name, (helptext, handler, positionals, *options) in _VERBS.items():
        p = sub.add_parser(name, help=helptext)
        for pos, text, choices, many in positionals:
            p.add_argument(pos, help=text, choices=choices, nargs="*" if many else None)
        for flag, kind, default, required, text in options:
            how = {"action": "store_true"} if kind is bool else {"type": bounded_int if kind is int else kind}
            p.add_argument(flag, default=default, required=required, help=text, **how)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv) or _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        if isinstance(exc, json.JSONDecodeError):
            exc = f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        elif isinstance(exc, OSError) and exc.filename is not None:
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
