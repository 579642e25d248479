"""Named verifications that compose the fan, Cox, and GIT layers.

Each check builds its own data, states a single combinatorial claim,
and returns a CheckResult whose witness carries the computed
quantities, so a failure is replayable from the witness alone.  The
claims come in two flavors: equivalences expected to hold on every
complete simplicial projective fan, and instance checks whose expected
outcome (including expected failure) is part of the suite definition
in run_all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .cox import _acts_freely, degree_map, irrelevant_ideal, zero_locus_codim
from .fans import (
    TorusInvariantDivisor,
    blowup_pn_along_linear,
    bundle_o1_divisor,
    count_sections,
    is_m_neighborly,
    product_fan,
    projective_bundle_fan,
    projective_space_fan,
    star_subdivision,
    validate,
)
from .linalg import _bareiss, _dot
from .lp import scaled_inverse
from .vgit import (
    ample_character,
    chamber_signatures,
    moving_cone,
    nef_cone,
    stable_base_locus_codim,
    unstable_codim,
    unstable_inclusion_forces_nef,
    unstable_supports,
)


PRODUCT_PAIRS = (
    ("p1", "p1"),
    ("p1", "p2"),
    ("p1", "p3"),
    ("p2", "p2"),
    ("p2", "p3"),
    ("f1", "p1"),
    ("f1", "p2"),
    ("f1", "f1"),
    ("bl3_0", "p1"),
    ("bl4_1", "bl4_1"),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: dict

    def as_json(self):
        return {"name": self.name, "passed": self.passed, "witness": _jsonable(self.witness)}


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _require_projective(fan):
    report = validate(fan)
    if not report.projective:
        raise ValueError("check requires a complete projective fan")


def check_small_unstable_locus(fan) -> CheckResult:
    """Unstable locus of the ample chamber has codimension >= 3."""
    _require_projective(fan)
    dm = degree_map(fan)
    amp = ample_character(fan, dm)
    codim = unstable_codim(dm, amp)
    return CheckResult(
        "small-unstable-locus",
        codim >= 3,
        {"ample_character": list(amp), "unstable_codim": codim},
    )


def check_two_neighborly_equivalence(fan) -> CheckResult:
    """2-neighborliness decides codim >= 3, by two independent routes.

    Neighborliness is tested by pairwise cone containment; the
    codimension is the size of a smallest set of rays meeting every
    generator support of the irrelevant ideal (a smallest hitting set).
    Neither side touches the GIT layer.
    """
    _require_projective(fan)
    neighborly = is_m_neighborly(fan, 2)
    codim = zero_locus_codim(irrelevant_ideal(fan))
    return CheckResult(
        "two-neighborly-equivalence",
        neighborly == (codim >= 3),
        {"two_neighborly": neighborly, "irrelevant_codim": codim},
    )


def check_neighborly_codim_equivalence(fan, m) -> CheckResult:
    """m-neighborliness is equivalent to unstable codimension >= m+1."""
    _require_projective(fan)
    neighborly = is_m_neighborly(fan, m)
    codim = zero_locus_codim(irrelevant_ideal(fan))
    return CheckResult(
        "neighborly-codim-equivalence",
        neighborly == (codim >= m + 1),
        {"m": m, "m_neighborly": neighborly, "irrelevant_codim": codim},
    )


def check_rank_one_unstable_origin(fan) -> CheckResult:
    """Rank-one fans: only the origin is unstable, codimension dim+1.

    Requires a torsion-free class group of rank one; dimension below 2
    is reported as a failed result (the codimension bound dies there)
    rather than an error.
    """
    _require_projective(fan)
    dm = degree_map(fan)
    if dm.torsion:
        raise ValueError("class group has torsion; unsupported lattice")
    if dm.cl_free_rank != 1:
        raise ValueError(f"class group rank is {dm.cl_free_rank}, expected 1")
    if fan.dim < 2:
        return CheckResult(
            "rank-one-unstable-origin",
            False,
            {"reason": "fan dimension below 2", "dim": fan.dim},
        )
    amp = ample_character(fan, dm)
    sig = unstable_supports(dm, amp)
    codim = unstable_codim(dm, amp)
    return CheckResult(
        "rank-one-unstable-origin",
        sig.facets == ((),) and codim == fan.dim + 1 and codim >= 3,
        {"facets": list(sig.facets), "unstable_codim": codim, "dim": fan.dim},
    )


def _divisor_with_class_multiple(dm, chi):
    """Integer divisor whose class is a positive multiple of chi.

    Picks the first spanning subset of degree vectors in order, the
    pivot columns of the transposed degree matrix, and solves for the
    coefficients there: with (inv, d) their scaled inverse, v = inv . chi
    is d times the solution and v / gcd(d, v) clears its denominators.
    All other rays get coefficient zero.
    """
    degrees = list(zip(*dm.degrees_free))  # one column per ray
    idx = _bareiss(degrees)[0]
    if len(idx) < dm.cl_free_rank:
        raise AssertionError("degree vectors span the class lattice")
    inv, d = scaled_inverse([[row[j] for j in idx] for row in degrees])
    v = [_dot(row, chi) for row in inv]
    g = gcd(d, *v)
    coeffs = [0] * dm.n_rays
    for j, c in zip(idx, v):
        coeffs[j] = c // g
    return TorusInvariantDivisor(tuple(coeffs))


def _random_nef_divisor(fan, dm, rng):
    gens = nef_cone(fan, dm).generators
    chi = tuple(
        sum(rng.randint(0, 2) * g[i] for g in gens) for i in range(dm.cl_free_rank)
    )
    return _divisor_with_class_multiple(dm, chi)


def check_product_unstable_locus(f1, f2) -> CheckResult:
    """Product fan: codim is the min, facets are the two lifted families.

    Verifies three things on the product of two projective fans: the
    ample unstable codimension equals the minimum of the factors', the
    maximal unstable supports are exactly {S1 + all of factor 2} and
    {all of factor 1 + S2}, and section counts multiply for three
    seeded random nef divisors per factor.
    """
    _require_projective(f1)
    _require_projective(f2)
    prod = product_fan(f1, f2)
    dm1, dm2, dmp = degree_map(f1), degree_map(f2), degree_map(prod)
    a1 = ample_character(f1, dm1)
    a2 = ample_character(f2, dm2)
    ap = ample_character(prod, dmp)
    c1, c2 = unstable_codim(dm1, a1), unstable_codim(dm2, a2)
    cp = unstable_codim(dmp, ap)
    n1, n2 = f1.n_rays, f2.n_rays
    full1 = tuple(range(n1))
    full2 = tuple(range(n1, n1 + n2))
    expected = tuple(
        sorted(
            {tuple(sorted(f + full2)) for f in unstable_supports(dm1, a1).facets}
            | {
                full1 + tuple(i + n1 for i in f)
                for f in unstable_supports(dm2, a2).facets
            }
        )
    )
    got = unstable_supports(dmp, ap).facets
    rng = random.Random(n1 * 1000003 + n2)
    trials = []
    for _ in range(3):
        d1 = _random_nef_divisor(f1, dm1, rng)
        d2 = _random_nef_divisor(f2, dm2, rng)
        left = count_sections(
            prod, TorusInvariantDivisor(d1.coefficients + d2.coefficients)
        )
        right = count_sections(f1, d1) * count_sections(f2, d2)
        trials.append({"product_count": left, "factor_product": right})
    return CheckResult(
        "product-unstable-locus",
        cp == min(c1, c2)
        and got == expected
        and all(t["product_count"] == t["factor_product"] for t in trials),
        {
            "codims": [c1, c2, cp],
            "facets": list(got),
            "expected_facets": list(expected),
            "section_trials": trials,
        },
    )


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _divisor_combination(divisors, coefficients):
    acc = TorusInvariantDivisor((0,) * len(divisors[0].coefficients))
    for d, a in zip(divisors, coefficients):
        if a:
            acc = acc.plus(d.scale(a))
    return acc


def check_bundle_unstable_locus(base, divisors, m_max=8) -> CheckResult:
    """Projectivized sum of k >= 3 line bundles over a good base.

    Searches m = 1..m_max for a scaling where the bundle fan has a
    small unstable locus, the maximal unstable supports split into the
    lifted base family plus the all-fiber-coordinates-zero stratum, and
    twisted section counts match the direct-image sums for d <= 2.
    The witness records the minimal working m.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    _require_projective(base)
    k = len(divisors)
    if k < 3:
        raise ValueError(f"need at least 3 line bundle summands, got {k}")
    if not check_small_unstable_locus(base).passed:
        raise ValueError("base unstable locus has codimension below 3")
    dm_base = degree_map(base)
    amp_base = ample_character(base, dm_base)
    base_facets = unstable_supports(dm_base, amp_base).facets
    n = base.n_rays
    fiber = tuple(range(n, n + k))
    expected = tuple(
        sorted({tuple(sorted(f + fiber)) for f in base_facets} | {tuple(range(n))})
    )
    attempts = []
    for m in range(1, m_max + 1):
        scaled = [d.scale(m) for d in divisors]
        bundle = projective_bundle_fan(base, scaled)
        dmb = degree_map(bundle)
        amp = ample_character(bundle, dmb)
        codim = unstable_codim(dmb, amp)
        facets = unstable_supports(dmb, amp).facets
        sections_ok = True
        counts = []
        for d in range(3):
            left = count_sections(bundle, bundle_o1_divisor(scaled, d))
            right = sum(
                count_sections(base, _divisor_combination(scaled, a))
                for a in _compositions(d, k)
            )
            counts.append({"d": d, "bundle": left, "base_sum": right})
            sections_ok = sections_ok and left == right
        record = {
            "m": m,
            "unstable_codim": codim,
            "facets_match": facets == expected,
            "section_counts": counts,
        }
        attempts.append(record)
        if codim >= 3 and facets == expected and sections_ok:
            return CheckResult(
                "bundle-unstable-locus",
                True,
                {
                    "minimal_m": m,
                    "unstable_codim": codim,
                    "facets": list(facets),
                    "section_counts": counts,
                },
            )
    return CheckResult(
        "bundle-unstable-locus", False, {"m_max": m_max, "attempts": attempts}
    )


def _bundle_over_blowup_data():
    """Base and summands for the bundle-over-a-blowup example.

    The base is the blowup of projective 4-space along a line; the
    three summands are the exceptional divisor and two hyperplanes.
    """
    base = blowup_pn_along_linear(4, 1)
    n = base.n_rays
    exceptional = TorusInvariantDivisor(tuple(int(i == n - 1) for i in range(n)))
    hyperplane = TorusInvariantDivisor(tuple(int(i == n - 2) for i in range(n)))
    return base, (exceptional, hyperplane, hyperplane)


def bundle_over_blowup_fan(m=1):
    """The 9-ray, 6-dimensional bundle fan over the line blowup of P4."""
    base, divisors = _bundle_over_blowup_data()
    return projective_bundle_fan(base, [d.scale(m) for d in divisors])


def check_moving_vs_nef_example() -> CheckResult:
    """Self-contained example where moving strictly exceeds nef.

    Builds the bundle over the line blowup of P4 at the minimal
    working m, then verifies: small unstable locus, stable base locus
    of the relative hyperplane class has codimension exactly 3, nef is
    contained in moving, and some moving generator certifies that the
    containment is strict.  The ample class must have empty stable
    base locus.
    """
    base, divisors = _bundle_over_blowup_data()
    inner = check_bundle_unstable_locus(base, divisors, m_max=8)
    if not inner.passed:
        return CheckResult("moving-vs-nef", False, {"bundle_search": inner.witness})
    m = inner.witness["minimal_m"]
    scaled = [d.scale(m) for d in divisors]
    bundle = projective_bundle_fan(base, scaled)
    dm = degree_map(bundle)
    chi = dm.divisor_class(bundle_o1_divisor(scaled).coefficients)[0]
    locus_codim = stable_base_locus_codim(bundle, dm, chi)
    nef = nef_cone(bundle, dm)
    moving = moving_cone(dm)
    nef_inside = all(moving.contains(g) for g in nef.generators)
    separating = next((g for g in moving.generators if not nef.contains(g)), None)
    amp = ample_character(bundle, dm)
    ample_locus = stable_base_locus_codim(bundle, dm, amp)
    return CheckResult(
        "moving-vs-nef",
        unstable_codim(dm, amp) >= 3
        and locus_codim == 3
        and nef_inside
        and separating is not None
        and ample_locus is None,
        {
            "m": m,
            "relative_hyperplane_class": list(chi),
            "stable_base_locus_codim": locus_codim,
            "separating_character": None if separating is None else list(separating),
            "ample_base_locus": "empty" if ample_locus is None else ample_locus,
        },
    )


def check_quotient_properties(fan) -> CheckResult:
    """Ample-chamber sanity: codim >= 2, choice-independence, free action.

    Two distinct interior points of the nef cone must give identical
    signatures, the ample unstable codimension is at least 2, and on a
    smooth fan the torus acts freely on the semistable locus, as tested
    on the grading by the stabiliser of each maximal cone.
    """
    _require_projective(fan)
    dm = degree_map(fan)
    nef = nef_cone(fan, dm)
    amp1 = ample_character(fan, dm)
    amp2 = tuple(a + g for a, g in zip(amp1, nef.generators[0]))
    codim = unstable_codim(dm, amp1)
    same_signature = unstable_supports(dm, amp1) == unstable_supports(dm, amp2)
    free_ok = (not validate(fan).smooth) or _acts_freely(fan, dm)
    return CheckResult(
        "quotient-properties",
        codim >= 2 and same_signature and free_ok,
        {
            "unstable_codim": codim,
            "signatures_agree": same_signature,
            "free_action_on_smooth": free_ok,
        },
    )


def check_unstable_inclusion_forces_nef(fan) -> CheckResult:
    """Chamber scan: containing the ample unstable locus forces nef."""
    _require_projective(fan)
    dm = degree_map(fan)
    forced = unstable_inclusion_forces_nef(fan, dm)
    return CheckResult(
        "unstable-inclusion-forces-nef",
        forced,
        {"n_chambers": len(chamber_signatures(dm))},
    )


@lru_cache(maxsize=1)
def builtin_corpus():
    """Deterministic corpus of named complete projective fans.

    Projective spaces, products, blowups of projective spaces along
    linear subspaces, the bundle-over-a-blowup example, and fifty
    seeded random iterated star subdivisions (smooth bases, so every
    member stays smooth and projective).
    """
    entries = []
    for n in range(1, 6):
        entries.append((f"p{n}", projective_space_fan(n)))
    entries.append(
        ("p1xp1", product_fan(projective_space_fan(1), projective_space_fan(1)))
    )
    entries.append(
        ("p1xp3", product_fan(projective_space_fan(1), projective_space_fan(3)))
    )
    entries.append(
        ("p2xp2", product_fan(projective_space_fan(2), projective_space_fan(2)))
    )
    entries.append(("f1", blowup_pn_along_linear(2, 0)))
    for n, m in ((3, 0), (4, 0), (4, 1), (5, 1), (5, 2)):
        entries.append((f"bl{n}_{m}", blowup_pn_along_linear(n, m)))
    entries.append(("bundle_over_blowup", bundle_over_blowup_fan()))
    rng = random.Random(96321)
    bases = [
        projective_space_fan(2),
        projective_space_fan(3),
        product_fan(projective_space_fan(1), projective_space_fan(1)),
        product_fan(projective_space_fan(1), projective_space_fan(2)),
    ]
    for i in range(50):
        fan = bases[i % len(bases)]
        for _ in range(rng.randint(1, 2)):
            for _attempt in range(20):
                cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
                size = rng.randint(2, len(cone))
                face = tuple(sorted(rng.sample(cone, size)))
                try:
                    fan = star_subdivision(fan, face)
                    break
                except ValueError:
                    continue
        entries.append((f"subdivision{i:02d}", fan))
    return tuple(entries)


def run_all():
    """The full suite: every entry must pass for a green run.

    Equivalence and sanity checks run on the whole corpus; instance
    checks with a known expected outcome (including the expected
    failures) are wrapped so that the expectation itself is what
    passes.
    """
    results = []

    def add(name, result):
        # each result is built once more, under its name in the suite
        results.append(CheckResult(name, result.passed, result.witness))

    corpus = builtin_corpus()
    by_name = dict(corpus)
    for name, fan in corpus:
        add(f"two-neighborly-equivalence[{name}]", check_two_neighborly_equivalence(fan))
        for m in range(1, 5):
            add(f"neighborly-codim-equivalence[{name},m={m}]", check_neighborly_codim_equivalence(fan, m))
        add(f"quotient-properties[{name}]", check_quotient_properties(fan))
        add(f"unstable-inclusion-forces-nef[{name}]", check_unstable_inclusion_forces_nef(fan))
    add("small-unstable-locus[bl4_1]", check_small_unstable_locus(by_name["bl4_1"]))
    add("small-unstable-locus[p4]", check_small_unstable_locus(by_name["p4"]))
    caveat = check_small_unstable_locus(by_name["p1xp3"])
    results.append(
        CheckResult(
            "small-unstable-locus-caveat[p1xp3]",
            not caveat.passed and caveat.witness["unstable_codim"] == 2,
            caveat.witness,
        )
    )
    for n in range(2, 6):
        add(f"rank-one-unstable-origin[p{n}]", check_rank_one_unstable_origin(by_name[f"p{n}"]))
    floor = check_rank_one_unstable_origin(by_name["p1"])
    results.append(
        CheckResult("rank-one-dimension-floor[p1]", not floor.passed, floor.witness)
    )
    for a, b in PRODUCT_PAIRS:
        add(f"product-unstable-locus[{a},{b}]", check_product_unstable_locus(by_name[a], by_name[b]))
    base, divisors = _bundle_over_blowup_data()
    add("bundle-unstable-locus[bl4_1;exceptional+2hyperplanes]", check_bundle_unstable_locus(base, divisors))
    p2 = by_name["p2"]
    zero = TorusInvariantDivisor((0,) * p2.n_rays)
    add("bundle-unstable-locus[p2;trivial]", check_bundle_unstable_locus(p2, (zero, zero, zero)))
    results.append(check_moving_vs_nef_example())
    return results
