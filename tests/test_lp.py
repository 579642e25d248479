from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import in_cone, nonneg_combination, rational_simplex_core, rational_solve
from oracles import rational_solve_nonneg, simplex_max, solve_nonneg
from toricgit import lp
from toricgit.lp import PivotLimit, SlackTableau


def solution(tableau):
    """x at the tableau's basic point, as Fractions: its scaled solution
    over its scale d."""
    return [Fraction(v, tableau.d) for v in tableau.scaled_solution()]


def check_against_oracle(tableau, rows):
    """The tableau is None exactly when the oracle's largest t <= 1 with
    rows.x >= t is 0.  Otherwise its scaled point meets rows.x >= d
    exactly, on a basis whose columns are d times identity, with every
    rhs >= 0 and no column but x+, x-, the slacks and the rhs."""
    assert (tableau is None) == (oracles.max_strict_slack(rows)[0] == 0)
    if tableau is None:
        return
    d, x, m = tableau.d, tableau.scaled_solution(), len(tableau.tab)
    assert d > 0 and m == len(rows)
    assert all(sum(r * v for r, v in zip(row, x)) >= d for row in rows)
    for i, b in enumerate(tableau.basis):
        assert [row[b] for row in tableau.tab] == [d * (k == i) for k in range(m)]
    assert all(row[-1] >= 0 and len(row) == 2 * tableau.n + m + 1 for row in tableau.tab)


def test_solve_nonneg_feasible():
    # Dantzig's rule enters the first of the two tied columns
    assert solve_nonneg([[1, 1]], [1]) == [1, 0]


def test_solve_nonneg_infeasible():
    assert solve_nonneg([[1, 1]], [-1]) is None


# the Fraction simplex_max oracle itself, which the box-scan oracle of
# test_fans.py trusts


def test_simplex_max_box():
    status, x, value = simplex_max([1, 1], a_ub=[[1, 0], [0, 1]], b_ub=[2, 3])
    assert status == "optimal"
    assert value == 5
    assert x == [2, 3]


def test_simplex_max_unbounded():
    status, _, _ = simplex_max([1], a_ub=[[-1]], b_ub=[0])
    assert status == "unbounded"


def test_simplex_max_with_equalities():
    # max x - y with x + y = 2, x <= 3, y free: x = 3, y = -1
    status, x, value = simplex_max(
        [1, -1], a_ub=[[1, 0]], b_ub=[3], a_eq=[[1, 1]], b_eq=[2]
    )
    assert status == "optimal"
    assert value == 4
    assert x == [3, -1]


def test_max_strict_slack():
    # rows.x >= 1 has a point exactly when the open cell rows.x > 0 does
    x = solution(SlackTableau.solve([(1, 0), (0, 1)]))
    assert x[0] >= 1 and x[1] >= 1
    assert SlackTableau.solve([(1, 0), (-1, 0)]) is None


@st.composite
def slack_rows(draw):
    """Up to 13 integer rows of dimension 1-5, entries in -3..3, with
    zero, repeated and negated rows mixed in."""
    n = draw(st.integers(min_value=1, max_value=5))
    vec = st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n)
    rows = draw(st.lists(vec.map(tuple), min_size=1, max_size=10))
    if draw(st.booleans()):
        rows.append((0,) * n)
    if draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    if draw(st.booleans()):
        rows.append(tuple(-v for v in draw(st.sampled_from(rows))))
    return draw(st.permutations(rows))


@settings(max_examples=200)
@given(slack_rows())
def test_max_strict_slack_slack_start_matches_two_phase(rows):
    check_against_oracle(SlackTableau.solve(rows), rows)


@st.composite
def warm_start_rows(draw):
    """Parent rows of dimension 1-5 and 1-4 added rows, the added ones
    split into consecutive batches.  Added rows may be zero rows, or
    repeat or negate a parent row."""
    n = draw(st.integers(min_value=1, max_value=5))
    vec = st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n).map(tuple)
    parent = draw(st.lists(vec, min_size=1, max_size=8))
    old = st.sampled_from(parent)
    extra = st.one_of(vec, st.just((0,) * n), old, old.map(lambda r: tuple(-v for v in r)))
    added = draw(st.lists(extra, min_size=1, max_size=4))
    cuts = draw(st.lists(st.booleans(), min_size=len(added) - 1, max_size=len(added) - 1))
    batches = [[added[0]]]
    for row, cut in zip(added[1:], cuts):
        if cut:
            batches.append([])
        batches[-1].append(row)
    return parent, batches


@settings(max_examples=300)
@given(warm_start_rows())
def test_dual_simplex_warm_start_matches_two_phase(data):
    # each batch is checked as it lands; an infeasible one ends the
    # chain, as it ends a branch of the cell search
    parent, batches = data
    rows = list(parent)
    tableau = SlackTableau.solve(parent)
    check_against_oracle(tableau, rows)
    for batch in batches:
        if tableau is None:
            break
        tableau = tableau.with_rows(batch)
        rows += batch
        check_against_oracle(tableau, rows)


def test_max_strict_slack_runs_no_phase_one(monkeypatch):
    # no primal solve at all: solve() is one dual simplex from the slack
    # basis of the empty tableau on scale 1, with no objective, and lp
    # keeps no primal loop that could run (its copy is the oracle
    # simplex_core)
    starts = []
    real = lp._dual_simplex

    def spy(tab, basis, d):
        starts.append((list(basis), d))
        return real(tab, basis, d)

    monkeypatch.setattr(lp, "_dual_simplex", spy)
    assert not hasattr(lp, "in_cone") and not hasattr(lp, "max_strict_slack")
    assert not hasattr(lp, "_simplex_core")
    assert [f.name for f in fields(SlackTableau)] == ["n", "tab", "basis", "d"]
    assert SlackTableau.solve([(1, 0), (0, 1), (1, 0)]) is not None
    assert SlackTableau.solve([(1, 1), (-1, -1), (0, 0)]) is None
    assert starts == [([4, 5, 6], 1), ([4, 5, 6], 1)]


def test_nonneg_combination():
    lam = nonneg_combination([(1, 0), (0, 1)], (3, 2))
    assert lam == [3, 2]
    assert nonneg_combination([(1, 0), (0, 1)], (-1, 0)) is None
    assert nonneg_combination([], (0, 0)) == []
    assert nonneg_combination([], (1, 0)) is None


def test_rational_solve():
    # the Fraction oracle itself, which the Caratheodory checks trust
    x = rational_solve([[2, 0], [1, 1]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 2)]
    assert rational_solve([[1, 1], [2, 2]], [1, 3]) is None


vec3 = st.tuples(*[st.integers(min_value=-5, max_value=5)] * 3)


@settings(max_examples=120)
@given(
    st.lists(vec3, min_size=1, max_size=5),
    st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5),
)
def test_cone_membership_roundtrip(gens, coeffs):
    target = tuple(
        sum(c * g[d] for c, g in zip(coeffs, gens)) for d in range(3)
    )
    lam = nonneg_combination(gens, target)
    assert lam is not None
    rebuilt = tuple(sum(l * g[d] for l, g in zip(lam, gens)) for d in range(3))
    assert rebuilt == target
    assert all(l >= 0 for l in lam)


@settings(max_examples=60)
@given(st.lists(vec3, min_size=1, max_size=4), vec3)
def test_in_cone_agrees_with_exhaustive_caratheodory(gens, target):
    # independent certificate: v is in the cone iff some linearly
    # independent subset of size <= 3 carries it with nonneg coords
    from itertools import combinations

    def by_subsets():
        if all(x == 0 for x in target):
            return True
        for k in range(1, 4):
            for sub in combinations(gens, k):
                sol = rational_solve([[g[d] for g in sub] for d in range(3)], target)
                if sol is None:
                    continue
                rebuilt = tuple(
                    sum(l * g[d] for l, g in zip(sol, sub)) for d in range(3)
                )
                if rebuilt == tuple(map(Fraction, target)) and all(l >= 0 for l in sol):
                    return True
        return False

    assert in_cone(gens, target) == by_subsets()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_in_cone_matches_phase_one_oracle(data):
    # in_cone keeps no artificial columns and reads no solution; the
    # oracle runs phase 1 on the full [A | I | b] and reads one off
    m = data.draw(st.integers(min_value=1, max_value=4))
    vec = st.tuples(*[st.integers(min_value=-3, max_value=3)] * m)
    vectors = data.draw(st.lists(vec, max_size=6))
    if vectors and data.draw(st.booleans()):
        weights = data.draw(
            st.lists(st.integers(min_value=0, max_value=3), min_size=len(vectors), max_size=len(vectors))
        )
        target = tuple(sum(w * v[i] for w, v in zip(weights, vectors)) for i in range(m))
    else:
        target = data.draw(vec)
    rows = [[v[i] for v in vectors] for i in range(m)]
    assert in_cone(vectors, target) == (solve_nonneg(rows, list(target)) is not None)


# ---------------------------------------------------------------------------
# differential oracle: sympy's simplex, which shares no code with toricgit.lp

entry = st.integers(min_value=-3, max_value=3)


@st.composite
def small_lps(draw, entries=entry):
    """(a, b, c): 1-4 rows, 1-5 columns, entries in -3..3.  Half the
    right-hand sides are a.x for a small x >= 0, so that feasible LPs
    are not rare."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=5))
    rows = st.lists(entries, min_size=n, max_size=n)
    a = draw(st.lists(rows, min_size=m, max_size=m))
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
        b = [sum(r * v for r, v in zip(row, x)) for row in a]
    else:
        b = draw(st.lists(entries, min_size=m, max_size=m))
    return a, b, draw(rows)


def sympy_min(a, b, c):
    """(status, value) of min c.x subject to a.x == b, x >= 0, by sympy.

    sympy's linprog takes a.x <= b only, and its phase 1 (reached when
    some b < 0) can return a point that breaks a constraint or cycle for
    ever on degenerate systems.  So both calls below start at a feasible
    origin, which leaves only its Bland's-rule phase 2 to run: the first
    maximises sum(a.x) under a.x <= b (with b >= 0), which reaches sum(b)
    exactly when a.x == b is feasible; the second optimises over moves
    x0 + u - v from the feasible point x0 it returns.
    """
    simplex = pytest.importorskip("sympy.solvers.simplex")
    a = [row if bb >= 0 else [-v for v in row] for row, bb in zip(a, b)]
    b = [abs(bb) for bb in b]
    total, point = simplex.linprog([-sum(col) for col in zip(*a)], A=a, b=b)
    if -total != sum(b):
        return ("infeasible", None)
    x0 = [Fraction(str(v)) for v in point]
    assert [sum(r * v for r, v in zip(row, x0)) for row in a] == b
    n = len(c)
    unit = [[int(j == i) for j in range(n)] for i in range(n)]
    moves = [[-v for v in e] + e for e in unit]
    moves += [row + [-v for v in row] for row in a]
    moves += [[-v for v in row] + row for row in a]
    try:
        value, _ = simplex.linprog(
            c + [-v for v in c], A=moves, b=x0 + [0] * (2 * len(a))
        )
    except simplex.UnboundedLPError:
        return ("unbounded", None)
    return ("optimal", sum(ci * v for ci, v in zip(c, x0)) + Fraction(str(value)))


@settings(max_examples=50, deadline=None)
@given(small_lps())
def test_solve_nonneg_matches_sympy(lp):
    a, b, c = lp
    status, x, value = rational_solve_nonneg(a, b, c)
    expected = sympy_min(a, b, c)
    assert (status, value) == expected
    if status == "optimal":
        assert all(v >= 0 for v in x)
        assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
    # the integer phase 1 gives sympy's feasibility verdict
    point = solve_nonneg(a, b)
    assert (point is None) == (expected[0] == "infeasible")
    if point is not None:
        assert all(v >= 0 for v in point)
        assert [sum(r * v for r, v in zip(row, point)) for row in a] == b


@settings(max_examples=50, deadline=None)
@given(small_lps(), st.integers(min_value=0, max_value=4))
def test_simplex_max_matches_sympy(lp, n_ub):
    a, b, c = lp
    a_ub, b_ub, a_eq, b_eq = a[:n_ub], b[:n_ub], a[n_ub:], b[n_ub:]
    status, x, value = simplex_max(c, a_ub, b_ub, a_eq, b_eq)
    # the same LP over x = u - v, u, v >= 0, one slack per inequality
    k = len(a_ub)
    std = [
        row + [-v for v in row] + [int(j == i) for j in range(k)]
        for i, row in enumerate(a_ub + a_eq)
    ]
    expected, best = sympy_min(std, b_ub + b_eq, [-v for v in c] + c + [0] * k)
    assert (status, value) == (expected, None if best is None else -best)
    if status == "optimal":
        ax = [sum(r * v for r, v in zip(row, x)) for row in a]
        assert all(lhs <= bb for lhs, bb in zip(ax[:n_ub], b_ub))
        assert ax[n_ub:] == b_eq


# ---------------------------------------------------------------------------
# pivot-for-pivot oracle: oracles.rational_solve_nonneg, the same simplex
# over Fraction with the same pivot rules.  The integer phase 1 must make
# the same pivots, so it ends at the same point on every LP.


def pivot_signs(monkeypatch, module=lp):
    """Record the sign of every pivot entry the module (lp, or the
    oracles' integer simplex_core) hands linalg._pivot."""
    signs = []
    real = module._pivot

    def recording(rows, d, leave, enter):
        signs.append(rows[leave][enter] > 0)
        return real(rows, d, leave, enter)

    monkeypatch.setattr(module, "_pivot", recording)
    return signs


def same_as_reference(a, b):
    got = solve_nonneg(a, b)
    assert got == rational_solve_nonneg(a, b)[1]
    assert got is None or all(type(v) is Fraction for v in got)
    return got


quarter = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=200, deadline=None)
@given(small_lps(entries=st.one_of(entry, quarter)))
def test_same_result_as_rational_tableau(lp_):
    a, b, _ = lp_
    same_as_reference(a, b)


def test_redundant_equality_row():
    # the second row is twice the first, so one artificial stays basic
    # on a zero row after phase 1
    got = same_as_reference([[1, 1, 1], [2, 2, 2], [1, 0, -1]], [3, 6, 1])
    assert got == [Fraction(2), Fraction(0), Fraction(1)]


def test_dual_simplex_pivots_on_a_negative_entry(monkeypatch):
    # The dual simplex enters on a negative entry of the leaving row,
    # and _pivot negates the tableau to keep its scale positive; left on
    # a negative scale, the rhs would read off the wrong point.
    tableau = SlackTableau.solve([(1, 0), (0, 1)])
    signs = pivot_signs(monkeypatch)
    child = tableau.with_rows([(-1, 1)])
    assert signs and not any(signs)
    x = solution(child)
    assert child.d > 0
    assert all(sum(r * v for r, v in zip(row, x)) >= 1 for row in [(1, 0), (0, 1), (-1, 1)])


def test_cycling_lp_runs_past_bland_after(monkeypatch):
    # Beale's example: Dantzig's rule with the smallest-index tie-break
    # cycles among degenerate bases until the switch to Bland's rule.
    # Rows in the slack basis, scaled by d = 4 to integers.
    true_rows = [
        [Fraction(1, 2), Fraction(-11, 2), Fraction(-5, 2), 9, 1, 0, 0, 0],
        [Fraction(1, 2), Fraction(-3, 2), Fraction(-1, 2), 1, 0, 1, 0, 0],
        [1, 0, 0, 0, 0, 0, 1, 1],
    ]
    objective = [-10, 57, 9, 24, 0, 0, 0, 0]
    ref_tab = [[Fraction(v) for v in row] for row in true_rows]
    ref_cost = [Fraction(v) for v in objective]
    ref_basis = [4, 5, 6]
    assert rational_simplex_core(ref_tab, ref_basis, ref_cost) == "optimal"

    tab = [[int(4 * v) for v in row] for row in true_rows]
    cost = [4 * v for v in objective]
    basis = [4, 5, 6]
    signs = pivot_signs(monkeypatch, oracles)
    d = oracles.simplex_core(tab, basis, cost, 4)
    assert len(signs) > 8 * (3 + 7) + 64
    assert basis == ref_basis
    assert [[Fraction(v, d) for v in row] for row in tab] == ref_tab
    assert [Fraction(v, d) for v in cost] == ref_cost
    assert ref_cost[-1] == 1  # the optimum of Beale's example


def test_pivot_limit_still_raised(monkeypatch):
    # a pivot that changes nothing makes the simplex choose it for ever:
    # the oracles' primal simplex_core and lp's dual simplex, which share
    # lp's pivot rule
    tableau = SlackTableau.solve([(1, 0), (0, 1)])
    for module in (lp, oracles):
        monkeypatch.setattr(module, "_pivot", lambda rows, d, leave, enter: d)
    with pytest.raises(PivotLimit):
        solve_nonneg([[1, 1]], [1])
    # -x - y >= 1 is refuted (Farkas) with no pivot at all, but after
    # x >= 1 and y >= 1, -x + y >= 1 is feasible and needs a pivot, so
    # the dual simplex raises the same
    assert tableau.with_rows([(-1, -1)]) is None
    with pytest.raises(PivotLimit):
        tableau.with_rows([(-1, 1)])
