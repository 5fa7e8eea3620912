"""Exact simplex against a vertex-enumeration oracle, plus certificate and
status behaviour.

The oracle solves min c.x, Ax >= b, x >= 0 by enumerating every basic point
(all n-subsets of the m+n constraint rows, fraction-free elimination over
the integers) -- no code shared with the simplex.  It needs c >= 0 so the
program can never be unbounded; unboundedness gets dedicated cases.
"""

import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from fanloops import catalog, census, haar, lp

F = Fraction


# --- oracle ------------------------------------------------------------------

def _solve_square(M, v):
    """Solve M x = v for an integer M and v by fraction-free Gauss-Jordan
    elimination (Bareiss): each step divides by the previous pivot, which
    is exact, and leaves d·I | X with x = X/d.  Returns (d, X) with d > 0;
    None when M is singular."""
    n = len(v)
    M = [row[:] + [v[i]] for i, row in enumerate(M)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        p, top = M[col][col], M[col]
        for r in range(n):
            if r != col:
                f = M[r][col]
                M[r] = [(p * a - f * b) // prev for a, b in zip(M[r], top)]
        prev = p
    sign = 1 if prev > 0 else -1
    return sign * prev, [sign * M[r][n] for r in range(n)]


def _scaled(row):
    """(s, ints): a row of Fractions times s, the lcm of its denominators."""
    s = math.lcm(*(v.denominator for v in row))
    return s, [v.numerator * (s // v.denominator) for v in row]


def brute_minimum(problem):
    """Minimum over all feasible basic points; None when infeasible.

    Each constraint row (A_i, b_i) is scaled to integers by its own lcm,
    which changes neither its solutions nor its sense, so every basis is
    solved and checked in ints; only the minimum is a Fraction."""
    n, m = problem.n_vars, problem.n_constraints
    cons = [_scaled((*a, b))[1] for a, b in zip(problem.A, problem.b)]
    rows = [r[:n] for r in cons]
    rows += [[int(j == i) for j in range(n)] for i in range(n)]
    rhs = [r[n] for r in cons] + [0] * n
    sc, cost = _scaled(problem.objective)
    best = None   # (numerator, denominator > 0)
    for combo in itertools.combinations(range(m + n), n):
        sol = _solve_square([rows[i] for i in combo], [rhs[i] for i in combo])
        if sol is None:
            continue
        d, X = sol
        if any(v < 0 for v in X):
            continue
        if any(sum(map(operator.mul, r[:n], X)) < r[n] * d for r in cons):
            continue
        val = (sum(map(operator.mul, cost, X)), sc * d)
        if best is None or val[0] * best[1] < best[0] * val[1]:
            best = val
    return None if best is None else F(*best)


def random_problem(rng):
    n = rng.randint(2, 3)
    m = rng.randint(2, 5)
    A = [
        [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(m)
    ]
    b = [F(rng.randint(-3, 4), rng.randint(1, 2)) for _ in range(m)]
    c = [F(rng.randint(0, 4)) for _ in range(n)]
    if all(v == 0 for v in c):
        c[0] = F(1)
    return lp.LPProblem(tuple(c), tuple(tuple(r) for r in A), tuple(b))


# --- randomized cross-check --------------------------------------------------

def test_simplex_matches_vertex_enumeration():
    rng = random.Random(82331)
    n_opt = n_inf = 0
    for _ in range(60):
        prob = random_problem(rng)
        sol = lp.solve(prob)
        want = brute_minimum(prob)
        if sol.status == lp.OPTIMAL:
            n_opt += 1
            assert want is not None
            assert sol.optimum == want
            assert lp.verify_certificate(prob, sol)
        else:
            assert sol.status == lp.INFEASIBLE  # c >= 0 rules out unbounded
            n_inf += 1
            assert want is None
    # the generator must actually exercise both outcomes
    assert n_opt >= 20 and n_inf >= 5, (n_opt, n_inf)


# --- hand-checked instance ---------------------------------------------------

def _manual():
    # min 3x1 + 2x2  s.t.  x1 + x2 >= 2,  x1 - x2 >= -3
    return lp.LPProblem((3, 2), ((1, 1), (1, -1)), (2, -3))


def test_manual_problem_solution():
    sol = lp.solve(_manual())
    assert sol.status == lp.OPTIMAL
    assert sol.optimum == 4          # 3x1+2x2 >= 2(x1+x2) >= 4, met at (0,2)
    assert sol.witness == (0, 2)
    assert sol.dual == (2, 0)        # y1=2 prices the tight first row
    assert sol.iterations > 0


def test_manual_problem_certificate_is_exact():
    prob = _manual()
    sol = lp.solve(prob)
    rep = lp.verify_certificate(prob, sol)
    assert rep.ok and rep.reason is None
    # duality: b.y == c.x exactly
    assert sum(b * y for b, y in zip(prob.b, sol.dual)) == sol.optimum


def test_scale_invariance_is_exact():
    base = _manual()
    alpha = F(7, 3)
    scaled_obj = lp.LPProblem(
        tuple(alpha * c for c in base.objective), base.A, base.b
    )
    s = lp.solve(scaled_obj)
    assert s.optimum == alpha * 4 and s.witness == (0, 2)
    scaled_rhs = lp.LPProblem(
        base.objective, base.A, tuple(alpha * b for b in base.b)
    )
    s = lp.solve(scaled_rhs)
    assert s.optimum == alpha * 4
    assert s.witness == (0, alpha * 2)


# --- statuses ----------------------------------------------------------------

def test_infeasible():
    prob = lp.LPProblem((1,), ((1,), (-1,)), (1, 0))  # x >= 1 and x <= 0
    sol = lp.solve(prob)
    assert sol.status == lp.INFEASIBLE
    assert sol.optimum is None and sol.witness is None


def test_unbounded():
    prob = lp.LPProblem((-1, 0), ((1, 1),), (1,))  # min -x1, ray (1,0)
    sol = lp.solve(prob)
    assert sol.status == lp.UNBOUNDED


def test_degenerate_and_redundant_rows():
    # duplicated and implied constraints must not confuse phase 1
    prob = lp.LPProblem(
        (1, 1), ((1, 1), (1, 1), (2, 2), (1, 0)), (2, 2, 4, 0)
    )
    sol = lp.solve(prob)
    assert sol.status == lp.OPTIMAL and sol.optimum == 2
    assert lp.verify_certificate(prob, sol)


def test_problem_validation():
    with pytest.raises(ValueError):
        lp.LPProblem((1, 2), ((1, 2),), (1, 2))      # rhs count mismatch
    with pytest.raises(ValueError):
        lp.LPProblem((1, 2), ((1, 2, 3),), (1,))     # row width mismatch
    prob = lp.LPProblem(("1/3", 2), ((1, "5/2"),), ("-2",))
    assert prob.objective[0] == F(1, 3) and prob.A[0][1] == F(5, 2)
    prob = lp.LPProblem((F(1, 3), np.int64(2)), ((1, F(5, 2)),), (-2,))
    assert prob.objective == (F(1, 3), 2) and prob.b == (-2,)
    assert all(type(v) is F for v in prob.objective + prob.A[0] + prob.b)


def test_numpy_ints_are_taken_as_python_ints():
    # an np.int64 numerator would overflow in the tableau: 2**40·2**40 wraps
    big = np.int64(2**40)
    prob = lp.LPProblem((big,), ((big,),), (big,))
    assert all(type(v.numerator) is int
               for v in prob.objective + prob.A[0] + prob.b)
    sol = lp.solve(prob)
    assert sol.optimum == 2**40 and lp.verify_certificate(prob, sol)


def test_integer_form_is_the_data_at_least_scales():
    rng = random.Random(60610)
    problems = [random_problem(rng) for _ in range(40)] + [
        _manual(),
        lp.LPProblem(("1/3", 2), ((1, "5/2"),), ("-2",)),
        lp.LPProblem((F(1, 3), np.int64(2)), ((1, F(5, 2)),), (-2,)),
    ]
    for prob in problems:
        objective, rows = prob.integer_form
        assert len(rows) == prob.n_constraints
        for (scale, ints), values in [(objective, prob.objective)] + [
                (row, a + (b,)) for row, a, b in zip(rows, prob.A, prob.b)]:
            assert all(type(v) is int for v in ints)
            assert [F(v, scale) for v in ints] == list(values)
            # no smaller positive scale clears every denominator
            assert all(any((k * v).denominator != 1 for v in values)
                       for k in range(1, scale)), (values, scale)


def test_from_integer_form_rebuilds_the_problem():
    rng = random.Random(60613)
    for prob in [random_problem(rng) for _ in range(20)] + [_manual()]:
        again = lp.LPProblem.from_integer_form(*prob.integer_form)
        assert again == prob and again.integer_form == prob.integer_form
        assert (again.objective, again.A, again.b) == (
            prob.objective, prob.A, prob.b)
        assert lp.solve(again) == lp.solve(prob)
    # rows given as lists are kept as tuples, so the form still compares
    again = lp.LPProblem.from_integer_form([3, [1, 6]], [[2, [1, -2, -3]]])
    assert again == lp.LPProblem(("1/3", 2), ((F(1, 2), -1),), ("-3/2",))


@pytest.mark.parametrize("objective,rows,match", [
    ((1, (1, 2)), [(1, (1, 2))], "width"),              # row too short
    ((1, (1, 2)), [(1, (1, 2, 3, 4))], "width"),        # row too long
    ((0, (1, 2)), [(1, (1, 2, 3))], "not positive"),    # objective scale 0
    ((1, (1, 2)), [(-1, (1, 2, 3))], "not positive"),   # row scale < 0
    ((1, (1, F(2))), [(1, (1, 2, 3))], "Python ints"),  # a Fraction entry
    ((1, (1, 2)), [(1, (1, 2.0, 3))], "Python ints"),   # a float entry
    ((1, (1, 2)), [(1, (np.int64(1), 2, 3))], "Python ints"),
    ((1, (1, True)), [(1, (1, 2, 3))], "Python ints"),  # a bool entry
    ((F(1), (1, 2)), [(1, (1, 2, 3))], "Python ints"),  # a Fraction scale
    ((2, (2, 4)), [(1, (1, 2, 3))], "not the least"),   # objective: 1, 2
    ((1, (1, 2)), [(3, (3, 0, -6))], "not the least"),  # row: 1, 0, -2
], ids=["short-row", "long-row", "zero-scale", "negative-scale",
        "fraction-entry", "float-entry", "numpy-entry", "bool-entry",
        "fraction-scale", "objective-not-least", "row-not-least"])
def test_from_integer_form_refuses_a_malformed_form(objective, rows, match):
    with pytest.raises(ValueError, match=match):
        lp.LPProblem.from_integer_form(objective, rows)


def test_solution_stores_least_integer_forms():
    # the tableau's forms, unreduced, and the rationals they stand for
    sol = lp.LPSolution.from_integer_form(lp.OPTIMAL, F(4), (6, [0, 12]),
                                          (4, [8, 0]), 3)
    assert sol.witness_form == (1, (0, 2)) and sol.dual_form == (1, (2, 0))
    assert sol == lp.LPSolution(lp.OPTIMAL, 4, (0, "2"), (F(2), 0), 3)
    assert sol.witness == (0, 2) and sol.dual == (2, 0)
    assert all(type(v) is F for v in sol.witness + sol.dual)
    rng = random.Random(60614)
    for prob in [random_problem(rng) for _ in range(20)] + [_manual()]:
        sol = lp.solve(prob)
        again = lp.LPSolution(sol.status, sol.optimum, sol.witness, sol.dual,
                              sol.iterations)
        assert again == sol
        for form in (sol.witness_form, sol.dual_form):
            assert form is None or math.gcd(*form[1], form[0]) == 1
    assert lp.LPSolution(lp.INFEASIBLE).witness is None


@pytest.mark.parametrize("witness,dual,match", [
    ((0, (1, 2)), (1, (1,)), "not positive"),        # witness den 0
    ((1, (1, 2)), (-1, (1,)), "not positive"),       # dual den < 0
    ((1, (1, F(2))), (1, (1,)), "Python ints"),      # a Fraction entry
    ((1, (1, 2)), (1, (2.0,)), "Python ints"),       # a float entry
    ((1, (np.int64(1), 2)), (1, (1,)), "Python ints"),
    ((1, (1, True)), (1, (1,)), "Python ints"),      # a bool entry
    ((True, (1, 2)), (1, (1,)), "Python ints"),      # a bool den
    ((1, (1, 2)), (F(1), (1,)), "Python ints"),      # a Fraction den
    ((1, (1, 2), 3), (1, (1,)), "pair"),             # a form of three
    ((1, (1, 2)), ((1,),), "pair"),                  # a form of one
], ids=["zero-den", "negative-den", "fraction-entry", "float-entry",
        "numpy-entry", "bool-entry", "bool-den", "fraction-den",
        "three-part-form", "one-part-form"])
def test_solution_from_integer_form_refuses_a_malformed_form(witness, dual,
                                                             match):
    with pytest.raises(ValueError, match=match):
        lp.LPSolution.from_integer_form(lp.OPTIMAL, F(1), witness, dual)


@pytest.mark.parametrize("value", [0.5, float("nan"), np.float64(0.1),
                                   np.float32(2.0)])
def test_problem_refuses_floats(value):
    for args in (((value, 1), ((1, 1),), (1,)),
                 ((1, 1), ((1, value),), (1,)),
                 ((1, 1), ((1, 1),), (value,))):
        with pytest.raises(ValueError, match="float .* is not exact") as exc:
            lp.LPProblem(*args)
        assert repr(value) in str(exc.value)


# --- certificate rejections --------------------------------------------------

def _tampered(sol, **kw):
    fields = dict(
        status=sol.status, optimum=sol.optimum, witness=sol.witness,
        dual=sol.dual, iterations=sol.iterations,
    )
    fields.update(kw)
    return lp.LPSolution(**fields)


def test_certificate_rejects_tampering():
    prob = _manual()
    sol = lp.solve(prob)

    rep = lp.verify_certificate(prob, _tampered(sol, status=lp.INFEASIBLE))
    assert not rep and rep.reason == "status not optimal"

    rep = lp.verify_certificate(prob, _tampered(sol, witness=(F(0),)))
    assert rep.reason == "witness missing or wrong length"

    rep = lp.verify_certificate(prob, _tampered(sol, witness=(F(-1), F(3))))
    assert rep.reason == "negative witness coordinate" and rep.index == 0

    rep = lp.verify_certificate(prob, _tampered(sol, witness=(F(0), F(1))))
    assert rep.reason == "primal constraint violated" and rep.index == 0

    rep = lp.verify_certificate(prob, _tampered(sol, dual=(F(3), F(0))))
    assert rep.reason == "dual constraint violated" and rep.index == 1

    rep = lp.verify_certificate(
        prob, _tampered(sol, optimum=F(6), witness=(F(1), F(1)))
    )
    assert rep.reason == "objective mismatch with witness"

    rep = lp.verify_certificate(prob, _tampered(sol, dual=(F(0), F(0))))
    assert rep.reason == "duality gap nonzero"

    rep = lp.verify_certificate(prob, _tampered(sol, dual=(0, -1)))
    assert rep.reason == "negative dual coordinate" and rep.index == 1


def test_certificate_refuses_a_float_solution():
    prob = _manual()
    sol = lp.solve(prob)
    for field in ({"witness": (0.0, 2.0)}, {"dual": (F(2), np.float64(0))}):
        with pytest.raises(ValueError, match="float .* is not exact"):
            lp.verify_certificate(prob, _tampered(sol, **field))


# --- the integer checker against the Fraction checker ------------------------

def fraction_certificate(problem, solution):
    """The Fraction form of lp.verify_certificate, kept as its reference: the
    same checks in the same order, each sum over every coordinate."""
    if solution.status != lp.OPTIMAL:
        return lp.CertificateReport(False, "status not optimal")
    x = solution.witness
    y = solution.dual
    if x is None or len(x) != problem.n_vars:
        return lp.CertificateReport(False, "witness missing or wrong length")
    if y is None or len(y) != problem.n_constraints:
        return lp.CertificateReport(False, "dual missing or wrong length")
    for j, v in enumerate(x):
        if v < 0:
            return lp.CertificateReport(False, "negative witness coordinate", j)
    slacks = []
    for i, row in enumerate(problem.A):
        lhs = sum((a * v for a, v in zip(row, x)), Fraction(0))
        if lhs < problem.b[i]:
            return lp.CertificateReport(False, "primal constraint violated", i)
        slacks.append(lhs - problem.b[i])
    reduced = []
    for j in range(problem.n_vars):
        col = sum(
            (problem.A[i][j] * y[i] for i in range(problem.n_constraints)),
            Fraction(0),
        )
        r = problem.objective[j] - col
        if r < 0:
            return lp.CertificateReport(False, "dual constraint violated", j)
        reduced.append(r)
    for i, v in enumerate(y):
        if v < 0:
            return lp.CertificateReport(False, "negative dual coordinate", i)
    primal_obj = sum(
        (c * v for c, v in zip(problem.objective, x)), Fraction(0)
    )
    dual_obj = sum((problem.b[i] * y[i] for i in range(len(y))), Fraction(0))
    if primal_obj != solution.optimum:
        return lp.CertificateReport(False, "objective mismatch with witness")
    if dual_obj != primal_obj:
        return lp.CertificateReport(False, "duality gap nonzero")
    for i, s in enumerate(slacks):
        if y[i] * s != 0:
            return lp.CertificateReport(
                False, "complementary slackness (row)", i)
    for j, r in enumerate(reduced):
        if r * x[j] != 0:
            return lp.CertificateReport(
                False, "complementary slackness (col)", j)
    return lp.CertificateReport(True)


def _tamperings(problem, sol, rng):
    """sol and seeded tampered copies of it: status, lengths, a shifted
    witness (with and without a matching optimum), a shifted dual, a
    shifted optimum, and a flipped sign in the witness and in the dual."""
    yield sol
    if sol.status != lp.OPTIMAL:
        return
    x, y = list(sol.witness), list(sol.dual)
    yield _tampered(sol, status=lp.INFEASIBLE)
    yield _tampered(sol, witness=tuple(x[:-1]))
    yield _tampered(sol, dual=None)
    for _ in range(3):
        delta = F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
        w = x[:]
        w[rng.randrange(len(w))] += delta
        yield _tampered(sol, witness=tuple(w))
        yield _tampered(sol, witness=tuple(w), optimum=sum(
            (c * v for c, v in zip(problem.objective, w)), F(0)))
        d = y[:]
        d[rng.randrange(len(d))] += delta
        yield _tampered(sol, dual=tuple(d))
        yield _tampered(sol, optimum=sol.optimum + delta)
    for values, field in ((x, "witness"), (y, "dual")):
        nonzero = [k for k, v in enumerate(values) if v]
        if nonzero:
            flipped = values[:]
            k = rng.choice(nonzero)
            flipped[k] = -flipped[k]
            yield _tampered(sol, **{field: tuple(flipped)})


def _verdict(report):
    return report.ok, report.reason, report.index


def _compare_checkers(pairs, rng):
    """Both checkers on every pair and its tamperings; the reasons seen."""
    reasons = set()
    for problem, sol in pairs:
        for candidate in _tamperings(problem, sol, rng):
            want = fraction_certificate(problem, candidate)
            assert _verdict(lp.verify_certificate(problem, candidate)) \
                == _verdict(want), (problem, candidate)
            reasons.add(want.reason)
    return reasons


# every reason but complementary slackness, which cannot fail once both
# sides are feasible with no duality gap (c·x - b·y is the sum of its terms)
_REACHABLE = {
    None, "status not optimal", "witness missing or wrong length",
    "dual missing or wrong length", "negative witness coordinate",
    "primal constraint violated", "dual constraint violated",
    "negative dual coordinate", "objective mismatch with witness",
    "duality gap nonzero",
}


def test_integer_certificate_matches_the_fraction_checker():
    rng = random.Random(60611)
    pairs = []
    for _ in range(80):
        prob = random_problem(rng)
        pairs.append((prob, lp.solve(prob)))
    assert _compare_checkers(pairs, rng) == _REACHABLE


def _padded(values, kept, n):
    """values at the indices kept, 0 at the other indices below n."""
    out = [F(0)] * n
    for k, v in zip(kept, values):
        out[k] = v
    return tuple(out)


def test_integer_certificate_matches_on_covering_pairs(monkeypatch):
    # the (dual LP D, solution) pairs covering_number certifies, and the
    # swapped (covering problem, solution) pairs they stand for, on
    # criterion 4's loop family.  D has a column only for each x in supp f
    # and a row only for each translate b with some φ(bx) != 0 there; padded
    # with zeros at the dropped columns and rows, its solution certifies the
    # covering LP over every point and all n translates
    family = [catalog.cyclic(k) for k in range(1, 7)]
    family += [catalog.klein4(), catalog.symmetric3()]
    family += [census.find_witness(5, "non-fan"),
               census.find_witness(6, "non-fan")]
    pairs, swapped = [], []
    verify = lp.verify_certificate

    def recorded(problem, solution):
        pairs.append((problem, solution))
        return verify(problem, solution)

    monkeypatch.setattr(lp, "verify_certificate", recorded)
    rng = random.Random(60612)
    for G in family:
        for _ in range(3):
            f, phi = haar.random_function(G, rng), haar.random_function(G, rng)
            haar.covering_number(f, phi)
            sol = pairs[-1][1]
            n = G.order
            support = sorted(f.support())
            translates = [b for b in range(n) if any(
                phi(int(G.table[b, x])) for x in support)]
            assert pairs[-1][0].n_vars == len(support)
            assert pairs[-1][0].n_constraints == len(translates)
            problem = haar.covering_problem(f, phi)
            padded = lp.LPSolution(
                lp.OPTIMAL, -sol.optimum, _padded(sol.dual, translates, n),
                _padded(sol.witness, support, n), sol.iterations)
            assert verify(problem, padded)
            swapped.append((problem, padded))
    monkeypatch.undo()
    assert len(pairs) == 3 * len(family)
    # every kept column of D has cost -f(x) < 0, so a sign flipped in D's
    # dual, the covering witness, can leave every dual constraint standing
    assert _compare_checkers(pairs, rng) == _REACHABLE
    assert _compare_checkers(swapped, rng) == _REACHABLE


# --- bit-growth alarm --------------------------------------------------------

def test_bit_growth_warning(monkeypatch):
    monkeypatch.setattr(lp, "LP_BIT_ALARM", 1)
    n = 10
    rows = tuple(
        tuple(F(1 if j == i else 0) for j in range(n)) for i in range(n)
    )
    prob = lp.LPProblem(
        tuple(F(1) for _ in range(n)), rows, tuple(F(1, 3) for _ in range(n))
    )
    with pytest.warns(lp.BitGrowthWarning):
        sol = lp.solve(prob)
    assert sol.status == lp.OPTIMAL and sol.optimum == F(n, 3)


def test_no_warning_at_default_threshold():
    import warnings as _w

    prob = _manual()
    with _w.catch_warnings():
        _w.simplefilter("error", lp.BitGrowthWarning)
        lp.solve(prob)
