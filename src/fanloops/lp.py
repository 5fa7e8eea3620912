"""Exact rational linear programming: primal simplex, two-phase, Dantzig's
rule with Bland's rule on zero-length steps, with a dual certificate
extracted from the final tableau.

Problems are minimize c·x subject to A x >= b, x >= 0, all data rational.
An LPProblem stores its data only in integer form: each constraint row
(with its right-hand side) and the objective scaled to Python ints by its
least positive scale.  LPProblem(objective, A, b) computes that form from
rationals; LPProblem.from_integer_form takes it as given, for callers whose
data is already in ints, and checks that it is one.  The Fractions of
objective, A and b are rebuilt from it only when read.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968): it starts from
the integer form, and every entry is a Python int over one common
denominator d, the determinant of the current basis.  A
pivot on p replaces each entry a of another row by (p·a - f·g)/d, where f is
the row's entry in the pivot column and g the pivot row's entry in a's
column; the division is exact, and d becomes p.  Entries are minors of the
scaled data, so their growth is bounded by Hadamard's bound; a bit-length
alarm warns once an entry a/d has more than LP_BIT_ALARM bits in a and d
together, rather than failing.

The solution is read back in integer form too: the witness is the basic
right-hand sides over d, and the dual value of row i is the reduced cost of
its surplus times the row's scale, over d times the objective's scale, and
0 while that surplus is basic.  An LPSolution stores the witness and the
dual only as least integer forms (den, ints) and rebuilds their Fractions
only when read; the optimum is its one Fraction.

``verify_certificate`` checks primal and dual feasibility and a zero gap,
which imply complementary slackness, from the problem and the solution
alone, in Python ints too: it reads the problem's integer form and the
solution's, puts the dual of the scaled problem over one common
denominator, and adds up Aᵀy over the rows where the dual is nonzero
only.

Input is exact: ints, Fractions and rational strings such as "5/2", for an
LPProblem and an LPSolution alike.  Floats are refused, since a binary
float such as 0.1 is not the rational it reads as.
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .config import LP_BIT_ALARM

# The tableau holds Python ints only; perfbench/run.py still reports this.
_HAS_GMPY2 = False

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class BitGrowthWarning(UserWarning):
    """Tableau rationals exceeded the configured bit-length alarm."""


def rational(x):
    """x as a Fraction of Python ints, from an int (numpy's too), a Fraction or
    a rational string; a float (numpy's too) is refused with a ValueError, and
    so are a bool and anything else Fraction cannot read (None included)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Real) and not isinstance(x, numbers.Rational):
        raise ValueError(
            f"float {x!r} is not exact: give an int, a Fraction or a "
            "rational string"
        )
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is not a rational")
    try:
        return Fraction(int(x.numerator), int(x.denominator)) \
            if hasattr(x, "numerator") else Fraction(x)
    except (TypeError, ArithmeticError):  # "1/0", Decimal("Infinity")
        raise ValueError(f"{x!r} is not a rational") from None


@dataclass(frozen=True, init=False)
class LPProblem:
    """minimize objective·x  s.t.  A x >= b,  x >= 0.

    The data is stored only as ``integer_form``, scaled to ints once:
    ((s, s·objective), ((s_i, s_i·(A[i] + (b[i],))) for each row i)), each s
    the least positive scale.  ``objective``, ``A`` and ``b`` are rebuilt
    from it as Fractions; equality compares the integer form."""

    integer_form: tuple

    def __init__(self, objective, A, b):
        obj = tuple(rational(v) for v in objective)
        rows = tuple(tuple(rational(v) for v in row) for row in A)
        rhs = tuple(rational(v) for v in b)
        if len(rows) != len(rhs):
            raise ValueError("constraint/rhs count mismatch")
        for row in rows:
            if len(row) != len(obj):
                raise ValueError("constraint width does not match objective")
        object.__setattr__(self, "integer_form", (scaled(obj), tuple(
            scaled(row + (v,)) for row, v in zip(rows, rhs))))

    @classmethod
    def from_integer_form(cls, objective, rows):
        """The problem whose integer_form is (objective, rows), taken as
        given: objective is (s, ints) and each row (s_i, ints + (rhs,)).  A
        width that does not match, a scale below 1, an entry that is not a
        Python int, or a scale that is not the least one (gcd(s, *ints)
        != 1) is refused with ValueError."""
        objective = (objective[0], tuple(objective[1]))
        rows = tuple((scale, tuple(ints)) for scale, ints in rows)
        width = len(objective[1])
        for k, (scale, ints) in enumerate((objective,) + rows):
            if k and len(ints) != width + 1:
                raise ValueError("constraint width does not match objective")
            if not set(map(type, ints)) <= {int} or type(scale) is not int:
                raise ValueError("integer form entries must be Python ints")
            if scale < 1:
                raise ValueError(f"integer form scale {scale} is not positive")
            if math.gcd(scale, *ints) != 1:
                raise ValueError(f"integer form scale {scale} is not the least")
        problem = cls.__new__(cls)
        object.__setattr__(problem, "integer_form", (objective, rows))
        return problem

    @property
    def objective(self):
        return fractions(self.integer_form[0])

    @property
    def A(self):
        return tuple(tuple(Fraction(v, scale) for v in ints[:-1])
                     for scale, ints in self.integer_form[1])

    @property
    def b(self):
        return tuple(Fraction(ints[-1], scale)
                     for scale, ints in self.integer_form[1])

    @property
    def n_vars(self):
        return len(self.integer_form[0][1])

    @property
    def n_constraints(self):
        return len(self.integer_form[1])


@dataclass(frozen=True, init=False)
class LPSolution:
    """What solve found: a status, and once OPTIMAL the optimum, a witness x
    and a dual y.

    x and y are stored only as ``witness_form`` and ``dual_form``, each None
    or the least integer form (den, ints) with v_k = ints[k]/den.
    ``witness`` and ``dual`` are rebuilt from them as Fractions; equality
    compares the forms, which equal values share.  LPSolution(status,
    optimum, witness, dual, iterations) takes rationals, as LPProblem does,
    and refuses floats with ValueError."""

    status: str
    optimum: Fraction | None
    witness_form: tuple | None
    dual_form: tuple | None
    iterations: int

    def __init__(self, status, optimum=None, witness=None, dual=None,
                 iterations=0):
        forms = [None if v is None else scaled([rational(x) for x in v])
                 for v in (witness, dual)]
        self._fill(status, None if optimum is None else rational(optimum),
                   *forms, iterations)

    @classmethod
    def from_integer_form(cls, status, optimum, witness, dual, iterations=0):
        """The solution whose witness and dual are the integer forms witness
        and dual, each (den, ints) or None, brought to least form by one gcd
        each; optimum is taken as given.  A form that is not a (den, ints)
        pair, a den below 1, or a den or entry that is not a Python int is
        refused with ValueError."""
        forms = []
        for form in (witness, dual):
            if form is not None:
                if len(form) != 2:
                    raise ValueError("solution form must be a (den, ints) pair")
                den, ints = form
                if not set(map(type, ints)) <= {int} or type(den) is not int:
                    raise ValueError("solution form entries must be Python ints")
                if den < 1:
                    raise ValueError(f"solution form den {den} is not positive")
                g = math.gcd(den, *ints)
                form = (den // g, tuple([v // g for v in ints]))
            forms.append(form)
        solution = cls.__new__(cls)
        solution._fill(status, optimum, *forms, iterations)
        return solution

    def _fill(self, *values):
        for name, value in zip(("status", "optimum", "witness_form",
                                "dual_form", "iterations"), values):
            object.__setattr__(self, name, value)

    @property
    def witness(self):
        return fractions(self.witness_form)

    @property
    def dual(self):
        return fractions(self.dual_form)


def fractions(form):
    """The Fractions ints[k]/den of an integer form (den, ints), or None."""
    if form is None:
        return None
    den, ints = form
    return tuple([Fraction(v, den) for v in ints])


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    reason: str | None = None
    index: int | None = None

    def __bool__(self):
        return self.ok


def scaled(values):
    """(scale, ints): the least positive integer scale clearing every
    denominator of the Fractions ``values``, and scale·v for each value as a
    Python int."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, tuple([v.numerator * (scale // v.denominator)
                         for v in values])


class _Tableau:
    """Fraction-free simplex tableau in condensed form: integer entries over
    a common denominator ``d``, with a column only for each nonbasic
    variable (a basic variable's column is d times a unit vector).

    Variables: n structural, then m surplus, then one artificial per row
    that needs it.  Rows with negative rhs are negated so their surplus,
    entering with +1, can start the basis; the other rows start with an
    artificial.  ``cols[j]`` is the variable of column j, ``basis[i]`` the
    variable of row i, and each row ends with its right-hand side.  ``obj``
    is the objective row over the same ``d``; its last entry is
    -d·(current objective value).
    """

    def __init__(self, problem):
        n, m = problem.n_vars, problem.n_constraints
        self.n, self.m = n, m
        self.n_total = n + m
        (self.c_scale, self.c), form = problem.integer_form
        self.row_scale = [scale for scale, _ in form]
        open_rows = [i for i, (_, row) in enumerate(form) if row[-1] >= 0]
        # the surplus of row i has coefficient -1 in the open rows, where it
        # is a column, and +1 in the negated ones, where it is basic
        self.cols = list(range(n)) + [n + i for i in open_rows]
        self.rows = []
        self.basis = []
        self.n_art = 0
        for i, (_, ints) in enumerate(form):
            row = list(ints) if ints[-1] >= 0 else [-v for v in ints]
            row[n:n] = [-1 if k == i else 0 for k in open_rows]
            self.rows.append(row)
            if ints[-1] >= 0:
                self.basis.append(self.n_total + self.n_art)
                self.n_art += 1
            else:
                self.basis.append(n + i)
        self.d = 1
        self.iterations = 0
        self._warned = False

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, pr, pc):
        """Exchange the basic variable of row pr with the variable of
        column pc; the leaving variable takes over column pc."""
        rows, d = self.rows, self.d
        prow = rows[pr]
        p = prow[pc]
        # the leaving variable's entry in row pr: d, or -d once the row is
        # negated (which leaves the rational tableau as it is) to make p > 0
        lead = d
        if p < 0:
            prow = rows[pr] = [-v for v in prow]
            p, lead = -p, -d

        def update(row):
            f = row[pc]
            if f:
                row = [(p * a - f * g) // d for a, g in zip(row, prow)]
                row[pc] = -f if lead > 0 else f
                return row
            return row if p == d else [p * a // d for a in row]

        for i in range(len(rows)):
            if i != pr:
                rows[i] = update(rows[i])
        self.obj = update(self.obj)
        prow[pc] = lead
        self.d = p
        self.basis[pr], self.cols[pc] = self.cols[pc], self.basis[pr]
        self.iterations += 1
        if not self._warned and self.iterations % 8 == 0:
            worst = max(max(map(abs, row)) for row in rows).bit_length()
            if worst + p.bit_length() > LP_BIT_ALARM:
                warnings.warn(
                    f"tableau entries exceed {LP_BIT_ALARM} bits",
                    BitGrowthWarning,
                    stacklevel=4,
                )
                self._warned = True

    def _set_objective(self, costs):
        """Load integer costs, indexed by variable, and reduce them against
        the current basis."""
        def cost(v):
            return costs[v] if v < len(costs) else 0

        obj = [self.d * cost(v) for v in self.cols] + [0]
        for row, v in zip(self.rows, self.basis):
            f = cost(v)
            if f:
                obj = [a - f * b for a, b in zip(obj, row)]
        self.obj = obj

    def _first(self, columns):
        """The column of least variable index among ``columns``, or -1."""
        return min(columns, key=self.cols.__getitem__, default=-1)

    def _drop_artificials(self):
        """Drive artificials out of the basis, then drop their columns.  Each
        row has its own surplus, so the other columns have full row rank and
        a row whose artificial is basic has a nonzero entry to pivot on."""
        for i in reversed(range(len(self.rows))):
            if self.basis[i] >= self.n_total:
                row = self.rows[i]
                self._pivot(i, self._first(
                    j for j, v in enumerate(self.cols)
                    if v < self.n_total and row[j]))
        keep = [j for j, v in enumerate(self.cols) if v < self.n_total]
        self.cols = [self.cols[j] for j in keep]
        keep.append(-1)
        self.rows = [[row[j] for j in keep] for row in self.rows]

    def _leaving_row(self, enter):
        """Ratio test: the row of least rhs/entry over positive entries of
        column ``enter``, ties to the least basic variable; -1 if none."""
        leave = -1
        for i, row in enumerate(self.rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, best_a, best_b = i, a, row[-1]
                    continue
                # ratio row[-1]/a against best_b/best_a, both a > 0
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs < rhs or (
                    lhs == rhs and self.basis[i] < self.basis[leave]
                ):
                    leave, best_a, best_b = i, a, row[-1]
        return leave

    def _iterate(self):
        """Pivot to optimality; returns False on unboundedness.

        The entering column has the most negative reduced cost (Dantzig's
        rule) unless that step would have length zero; then entering and
        leaving follow Bland's rule.  A cycle would consist of zero-length
        steps only, hence of Bland pivots only, which Bland's rule excludes.
        """
        while True:
            obj = self.obj
            candidates = [j for j in range(len(self.cols)) if obj[j] < 0]
            if not candidates:
                return True
            enter = min(candidates, key=obj.__getitem__)
            leave = self._leaving_row(enter)
            if leave >= 0 and self.rows[leave][-1] == 0:
                enter = self._first(candidates)
                leave = self._leaving_row(enter)
            if leave < 0:
                return False
            self._pivot(leave, enter)


def solve(problem):
    """Two-phase exact simplex; never raises for infeasible/unbounded."""
    t = _Tableau(problem)

    if t.n_art:
        t._set_objective([0] * t.n_total + [1] * t.n_art)
        t._iterate()  # phase-1 objective is bounded below by 0
        if t.obj[-1] < 0:  # obj[-1] is -d·(sum of artificials)
            return LPSolution(INFEASIBLE, iterations=t.iterations)
        t._drop_artificials()

    t._set_objective(t.c)
    if not t._iterate():
        return LPSolution(UNBOUNDED, iterations=t.iterations)

    x = [0] * t.n
    for row, v in zip(t.rows, t.basis):
        if v < t.n:
            x[v] = row[-1]
    # dual value for original row i = reduced cost of its surplus, which
    # is 0 while the surplus is basic
    den = t.d * t.c_scale
    y = [0] * t.m
    for j, v in enumerate(t.cols):
        if v >= t.n:
            y[v - t.n] = t.row_scale[v - t.n] * t.obj[j]
    return LPSolution.from_integer_form(
        OPTIMAL, Fraction(-t.obj[-1], den), (t.d, x), (den, y), t.iterations)


def verify_certificate(problem, solution):
    """Re-derive optimality from the solution alone: primal feasibility,
    dual feasibility, exact objective equality and a zero duality gap.
    Independent of the solver path: it reads only the problem and the
    solution, never a tableau.

    The check runs in Python ints on the problem's integer_form and the
    solution's integer forms: the witness is X/dx, and the dual of the scaled
    problem is Y over the common denominator dy = den·lcm(s_i).  Aᵀy is
    accumulated over the rows where Y is nonzero alone, and signs and
    cross-multiplied totals are compared as ints.  The primal
    objective is rebuilt as a Fraction only for the comparison with
    ``solution.optimum``.  The checks run in this order, and the first that
    fails gives the report's reason and index: status, lengths, witness
    sign, primal rows, dual columns, dual sign, objective, then duality gap.

    Complementary slackness needs no stage of its own.  With slack_i =
    s_i·dx·(A_i x - b_i) and reduced_j = sc·dy·(c_j - (Aᵀy)_j), Σ_j
    X_j·reduced_j + Σ_i Y_i·slack_i = sc·dx·dy·(c·x - b·y).  Every term is
    >= 0 once the sign and feasibility stages pass, so a zero gap makes
    every term 0."""
    if solution.status != OPTIMAL:
        return CertificateReport(False, "status not optimal")
    x, y = solution.witness_form, solution.dual_form
    if x is None or len(x[1]) != problem.n_vars:
        return CertificateReport(False, "witness missing or wrong length")
    if y is None or len(y[1]) != problem.n_constraints:
        return CertificateReport(False, "dual missing or wrong length")
    (dx, X), (den, y) = x, y
    for j, v in enumerate(X):
        if v < 0:
            return CertificateReport(False, "negative witness coordinate", j)
    (sc, c), form = problem.integer_form
    A = [row for _, row in form]
    # row i of A is s_i times the problem's and c is sc times its objective,
    # so the dual of the scaled problem is (y[i]/den)·sc/s_i, which is
    # y[i]·sc·(lcm/s_i) over dy
    lcm = math.lcm(*(si for si, _ in form))
    dy = den * lcm
    for i, row in enumerate(A):  # s_i·dx·(A x) >= s_i·dx·b, row by row
        if sum(map(mul, row, X)) < row[-1] * dx:
            return CertificateReport(False, "primal constraint violated", i)
    # sc·dy·(Aᵀy), column by column, summed over the rows where y != 0;
    # the rhs column last gives sc·dy·(b·y)
    aty = [0] * (len(c) + 1)
    for i, v in enumerate(y):
        if v:
            v *= sc * (lcm // form[i][0])
            aty = [t + a * v for t, a in zip(aty, A[i])]
    for j, (cj, t) in enumerate(zip(c, aty)):  # sc·dy·c >= sc·dy·(Aᵀy)
        if cj * dy < t:
            return CertificateReport(False, "dual constraint violated", j)
    for i, v in enumerate(y):
        if v < 0:
            return CertificateReport(False, "negative dual coordinate", i)
    primal = sum(map(mul, c, X))  # sc·dx·(c·x)
    dual = aty[-1]                # sc·dy·(b·y)
    if Fraction(primal, sc * dx) != solution.optimum:
        return CertificateReport(False, "objective mismatch with witness")
    if dual * dx != primal * dy:
        return CertificateReport(False, "duality gap nonzero")
    return CertificateReport(True)
