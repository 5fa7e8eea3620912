r"""Left-invariant measure machinery on finite fan loops, exact throughout.

The chain: covering numbers (f:φ), each solved and certified as one exact
LP, the dual of the covering LP; the ratio functional J_{φ,f₀}(f) =
(f:φ)/(f₀:φ); its directed limit as supports of φ shrink to {e} (on a
discrete loop the tail is constant, so the limit is the point-mass value);
the induced invariant functional/measure; and the uniqueness constant
between two references.

Point-mass covering numbers have a closed form: the constraint at x is
served only by the variable at b = e/x, forcing c_{e/x} = f(x), and b ↦ b\e
is a bijection, so (f:δ_e) = Σf and J_{f₀}(f) = Σf/Σf₀.  HaarFunctional
evaluates this closed form and cross-checks it once at construction against
certified simplex solves: three for the reference f₀, and three for δ_e,
which depend only on the loop and are solved once per loop, since
HaarFunctional.rebased builds J_{g₀} from J_{f₀} without repeating them.

A LoopFunction stores only its values' integer form (least common
denominator, integer numerators) and rebuilds the values as Fractions on
request.  Input values are made exact and scaled once, by the constructor;
every other operation works on the numerators and reduces by one gcd.  The
covering LP is built from the two integer forms without a Fraction, and the
closed form sums numerators over one scale; its comparisons, in the
cross-check and in the measure's translation check, cross-multiply ints.
Unknown labels and element indices outside 0..n-1 are refused, never
wrapped.
"""

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

import numpy as np

from . import core, lp, quotient
from ._kernels import first
from .config import DEFAULT_SEED
from .errors import (
    FanLoopCheckFailed,
    LoopMismatch,
    NotFanLoop,
    NotNormal,
    ReferenceNotInUpsilon,
    ZeroComparisonFunction,
    ZeroReference,
)

_F0 = Fraction(0)
_F1 = Fraction(1)
_HEIGHTS = (_F1, Fraction(1, 2), Fraction(3, 1))


@dataclass(frozen=True, init=False)
class LoopFunction:
    """A nonnegative rational-valued function on a finite loop.

    The data is stored only as ``integer_form`` (s, nums): s the least
    positive scale and nums the Python ints s·f(x), so f(x) = nums[x]/s.
    ``values`` and f(x) are rebuilt from it as Fractions; equality and the
    hash compare the least form, which equal values share."""

    loop: core.FiniteLoop
    integer_form: tuple

    def __init__(self, loop, values):
        self._store(loop, *lp.scaled(tuple(lp.rational(v) for v in values)))

    @classmethod
    def from_integer_form(cls, loop, scale, nums):
        """The function nums[x]/scale, for a positive int scale and one int
        numerator per element, brought to its least form by one gcd."""
        f = cls.__new__(cls)
        f._store(loop, scale, nums)
        return f

    def _store(self, loop, scale, nums):
        if len(nums) != loop.order:
            raise ValueError("value vector length != loop order")
        if min(nums) < 0:
            i = next(i for i, v in enumerate(nums) if v < 0)
            raise ValueError(f"negative value at {loop.label(i)}")
        g = math.gcd(scale, *nums)
        object.__setattr__(self, "loop", loop)
        object.__setattr__(self, "integer_form",
                           (scale // g, tuple([v // g for v in nums])))

    @property
    def values(self):
        return lp.fractions(self.integer_form)

    def __call__(self, x):
        scale, nums = self.integer_form
        return Fraction(nums[self.loop.element(x)], scale)

    def __eq__(self, other):
        return (
            isinstance(other, LoopFunction)
            and self.loop.same(other.loop)
            and self.integer_form == other.integer_form
        )

    def __hash__(self):
        return hash(self.integer_form)

    def support(self):
        return frozenset(i for i, v in enumerate(self.integer_form[1]) if v)

    def is_zero(self):
        return not any(self.integer_form[1])

    def total_form(self):
        """Σf as the int pair (Σ nums, s): Σf = Σ nums / s."""
        scale, nums = self.integer_form
        return sum(nums), scale

    def total(self):
        return Fraction(*self.total_form())

    def sup_norm(self):
        scale, nums = self.integer_form
        return Fraction(max(nums, default=0), scale)

    def scale(self, alpha):
        """α·f; an int or Fraction α is read as its ratio, any other α (a
        bool or a rational string) goes through lp.rational, which refuses
        bools and floats."""
        if isinstance(alpha, bool) or not isinstance(alpha, numbers.Rational):
            alpha = lp.rational(alpha)
        p, q = int(alpha.numerator), int(alpha.denominator)
        scale, nums = self.integer_form
        return LoopFunction.from_integer_form(self.loop, scale * q,
                                              [v * p for v in nums])

    def __add__(self, other):
        _same_loop(self.loop, other)
        (s, a), (t, b) = self.integer_form, other.integer_form
        m = math.lcm(s, t)
        u, w = m // s, m // t
        return LoopFunction.from_integer_form(
            self.loop, m, [x * u + y * w for x, y in zip(a, b)])


def _same_loop(G, f):
    if not G.same(f.loop):
        raise LoopMismatch("functions live on different loops")


def constant(G, value=1):
    return LoopFunction(G, [value] * G.order)


def delta(G, x=0):
    """Point mass at element index (or label) x."""
    return char(G, (x,))


def char(G, members):
    """Indicator function of a set of indices/labels."""
    nums = [0] * G.order
    for x in members:
        nums[G.element(x)] = 1
    return LoopFunction.from_integer_form(G, 1, nums)


def random_function(G, rng=None):
    """Seeded random LoopFunction with small nonnegative rationals (a
    quarter of them zero, numerators ≤ 6, denominators ≤ 8), never
    identically zero."""
    rng = rng if rng is not None else Random(DEFAULT_SEED)
    while True:
        f = LoopFunction(G, [
            0 if rng.random() < 0.25
            else Fraction(rng.randint(1, 6), rng.randint(1, 8))
            for _ in range(G.order)])
        if not f.is_zero():
            return f


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------

def covering_problem(f, phi):
    """The LP behind (f:φ): minimize Σ_b c_b s.t. Σ_b c_b·φ(bx) ≥ f(x),
    c ≥ 0, with all n translate variables."""
    _same_loop(f.loop, phi)
    G = f.loop
    n = G.order
    tbl = G.table.tolist()
    vals = phi.values
    A = tuple(
        tuple(vals[tbl[b][x]] for b in range(n)) for x in range(n)
    )
    return lp.LPProblem((_F1,) * n, A, f.values)


def covering_number(f, phi):
    """(f:φ), exact, via the LP dual of the covering LP, over supp f only.

    That dual, max f·y s.t. Σ_x φ(bx)·y_x ≤ 1 and y ≥ 0, is given to
    lp.solve as D: min −f·y s.t. −Φᵀy ≥ −1, where every right-hand side is
    negative, so the surplus basis is feasible from the start and phase 1
    does nothing.  D has a column only for each x in supp f: a y_x with
    f(x) = 0 has cost 0 and Φ ≥ 0, so y_x = 0 at some optimum and the value
    is unchanged.  A row b whose entries φ(bx), x in supp f, are all 0 reads
    0 ≤ 1 and is dropped.  The LP dual of this D is the covering LP
    restricted to the rows x in supp f, with its objective negated, and the
    rows it leaves out, Σ_b c_b·φ(bx) ≥ 0, hold for every c ≥ 0; so
    lp.verify_certificate(D, solution) proves (f:φ) = −optimum, with the
    covering witness c as D's dual (0 at each dropped translate b).  The
    (0:φ) problem is 0×0, with optimum 0.

    D is built in integer form straight from the functions' integer forms:
    the objective is (s_f, −nums_f[x] for x in supp f), least since the
    dropped numerators are 0, and row b is (s_φ, −nums_φ[bx] for each kept
    x, then −s_φ), divided by its own gcd, so that the form is the one
    LPProblem would compute from D's Fractions.

    Asserts the analog of the classical covering bound: with q a point of
    maximal φ and m = |S_f|, the optimum is at most 2m·‖f‖/φ(q).
    """
    _same_loop(f.loop, phi)
    s_f, f_nums = f.integer_form
    s_phi, phi_nums = phi.integer_form
    if not any(phi_nums):
        raise ZeroComparisonFunction()
    support = [x for x, v in enumerate(f_nums) if v]
    rows = []
    for row in f.loop.table.tolist():
        vals = [phi_nums[row[x]] for x in support]
        if any(vals):
            g = math.gcd(s_phi, *vals)
            vals.append(s_phi)
            rows.append((s_phi // g, tuple([-v // g for v in vals])))
    problem = lp.LPProblem.from_integer_form(
        (s_f, tuple([-f_nums[x] for x in support])), rows)
    sol = lp.solve(problem)
    # D is feasible at y = 0 and bounded (φ ≠ 0, Latin table): always optimal
    cert = lp.verify_certificate(problem, sol)
    if not cert.ok:
        raise FanLoopCheckFailed("covering-lp-certificate", (cert.reason,))
    value = -sol.optimum
    # the bound 2m·‖f‖/φ(q) is top/low, compared cross-multiplied in ints;
    # theorem-backed, so never exceeded
    top = 2 * len(support) * max(f_nums) * s_phi
    low = s_f * max(phi_nums)
    if value.numerator * low > top * value.denominator:  # pragma: no cover
        raise FanLoopCheckFailed("covering-bound", (value, Fraction(top, low)))
    return value


def translate(f, b, mode="left"):
    r"""Translate a function: left _bf(x)=f(bx); right f_b(x)=f(xb);
    left-div f^b(x)=f(b\x)."""
    G = f.loop
    b = G.element(b)
    if mode == "left":
        idx = G.table[b, :]
    elif mode == "right":
        idx = G.table[:, b]
    elif mode == "left-div":
        idx = G.ldiv[b, :]
    else:
        raise ValueError(f"unknown translate mode {mode!r}")
    scale, nums = f.integer_form
    return LoopFunction.from_integer_form(G, scale,
                                          [nums[i] for i in idx.tolist()])


def fan_average(f, n0):
    """f^[λ](x) = (1/|N₀|)·Σ_{γ∈N₀} f(γx), λ the uniform weight on N₀."""
    G = f.loop
    members = sorted(core.require_subgroup(G, n0).members)
    scale, nums = f.integer_form
    rows = G.table[members].T.tolist()
    return LoopFunction.from_integer_form(
        G, scale * len(members), [sum([nums[i] for i in row]) for row in rows])


def upsilon_member(f, n0):
    r"""Is f in Υ(G,N₀): nonzero and constant on N₀-orbits?

    Both the left form f(γa) = f(a) and the right form f(aγ) = f(a) are
    evaluated.  They can disagree only where N₀a ≠ aN₀, so a disagreement
    raises NotNormal with is_normal_subloop's witness rather than silently
    picking a side; for a normal N₀, the fan among them, it is a bug.
    """
    G = f.loop
    members = sorted(core.require_subgroup(G, n0).members)
    if f.is_zero():
        return False
    nums = list(f.integer_form[1])
    left = all(
        [nums[i] for i in row] == nums for row in G.table[members].tolist()
    )
    right = all(
        [nums[i] for i in col] == nums
        for col in G.table[:, members].T.tolist()
    )
    if left != right:
        rep = quotient.is_normal_subloop(G, members)
        if not rep.ok:
            raise NotNormal(rep.condition, rep.witness)
        raise FanLoopCheckFailed(  # pragma: no cover
            "upsilon-left-right-mismatch", (members,))
    return left


def ratio_functional(f, f0, phi):
    """J_{φ,f₀}(f) = (f:φ)/(f₀:φ), exact."""
    if phi.is_zero():
        raise ZeroComparisonFunction()
    if f0.is_zero():
        raise ZeroReference()
    return covering_number(f, phi) / covering_number(f0, phi)


# ---------------------------------------------------------------------------
# the directed limit and the invariant functional
# ---------------------------------------------------------------------------

class HaarFunctional:
    """J_{f₀}: the value of the directed limit of J_{φ_W,f₀} as supp φ_W
    shrinks to {e}.  On a discrete loop the net's tail — every φ supported
    inside {e} — gives one constant value, the closed form Σf/Σf₀."""

    def __init__(self, G, f0=None):
        ana = G.analysis
        if not ana.is_fan_loop:
            raise NotFanLoop(ana.fan_witness)
        self.loop = G
        self.fan = ana.fan
        self._set_reference(f0 if f0 is not None else constant(G, 1))
        self._cross_check((self.reference, delta(G)))

    def rebased(self, g0):
        """J_{g₀} on this functional's loop.  The Υ test and the three
        (g₀ : h·δ_e) probes run as at construction; the (δ_e : h·δ_e)
        probes depend only on the loop and were certified for this one."""
        H = object.__new__(type(self))
        H.loop, H.fan = self.loop, self.fan
        H._set_reference(g0)
        H._cross_check((H.reference,))
        return H

    def _set_reference(self, f0):
        _same_loop(self.loop, f0)
        if not upsilon_member(f0, self.fan):
            raise ReferenceNotInUpsilon(
                "f0 must be nonzero and constant on fan orbits"
            )
        self.reference = f0
        self._ref_total = f0.total_form()

    def _cross_check(self, probes):
        """Run the real simplex on (p : h·δ_e) once per probe p and height
        h, and compare it with the closed form Σp/h, cross-multiplied in
        ints."""
        de = delta(self.loop)
        for height in _HEIGHTS:
            phi = de.scale(height)
            for probe in probes:
                value = covering_number(probe, phi)
                total, scale = probe.total_form()
                if (value.numerator * scale * height.numerator
                        != total * value.denominator * height.denominator):
                    raise FanLoopCheckFailed(
                        "point-mass covering mismatch", (probe.values, height)
                    )

    # -- public surface ---------------------------------------------------

    def __call__(self, f):
        _same_loop(self.loop, f)
        total, scale = f.total_form()
        ref_total, ref_scale = self._ref_total
        return Fraction(total * ref_scale, scale * ref_total)

    def relative(self, g):
        """J_g with J_g(f) = J_{f₀}(f)/J_{f₀}(g) — independent of f₀."""
        jg = self(g)
        if jg == 0:
            raise ZeroReference()
        return lambda f: self(f) / jg

    def signed(self, values):
        """Finite signed split J(f⁺) − J(f⁻) for a possibly-negative
        rational value vector."""
        vals = [lp.rational(v) for v in values]
        plus = LoopFunction(self.loop, [max(v, _F0) for v in vals])
        minus = LoopFunction(self.loop, [max(-v, _F0) for v in vals])
        return self(plus) - self(minus)


def haar_limit(G, f0=None):
    """The invariant functional J_{f₀} (see HaarFunctional)."""
    return HaarFunctional(G, f0)


@dataclass(frozen=True)
class InvariantMeasure:
    loop: core.FiniteLoop = field(compare=False)
    weights: tuple = ()
    total: Fraction = _F0
    notes: tuple = ()

    def mass(self, members):
        """μ of the set of the given indices/labels; each element counts
        once, however often it is listed."""
        return sum((self.weights[i] for i in
                    set(map(self.loop.element, members))), _F0)


def invariant_measure(G, J=None):
    """μ with μ({x}) = J(χ_x)/J(χ_e): on a finite fan loop every weight is
    1 and the total is the order.  Translation invariance on singletons is
    re-verified exhaustively before returning.

    J is the caller's functional on G, if it has one; by default the
    constant-reference J = haar_limit(G) is built here.  J is called once
    per element; the n values are brought over one scale, so μ({x}) is
    nums[x]/nums[e], and the checks compare those ints."""
    if J is None:
        J = haar_limit(G)
    elif not G.same(J.loop):
        raise LoopMismatch("functional lives on a different loop")
    _, nums = lp.scaled([lp.rational(J(delta(G, x))) for x in range(G.order)])
    ne = nums[0]
    for v in nums:
        if v * ne <= 0:
            raise FanLoopCheckFailed("measure-positivity", (Fraction(v, ne),))
    # equal weights share a class id; μ({bx}) = μ({x}), first (b, x)
    # row-major
    ids = {}
    w = np.array([ids.setdefault(v, len(ids)) for v in nums], dtype=np.intp)
    bx = first(w[G.table] != w)
    if bx is not None:
        raise FanLoopCheckFailed("measure-translation-invariance", bx)
    weights = tuple([Fraction(v, ne) for v in nums])
    total = Fraction(sum(nums), ne)
    notes = (
        "mu(G) is finite and G is compact (finite discrete): "
        "finiteness <-> compactness holds trivially",
    )
    return InvariantMeasure(G, weights, total, notes)


def verify_uniqueness(G, f0, g0, trials=20, rng=None):
    """Uniqueness constant: H = J_{g₀} satisfies H(f) = κ·J_{f₀}(f) with
    κ = (Σf₀)/(Σg₀).  Verified exactly on every singleton indicator and on
    seeded random functions before κ is returned."""
    trials = core.count(trials, "trials")
    J = haar_limit(G, f0)
    H = J.rebased(g0)
    kappa = f0.total() / g0.total()
    for x in range(G.order):
        d = delta(G, x)
        if H(d) != kappa * J(d):
            raise FanLoopCheckFailed("uniqueness-singleton", (G.label(x),))
    rng = rng if rng is not None else Random(DEFAULT_SEED)
    for _ in range(trials):
        f = random_function(G, rng)
        if H(f) != kappa * J(f):
            raise FanLoopCheckFailed("uniqueness-random", (f.values,))
    return kappa
