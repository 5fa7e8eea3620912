r"""Registry of fan-loop identities with exhaustive vectorized verification.

Every law is a pair of expression trees over the loop signature
(·, \, /, e, t, p, nucleus-inverse) plus a list of quantified variables,
each ranging over G, over N(G), or over Z(G).  Multi-part identities are
stored as clause lists under one stable id.  Each law is stated once, as
its paper-notation text, and _term reads the trees from it: products
without brackets associate to the left.  That reading is sound for every
registry entry because at most one factor lies outside the nucleus or any
consecutive outside pair is itself the intended unit, so nucleus factors
slide across the grouping.

check_law decides each law on the smallest domain that is provably
equivalent.  The membership laws 2.1.9-t/2.1.9-p hold iff the value set of
the t or p tensor lies in N(G), which the analysis' value masks already
give.  The invariance laws quantified over Z(G) or N(G) are read off the
analysis: 2.3.1, 2.3.3 and their primed forms, and 2.3.4', hold in every
loop once their pool lies in Z or N, and 2.3.4 holds, when N is normal,
iff every element of N commutes with every t value (proofs in
_reduced_holds).

Every other law, and any of these that the analysis does not prove, is
evaluated on its full domain by a straight-line plan compiled once per law:
equal subterms share one register, and each operation is one take from the
raveled table, ldiv, rdiv or t/p array at the flat index (x·n + y)·n + z.
The plan runs in slabs of the first variable, first to last, a fixed number
of tuples at a time (_kernels.SLAB), so memory stays bounded and the first
failing slab holds the first counterexample in C order, the
lexicographically smallest one.
"""

import re
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _kernels, quotient
from .errors import NotApplicable, UnknownLaw

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------

# Each operation of the signature is one lookup: index the array it names at
# the values of its arguments.
_ARRAYS = {
    "·": lambda G: G.table,
    "\\": lambda G: G.ldiv,
    "/": lambda G: G.rdiv,
    "t": lambda G: G.assoc_tensors()[0],   # t(x,y,z) = ((xy)z)/(x(yz))
    "p": lambda G: G.assoc_tensors()[1],   # p(x,y,z) = (x(yz)) \ ((xy)z)
}


class Expr:
    """A term: a variable ("var", name), the identity ("e",) or an
    operation of _ARRAYS applied to argument terms."""

    __slots__ = ("op", "args")

    def __init__(self, op, *args):
        self.op, self.args = op, args


def _term(text):
    r"""Read one side of a law text into its Expr tree.

    Products, written as juxtaposition or ·, bind loosest and associate to
    the left; \ and / bind tighter and associate to the left; the suffix
    ^-1 (x^-1 = x\e, used only where x lies in the nucleus) binds tightest.
    [ ] are brackets like ( ), t(…) and p(…) take three arguments, e is
    the identity and a letter with optional digits is a variable.  Raises
    ValueError on any other text.
    """
    tokens = re.findall(r"\^-1|[a-z]\d*|[()\[\],·\\/]", text)
    if "".join(tokens) != "".join(text.split()):
        raise ValueError(f"unknown character in law text {text!r}")
    tokens.append(None)
    pos = 0

    def take(*want):
        nonlocal pos
        tok = tokens[pos]
        if tok is None or (want and tok not in want):
            raise ValueError(f"expected {' or '.join(want) or 'a term'} at "
                             f"{tok or 'the end'!r} in law text {text!r}")
        pos += 1
        return tok

    def product():
        out = quotient()
        while tokens[pos] and (tokens[pos] in ("·", "(", "[")
                               or tokens[pos][0].isalpha()):
            if tokens[pos] == "·":
                take()
            out = Expr("·", out, quotient())
        return out

    def quotient():
        out = power()
        while tokens[pos] in ("\\", "/"):
            out = Expr(take(), out, power())
        return out

    def power():
        tok = take()
        if tok in ("(", "["):
            out = product()
            take(")" if tok == "(" else "]")
        elif tok in ("t", "p"):
            take("(")
            args = [product(), take(",") and product(), take(",") and product()]
            take(")")
            out = Expr(tok, *args)
        elif tok[0].isalpha():
            out = Expr("e") if tok == "e" else Expr("var", tok)
        else:
            raise ValueError(f"unexpected {tok!r} in law text {text!r}")
        while tokens[pos] == "^-1":
            take()
            out = Expr("\\", out, Expr("e"))
        return out

    out = product()
    if tokens[pos] is not None:
        raise ValueError(f"trailing {tokens[pos]!r} in law text {text!r}")
    return out


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    """One registry identity.

    vars: tuple of (name, domain) with domain in {"G", "N", "Z"}.
    clauses: tuple of (lhs, rhs) pairs; rhs None means a membership clause
    (the value must land in N(G)).
    scope: "fan" = fan loops only, "all" = every loop.
    """

    id: str
    text: str
    vars: tuple
    clauses: tuple
    scope: str = "fan"

    @property
    def arity(self):
        return len(self.vars)


@dataclass(frozen=True)
class LawReport:
    law_id: str
    status: str
    witness: dict | None = None
    tuples_checked: int = 0
    clause: int | None = None

    def __bool__(self):
        return self.status == HOLDS


def _law(id_, text, names, scope="fan"):
    """Read a law text into its clauses: they are separated by "; " or
    " and ", a chain x = y = z gives one clause per "=", and "X in N(G)" is
    a membership clause.  A trailing "for a,b in N" (or "in Z") sets those
    variables' domain, G otherwise; names gives the quantifier order, which
    a witness follows and the text cannot give."""
    body, domain = text, {}
    if m := re.fullmatch(r"(.*) for (\S+) in ([NZ])", text):
        body, domain = m[1], dict.fromkeys(m[2].split(","), m[3])
    clauses = []
    for part in re.split(r"; | and ", body):
        if part.endswith(" in N(G)"):
            clauses.append((_term(part.removesuffix(" in N(G)")), None))
        else:
            sides = [_term(side) for side in part.split("=")]
            clauses += zip(sides, sides[1:])
    return Law(id_, text, tuple((v, domain.get(v, "G")) for v in names.split()),
               tuple(clauses), scope)


REGISTRY = tuple(_law(*row) for row in (
    # ---- 2.2 family (fan loops) ----
    ("2.2.1", r"b\e = t(e/b,b,b\e)(e/b)", "b"),
    ("2.2.1'", r"b\e = (e/b)p(e/b,b,b\e)", "b"),
    ("2.2.2", r"(a\e)b = t(e/a,a,a\e)[t(e/a,a,a\b)]^-1(a\b)", "a b"),
    ("2.2.2b", r"a\b = (a\e)b·p(a,a\e,b)", "a b"),
    ("2.2.2'", r"(bc)\a = (c\(b\a))[p(b,c,(bc)\a)]^-1", "a b c"),
    ("2.2.2''", r"(a\b)c = (a\(bc))[p(a,a\b,c)]^-1", "a b c"),
    ("2.2.2'''", r"(ab)\e = (b\e)(a\e)[t(a,b,b\e)]^-1·t(ab,b\e,a\e)", "a b"),
    ("2.2.3", r"b(e/a) = (b/a)p(b/a,a,a\e)[p(e/a,a,a\e)]^-1", "a b"),
    ("2.2.3b", r"b/a = [t(b,e/a,a)]^-1·b(e/a)", "a b"),
    ("2.2.3'", r"a/(bc) = t(a/(bc),b,c)((a/c)/b)", "a b c"),
    ("2.2.3''", r"c(b/a) = t(c,b/a,a)·(cb)/a", "a b c"),
    ("2.2.3'''", r"e/(ab) = [p(e/b,e/a,ab)]^-1·p(e/a,a,b)(e/b)(e/a)", "a b"),
    # ---- 2.3 family (fan loops) ----
    ("2.3.1", "t(z1·a1,z2·a2,z3·a3) = t(a1,a2,a3) for z1,z2,z3 in Z",
     "z1 z2 z3 a1 a2 a3"),
    ("2.3.1'", "p(z1·a1,z2·a2,z3·a3) = p(a1,a2,a3) for z1,z2,z3 in Z",
     "z1 z2 z3 a1 a2 a3"),
    ("2.3.2", r"t(a,a\e,a)a = ap(a,a\e,a)", "a"),
    ("2.3.2'", r"t(a,e/a,a)a = ap(a,e/a,a)", "a"),
    ("2.3.2''", r"p(a,a\e,a)t(e/a,a,a\e) = e", "a"),
    ("2.3.3", "t(a1,a2,a3·b) = t(a1,a2,a3) for b in N", "a1 a2 a3 b"),
    ("2.3.3'", "p(b·a1,a2,a3) = p(a1,a2,a3) for b in N", "a1 a2 a3 b"),
    ("2.3.4", "t(b·a1,a2,a3) = b·t(a1,a2,a3)·b^-1 for b in N", "a1 a2 a3 b"),
    ("2.3.4'", "p(a1,a2,a3·b) = b^-1·p(a1,a2,a3)·b for b in N", "a1 a2 a3 b"),
    ("2.3.8", r"t(a,a\e,a)·a·t(e/a,a,a\e) = a", "a"),
    # ---- unconditional laws (any loop) ----
    ("2.2.4", r"b(b\a) = a and b\(ba) = a", "a b", "all"),
    ("2.2.5", "(a/b)b = a and (ab)/b = a", "a b", "all"),
    ("2.3.6", r"b/(qa) = q^-1(b/a); b/q = q\b; q\b = bq^-1; b/q = bq^-1 for q in Z",
     "q a b", "all"),
    ("2.6.6", r"(e/b)\e = b and e/(b\e) = b", "b", "all"),
    ("2.8.1", r"x\(ab) = (x\a)b for a,b in N", "x a b", "all"),
    ("2.8.2", "(ab)/x = a(b/x) for a,b in N", "x a b", "all"),
    ("2.1.9-t", "t(a,b,c) in N(G)", "a b c", "all"),
    ("2.1.9-p", "p(a,b,c) in N(G)", "a b c", "all"),
))
_BY_ID = {law.id: law for law in REGISTRY}


def law_ids():
    return tuple(law.id for law in REGISTRY)


def get_law(law_id):
    try:
        return _BY_ID[law_id]
    except KeyError:
        raise UnknownLaw(law_id) from None


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def _pools(G):
    """Index arrays of the three quantifier domains G, N(G) and Z(G)."""
    ana = G.analysis
    return {
        "G": np.arange(G.order, dtype=np.intp),
        "N": np.array(sorted(ana.nucleus.members), dtype=np.intp),
        "Z": np.array(sorted(ana.center.members), dtype=np.intp),
    }


# Invariance laws: X(.., b·a_k or a_k·b, ..) = φ_b(X(a1,a2,a3)) with X the
# t or p tensor and b in the law's Z or N pool, decided from the analysis
# (proofs in _reduced_holds).
_INVARIANCE = ("2.3.1", "2.3.1'", "2.3.3", "2.3.3'", "2.3.4", "2.3.4'")


# Membership laws: X(a,b,c) lies in N(G) for all a, b, c exactly when the
# value set of the t or p tensor does, so the analysis' value masks decide
# them.
MEMBERSHIP = {"2.1.9-t": "t_range", "2.1.9-p": "p_range"}


def _reduced_holds(G, law, pools):
    r"""Decide a membership or invariance law from G's analysis.

    Returns None for a law without a reduction, True when the reduction
    proves that the law holds, and False otherwise: the law fails, or a
    premise of its reduction does, and the full domain must decide.

    An invariance law's premise is that its pool lies in the real center Z
    (2.3.1, 2.3.1') or nucleus N (the others).  core._analyze's docstring
    proves, for n in N and in every loop,
        t(a·n,b,c) = t(a,n·b,c)   t(a,b·n,c) = t(a,b,n·c)
        t(a,b,c·n) = t(a,b,c)
    and the same for p, but for p(a,b,c·n) = n\(p(a,b,c)·n).  Also
    p(n·a,b,c) = p(a,b,c): with X = (ab)c and Y = a(bc), n in N_l gives
    ((na)b)c = nX and (na)(bc) = nY, and X = Y·p gives nX = (nY)·p.  So
    2.3.3 and 2.3.3' hold in every loop, and so does 2.3.4', whose right
    side (b^-1·p)·b is b\(p·b) for b in N: b·(b^-1·p) = p and
    b·((b\p)·b) = p·b, both by b in N_l.  A z in Z commutes with every
    element and lies in N, so
        t(z·a,b,c) = t(a·z,b,c) = t(a,z·b,c) = t(a,b·z,c) = t(a,b,z·c)
                   = t(a,b,c·z) = t(a,b,c),
    and for p the last step reads z\(p·z) = z\(z·p) = p.  Each slot of
    2.3.1 and 2.3.1' is thus invariant alone, and the slots chain one at a
    time: t(z1a1, z2a2, z3a3) = t(a1, z2a2, z3a3) = t(a1, a2, z3a3) =
    t(a1, a2, a3).  These five laws are decided without a lookup.

    2.3.4, t(b·a1,a2,a3) = b·t(a1,a2,a3)·b^-1, also needs N normal (xN = Nx
    for every x, Def 2.7.1, as quotient.is_normal_subloop checks it).  Then
    b·a1 = a1·n for some n in N, and t(a1·n,a2,a3) = t(a1,a2,a3) by the
    slot moves above, each translate passed on through Nx = xN: the left
    side is t(a1,a2,a3), whatever b.  The analysis' t_range is t's exact
    value set, and b and (a1,a2,a3) range independently, so the law holds
    iff (b·v)·b^-1 = v for every b in the pool and v in t_range, that is,
    iff b and v commute (multiply by b on the right; b and b^-1 lie in
    N_r): |N|·|t_range| lookups.  A non-normal N, like a failed premise,
    leaves the law to the full domain.
    """
    ana = G.analysis
    if law.id in MEMBERSHIP:
        return getattr(ana, MEMBERSHIP[law.id]).members <= ana.nucleus.members
    if law.id not in _INVARIANCE:
        return None
    (dom,) = {d for _, d in law.vars if d != "G"}
    pool = pools[dom]
    if not (ana.center if dom == "Z" else ana.nucleus).mask()[pool].all():
        return False
    if law.id != "2.3.4":
        return True
    if not quotient.is_normal_subloop(G, ana.nucleus):
        return False
    T, v = G.table, np.flatnonzero(ana.t_range.mask())
    return bool((T[T[pool[:, None], v], G.ldiv[pool, 0, None]] == v).all())


def check_law(G, law, *, pools=None):
    """Verify one registry law on G, on the smallest equivalent domain.

    The membership laws 2.1.9-t/2.1.9-p and the invariance laws 2.3.1,
    2.3.3, 2.3.4 and their primed forms are decided from the analysis by
    _reduced_holds, without their domains; every other law, and any of
    these that the analysis does not prove, is evaluated on its full
    domain, so a witness is always the lexicographically first one.  On
    HOLDS, tuples_checked is the size of the quantified domain the verdict
    covers (times the clause count), however it was decided.  pools, G's
    quantifier domains as _pools(G) builds them, lets check_all build them
    once for every law.

    Raises UnknownLaw for an id not in the registry, ValueError for a
    law that is neither a Law nor an id, and NotApplicable when a fan-only
    law is asked of a non-fan loop.
    """
    if isinstance(law, str):
        law = get_law(law)
    elif not isinstance(law, Law):
        raise ValueError(f"law must be a Law or a law id, got {law!r}")
    if law.scope == "fan" and not G.analysis.is_fan_loop:
        raise NotApplicable(law.id)
    if pools is None:
        pools = _pools(G)
    if _reduced_holds(G, law, pools):
        size = int(np.prod([len(pools[d]) for _, d in law.vars]))
        return LawReport(law.id, HOLDS, None, size * len(law.clauses), None)
    return _check_full(G, law, pools)


@cache
def _plan(law):
    """Straight-line program of a law: (fixed, sliced, clauses).

    Registers 0..m-1 hold the law's m variables and register m the identity
    e.  A step (out, op, args) fills register out with one lookup of the
    array op names at the argument registers; equal subterms share one
    register.  The fixed steps do not read the first variable and run once,
    the sliced ones run in every slab.  A clause is a (lhs, rhs) pair of
    registers, rhs None for membership in N(G).
    """
    names = [name for name, _ in law.vars]
    m = len(names)
    keys, steps, sliced = {}, [], {0}

    def reg(expr):
        if expr.op == "var":
            return names.index(expr.args[0])
        if expr.op == "e":
            return m
        args = tuple(map(reg, expr.args))
        if (expr.op, args) not in keys:
            out = keys[expr.op, args] = m + 1 + len(steps)
            steps.append((out, expr.op, args))
            if sliced.intersection(args):
                sliced.add(out)
        return keys[expr.op, args]

    clauses = tuple((reg(lhs), None if rhs is None else reg(rhs))
                    for lhs, rhs in law.clauses)
    return (tuple(s for s in steps if s[0] not in sliced),
            tuple(s for s in steps if s[0] in sliced), clauses)


def _lookups(regs, steps, flat, n):
    """Run plan steps: each lookup is one take from a raveled array at the
    flat index (x·n + y)·n + z of its argument registers."""
    for out, op, (x, *rest) in steps:
        idx = regs[x]
        for r in rest:
            idx = np.multiply(idx, n, dtype=np.intp) + regs[r]
        regs[out] = flat[op].take(idx)


def _check_full(G, law, pools):
    """Evaluate every clause on the full domain, in slabs of the first
    variable, first to last.

    Registers broadcast over the variables their subterm reads.  A clause
    is evaluated in a slab only while neither it nor an earlier clause has
    failed, so its first failure is its first in C order; the report names
    the lowest failing clause and its first witness, as a clause-by-clause
    scan of the whole domain would.
    """
    fixed, sliced, clauses = _plan(law)
    n = G.order
    flat = {op: _ARRAYS[op](G).ravel() for _, op, _ in fixed + sliced}
    values = [pools[d] for _, d in law.vars]
    m = len(values)
    shape = tuple(map(len, values))
    per_clause = int(np.prod(shape))
    regs = [v.reshape([-1 if j == k else 1 for j in range(m)])
            for k, v in enumerate(values)]
    regs += [np.intp(0)] + [None] * (len(fixed) + len(sliced))
    _lookups(regs, fixed, flat, n)
    nuc_mask = (G.analysis.nucleus.mask()
                if any(rhs is None for _, rhs in clauses) else None)
    live, witness = len(clauses), None
    for rows in _kernels.slabs(shape[0], per_clause // shape[0]):
        slab = regs[:]
        slab[0] = regs[0][rows]
        _lookups(slab, sliced, flat, n)
        for ci, (lhs, rhs) in enumerate(clauses[:live]):
            bad = (~nuc_mask[slab[lhs]] if rhs is None
                   else slab[lhs] != slab[rhs])
            coords = _kernels.first(
                np.broadcast_to(bad, (rows.stop - rows.start, *shape[1:])))
            if coords is not None:
                live, witness = ci, (coords[0] + rows.start, *coords[1:])
                break
        if live == 0:
            break
    if witness is None:
        return LawReport(law.id, HOLDS, None, per_clause * len(clauses), None)
    labels = {
        name: G.label(int(values[k][witness[k]]))
        for k, (name, _) in enumerate(law.vars)
    }
    return LawReport(law.id, FAILS, labels, per_clause * (live + 1), live)


def check_all(G):
    """One report per registry law, as check_law gives it, with G's
    quantifier pools built once for all of them; fan-only laws on non-fan
    loops come back with status not-applicable rather than raising."""
    pools = _pools(G)
    out = []
    for law in REGISTRY:
        try:
            out.append(check_law(G, law, pools=pools))
        except NotApplicable:
            out.append(LawReport(law.id, NOT_APPLICABLE, None, 0, None))
    return out
