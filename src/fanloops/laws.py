r"""Registry of fan-loop identities, each decided by a theorem.

Every law is its paper-notation text plus a list of quantified variables,
each ranging over G, over N(G) or over Z(G); a multi-part identity is a
list of clauses, pairs of side texts, under one stable id.  Products
without brackets associate to the left, and x^-1 = x\e is used only where
x lies in the nucleus N, whose elements have two-sided inverses.

check_law evaluates no law tuple by tuple.  It has one path per kind:
  - a fan-scope law holds on every fan loop, where t and p take values in
    N, and raises NotApplicable on any other loop;
  - an "all" law holds in every loop;
  - a membership law, 2.1.9-t or 2.1.9-p, holds iff the analysis' t_range
    or p_range lies in N; otherwise it fails at the first triple in C
    order whose t or p leaves N, which the analysis records (core._analyze
    proves it first in G^3).
The proofs follow.  n in N moves brackets: n(xy) = (nx)y as n lies in N_l,
(xn)y = x(ny) as it lies in N_m, (xy)n = x(yn) as it lies in N_r.  By the
definitions of t and p, (ab)c = t(a,b,c)·(a(bc)) = (a(bc))·p(a,b,c).

In every loop:
  2.2.4, 2.2.5, 2.6.6: b(b\a) = a and (a/b)b = a define \ and /, as
    _kernels.division_tables builds them on a verified Latin square, and
    the other clauses are the uniqueness of those quotients: b\(ba) = a
    and (ab)/b = a, and (e/b)\e = b and e/(b\e) = b as (e/b)b = e = b(b\e).
  2.8.1: x((x\a)b) = (x(x\a))b = ab, as b lies in N_r.
  2.8.2: (a(b/x))x = a((b/x)x) = ab, as a lies in N_l.
  2.3.6: q in Z commutes with every element and lies in N, so
    (q\b)q = q(q\b) = b, q(bq^-1) = (qb)q^-1 = (bq)q^-1 = b(qq^-1) = b, and
    (q^-1(b/a))(qa) = ((q^-1(b/a))q)a = (q(q^-1(b/a)))a = (b/a)a = b.
Fan-scope laws that hold in every loop:
  2.2.1, 2.2.1': with u = e/b and v = b\e, (ub)v = v and u(bv) = u, so
    v = t(u,b,v)·u = u·p(u,b,v).
  2.3.2': with u = e/a, a(ua) = a, so (au)a = t(a,u,a)·a = a·p(a,u,a).
  2.3.1, 2.3.1', 2.3.3, 2.3.3', 2.3.4': core._analyze's docstring proves,
    for n in N,
        t(a·n,b,c) = t(a,n·b,c)   t(a,b·n,c) = t(a,b,n·c)
        t(a,b,c·n) = t(a,b,c)
    and the same for p, but for p(a,b,c·n) = n\(p(a,b,c)·n).  Also
    p(n·a,b,c) = p(a,b,c): with X = (ab)c and Y = a(bc), ((na)b)c = nX,
    (na)(bc) = nY and nX = n(Y·p) = (nY)·p.  That is 2.3.3 and 2.3.3', and
    2.3.4', whose right side (b^-1·p)·b is b\(p·b): b·(b^-1·p) = p and
    b·((b\p)·b) = p·b.  A z in Z commutes with every element and lies in
    N, so t(z·a,b,c) = t(a·z,b,c) = t(a,z·b,c) = t(a,b·z,c) = t(a,b,z·c) =
    t(a,b,c·z) = t(a,b,c), and for p the last step reads
    z\(p·z) = z\(z·p) = p.  Each slot of 2.3.1 and 2.3.1' is thus
    invariant alone, and the slots chain one at a time.
Fan-scope laws that need t and p in N, writing u = e/a, v = a\e:
  2.2.2b: with p = p(a,v,b), b = (av)b = (a(vb))·p = a((vb)·p).
  2.2.2'': with y = a\b and p = p(a,y,c), bc = (ay)c = (a(yc))·p =
    a((yc)·p), so a\(bc) = (yc)·p.
  2.2.2': with x = (bc)\a and p = p(b,c,x), a = (bc)x = (b(cx))·p =
    b(c(x·p)), so x·p = c\(b\a).
  2.2.2: with t1 = t(u,a,v) and t2 = t(u,a,a\b), v = t1·u by 2.2.1, and
    a\b = (ua)(a\b) = t2·(u(a(a\b))) = t2·(ub), so
    vb = (t1·u)b = t1·(ub) = (t1·t2^-1)(a\b).
  2.2.2''': with v = b\e, w = a\e, t1 = t(a,b,v) and t2 = t(ab,v,w),
    (ab)v = t1·(a(bv)) = t1·a and ((ab)v)w = t1·(aw) = t1 = t2·((ab)(vw)),
    so (ab)(vw) = t2^-1·t1 and (ab)(((vw)·t1^-1)·t2) =
    (((ab)(vw))·t1^-1)·t2 = e.
  2.2.3b: with t = t(b,u,a), (bu)a = t·(b(ua)) = t·b, so
    (t^-1·(bu))a = t^-1·((bu)a) = b.
  2.2.3'': with x = b/a and t = t(c,x,a), (cx)a = t·(c(xa)) = t·(cb), so
    (t^-1·(cx))a = cb.
  2.2.3': with x = a/(bc) and t = t(x,b,c), (xb)c = t·(x(bc)) = t·a, so
    ((t^-1·x)b)c = t^-1·((xb)c) = a.
  2.2.3: with x = b/a, p1 = p(x,a,v) and p2 = p(u,a,v), bv = (xa)v =
    (x(av))·p1 = x·p1 and v = (ua)v = u·p2, so
    bu = b(v·p2^-1) = (bv)·p2^-1 = (x·p1)·p2^-1.
  2.2.3''': with s = e/b, p1 = p(s,u,ab) and p2 = p(u,a,b), b = (ua)b =
    (u(ab))·p2, so s(u(ab)) = s(b·p2^-1) = (sb)·p2^-1 = p2^-1 and
    (su)(ab) = (s(u(ab)))·p1 = p2^-1·p1; with m = p1^-1·p2,
    ((m·s)·u)(ab) = m·((su)(ab)) = e.
  2.3.2: with Y = a(va), t = t(a,v,a) and p = p(a,v,a), a = (av)a =
    t·Y = Y·p, so a = (t^-1·a)·p = t^-1·(a·p).
  2.3.2'': with t1 = t(u,a,v), a(va) = Y = a·p^-1, so va = p^-1, and by
    2.2.1 t1 = t1·(ua) = (t1·u)a = va = p^-1.
  2.3.8: (t·a)·t1 = (a·p)·t1 = a(p·t1) = a, by 2.3.2 and 2.3.2''.
  2.3.4: with t = t(a1,a2,a3), Y = a1(a2a3) and b in N, ((b·a1)a2)a3 =
    b((a1a2)a3) = b(tY) = (bt)Y and (b·a1)(a2a3) = bY.  w = (bt)·b^-1
    lies in N, and w(bY) = (wb)Y = (bt)Y, so t(b·a1,a2,a3) = w.
"""

import re
from dataclasses import dataclass
from math import prod

from .errors import NotApplicable, UnknownLaw

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Law:
    """One registry identity.

    vars: tuple of (name, domain) with domain in {"G", "N", "Z"}.
    clauses: tuple of (lhs, rhs) side texts; rhs None means a membership
    clause (the value must land in N(G)).
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
            clauses.append((part.removesuffix(" in N(G)"), None))
        else:
            sides = [side.strip() for side in part.split("=")]
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

# Membership laws: the associator whose values must lie in N(G).  Its value
# set (the analysis' t_range or p_range) decides the law, and the analysis
# records its first triple outside N (t_witness or p_witness).
MEMBERSHIP = {"2.1.9-t": "t", "2.1.9-p": "p"}


def check_law(G, law):
    """Decide one registry law on G by its theorem (module docstring).

    On HOLDS, tuples_checked is the size of the quantified domain the
    verdict covers times the clause count; a failing membership law covers
    its one clause, on G^3, and names its first witness.

    Raises UnknownLaw for an id not in the registry, ValueError for a
    law that is neither a Law nor an id, and NotApplicable when a fan-only
    law is asked of a non-fan loop.
    """
    if isinstance(law, str):
        law = get_law(law)
    elif not isinstance(law, Law):
        raise ValueError(f"law must be a Law or a law id, got {law!r}")
    ana = G.analysis
    if law.scope == "fan" and not ana.is_fan_loop:
        raise NotApplicable(law.id)
    sizes = {"G": G.order, "N": len(ana.nucleus), "Z": len(ana.center)}
    size = prod(sizes[d] for _, d in law.vars)
    x = MEMBERSHIP.get(law.id)
    if x and not getattr(ana, f"{x}_range") <= ana.nucleus:
        witness = {name: G.label(i) for (name, _), i in
                   zip(law.vars, getattr(ana, f"{x}_witness"))}
        return LawReport(law.id, FAILS, witness, size, 0)
    return LawReport(law.id, HOLDS, None, size * len(law.clauses), None)


def check_all(G):
    """One report per registry law, as check_law gives it; fan-only laws
    on non-fan loops come back with status not-applicable rather than
    raising."""
    out = []
    for law in REGISTRY:
        try:
            out.append(check_law(G, law))
        except NotApplicable:
            out.append(LawReport(law.id, NOT_APPLICABLE, None, 0, None))
    return out
