"""Law registry checks.

Strategy: the whole registry must hold on everything the package can
build (groups, Cayley-Dickson loops, smashed products); the membership
laws 2.1.9-t/2.1.9-p must fail with a usable witness exactly on non-fan
loops; law checking must be isomorphism-invariant (metamorphic test:
relabeling a loop cannot change any verdict); and every report must equal
the one a whole-grid evaluation of the law's text gives, the oracle that
this file keeps, since check_law evaluates no law itself.
"""

import re
import tracemalloc
from functools import lru_cache
from itertools import product
from operator import itemgetter

import numpy as np
import pytest

from fanloops import _kernels, catalog, census, cli, core, laws, products
from fanloops.errors import FanloopsError, NotApplicable, UnknownLaw

ALL_IDS = laws.law_ids()


def test_registry_shape():
    assert len(ALL_IDS) == 30
    assert len(set(ALL_IDS)) == 30
    for law in laws.REGISTRY:
        assert law.text
        assert law.scope in ("fan", "all")
        assert 1 <= law.arity <= 6
        assert len(law.clauses) >= 1


def _assert_all_hold(G, context):
    for rep in laws.check_all(G):
        assert rep.status == laws.HOLDS, (
            f"{context}: law {rep.law_id} -> {rep.status} "
            f"witness {rep.witness}"
        )


def test_all_laws_hold_on_groups(groups8):
    for name, G in groups8:
        _assert_all_hold(G, name)


def test_all_laws_hold_on_cayley_dickson():
    for k in range(1, 5):
        G = products.cayley_dickson_basis_loop(k)
        _assert_all_hold(G, f"CD k={k}")


def test_all_laws_hold_on_smash_products(smash_products):
    for data, P in smash_products:
        _assert_all_hold(P, data.name)


def test_membership_laws_fail_on_non_fan_loop():
    W = census.find_witness(5, "non-fan")
    assert W is not None
    reports = {r.law_id: r for r in laws.check_all(W)}
    failing = [i for i in ("2.1.9-t", "2.1.9-p")
               if reports[i].status == laws.FAILS]
    assert failing, "a non-fan loop must fail a membership law"
    # the witness must actually evaluate to an element outside the nucleus
    rep = reports[failing[0]]
    assert rep.witness is not None
    a, b, c = (W.index(rep.witness[v]) for v in ("a", "b", "c"))
    val = W.t(a, b, c) if failing[0].endswith("t") else W.p(a, b, c)
    assert int(val) not in W.analysis.nucleus.members


def test_fan_scope_laws_not_applicable_on_non_fan_loop():
    W = census.find_witness(5, "non-fan")
    reports = {r.law_id: r for r in laws.check_all(W)}
    fan_scope = [law.id for law in laws.REGISTRY if law.scope == "fan"]
    for law_id in fan_scope:
        assert reports[law_id].status == laws.NOT_APPLICABLE, law_id
    with pytest.raises(NotApplicable):
        laws.check_law(W, "2.2.1")


def test_all_scope_laws_hold_even_on_non_fan_loops():
    # universal loop identities don't care about the fan condition
    for W in census.enumerate_loops(census.CensusQuery(5, limit=20)):
        for law in laws.REGISTRY:
            if law.scope != "all" or law.id.startswith("2.1.9"):
                continue
            rep = laws.check_law(W, law.id)
            assert rep.status == laws.HOLDS, (law.id, rep.witness)


def _relabel(G, rng):
    """Isomorphic copy via a random permutation fixing nothing special."""
    n = G.order
    perm = np.array(rng.sample(range(n), n))
    inv = np.argsort(perm)
    table = perm[G.table[inv][:, inv]]
    labels = [f"x{i}" for i in range(n)]
    return core.verify_loop(table, labels=labels)


def test_law_checks_are_isomorphism_invariant(rng):
    for G in (catalog.symmetric3(), catalog.octonion16(),
              census.find_witness(5, "non-fan")):
        H = _relabel(G, rng)
        a, b = G.analysis, H.analysis
        assert a.is_fan_loop == b.is_fan_loop
        assert a.is_group == b.is_group
        assert len(a.nucleus) == len(b.nucleus)
        assert len(a.fan) == len(b.fan)
        sg = {r.law_id: r.status for r in laws.check_all(G)}
        sh = {r.law_id: r.status for r in laws.check_all(H)}
        assert sg == sh


def test_witness_reports_tuples_checked(oct16):
    rep = laws.check_law(oct16, "2.2.2'")
    assert rep.status == laws.HOLDS
    # arity-3 law over a 16-element loop: full cube scanned
    assert rep.tuples_checked == 16 ** 3
    rep2 = laws.check_law(oct16, "2.2.2")
    assert rep2.tuples_checked == 16 ** 2


def test_arity6_laws_restrict_center_variables(oct16):
    rep = laws.check_law(oct16, "2.3.1")
    assert rep.status == laws.HOLDS
    # z1,z2,z3 range over Z = {1,-1} only: 2^3 * 16^3 tuples
    assert rep.tuples_checked == (2 ** 3) * (16 ** 3)


def test_check_law_unknown_id(q8):
    with pytest.raises(KeyError):
        laws.check_law(q8, "9.9.9")


def test_an_unknown_law_id_is_a_typed_error(q8):
    with pytest.raises(UnknownLaw, match=r"^unknown law id '9\.9\.9'$") as e:
        laws.check_law(q8, "9.9.9")
    assert isinstance(e.value, FanloopsError) and e.value.law_id == "9.9.9"
    with pytest.raises(UnknownLaw):
        laws.get_law("2.3.99")


@pytest.mark.parametrize("law", [None, 3, ("2.3.1",)])
def test_check_law_refuses_what_is_neither_a_law_nor_an_id(q8, law):
    with pytest.raises(ValueError, match="must be a Law or a law id"):
        laws.check_law(q8, law)


def test_clause_index_reported():
    # 2.3.6 has four clauses; corrupting nothing, all hold -> clause None
    rep = laws.check_law(catalog.quaternion8(), "2.3.6")
    assert rep.status == laws.HOLDS and rep.clause is None


def test_law_text_uses_division_notation():
    # spot-check statements are carried with the registry
    by_id = {law.id: law for law in laws.REGISTRY}
    assert "t(" in by_id["2.2.1"].text
    assert "p(" in by_id["2.2.1'"].text


# --- the registry as read from its law texts ---------------------------------

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


def _trees(law):
    """The law's clauses as Expr trees, rhs None for membership in N(G)."""
    return [(_term(lhs), None if rhs is None else _term(rhs))
            for lhs, rhs in law.clauses]


def _render(expr):
    """A term fully bracketed: ((a·b)·c), t(a,b,c), e."""
    if expr.op == "var":
        return expr.args[0]
    if expr.op == "e":
        return "e"
    args = [_render(a) for a in expr.args]
    if expr.op in ("t", "p"):
        return f"{expr.op}({','.join(args)})"
    return f"({args[0]}{expr.op}{args[1]})"


def _render_law(law):
    clauses = "; ".join(
        f"{_render(lhs)} in N(G)" if rhs is None
        else f"{_render(lhs)} = {_render(rhs)}"
        for lhs, rhs in _trees(law))
    names = " ".join(f"{name}:{dom}" for name, dom in law.vars)
    return f"{law.id} [{names}] {law.scope}: {clauses}"


# Rendered from the registry when its trees were still built by hand; a law
# text that reads differently shows up here even where the misread law
# still holds on every loop.
PINNED_REGISTRY = [
    r"2.2.1 [b:G] fan: (b\e) = (t((e/b),b,(b\e))·(e/b))",
    r"2.2.1' [b:G] fan: (b\e) = ((e/b)·p((e/b),b,(b\e)))",
    r"2.2.2 [a:G b:G] fan: ((a\e)·b) = ((t((e/a),a,(a\e))·(t((e/a),a,(a\b))\e))·(a\b))",
    r"2.2.2b [a:G b:G] fan: (a\b) = (((a\e)·b)·p(a,(a\e),b))",
    r"2.2.2' [a:G b:G c:G] fan: ((b·c)\a) = ((c\(b\a))·(p(b,c,((b·c)\a))\e))",
    r"2.2.2'' [a:G b:G c:G] fan: ((a\b)·c) = ((a\(b·c))·(p(a,(a\b),c)\e))",
    r"2.2.2''' [a:G b:G] fan: ((a·b)\e) = ((((b\e)·(a\e))·(t(a,b,(b\e))\e))·t((a·b),(b\e),(a\e)))",
    r"2.2.3 [a:G b:G] fan: (b·(e/a)) = (((b/a)·p((b/a),a,(a\e)))·(p((e/a),a,(a\e))\e))",
    r"2.2.3b [a:G b:G] fan: (b/a) = (((t(b,(e/a),a)\e)·b)·(e/a))",
    r"2.2.3' [a:G b:G c:G] fan: (a/(b·c)) = (t((a/(b·c)),b,c)·((a/c)/b))",
    r"2.2.3'' [a:G b:G c:G] fan: (c·(b/a)) = (t(c,(b/a),a)·((c·b)/a))",
    r"2.2.3''' [a:G b:G] fan: (e/(a·b)) = ((((p((e/b),(e/a),(a·b))\e)·p((e/a),a,b))·(e/b))·(e/a))",
    r"2.3.1 [z1:Z z2:Z z3:Z a1:G a2:G a3:G] fan: t((z1·a1),(z2·a2),(z3·a3)) = t(a1,a2,a3)",
    r"2.3.1' [z1:Z z2:Z z3:Z a1:G a2:G a3:G] fan: p((z1·a1),(z2·a2),(z3·a3)) = p(a1,a2,a3)",
    r"2.3.2 [a:G] fan: (t(a,(a\e),a)·a) = (a·p(a,(a\e),a))",
    r"2.3.2' [a:G] fan: (t(a,(e/a),a)·a) = (a·p(a,(e/a),a))",
    r"2.3.2'' [a:G] fan: (p(a,(a\e),a)·t((e/a),a,(a\e))) = e",
    r"2.3.3 [a1:G a2:G a3:G b:N] fan: t(a1,a2,(a3·b)) = t(a1,a2,a3)",
    r"2.3.3' [a1:G a2:G a3:G b:N] fan: p((b·a1),a2,a3) = p(a1,a2,a3)",
    r"2.3.4 [a1:G a2:G a3:G b:N] fan: t((b·a1),a2,a3) = ((b·t(a1,a2,a3))·(b\e))",
    r"2.3.4' [a1:G a2:G a3:G b:N] fan: p(a1,a2,(a3·b)) = (((b\e)·p(a1,a2,a3))·b)",
    r"2.3.8 [a:G] fan: ((t(a,(a\e),a)·a)·t((e/a),a,(a\e))) = a",
    r"2.2.4 [a:G b:G] all: (b·(b\a)) = a; (b\(b·a)) = a",
    r"2.2.5 [a:G b:G] all: ((a/b)·b) = a; ((a·b)/b) = a",
    r"2.3.6 [q:Z a:G b:G] all: (b/(q·a)) = ((q\e)·(b/a)); (b/q) = (q\b); (q\b) = (b·(q\e)); (b/q) = (b·(q\e))",
    r"2.6.6 [b:G] all: ((e/b)\e) = b; (e/(b\e)) = b",
    r"2.8.1 [x:G a:N b:N] all: (x\(a·b)) = ((x\a)·b)",
    r"2.8.2 [x:G a:N b:N] all: ((a·b)/x) = (a·(b/x))",
    r"2.1.9-t [a:G b:G c:G] all: t(a,b,c) in N(G)",
    r"2.1.9-p [a:G b:G c:G] all: p(a,b,c) in N(G)",
]


def test_registry_reads_as_pinned():
    assert [_render_law(law) for law in laws.REGISTRY] == PINNED_REGISTRY


@pytest.mark.parametrize("text", [
    r"b\e + a",      # unknown character
    "a 1",           # a stray character between tokens
    "t(a,b",         # unbalanced bracket
    "[a)",           # mismatched bracket
    "a)",            # trailing token
    "t(a,b)",        # associator with two arguments
    "p(a,b,c,a)",    # associator with four arguments
    "t",             # associator without arguments
    "",              # empty side
    "a··b",          # product without a right factor
])
def test_bad_law_text_is_refused(text):
    with pytest.raises(ValueError):
        _term(text)


# --- an independent evaluator: recursive lookups on the whole meshgrid -----

@lru_cache(maxsize=1)
def _tensors(G):
    """G's whole t and p tensors; the oracle runs law by law on one loop,
    so the last loop's are kept."""
    return _kernels.assoc_tensors(G.table, G.ldiv, G.rdiv)


# Each operation of the signature is one lookup: index the array it names at
# the values of its arguments.
_ARRAYS = {
    "·": lambda G: G.table,
    "\\": lambda G: G.ldiv,
    "/": lambda G: G.rdiv,
    "t": lambda G: _tensors(G)[0],   # t(x,y,z) = ((xy)z)/(x(yz))
    "p": lambda G: _tensors(G)[1],   # p(x,y,z) = (x(yz)) \ ((xy)z)
}


def _pools(G):
    """Index arrays of the quantifier domains G, N(G) and Z(G), with N read
    off the whole t tensor and Z its commuting part, not from the
    analysis."""
    nuc = np.logical_and.reduce(_kernels.nucleus_masks(_tensors(G)[0]))
    com = (G.table == G.table.T).all(axis=1)
    return {"G": np.arange(G.order), "N": np.flatnonzero(nuc),
            "Z": np.flatnonzero(nuc & com)}


def _ev(G, expr, env):
    """A term's values on the open grid env: each operation indexes the
    array it names with the tuple of its arguments' values."""
    if expr.op == "var":
        return env[expr.args[0]]
    if expr.op == "e":
        return np.intp(0)
    return _ARRAYS[expr.op](G)[tuple(_ev(G, a, env) for a in expr.args)]


def _domains(law, pools):
    """One open-grid axis per variable, and the shape of the whole grid."""
    m = len(law.vars)
    axes = [pools[d].reshape([-1 if j == k else 1 for j in range(m)])
            for k, (_, d) in enumerate(law.vars)]
    return axes, tuple(len(pools[d]) for _, d in law.vars)


def _oracle(G, law):
    """The law's report from whole-grid evaluation, clause by clause."""
    pools = _pools(G)
    axes, shape = _domains(law, pools)
    env = {name: ax for (name, _), ax in zip(law.vars, axes)}
    per_clause = int(np.prod(shape))
    nuc_mask = np.isin(np.arange(G.order), pools["N"])
    for ci, (lhs, rhs) in enumerate(_trees(law)):
        lv = _ev(G, lhs, env)
        bad = ~nuc_mask[lv] if rhs is None else lv != _ev(G, rhs, env)
        coords = _kernels.first(np.broadcast_to(bad, shape))
        if coords is not None:
            witness = {name: G.label(int(axes[k].ravel()[coords[k]]))
                       for k, (name, _) in enumerate(law.vars)}
            return laws.LawReport(law.id, laws.FAILS, witness,
                                  per_clause * (ci + 1), ci)
    return laws.LawReport(law.id, laws.HOLDS, None,
                          per_clause * len(law.clauses), None)


# --- expression nodes against a scalar interpreter ---------------------------

def _left_division(G):
    """a \\ b read off row a of the table, without the division tables."""
    rows = G.table.tolist()
    return lambda a, b: rows[a].index(b)


_SCALAR = {"·": lambda G: lambda a, b: int(G.table[a, b]),
           "\\": _left_division,
           "/": lambda G: lambda b, a: int(G.rdiv[b, a]),
           "t": lambda G: G.t, "p": lambda G: G.p}


def _scalar(G, expr, names):
    """A function of one tuple (values in the order of names) that
    evaluates expr one cell at a time, never reading the t/p tensors: · and
    / off the tables, t and p through the loop's scalar oracles, a \\ b
    through the table's rows."""
    if expr.op == "var":
        return itemgetter(names.index(expr.args[0]))
    if expr.op == "e":
        return lambda x: 0
    method = lru_cache(maxsize=None)(_SCALAR[expr.op](G))
    parts = [_scalar(G, a, names) for a in expr.args]
    return lambda x: method(*[f(x) for f in parts])


def test_expression_nodes_match_a_scalar_interpreter(oct16, smash_products):
    s4 = dict((d.name, P) for d, P in smash_products)["s4-xi-c2-q8"]
    for G in (oct16, s4, census.find_witness(5, "non-fan")):
        pools = _pools(G)
        for law in laws.REGISTRY:
            axes, shape = _domains(law, pools)
            names = [name for name, _ in law.vars]
            env = dict(zip(names, axes))
            values = [pools[d].tolist() for _, d in law.vars]
            terms = [s for clause in _trees(law) for s in clause
                     if s is not None]
            for k, term in enumerate(terms):
                grid = np.broadcast_to(_ev(G, term, env), shape)
                f = _scalar(G, term, names)
                # every tuple of the domain, in the meshgrid's C order
                scalar = [f(x) for x in product(*values)]
                assert grid.ravel().tolist() == scalar, (law.id, k)


# --- check_law against the whole-grid oracle ---------------------------------

def _oracle_loops(corpus_loops, oct16, smash_products):
    """Every corpus loop, two direct products, and every non-fan loop of
    order 5."""
    c2 = catalog.cyclic(2)
    s4 = dict((d.name, P) for d, P in smash_products)["s4-xi-c2-q8"]
    loops = list(corpus_loops)
    loops += [("oct16xC2", products.direct_product([oct16, c2])),
              ("s4xC2", products.direct_product([s4, c2]))]
    loops += [(f"non-fan-5-{i}", W) for i, W in enumerate(
        census.enumerate_loops(census.CensusQuery(5, filter="non-fan")))]
    return loops


def _squares(orders, filter, keep=lambda W: True):
    return [(f"{filter}-{W.order}-{i}", W) for n in orders
            for i, W in enumerate(census.enumerate_loops(
                census.CensusQuery(n, filter=filter))) if keep(W)]


def _record_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call is appended to the returned list."""
    calls, inner = [], getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a, **k: calls.append(a) or inner(*a, **k))
    return calls


@pytest.mark.parametrize("family", [
    "fan-squares-1-6", "non-fan-squares-4-5", "non-fan-squares-6-nucleus",
    "oracle-loops"])
def test_check_law_matches_full_meshgrid_oracle(family, corpus_loops, oct16,
                                                smash_products, monkeypatch):
    # every law on every loop of the family: a fan-scope law is not
    # applicable exactly when the oracle's N misses a t or p value, and
    # every other verdict is the oracle's report, witness, clause and
    # tuple count, decided without a whole t/p tensor
    loops = {
        "fan-squares-1-6": lambda: _squares(range(1, 7), "fan-only"),
        "non-fan-squares-4-5": lambda: _squares((4, 5), "non-fan"),
        "non-fan-squares-6-nucleus": lambda: _squares(
            (6,), "non-fan", lambda W: len(W.analysis.nucleus) > 1),
        "oracle-loops": lambda: _oracle_loops(corpus_loops, oct16,
                                              smash_products),
    }[family]()
    assert len(loops) == {"fan-squares-1-6": 313, "non-fan-squares-4-5": 50,
                          "non-fan-squares-6-nucleus": 60,
                          "oracle-loops": 82}[family]
    tensors = _record_calls(monkeypatch, _kernels, "assoc_tensors")
    for name, G in loops:
        want = {law.id: _oracle(G, law) for law in laws.REGISTRY}
        fan = all(want[i] for i in laws.MEMBERSHIP)
        tensors.clear()
        for law in laws.REGISTRY:
            if law.scope == "fan" and not fan:
                with pytest.raises(NotApplicable):
                    laws.check_law(G, law)
            else:
                assert laws.check_law(G, law) == want[law.id], (name, law.id)
        assert tensors == [], name


def test_membership_reduction_fails_on_non_fan_loops():
    # negative control: on a non-fan loop a t or p value leaves the
    # nucleus, so both membership laws fail, with the oracle's witness and
    # clause
    loops = list(census.enumerate_loops(
        census.CensusQuery(5, filter="non-fan")))
    assert len(loops) == 50
    for W in loops:
        for law_id in ("2.1.9-t", "2.1.9-p"):
            law = laws.get_law(law_id)
            rep = laws.check_law(W, law)
            assert rep.status == laws.FAILS and rep.clause == 0
            assert rep == _oracle(W, law), law_id


_INVARIANCE = ("2.3.1", "2.3.1'", "2.3.3", "2.3.3'", "2.3.4", "2.3.4'")


@pytest.mark.parametrize("law_id", _INVARIANCE)
def test_invariance_law_is_decided_from_the_analysis(law_id, corpus_loops,
                                                     oct16, smash_products,
                                                     monkeypatch):
    # on every fan loop the invariance law is settled by the analysis
    # alone: no t/p tensor is built, and the report is still the
    # whole-grid oracle's
    tensors = _record_calls(monkeypatch, _kernels, "assoc_tensors")
    fan = [(name, G) for name, G in
           _oracle_loops(corpus_loops, oct16, smash_products)
           if G.analysis.is_fan_loop]
    assert len(fan) > 20
    for name, G in fan:
        tensors.clear()
        rep = laws.check_law(G, law_id)
        assert tensors == [], name
        assert rep == _oracle(G, laws.get_law(law_id)), name


def test_check_all_computes_no_subgroup_closure(smash_products, monkeypatch):
    # the laws are decided from the analysis' sets, so once it exists no
    # subloop is generated, even with |Z| = |N| = 8
    s = dict((d.name, P) for d, P in smash_products)
    s4xC2 = products.direct_product([s["s4-xi-c2-q8"], catalog.cyclic(2)])
    calls = []
    closure = core.subgroup_closure
    monkeypatch.setattr(core, "subgroup_closure",
                        lambda *a: calls.append(a) or closure(*a))
    for G in (s["s5-kappa-c4-q8"], s4xC2):
        G.analysis
        calls.clear()
        reports = laws.check_all(G)
        assert all(reports), [r.law_id for r in reports if not r]
        assert len(G.analysis.nucleus) > 1
        assert calls == []


def test_cmd_check_builds_no_tensor(tmp_path, monkeypatch):
    # oct16 × Q8 (n = 128): t and p would take 4 MB each; the analysis
    # reads them slab by slab and every law is decided from it
    path = tmp_path / "oct16xq8.loop"
    path.write_text(cli.serialize_loop(products.direct_product(
        [catalog.octonion16(), catalog.quaternion8()])))
    tensors = _record_calls(monkeypatch, _kernels, "assoc_tensors")
    tracemalloc.start()
    try:
        code, report = cli.cmd_check(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK and report["failedLaws"] == []
    assert report["analysis"]["isFanLoop"] and len(report["laws"]) == 30
    assert tensors == []
    assert peak < 4 << 20, peak
