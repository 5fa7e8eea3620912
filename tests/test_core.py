"""Core loop construction and classification.

The frozen classification facts for the octonion basis loop (nucleus =
center = fan = {1,-1}, a specific nonassociative triple) were derived from
the independent vector-arithmetic multiplication oracle in
test_products.py and from the naive nucleus oracle in test_kernels.py.
"""

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from fanloops import _kernels, catalog, census, core, haar, products, quotient
from fanloops.errors import (
    LoopMismatch,
    NoIdentity,
    NotASubgroup,
    NotLatinSquare,
    OrderCapExceeded,
)


def test_verify_loop_accepts_groups(groups8):
    for name, G in groups8:
        assert G.analysis.is_loop
        assert G.analysis.is_group, name
        assert G.analysis.is_fan_loop  # groups are (trivially) fan loops


def test_verify_loop_rejects_row_duplicate():
    with pytest.raises(NotLatinSquare) as exc:
        core.verify_loop([[0, 1], [1, 1]])
    assert exc.value.kind in ("row", "col")


def test_verify_loop_rejects_out_of_range():
    with pytest.raises(NotLatinSquare) as exc:
        core.verify_loop([[0, 1], [1, 5]])
    assert exc.value.kind == "value"
    # 65537 wraps to 1 in int16: it must be refused before the cast, both
    # from a wider array and from a Python list
    for table in (np.array([[0, 1], [65537, 0]], dtype=np.int32),
                  [[0, 1], [65537, 0]]):
        with pytest.raises(NotLatinSquare) as exc:
            core.verify_loop(table)
        assert (exc.value.kind, exc.value.row, exc.value.col,
                exc.value.value) == ("value", 1, 0, 65537)
    # a float table must not be truncated to C2 by the int16 cast
    for table, v in (([[0.0, 1.0], [1.0, 0.5]], 0.5),
                     ([[0.0, 1.0], [1.0, 65536.0]], 65536.0)):
        with pytest.raises(NotLatinSquare) as exc:
            core.verify_loop(table)
        assert (exc.value.kind, exc.value.row, exc.value.col,
                exc.value.value) == ("value", 1, 1, v)
    with pytest.raises(NotLatinSquare) as exc:
        core.verify_loop([[0.0, 1.0], [1.0, float("nan")]])
    assert (exc.value.kind, exc.value.row, exc.value.col) == ("value", 1, 1)
    # integral floats are still accepted, and so are ints in an object table
    assert core.verify_loop([[0.0, 1.0], [1.0, 0.0]]).order == 2
    assert core.verify_loop(np.array([[0, 1], [1, 0]], dtype=object)).order == 2


@pytest.mark.parametrize("table,cell,value", [
    ([["0", "1"], ["1", "0"]], (0, 0), "0"),
    ([[b"0", b"1"], [b"1", b"0"]], (0, 0), b"0"),
    ([[0, 1 + 1j], [1, 0]], (0, 0), 0j),
    ([[False, True], [True, False]], (0, 0), False),
    (np.array([[0, "1"], [1, 0]], dtype=object), (0, 1), "1"),
], ids=["str", "bytes", "complex", "bool", "object-str"])
def test_verify_loop_refuses_a_non_integer_table(table, cell, value):
    # the int16 cast would parse, truncate or coerce these tables into C2
    with pytest.raises(NotLatinSquare) as exc:
        core.verify_loop(table)
    got = exc.value
    assert (got.kind, got.row, got.col, got.value) == ("value", *cell, value)
    assert type(got.value) is type(value)


@pytest.mark.parametrize("table, kwargs, message", [
    ([[0, 1, 2]], {}, r"table must be square, got shape \(1, 3\)"),
    (np.zeros((0, 0), dtype=int), {}, "order must be at least 1"),
    ([[0, 1], [1, 0]], {"labels": ["e"]}, "expected 2 labels, got 1"),
    ([[0, 1], [1, 0]], {"labels": ["e", "e"]}, "labels must be distinct"),
])
def test_verify_loop_refuses_a_malformed_table_or_labels(table, kwargs,
                                                         message):
    with pytest.raises(ValueError, match=message):
        core.verify_loop(table, **kwargs)


def test_verify_loop_refuses_a_negative_int16_entry():
    # an int16 table skips the pre-cast check: the Latin kernel finds -1
    with pytest.raises(NotLatinSquare) as exc:
        core.verify_loop(np.array([[0, 1], [1, -1]], dtype=np.int16))
    assert (exc.value.kind, exc.value.row, exc.value.col,
            exc.value.value) == ("value", 1, 1, -1)


def test_verify_loop_rejects_missing_identity():
    # latin, but no row equals the natural order => no left identity
    t = [[1, 0, 2], [0, 2, 1], [2, 1, 0]]
    with pytest.raises(NoIdentity):
        core.verify_loop(t)


def test_verify_loop_normalizes_identity_to_zero():
    # identity sits at index 2; verify_loop must re-index it to 0
    base = catalog.cyclic(3)
    perm = np.array([2, 0, 1])  # new index of old element i
    inv = np.argsort(perm)
    table = perm[base.table[inv][:, inv]]
    G = core.verify_loop(table, labels=["x", "y", "e"])
    assert G.label(0) == "e"
    assert np.array_equal(G.table[0], np.arange(3))
    assert np.array_equal(G.table[:, 0], np.arange(3))


def test_verify_loop_order_cap():
    with pytest.raises(OrderCapExceeded):
        core.verify_loop(catalog.cyclic(5).table, cap=4)


def test_division_identities_on_sample():
    for G in (catalog.symmetric3(), catalog.octonion16()):
        n = G.order
        for a in range(n):
            for b in range(n):
                ab = int(G.table[a, b])
                assert int(G.ldiv[a, ab]) == b     # a \ (a b) = b
                assert int(G.rdiv[ab, b]) == a     # (a b) / b = a
                assert int(G.table[a, G.ldiv[a, b]]) == b
                assert int(G.table[G.rdiv[a, b], b]) == a


def test_left_right_inverses():
    G = catalog.quaternion8()
    for x in range(8):
        il = int(G.ldiv[x, 0])
        ir = int(G.rdiv[0, x])
        assert int(G.table[il, x]) == 0
        assert int(G.table[x, ir]) == 0
        assert il == ir  # Q8 is a group


def test_classify_cyclic_group():
    G = catalog.cyclic(4)
    a = G.analysis
    assert a.is_group and a.is_commutative
    assert a.nucleus.members == frozenset(range(4))
    assert a.center.members == frozenset(range(4))
    assert a.fan.members == frozenset({0})
    assert a.is_fan_loop and a.is_central_fan_loop


def test_classify_symmetric3():
    G = catalog.symmetric3()
    a = G.analysis
    assert a.is_group and not a.is_commutative
    assert a.center.members == frozenset({0})
    assert a.com.members == frozenset({0})  # only e commutes with all of S3
    assert a.is_fan_loop
    assert not a.is_central_fan_loop  # ab/(ba) leaves the trivial center
    assert a.central_witness is not None


def test_classify_octonion16(oct16):
    a = oct16.analysis
    assert a.is_loop and not a.is_group
    assert a.is_fan_loop and a.is_central_fan_loop
    minus_one = oct16.index("-1")
    pm1 = frozenset({0, minus_one})
    assert a.nucleus.members == pm1
    assert a.nucleus_l.members == pm1
    assert a.nucleus_m.members == pm1
    assert a.nucleus_r.members == pm1
    assert a.center.members == pm1
    assert a.fan.members == pm1
    assert a.t_range.members == pm1
    assert a.p_range.members == pm1
    assert a.non_assoc_witness is not None
    x, y, z = a.non_assoc_witness
    lhs = oct16.table[oct16.table[x, y], z]
    rhs = oct16.table[x, oct16.table[y, z]]
    assert int(lhs) != int(rhs)


def test_octonion_associator_value(oct16):
    # t(e1, e2, e4) = -1: ((e1 e2) e4) = e7 but e1 (e2 e4) = -e7
    e1, e2, e4 = oct16.index("e1"), oct16.index("e2"), oct16.index("e4")
    t = oct16.t(e1, e2, e4)
    assert oct16.label(int(t)) == "-1"
    p_val = oct16.p(e1, e2, e4)
    assert oct16.label(int(p_val)) == "-1"


def test_sedenion_fan():
    from fanloops import products

    S = products.cayley_dickson_basis_loop(4)
    a = S.analysis
    assert S.order == 32
    assert a.is_fan_loop
    assert a.fan.members == frozenset({0, 1})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_dihedral_follows_its_rule_cell_by_cell(n):
    # (i,f)(j,g) = (i + (-1)^f j mod n, f xor g), element (i, f) at i + n*f
    D = catalog.dihedral(n)
    for i, f, j, g in itertools.product(range(n), range(2), range(n),
                                        range(2)):
        k = (i + (j if f == 0 else -j)) % n
        assert D.table[i + n * f, j + n * g] == k + n * (f ^ g)


def test_subgroup_closure():
    G = catalog.quaternion8()
    e1 = G.index("e1")
    S = core.subgroup_closure(G, {e1})
    # <i> = {1, i, -1, -i}
    assert S.members == frozenset(
        {0, G.index("-1"), e1, G.index("-e1")}
    )
    full = core.subgroup_closure(G, {G.index("e1"), G.index("e2")})
    assert full.members == frozenset(range(8))


def test_require_subgroup_rejects_non_nucleus(oct16):
    e1 = oct16.index("e1")
    closure = core.subgroup_closure(oct16, {e1})
    with pytest.raises(NotASubgroup):
        core.require_subgroup(oct16, closure)  # not inside the nucleus


def test_require_subgroup_rejects_non_subloop(q8):
    bad = core.ElementSet(q8, frozenset({0, q8.index("e1")}))  # not closed
    with pytest.raises(NotASubgroup):
        core.require_subgroup(q8, bad)


def test_require_subgroup_proves_a_set_closed_once(monkeypatch):
    calls = []
    witness = core.ElementSet.closure_witness

    def counted(self):
        calls.append(self)
        return witness(self)

    monkeypatch.setattr(core.ElementSet, "closure_witness", counted)
    G = catalog.octonion16()
    fan = G.analysis.fan
    for _ in range(4):
        assert core.require_subgroup(G, fan) is fan
    assert calls == [fan]
    # the cached verdict is no part of equality, the hash or the repr
    fresh = core.ElementSet(G, fan.members)
    assert fresh == fan and hash(fresh) == hash(fan)
    assert repr(fan) == repr(fresh) == f"ElementSet(members={fan.members!r})"
    # refusals keep their reasons, asked once or twice
    open_set = core.ElementSet(G, {0, G.index("e1")})
    outside = core.subgroup_closure(G, {G.index("e1")})
    for S, reason in ((open_set, "not closed under ·, \\, /"),
                      (outside, "not contained in the nucleus")):
        for _ in range(2):
            with pytest.raises(NotASubgroup) as exc:
                core.require_subgroup(G, S)
            assert (exc.value.witness, exc.value.reason) == (tuple(S), reason)


def test_require_subgroup_rejects_another_loops_set(q8):
    d4 = catalog.dihedral(4)
    # {e, r} of D4 read against Q8: the loops differ, whatever the indices
    with pytest.raises(LoopMismatch):
        core.require_subgroup(q8, d4.subset([0, 1]))
    with pytest.raises(LoopMismatch):
        core.require_subgroup(q8, d4.analysis.center)
    # an equal copy of the loop is the same loop
    copy = catalog.quaternion8()
    core.require_subgroup(q8, copy.analysis.center)


def test_element_set_ops(q8):
    a = q8.analysis
    Z = a.center
    assert 0 in Z and len(Z) == 2
    assert Z.labels() == ("1", "-1")
    assert Z <= a.nucleus
    m = Z.mask()
    assert m.sum() == 2 and m[0]
    # the analysis's sets keep their loop while it lives
    assert Z.loop is q8 and a.nucleus.loop is q8
    assert Z.mul(a.nucleus) == a.nucleus and Z.mul(Z) == Z
    # equality and hash read the members only
    same = core.ElementSet(q8, [1, 0])
    assert same == Z and hash(same) == hash(Z)
    assert core.ElementSet(catalog.quaternion8(), {0, 1}) == Z
    assert len({Z, same, a.nucleus}) == 2
    with pytest.raises(AttributeError):
        Z.members = frozenset()


def test_element_set_union_and_empty_product(q8):
    Z, empty = q8.analysis.center, core.ElementSet(q8)
    assert Z.mul(empty) == empty and empty.mul(Z) == empty
    d4 = catalog.dihedral(4)  # held, or its set's loop would be freed
    with pytest.raises(LoopMismatch, match="different loops"):
        Z.union(d4.analysis.center)


@pytest.mark.parametrize("x", [1.5, True, "e1", None, b"1"])
def test_membership_refuses_what_is_not_an_integer_index(q8, x):
    # 1.5 was truncated to element 1, and True read as element 1
    Z = q8.analysis.center
    with pytest.raises(ValueError, match="not an integer index"):
        x in Z


def test_membership_reads_numpy_integer_indices(q8):
    Z = q8.analysis.center
    assert np.int16(1) in Z and np.intp(0) in Z
    assert 2 not in Z and -1 not in Z and 99 not in Z


def _labelled_loop(source):
    if source == "verify_loop":
        q8 = catalog.quaternion8()
        return core.verify_loop(q8.table, identity=0, labels=q8.labels)
    if source == "census":
        return next(census.enumerate_loops(census.CensusQuery(6, "non-fan")))
    P = products.direct_product([catalog.octonion16(), catalog.cyclic(2)])
    return P if source == "direct_product" else quotient.quotient(
        P, P.analysis.fan)


@pytest.mark.parametrize("source", ["verify_loop", "census", "quotient",
                                    "direct_product"])
def test_the_label_index_is_built_on_first_use(source):
    G = _labelled_loop(source)
    assert G._label_index is None
    # the first use may be a refusal
    with pytest.raises(ValueError, match="unknown element label 'nowhere'"):
        G.element("nowhere")
    for i, lab in enumerate(G.labels):
        assert G.element(lab) == G.index(lab) == i
        assert G.label(i) == G.label(lab) == lab
    assert G._label_index == {lab: i for i, lab in enumerate(G.labels)}
    with pytest.raises(KeyError):
        G.index("nowhere")


def test_dropped_loop_is_freed_without_the_collector():
    # the cached analysis holds element sets of the loop; they must not
    # keep it alive until a garbage collection
    gc.disable()
    try:
        G = products.direct_product([catalog.octonion16(), catalog.cyclic(8)])
        assert G.analysis.is_fan_loop
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()


def test_sets_of_a_freed_loop_raise_loop_mismatch():
    fan = catalog.octonion16().analysis.fan  # its loop is freed at once
    # the members outlive the loop
    assert list(fan) == [0, 1] and 1 in fan and len(fan) == 2
    assert fan == core.ElementSet(catalog.cyclic(2), {0, 1})
    assert hash(fan) == hash(core.ElementSet(catalog.cyclic(2), {0, 1}))
    uses = [fan.labels, fan.mask, lambda: fan.union(fan),
            lambda: fan.mul(fan), fan.is_subloop,
            lambda: quotient.is_normal_subloop(catalog.octonion16(), fan)]
    for use in uses:
        with pytest.raises(LoopMismatch, match="freed"):
            use()


def test_analysis_fan_and_p_hull(oct16):
    a = oct16.analysis
    # the fan is the subloop generated by the associator values
    assert a.fan == core.subgroup_closure(oct16, a.t_range.union(a.p_range))
    hull = core.p_hull(oct16, a.p_range)
    assert hull.members >= a.p_range.members
    assert 0 in hull


def test_analysis_nucleus_parts(oct16):
    a = oct16.analysis
    assert (a.nucleus_l.members == a.nucleus_m.members
            == a.nucleus_r.members == a.nucleus.members)
    assert a.center.members <= a.nucleus.members


def test_set_arguments_are_read_as_sets_of_the_loop(q8):
    Z = q8.analysis.center
    f = haar.random_function(q8)
    # a list of members is read as the set it names
    assert core.require_subgroup(q8, [0, 1]) == Z
    assert haar.fan_average(f, [0, 1]) == haar.fan_average(f, Z)
    assert haar.upsilon_member(haar.fan_average(f, [0, 1]), [0, 1])
    assert core.p_hull(q8, [0, 2]) == core.p_hull(q8, q8.subset([0, 2]))
    # an equal copy's set is a set of this loop
    copy = catalog.quaternion8()
    assert Z.union(copy.analysis.center) == Z
    assert core.p_hull(q8, copy.subset([0, 2])) == core.p_hull(q8, [0, 2])


@pytest.mark.parametrize("table, expect", [
    # row 0 first differs from 0..n-1 at column 2, column 0 at row 1: the
    # row is scanned first
    ([[0, 1, 3, 2], [2, 3, 0, 1], [1, 0, 2, 3], [3, 2, 1, 0]], (0, 2)),
    # row 0 is natural, column 0 first differs at row 1
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], (0, 1)),
], ids=["row", "column"])
def test_no_identity_names_the_first_counterexample(table, expect):
    with pytest.raises(NoIdentity) as exc:
        core.verify_loop(table, identity=0)
    assert (exc.value.candidate, exc.value.counterexample) == expect


@pytest.mark.parametrize("identity", [7, -1], ids=["past-the-end", "negative"])
def test_out_of_range_identity_is_refused(identity):
    # the last row and column are natural, so a wrapped -1 would pass the
    # identity check and fail later
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    with pytest.raises(NoIdentity) as exc:
        core.verify_loop(table, identity=identity)
    assert (exc.value.candidate, exc.value.counterexample) == (identity, None)
    assert core.verify_loop(table, identity=2).labels == ("e", "x0", "x1")


@pytest.mark.parametrize("identity", [1.5, True, np.float64(1.0), b"1", "e"],
                         ids=["float", "bool", "numpy-float", "bytes", "label"])
def test_an_identity_that_is_not_an_integer_index_is_refused(identity):
    # index 1 is the identity, so a value truncated or coerced to 1 would
    # pass; the error carries the value as given
    table = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    with pytest.raises(NoIdentity) as exc:
        core.verify_loop(table, identity=identity)
    assert exc.value.candidate is identity
    assert exc.value.counterexample is None
    G = core.verify_loop(table, identity=np.int64(1))
    assert G.labels == ("e", "x0", "x2")


def test_identity_search_needs_a_natural_row_and_column():
    # a natural row (a left identity) alone, and a natural column alone
    left = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    for table in (left, np.array(left).T):
        with pytest.raises(NoIdentity) as exc:
            core.verify_loop(table)
        assert (exc.value.candidate, exc.value.counterexample) == (None, None)
    # the one index that is both, moved to 0
    G = core.verify_loop([[2, 0, 1], [0, 1, 2], [1, 2, 0]])
    assert G.labels == ("e", "x0", "x2")


def test_witnesses_match_lexicographic_oracle():
    # every loop of order 5: the first triple with (ab)c != a(bc), and the
    # first pair whose (ab)/(ba) leaves the centre, in row-major order
    seen = set()
    for table in census.iter_reduced_latin(5):
        G = core.verify_loop(table)
        n, a = G.order, G.analysis
        triples = [(x, y, z) for x in range(n) for y in range(n)
                   for z in range(n) if G.t(x, y, z) != 0]
        pairs = [(x, y) for x in range(n) for y in range(n)
                 if G.rdiv[G.table[x, y], G.table[y, x]] not in a.center]
        assert a.non_assoc_witness == (triples[0] if triples else None)
        assert a.central_witness == (pairs[0] if pairs else None)
        seen.add((bool(triples), bool(pairs)))
    assert seen == {(False, False), (True, True)}


# --- the nucleus-first analysis against the whole-tensor oracle -------------

_SET_FIELDS = ("com", "nucleus_l", "nucleus_m", "nucleus_r", "nucleus",
               "center", "t_range", "p_range")


def _fields(a):
    """A LoopAnalysis as a dict, each element set as its members."""
    return {f.name: getattr(getattr(a, f.name), "members", getattr(a, f.name))
            for f in dataclasses.fields(a)}


def _tensor_fields(G, t, p, m):
    """Every LoopAnalysis field of G read from its whole tensors t and p:
    census' batched masks m, the first a outside N_l with its first
    non-associative pair, _kernels.fan_violation's witness, and the first
    triple whose t, and whose p, leaves the nucleus."""
    a = _kernels.first(~m.nucleus_l)
    fan = bool(m.is_fan)
    out = {name: frozenset(np.flatnonzero(getattr(m, name)).tolist())
           for name in _SET_FIELDS}
    out.update(
        is_loop=True,
        is_group=a is None,
        is_commutative=bool(m.com.all()),
        is_fan_loop=fan,
        is_central_fan_loop=fan and bool(m.central_pairs.all()),
        fan=core.subgroup_closure(G, out["t_range"] | out["p_range"]).members,
        non_assoc_witness=None if a is None else (*a, *_kernels.first(t[a] != 0)),
        fan_witness=None if fan else _kernels.fan_violation(t, p, m.nucleus)[1:],
        central_witness=_kernels.first(~m.central_pairs),
        t_witness=_kernels.first(~m.nucleus[t]),
        p_witness=_kernels.first(~m.nucleus[p]),
    )
    return out


def _oracle(G):
    t, p = _kernels.assoc_tensors(G.table, G.ldiv, G.rdiv)
    return _tensor_fields(G, t, p, census.masks(G.table, G.rdiv, t, p))


def _nucleus_is_normal(G):
    N = sorted(G.analysis.nucleus.members)
    return len(N) == 1 or bool(quotient.is_normal_subloop(G, N))


def _square_loops(orders, keep=lambda m, k: True):
    """(loop, oracle fields) for the reduced squares of these orders that
    keep(batch masks, index in the batch) selects, the oracle read from
    each batch's stacked tensors."""
    for order in orders:
        labels = core.default_labels(order)
        for batch in _kernels.reduced_latin_squares(order, 256):
            ldiv, rdiv = _kernels.division_tables(batch)
            t, p = _kernels.assoc_tensors(batch, ldiv, rdiv)
            m = census.masks(batch, rdiv, t, p)
            for k in range(len(batch)):
                if keep(m, k):
                    G = core.FiniteLoop(labels, batch[k].copy(),
                                        ldiv[k].copy(), rdiv[k].copy())
                    yield G, _tensor_fields(G, t[k], p[k],
                                            census.Masks(*(x[k] for x in m)))


def test_analysis_matches_the_tensor_oracle_on_every_small_square():
    # all 9,471 reduced squares of orders 1-6: fan and non-fan, with a
    # normal and a non-normal nucleus
    seen = set()
    for G, want in _square_loops(range(1, 7)):
        assert _fields(G.analysis) == want, G.table.tolist()
        seen.add((want["is_fan_loop"], _nucleus_is_normal(G)))
    assert seen == {(True, True), (False, True), (False, False)}


def test_analysis_matches_the_tensor_oracle_in_small_slabs(monkeypatch):
    # with 8-triple slabs an order-6 square takes the column screen and the
    # representative domain in many slabs, as a loop of order >= 26 does;
    # every square of orders 1-5, and the order-6 squares with N != {e}
    # or at every 16th index
    monkeypatch.setattr(_kernels, "SLAB", 8)
    seen = set()
    keep = lambda m, k: m.nucleus[k].sum() > 1 or k % 16 == 0  # noqa: E731
    for G, want in _square_loops(range(1, 7), keep):
        assert _fields(G.analysis) == want, G.table.tolist()
        seen.add((want["is_fan_loop"], _nucleus_is_normal(G)))
    assert seen == {(True, True), (False, True), (False, False)}


def _first_non_normal_nucleus(order):
    return next(G for G in census.enumerate_loops(order)
                if not _nucleus_is_normal(G))


def test_analysis_matches_the_tensor_oracle_on_larger_loops(corpus_loops):
    cd, dp = products.cayley_dickson_basis_loop, products.direct_product
    oct16 = catalog.octonion16()
    loops = dict(corpus_loops)
    loops.update({
        "cd5": cd(5),
        "oct16xC2": dp([oct16, catalog.cyclic(2)]),
        "oct16xQ8": dp([oct16, catalog.quaternion8()]),
        "oct16xoct16": dp([oct16, oct16]),
        # element 1 = (e, -1) is central, so every element passes the
        # nucleus laws on column 1 (_kernels.nucleus_screen)
        "C2xcd4": dp([catalog.cyclic(2), cd(4)]),
        # a non-normal nucleus, and not fan, past one slab's n^3
        "W6xC8": dp([_first_non_normal_nucleus(6), catalog.cyclic(8)],
                    verify=False),
    })
    assert {"cd3", "cd4"} <= loops.keys()
    for name, G in loops.items():
        assert _fields(G.analysis) == _oracle(G), name
    assert _kernels.nucleus_screen(loops["C2xcd4"].table).all()
    W = loops["W6xC8"]
    assert not W.analysis.is_fan_loop and not _nucleus_is_normal(W)
    assert W.order ** 3 > _kernels.SLAB


def test_analysis_builds_no_tensor(monkeypatch):
    calls = []
    build = _kernels.assoc_tensors
    monkeypatch.setattr(_kernels, "assoc_tensors",
                        lambda *a: calls.append(a) or build(*a))
    G = products.direct_product([catalog.octonion16(), catalog.quaternion8()],
                                verify=False)
    assert G.analysis.is_fan_loop and calls == []
