"""Core loop construction and classification.

The frozen classification facts for the octonion basis loop (nucleus =
center = fan = {1,-1}, a specific nonassociative triple) were derived from
the independent vector-arithmetic multiplication oracle in
test_products.py and from the naive nucleus oracle in test_kernels.py.
"""

import numpy as np
import pytest

from fanloops import catalog, core
from fanloops.errors import (
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
        il = int(core.inv_l(G, x))
        ir = int(core.inv_r(G, x))
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
    t = core.t_assoc(oct16, e1, e2, e4)
    assert oct16.label(int(t)) == "-1"
    p_val = core.p_assoc(oct16, e1, e2, e4)
    assert oct16.label(int(p_val)) == "-1"


def test_sedenion_fan():
    from fanloops import products

    S = products.cayley_dickson_basis_loop(4)
    a = S.analysis
    assert S.order == 32
    assert a.is_fan_loop
    assert a.fan.members == frozenset({0, 1})


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


def test_element_set_ops(q8):
    a = q8.analysis
    Z = a.center
    assert 0 in Z and len(Z) == 2
    assert Z.labels() == ("1", "-1")
    assert Z <= a.nucleus
    m = Z.mask()
    assert m.sum() == 2 and m[0]


def test_fan_helper_matches_analysis(oct16):
    assert core.fan(oct16).members == oct16.analysis.fan.members
    hull = core.p_hull(oct16, oct16.analysis.p_range)
    assert hull.members >= oct16.analysis.p_range.members
    assert 0 in hull


def test_nucleus_parts_helper(oct16):
    nl, nm, nr, nuc, com, z = core.nucleus_parts(oct16)
    assert nl.members == nm.members == nr.members == nuc.members
    assert z.members <= nuc.members
