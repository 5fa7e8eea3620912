"""Normality, coset decomposition, quotient construction.

Frozen facts derived by exhaustive checks in this file's oracles:
quotient(O16, {1,-1}) is an elementary abelian group of order 8 (every
nonidentity coset squares to the identity).
"""

import dataclasses

import numpy as np
import pytest

from fanloops import _kernels, catalog, census, core, products, quotient
from fanloops.errors import (
    LoopMismatch,
    NotASubloop,
    NotNormal,
    WellDefinednessFailure,
)


def _subgroup(G, members):
    return core.ElementSet(G, frozenset(members))


def test_center_of_q8_is_normal(q8):
    rep = quotient.is_normal_subloop(q8, q8.analysis.center)
    assert rep.ok and rep.condition is None


def test_non_normal_subgroup_detected():
    G = catalog.symmetric3()
    # <s> = {e, s}: index-3 subgroup of S3, famously not normal
    s = G.index("s")
    H = _subgroup(G, {0, s})
    rep = quotient.is_normal_subloop(G, H)
    assert not rep.ok
    assert rep.condition is not None
    assert rep.witness is not None


def test_another_loops_set_is_refused_with_loop_mismatch(q8):
    d4 = catalog.dihedral(4)
    for build in (quotient.is_normal_subloop, quotient.coset_decomposition,
                  quotient.quotient):
        with pytest.raises(LoopMismatch, match="different loop"):
            build(q8, d4.analysis.center)


def test_not_a_subloop_rejected(q8):
    with pytest.raises(NotASubloop) as exc:
        quotient.is_normal_subloop(q8, _subgroup(q8, {0, q8.index("e1")}))
    assert "escapes" in exc.value.reason


def test_fan_normal_in_every_corpus_fan_loop(groups8, smash_products, oct16):
    loops = [G for _, G in groups8] + [oct16]
    loops += [P for _, P in smash_products]
    loops.append(products.cayley_dickson_basis_loop(4))
    for G in loops:
        rep = quotient.is_normal_subloop(G, G.analysis.fan)
        assert rep.ok, (G.order, rep.condition, rep.witness)


def test_coset_decomposition_partitions(oct16):
    dec = quotient.coset_decomposition(oct16, oct16.analysis.fan)
    assert dec.count == 8
    seen = set()
    for block in dec.blocks:
        assert len(block) == 2
        seen |= set(block)
    assert seen == set(range(16))
    # representative map sends each element to its block index
    for i, block in enumerate(dec.blocks):
        for x in block:
            assert dec.representative_of[x] == i
    # identity's coset comes first and representatives are block minima
    assert 0 in dec.blocks[0]
    assert dec.representatives()[0] == 0


def test_octonion_quotient_is_elementary_abelian(oct16):
    Q = quotient.quotient(oct16, oct16.analysis.fan)
    assert Q.order == 8
    a = Q.analysis
    assert a.is_group and a.is_commutative
    for x in range(1, 8):
        assert int(Q.table[x, x]) == 0  # every nonidentity element order 2
        il, ir = int(Q.ldiv[x, 0]), int(Q.rdiv[0, x])
        assert il == ir == x


def test_sedenion_quotient_group():
    S = products.cayley_dickson_basis_loop(4)
    Q = quotient.quotient(S, S.analysis.fan)
    assert Q.order == 16
    a = Q.analysis
    assert a.is_group and a.is_commutative
    for x in range(1, 16):
        assert int(Q.table[x, x]) == 0


def test_quotient_by_trivial_subgroup_is_isomorphic(q8):
    Q = quotient.quotient(q8, _subgroup(q8, {0}))
    assert Q.order == 8
    assert np.array_equal(Q.table, q8.table)


def test_quotient_by_whole_group_is_trivial(q8):
    Q = quotient.quotient(q8, _subgroup(q8, range(8)))
    assert Q.order == 1


def test_quotient_q8_by_center_is_klein(q8):
    Q = quotient.quotient(q8, q8.analysis.center)
    assert Q.order == 4
    a = Q.analysis
    assert a.is_group and a.is_commutative
    for x in range(1, 4):
        assert int(Q.table[x, x]) == 0  # K4, not C4


def test_quotient_labels_use_representatives(oct16):
    Q = quotient.quotient(oct16, oct16.analysis.fan)
    assert Q.label(0).startswith("[") and Q.label(0).endswith("]")


def test_smash_product_fan_quotients(smash_products):
    for data, P in smash_products:
        fan = P.analysis.fan
        Q = quotient.quotient(P, fan)
        assert Q.order * len(fan) == P.order
        qa = Q.analysis
        # quotient by the fan always kills every associator
        assert qa.is_group, data.name


def test_non_normal_raises_from_decomposition():
    G = catalog.symmetric3()
    H = _subgroup(G, {0, G.index("s")})
    with pytest.raises(NotNormal):
        quotient.quotient(G, H)


def _normality_oracle(G, H):
    """Pair-by-pair Def-2.7 check on sorted coset tuples; first violation in
    (x, y) row-major order, 2.7.2a before 2.7.2b before 2.7.2c."""
    T = G.table
    hs = np.array(sorted(H.members), dtype=np.intp)
    n = G.order

    def cs(arr):
        return tuple(sorted(int(v) for v in arr))

    xH = [cs(T[x, hs]) for x in range(n)]
    Hx = [cs(T[hs, x]) for x in range(n)]
    for x in range(n):
        if xH[x] != Hx[x]:
            return quotient.NormalityReport(False, "2.7.1", (G.label(x),))
    for x in range(n):
        for y in range(n):
            xy = int(T[x, y])
            if xH[xy] != cs(T[x, T[y, hs]]):
                return quotient.NormalityReport(False, "2.7.2a",
                                                (G.label(x), G.label(y)))
            if cs(T[T[x, hs], y]) != cs(T[x, T[hs, y]]):
                return quotient.NormalityReport(False, "2.7.2b",
                                                (G.label(x), G.label(y)))
            if Hx[xy] != cs(T[T[hs, x], y]):
                return quotient.NormalityReport(False, "2.7.2c",
                                                (G.label(x), G.label(y)))
    return quotient.NormalityReport(True)


def test_normality_matches_pairwise_oracle(corpus_loops):
    # every distinct subloop generated by one element, normal or not; the
    # order-5 census adds loops whose subloops fail 2.7.2a and 2.7.2b
    census5 = [(f"census5-{i}", W) for i, W in
               enumerate(census.enumerate_loops(census.CensusQuery(5)))]
    conditions = set()
    for name, G in corpus_loops + census5:
        subloops = {core.subgroup_closure(G, [g]).members
                    for g in range(G.order)}
        for members in sorted(subloops, key=sorted):
            H = _subgroup(G, members)
            rep = quotient.is_normal_subloop(G, H)
            assert rep == _normality_oracle(G, H), (name, sorted(members))
            conditions.add(rep.condition)
    assert {None, "2.7.1", "2.7.2a", "2.7.2b"} <= conditions


def test_normality_inside_the_nucleus_skips_the_pair_loop(corpus_loops,
                                                          monkeypatch):
    # a subloop inside N satisfies 2.7.2 by the nucleus laws alone: every
    # one-element-generated H ⊆ N of the corpus loops (cd4 and the six
    # smashed products among them) is decided without a 2.7.2 slab, while
    # a census-5 subloop outside N that passes 2.7.1 still takes them
    calls = []
    monkeypatch.setattr(quotient, "slabs",
                        lambda *a: calls.append(a) or _kernels.slabs(*a))
    census5 = list(census.enumerate_loops(census.CensusQuery(5)))
    inside = outside = 0
    for name, G in corpus_loops + [(f"census5-{i}", W)
                                   for i, W in enumerate(census5)]:
        nucleus = G.analysis.nucleus.members
        for g in range(G.order):
            H = core.subgroup_closure(G, [g])
            calls.clear()
            rep = quotient.is_normal_subloop(G, H)
            assert rep == _normality_oracle(G, H), (name, sorted(H.members))
            if H.members <= nucleus:
                assert calls == [], (name, sorted(H.members))
                inside += 1
            elif rep.condition != "2.7.1":
                assert len(calls) == 1, (name, sorted(H.members))
                outside += 1
    assert inside > 200 and outside > 200


def test_normality_witness_across_slab_edges(monkeypatch):
    # one row of x per slab: the first violation is still the first in
    # (x, y) row-major order
    monkeypatch.setattr(_kernels, "SLAB", 1)
    conditions = set()
    for G in census.enumerate_loops(census.CensusQuery(5)):
        for g in range(G.order):
            H = core.subgroup_closure(G, [g])
            rep = quotient.is_normal_subloop(G, H)
            assert rep == _normality_oracle(G, H)
            conditions.add(rep.condition)
    assert {"2.7.2a", "2.7.2b"} <= conditions


@pytest.mark.parametrize("loop, members, witness, reason", [
    ("q8", {"-1"}, ("-1", "-1"), "product escapes"),
    ("s3", {"r", "r2"}, ("r", "r"), "left division escapes"),
    ("q8", {"1", "e1"}, ("1", "e1"), "right division escapes"),
    ("q8", set(), ("1",), "identity missing"),
])
def test_not_a_subloop_witnesses(loop, members, witness, reason):
    # the first pair of H in row-major order, then the first of ·, \, /
    G = {"q8": catalog.quaternion8, "s3": catalog.symmetric3}[loop]()
    with pytest.raises(NotASubloop) as exc:
        quotient.is_normal_subloop(G, G.subset(members))
    assert (exc.value.witness, exc.value.reason) == (witness, reason)


def _normal_by_fiat(monkeypatch):
    # reach the checks behind normality, which a normal H always passes
    monkeypatch.setattr(quotient, "is_normal_subloop",
                        lambda G, H: quotient.NormalityReport(True))


def test_coset_witness_without_identity():
    # a set closed under \ holds a\a = e, so the only closed H without e
    # is the empty one, and the normality check refuses it first
    G = catalog.symmetric3()
    for build in (quotient.coset_decomposition, quotient.quotient):
        with pytest.raises(NotASubloop) as exc:
            build(G, G.subset(()))
        assert (exc.value.witness, exc.value.reason) == (
            ("e",), "identity missing")


def test_overlapping_cosets_are_refused(monkeypatch):
    # in C4, {e, g}·g = {g, g2} meets {e, g} without being it
    _normal_by_fiat(monkeypatch)
    G = catalog.cyclic(4)
    with pytest.raises(WellDefinednessFailure) as exc:
        quotient.coset_decomposition(G, G.subset({"e", "g"}))
    assert exc.value.witness == ("e", "g")


def test_quotient_witness_names_the_first_block_pair(monkeypatch):
    # the cosets of {e, s} partition S3, but (rH)(rH) is not one coset
    _normal_by_fiat(monkeypatch)
    G = catalog.symmetric3()
    H = G.subset({"e", "s"})
    assert quotient.coset_decomposition(G, H).count == 3
    with pytest.raises(WellDefinednessFailure) as exc:
        quotient.quotient(G, H)
    assert exc.value.witness == ("e", "r")


def _with_trivial_fan(G):
    G._analysis = dataclasses.replace(G.analysis, fan=G.subset({0}))
    return G


def test_quotient_witness_of_a_nonassociative_result():
    G = _with_trivial_fan(catalog.octonion16())
    with pytest.raises(WellDefinednessFailure) as exc:
        quotient.quotient(G, G.subset({0}))
    assert exc.value.witness == ("[e1]", "[e2]", "[e4]")
