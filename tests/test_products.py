"""Products: Cayley-Dickson basis loops against an independent oracle,
direct products, and the smashed-product validation/cross-check machinery.

The oracle multiplies signed basis *vectors* of the doubling algebra with
plain integer arrays — no shared code with
products.cayley_dickson_basis_loop, which doubles whole sign and index
tables.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fanloops import _kernels, catalog, census, core, products, quotient
from fanloops.errors import (
    FanLoopCheckFailed,
    OrderCapExceeded,
    SizeCapExceeded,
    ValidationFailed,
)

# --- independent Cayley-Dickson oracle -------------------------------------

def _vec_conj(v):
    out = -v
    out[0] = v[0]
    return out


def _vec_mul(x, y):
    """(a,b)(c,d) = (ac - d*b, da + bc*) on integer coordinate vectors."""
    n = x.shape[0]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    top = _vec_mul(a, c) - _vec_mul(_vec_conj(d), b)
    bot = _vec_mul(d, a) + _vec_mul(b, _vec_conj(c))
    return np.concatenate([top, bot])


def oracle_table(k):
    """Loop table for the 2^(k+1) signed basis elements, element 2i+s for
    basis index i with sign (-1)^s, built purely from vector products."""
    dim = 2 ** k
    n = 2 * dim
    def vec(code):
        v = np.zeros(dim, dtype=np.int64)
        v[code // 2] = -1 if code % 2 else 1
        return v

    def decode(v):
        nz = np.nonzero(v)[0]
        assert len(nz) == 1 and abs(v[nz[0]]) == 1
        return 2 * int(nz[0]) + (1 if v[nz[0]] < 0 else 0)

    table = np.empty((n, n), dtype=np.int16)
    for i in range(n):
        for j in range(n):
            table[i, j] = decode(_vec_mul(vec(i), vec(j)))
    return table


# --- Cayley-Dickson ---------------------------------------------------------

def test_cd_tables_match_vector_oracle():
    for k in range(1, 5):
        G = products.cayley_dickson_basis_loop(k)
        assert np.array_equal(G.table, oracle_table(k)), f"k={k}"


def test_cd_classifications():
    C4 = products.cayley_dickson_basis_loop(1)
    assert C4.analysis.is_group and C4.analysis.is_commutative
    assert C4.order == 4
    Q8 = products.cayley_dickson_basis_loop(2)
    assert Q8.analysis.is_group and not Q8.analysis.is_commutative
    O16 = products.cayley_dickson_basis_loop(3)
    assert not O16.analysis.is_group and O16.analysis.is_fan_loop
    S32 = products.cayley_dickson_basis_loop(4)
    assert not S32.analysis.is_group and S32.analysis.is_fan_loop
    assert S32.analysis.fan.members == frozenset({0, 1})


def test_cd_cap():
    # k past the cap is refused by name, not as the order 2^(k+1) it implies
    with pytest.raises(ValueError, match="k must be at most 5, got 6"):
        products.cayley_dickson_basis_loop(6)


def test_cd_labels():
    G = products.cayley_dickson_basis_loop(2)
    assert G.labels[:4] == ("1", "-1", "e1", "-e1")
    assert G.label(G.table[G.index("e1"), G.index("e2")]) == "e3"


# --- direct products --------------------------------------------------------

def test_direct_product_pairs_componentwise(groups8, oct16):
    # ten pairs covering group x group, group x fan-loop, fan x fan
    base = dict(groups8)
    pairs = [
        (base["C2"], base["C3"]), (base["C2"], base["C4"]),
        (base["C3"], base["C4"]), (base["K4"], base["C2"]),
        (base["S3"], base["C2"]), (base["Q8"], base["C2"]),
        (base["D4"], base["C3"]), (base["C2"], oct16),
        (base["C3"], oct16), (base["S3"], base["S3"]),
    ]
    for A, B in pairs:
        P = products.direct_product([A, B])  # verify=True checks N/Z/fan
        assert P.order == A.order * B.order
        aP = P.analysis
        assert aP.is_fan_loop == (
            A.analysis.is_fan_loop and B.analysis.is_fan_loop
        )


def test_direct_product_three_factors():
    P = products.direct_product(
        [catalog.cyclic(2), catalog.cyclic(2), catalog.cyclic(3)]
    )
    assert P.order == 12
    assert P.analysis.is_group and P.analysis.is_commutative


def test_direct_product_refuses_an_empty_list():
    with pytest.raises(ValueError, match="at least one loop"):
        products.direct_product([])


def test_direct_product_labels():
    P = products.direct_product([catalog.cyclic(2, "a"), catalog.cyclic(2, "b")])
    assert "(a,b)" in P.labels


# --- smashing validation -----------------------------------------------------

def test_validate_all_shipped_instances():
    for data in catalog.smash_instances():
        rep = products.validate_smashing(data)
        assert rep.ok, (data.name, rep.condition, rep.witness)
        assert "4.3.8-identity" in rep.checked


def _s4():
    return [d for d in catalog.smash_instances() if d.name == "s4-xi-c2-q8"][0]


def test_validate_rejects_non_injective_embedding():
    data = _s4()
    bad = products.SmashingData(
        data.A, data.B, data.n_labels, [0, 0], data.into_b,
        data.phi, data.eta, data.kappa, data.xi,
    )
    rep = products.validate_smashing(bad)
    assert not rep.ok and rep.condition == "structure"


def test_validate_rejects_non_bijective_phi():
    data = _s4()
    phi = data.phi.copy()
    phi[1] = 0  # phi(a, .) collapses everything to 1
    bad = products.SmashingData(
        data.A, data.B, data.n_labels, data.into_a, data.into_b,
        phi, data.eta, data.kappa, data.xi,
    )
    rep = products.validate_smashing(bad)
    assert not rep.ok and rep.condition in ("structure", "phi-bijective")


def test_validate_rejects_bad_xi_shift():
    data = _s4()
    xi = data.xi.copy()
    xi[0, 2, 1, 2] ^= 1  # break the N-shift orbit equivariance
    bad = products.SmashingData(
        data.A, data.B, data.n_labels, data.into_a, data.into_b,
        data.phi, data.eta, data.kappa, xi,
    )
    rep = products.validate_smashing(bad)
    assert not rep.ok and rep.condition.startswith("4.3.8")


def test_validate_rejects_xi_not_identity_on_e():
    data = _s4()
    xi = data.xi.copy()
    # corrupt a full N-shift orbit (the {1,-1} x {1,-1} block of B-slots,
    # constant in both A-slots) so every 4.3.8 shift test still passes and
    # only the identity normalization can catch it
    for c in (0, 1):
        for b in (0, 1):
            xi[:, c, :, b] = 1
    bad = products.SmashingData(
        data.A, data.B, data.n_labels, data.into_a, data.into_b,
        data.phi, data.eta, data.kappa, xi,
    )
    rep = products.validate_smashing(bad)
    assert not rep.ok and rep.condition == "4.3.8-identity"


def test_validate_rejects_kappa_on_n():
    data = [d for d in catalog.smash_instances()
            if d.name == "s5-kappa-c4-q8"][0]
    kappa = data.kappa.copy()
    kappa[1, 0, 2] = 1  # kappa(., 1, .) must vanish: c is the identity of B
    bad = products.SmashingData(
        data.A, data.B, data.n_labels, data.into_a, data.into_b,
        data.phi, data.eta, kappa, data.xi,
    )
    rep = products.validate_smashing(bad)
    assert not rep.ok
    # changing kappa breaks the functional equation it solves (4.3.6),
    # which is checked before the 4.3.7 invariance conditions
    assert rep.condition in ("4.3.6", "4.3.7", "4.3.7-degenerate")


def _instance(prefix):
    return [d for d in catalog.smash_instances()
            if d.name.startswith(prefix + "-")][0]


def _set(name, index, value):
    """Change for dataclasses.replace: one cell (or row) of a table."""
    def change(data):
        table = getattr(data, name).copy()
        table[index] = value
        return {name: table}
    return change


def _flip_xi_orbit(data):
    # constant in both A slots, so the first shifts that move it are the
    # B-slot ones: position 2, the left shift of c by the image of z
    xi = data.xi.copy()
    xi[:, 2, 1, 2] ^= 1
    return {"xi": xi}


_CHECKED_TO_438 = (
    "structure", "phi-bijective", "4.3.1", "4.3.1-normal-A",
    "4.3.1-normal-B", "4.3.4", "4.3.4-gamma-fixed", "4.3.4-action-trivial",
    "4.3.5", "4.3.5-degenerate", "4.3.6", "4.3.7", "4.3.7-degenerate",
    "4.3.8",
)


def _checked(condition):
    """The checked list of a report that fails at `condition`."""
    order = _CHECKED_TO_438 + ("4.3.8-identity",)
    return order[:order.index(condition) + 1]


@pytest.mark.parametrize("prefix, change, condition, witness, checked", [
    ("s4", lambda d: {"phi": d.phi[:, :4]},
     "structure", ("phi shape", (2, 4)), ("structure",)),
    ("s4", lambda d: {"eta": d.eta[:, :, :4]},
     "structure", ("eta shape", (2, 2, 4)), ("structure",)),
    ("s4", lambda d: {"kappa": d.kappa[:1]},
     "structure", ("kappa shape", (1, 8, 8)), ("structure",)),
    ("s4", lambda d: {"xi": d.xi[..., :4]},
     "structure", ("xi shape", (2, 8, 2, 4)), ("structure",)),
    ("s1", _set("phi", 1, [0, 1, 2, 9]),
     "structure", ("phi value outside B",), ("structure",)),
    ("s1", _set("phi", 1, [0, 1, 2, -1]),
     "structure", ("phi value outside B",), ("structure",)),
    ("s4", _set("eta", (1, 1, 3), 2),
     "structure", ("eta value outside N",), ("structure",)),
    ("s4", _set("kappa", (1, 2, 3), -1),
     "structure", ("kappa value outside N",), ("structure",)),
    ("s4", _set("xi", (1, 2, 1, 3), 5),
     "structure", ("xi value outside N",), ("structure",)),
    ("s4", _flip_xi_orbit,
     "4.3.8", ("shift", 1, "position", 2), _CHECKED_TO_438),
    ("s2", lambda d: {"into_a": [0, 9]},
     "structure", ("embedding outside A",), ()),
    ("s2", lambda d: {"into_a": [0, -1]},
     "structure", ("embedding outside A",), ()),
    ("s2", lambda d: {"into_b": [0, 40]},
     "structure", ("embedding outside B",), ()),
    ("s1", lambda d: {"into_a": [5]},
     "structure", ("N identity must embed to e",), ()),
    ("s1", lambda d: {"n_labels": (), "into_a": [], "into_b": []},
     "structure", ("N identity must embed to e",), ()),
    ("s4", _set("phi", (1, 3), 2),
     "phi-bijective", (1,), _checked("phi-bijective")),
    # eta(1, 2, 3) alone moves, so 4.3.4 first fails there
    ("s6", _set("eta", (1, 2, 3), 1), "4.3.4", (1, 2, 3), _checked("4.3.4")),
    # an involution of C4 is an action, but it moves the image of N
    ("s1", _set("phi", 1, [1, 0, 3, 2]),
     "4.3.4-gamma-fixed", (1, 0), _checked("4.3.4-gamma-fixed")),
    # inversion of C4 fixes the image {e, g2} of N, but a = z must act
    # trivially
    ("s2", _set("phi", 1, [0, 3, 2, 1]),
     "4.3.4-action-trivial", (1, 1), _checked("4.3.4-action-trivial")),
    ("s5", _set("kappa", (1, 2, 3), 1), "4.3.6", (1, 2, 3), _checked("4.3.6")),
    # whole N-orbits, so only the identity normalisation sees them
    ("s4", _set("xi", (slice(None), slice(0, 2), slice(None), slice(0, 2)), 1),
     "4.3.8-identity", ("left", 0, 0), _checked("4.3.8-identity")),
    ("s4", _set("xi", (slice(None), slice(2, 4), slice(None), slice(0, 2)), 1),
     "4.3.8-identity", ("right", 0, 2), _checked("4.3.8-identity")),
], ids=["phi-shape", "eta-shape", "kappa-shape", "xi-shape", "phi-above-B",
        "phi-negative", "eta-range", "kappa-range", "xi-range",
        "xi-shift-position-2", "into-a-above-A", "into-a-negative",
        "into-b-above-B", "identity-not-to-e", "empty-N", "phi-bijective",
        "4.3.4", "4.3.4-gamma-fixed", "4.3.4-action-trivial", "4.3.6",
        "4.3.8-identity-left", "4.3.8-identity-right"])
def test_validation_witnesses(prefix, change, condition, witness, checked):
    data = _instance(prefix)
    rep = products.validate_smashing(dataclasses.replace(data, **change(data)))
    assert (rep.ok, rep.condition, rep.witness, rep.checked) == (
        False, condition, witness, checked)


def test_validation_witness_embeddings_not_isomorphic():
    # N = C4 onto all of C4 twice, the second time by 1 -> g2, which is no
    # isomorphism: 1·1 = 2 goes to g2·g2 = e, not to the image g of 2
    C4 = catalog.cyclic(4)
    data = products.SmashingData(C4, C4, ("0", "1", "2", "3"), [0, 1, 2, 3],
                                 [0, 2, 1, 3])
    rep = products.validate_smashing(data)
    assert (rep.condition, rep.witness, rep.checked) == (
        "structure", ("embeddings not isomorphic", 1, 1), ("structure",))


def test_validation_witness_embedded_image_not_closed():
    # {0, 1} = {e, g} of C4 is no subgroup
    C4 = catalog.cyclic(4)
    data = products.SmashingData(C4, C4, ("e", "x"), [0, 1], [0, 2])
    rep = products.validate_smashing(data)
    assert (rep.condition, rep.witness, rep.checked) == (
        "structure", ("embedded image not closed",), ("structure",))


def test_validation_witness_fan_outside_the_n_image(oct16):
    # N = {e} misses -1, the first fan element of the octonion loop
    data = products.SmashingData(oct16, catalog.cyclic(2), ("e",), [0], [0])
    rep = products.validate_smashing(data)
    assert (rep.condition, rep.witness) == (
        "4.3.1", ("A", "fan not inside N image", 1))


@pytest.mark.parametrize("prefix, name, slots, change, witness", [
    ("s6", "eta", (2,), _set("eta", (1, 1, 1), 0), (1, 0)),
    ("s5", "kappa", (1, 2), _set("kappa", (1, 2, 4), 0), (1, 0)),
    # the whole N-orbit {j, -j} of c, so only the shifts of b move it
    ("s5", "kappa", (1, 2), _set("kappa", (1, slice(4, 6), 2), 0), (1, 2)),
])
def test_shift_witness_on_tampered_tables(prefix, name, slots, change,
                                          witness):
    data = _instance(prefix)
    assert products._shift_witness(data, name, slots) is None
    bad = dataclasses.replace(data, **change(data))
    assert products._shift_witness(bad, name, slots) == witness


def _smashing_from_action(pi):
    """A = C6 and B = C9, written additively, over N = C3 with images
    {0, 2, 4} and {0, 3, 6}; b^u = pi(b) for odd u and b for even u, and eta
    and kappa are the N-values that make 4.3.4 and 4.3.6 hold."""
    A, B = catalog.cyclic(6), catalog.cyclic(9)
    into_b = np.array([0, 3, 6])
    phi = np.array([pi if u % 2 else range(9) for u in range(6)])
    back = np.full(9, -1)
    back[into_b] = range(3)
    v, u, b = np.ix_(range(6), range(6), range(9))
    eta = back[B.ldiv[phi[A.table[v, u], b], phi[v, phi[u, b]]]]
    u, c, b = np.ix_(range(6), range(9), range(9))
    kappa = back[B.ldiv[B.table[phi[u, c], phi[u, b]], phi[u, B.table[c, b]]]]
    assert eta.min() >= 0 and kappa.min() >= 0  # both N-valued
    return products.SmashingData(A, B, ("0", "1", "2"), [0, 2, 4], into_b,
                                 phi=phi, eta=eta, kappa=kappa)


@pytest.mark.parametrize("pi, condition", [
    # pi swaps the cosets 1+N and 2+N, and pi² = (1 4)(2 5), so
    # eta(1, 1, b) = pi²(b) - b is 3 at b = 1 but 6 at b = 1 + 3
    ([0, 2, 4, 3, 5, 1, 6, 8, 7], "4.3.5"),
    # pi² = id, so eta = 0 passes 4.3.5, but kappa(1, c, 1) =
    # pi(c + 1) - pi(c) - pi(1) is 0 at c = 0 and 3 at c = 0 + 3
    ([0, 2, 1, 3, 8, 7, 6, 5, 4], "4.3.7"),
], ids=["eta-shift", "kappa-shift"])
def test_validation_reaches_the_eta_and_kappa_shift_witnesses(pi, condition):
    rep = products.validate_smashing(_smashing_from_action(pi))
    assert (rep.ok, rep.condition, rep.witness, rep.checked) == (
        False, condition, ("shift", 1), _checked(condition))


@pytest.mark.parametrize("prefix, name, index", [
    ("s6", "eta", (2, 1, 1)),    # v = g2 in the image of N in A
    ("s6", "eta", (1, 0, 1)),    # u = e
    ("s6", "eta", (1, 1, 4)),    # b = h4 in the image of N in B
    ("s5", "kappa", (2, 2, 4)),  # u = g2 in the image of N in A
    ("s5", "kappa", (1, 1, 4)),  # c = -1
    ("s5", "kappa", (1, 2, 0)),  # b = 1
])
def test_nonzero_on_n_on_tampered_tables(prefix, name, index):
    data = _instance(prefix)
    assert not products._nonzero_on_n(data, name)
    bad = dataclasses.replace(data, **_set(name, index, 1)(data))
    assert products._nonzero_on_n(bad, name)


def test_smashed_product_raises_on_invalid_data():
    data = _s4()
    xi = data.xi.copy()
    xi[0, 2, 1, 2] ^= 1
    bad = products.SmashingData(
        data.A, data.B, data.n_labels, data.into_a, data.into_b,
        data.phi, data.eta, data.kappa, xi,
    )
    with pytest.raises(ValidationFailed) as exc:
        products.smashed_product(bad)
    assert exc.value.condition.startswith("4.3")


def test_over_cap_orders_are_refused_before_any_work(monkeypatch):
    C17 = catalog.cyclic(17)
    data = products.SmashingData(C17, C17, ("e",), [0], [0])

    def unreachable(*args, **kwargs):
        raise AssertionError("built or validated past the cap")

    monkeypatch.delenv("FANLOOP_CAP", raising=False)
    monkeypatch.setattr(core, "verify_loop", unreachable)
    monkeypatch.setattr(products, "validate_smashing", unreachable)
    for build, order, error in (
        (lambda: catalog.cyclic(257), 257, OrderCapExceeded),
        (lambda: catalog.dihedral(129), 258, OrderCapExceeded),
        (lambda: products.direct_product([C17, C17]), 289, SizeCapExceeded),
        (lambda: products.smashed_product(data), 289, SizeCapExceeded),
        (lambda: products.cayley_dickson_basis_loop(3, cap=8), 16,
         SizeCapExceeded),
    ):
        cap = 8 if order == 16 else 256
        with pytest.raises(error, match=f"^order {order} exceeds cap {cap}$"):
            build()


def test_omitted_smashing_tables_are_not_built_before_the_cap(monkeypatch):
    # a default ξ for C40 × C40 would hold (40·40)² intp entries, 20 MB;
    # omitted tables are read-only views, so the refusal costs kilobytes
    monkeypatch.delenv("FANLOOP_CAP", raising=False)
    C40 = catalog.cyclic(40)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="^order 1600 exceeds"):
            products.smashed_product(
                products.SmashingData(C40, C40, ("e",), [0], [0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_product_analysis_and_quotient_build_no_tensors(monkeypatch):
    # oct16 × Q8 (n = 128): t and p would take 4 MB each, and the
    # cross-checks, the analysis and the quotient's group check read slabs
    oct16, q8 = catalog.octonion16(), catalog.quaternion8()
    calls = []
    build = _kernels.assoc_tensors
    monkeypatch.setattr(_kernels, "assoc_tensors",
                        lambda *a: calls.append(a) or build(*a))
    tracemalloc.start()
    try:
        P = products.direct_product([oct16, q8])
        assert P.analysis.is_fan_loop
        Q = quotient.quotient(P, P.analysis.fan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Q.order * len(P.analysis.fan) == P.order
    assert calls == []
    assert peak < 4 << 20, peak


# --- smashed products: construction and closed forms -------------------------

def test_all_smash_products_are_fan_loops(smash_products):
    for data, P in smash_products:
        a = P.analysis
        assert a.is_loop and a.is_fan_loop, data.name
        assert P.order == data.A.order * data.B.order


def test_smash_cross_checks_clean(smash_products):
    for data, P in smash_products:
        assert products.verify_smashed_product(data, P) == [], data.name


def test_s1_degenerates_to_direct_product(smash_products):
    data, P = [x for x in smash_products if x[0].name == "s1-trivial-c2-c4"][0]
    D = products.direct_product([data.A, data.B])
    assert np.array_equal(P.table, D.table)


def test_s3_is_dihedral(smash_products):
    data, P = [x for x in smash_products if x[0].name == "s3-phi-d4"][0]
    D4 = catalog.dihedral(4)
    a = P.analysis
    assert a.is_group and not a.is_commutative and P.order == 8
    # same multiset of element orders as D4 => isomorphic among order-8 groups
    def orders(G):
        out = []
        for x in range(G.order):
            k, y = 1, x
            while y != 0:
                y = int(G.table[y, x])
                k += 1
            out.append(k)
        return sorted(out)
    assert orders(P) == orders(D4)


def test_s4_s5_s6_nonassociative(smash_products):
    for name in ("s4-xi-c2-q8", "s5-kappa-c4-q8", "s6-eta-c4-c8"):
        data, P = [x for x in smash_products if x[0].name == name][0]
        assert not P.analysis.is_group, name
        assert P.analysis.is_fan_loop, name


def test_s5_not_central_fan(smash_products):
    data, P = [x for x in smash_products if x[0].name == "s5-kappa-c4-q8"][0]
    assert not P.analysis.is_central_fan_loop


def test_fan_containment_in_embedded_n(smash_products):
    # the fan of the product lies inside the subgroup generated by the
    # embedded copies of N (checked independently of verify_smashed_product)
    for data, P in smash_products:
        nB = data.B.order
        gens = {int(a) * nB for a in data.into_a}
        gens |= {int(b) for b in data.into_b}
        S = core.subgroup_closure(P, gens)
        assert P.analysis.fan.members <= S.members, data.name


def test_left_division_exact_form_discriminates_on_s6(smash_products):
    """The left-inverse closed form evaluates xi at c = e/(b^{e/a}).

    The nearby variant xi(. , b^{e/a}) agrees on instances where e/x is an
    N-shift of x (s1..s5) but breaks on s6; this regression pins the exact
    slot.
    """
    data, P = [x for x in smash_products if x[0].name == "s6-eta-c4-c8"][0]
    A, B = data.A, data.B
    nB = B.order
    ib = data.into_b
    inv_b = B.ldiv[:, 0]
    mismatches = []
    for a in range(A.order):
        for b in range(nB):
            x = a * nB + b
            era = int(A.rdiv[0, a])
            b_ea = int(data.phi[era, b])
            c_slot = int(B.rdiv[0, b_ea])
            xiv = int(ib[data.xi[era, c_slot, a, b]])
            exact = era * nB + int(B.table[inv_b[xiv], c_slot])
            # variant: xi's second slot at b^{e/a} instead of e/(b^{e/a})
            xiv_var = int(ib[data.xi[era, b_ea, a, b]])
            variant = era * nB + int(B.table[inv_b[xiv_var], c_slot])
            want = int(P.rdiv[0, x])
            assert exact == want
            if variant != want:
                mismatches.append(x)
    assert len(mismatches) == 8
    assert P.labels[mismatches[0]] == "(e,h)"


_ASSOC_SLABS = _kernels.assoc_slabs


def _tensors(P):
    """P's whole t and p tensors."""
    return _kernels.assoc_tensors(P.table, P.ldiv, P.rdiv)


def _serve(monkeypatch, P, t, p):
    """Have _kernels.assoc_slabs yield the tensors (t, p), planted copies of
    P's, as P's slabs; every other table and domain is computed as usual."""
    def assoc_slabs(table, ldiv, rdiv, domain=None):
        if table is not P.table or domain is not None:
            yield from _ASSOC_SLABS(table, ldiv, rdiv, domain)
            return
        for a, _, _ in _ASSOC_SLABS(table, ldiv, rdiv):
            yield a, t[a], p[a]
    monkeypatch.setattr(_kernels, "assoc_slabs", assoc_slabs)


def test_direct_product_componentwise_internal_check_fires():
    # sanity for the tripwire: tampering with a verified product is caught
    A, B = catalog.cyclic(2), catalog.cyclic(3)
    P = products.direct_product([A, B])
    with pytest.raises(FanLoopCheckFailed):
        products._check_componentwise_sets(P, A, catalog.symmetric3())


@pytest.mark.parametrize("tamper, expect", [
    ({"p": (7, 2, 9)}, ("p", 1, 1, 0, 2, 1, 3)),
    ({"t": (7, 2, 9), "p": (0, 0, 1)}, ("t", 1, 1, 0, 2, 1, 3)),
])
def test_componentwise_assoc_witness_names_the_tensor(tamper, expect,
                                                     monkeypatch):
    # C2×S3: element 6a+b is (a, b); a tampered p alone must still yield a
    # witness, and t is searched before p
    A, B = catalog.cyclic(2), catalog.symmetric3()
    P = products.direct_product([A, B])
    tensors = dict(zip("tp", (X.copy() for X in _tensors(P))))
    for name, idx in tamper.items():
        tensors[name][idx] = 1
    _serve(monkeypatch, P, tensors["t"], tensors["p"])
    with pytest.raises(FanLoopCheckFailed) as info:
        products._check_componentwise_assoc(P, A, B)
    assert info.value.check == "direct-product associators not componentwise"
    assert info.value.witness == expect


def _product(prefix):
    return products.smashed_product(_instance(prefix))


@pytest.mark.parametrize("prefix, change, errs", [
    ("s6", _set("xi", (3, 7, 3, 6), 1), [("4.4.2", (1, 30, 30))]),
    ("s6", _set("phi", (3, 4), 0),
     [("4.4.4/4.4.5", (12,)), ("4.4.7/4.4.8", (12,))]),
    ("s6", _set("eta", (3, 1, 1), 0),
     [("4.4.2", (24, 8, 1)), ("4.4.7/4.4.8", (9,))]),
    ("s6", _set("xi", (3, 3, 1, 3), 1),
     [("4.4.2", (1, 26, 11)), ("4.4.4/4.4.5", (11,))]),
    ("s5", lambda d: {"into_b": [0, 0]},
     [("4.4.2", (8, 2, 4)), ("fan-containment", (1,))]),
], ids=["4.4.2", "4.4.4-and-4.4.7", "4.4.2-and-4.4.7", "4.4.2-and-4.4.4",
        "fan-containment"])
def test_cross_check_witnesses_on_edited_data(prefix, change, errs,
                                              smash_products):
    # the edited data against the product of the unedited data
    data, P = [x for x in smash_products if x[0].name.startswith(prefix)][0]
    edited = dataclasses.replace(data, **change(data))
    assert products.verify_smashed_product(edited, P) == errs


def test_cross_check_witnesses_on_other_products(smash_products):
    P = {d.name[:2]: x for d, x in smash_products}
    # trivial s1 data against the twisted s2 product on the same factors
    assert products.verify_smashed_product(_instance("s1"), P["s2"]) == [
        ("4.4.4/4.4.5", (1,)), ("4.4.7/4.4.8", (1,)), ("degeneracy", (1, 1))]
    # the first non-fan loop of order 5: nothing past the fan-loop test runs
    G = next(iter(census.enumerate_loops(census.CensusQuery(5, "non-fan"))))
    assert products.verify_smashed_product(_instance("s1"), G) == [
        ("fan-loop", (1, 1, 2))]


def test_cross_check_witnesses_on_planted_tables(monkeypatch):
    # checks that no data edit reaches alone: a t entry (p agrees), and a
    # pair of entries swapped in a row of each division table
    P = _product("s4")
    t, p = (X.copy() for X in _tensors(P))
    t[3, 5, 6] = (t[3, 5, 6] + 1) % 16
    _serve(monkeypatch, P, t, p)
    assert products.verify_smashed_product(_instance("s4"), P) == [
        ("4.4.1", (3, 5, 6))]
    for name, errs in (("ldiv", [("4.4.9", (3, 2))]),
                       ("rdiv", [("4.4.10", (2, 3))])):
        P = _product("s4")
        table = getattr(P, name).copy()
        table[3, [2, 5]] = table[3, [5, 2]]
        setattr(P, name, table)
        assert products.verify_smashed_product(_instance("s4"), P) == errs


def _first_changed_row(P, t, p):
    """Row-at-a-time reference for 4.4.1/4.4.2: the first x1 row where the
    planted tensors differ from P's own, which match the closed forms,
    with 4.4.2 (p) before 4.4.1 (t) on that row."""
    t0, p0 = _tensors(P)
    for x1 in range(P.order):
        for check, X, X0 in (("4.4.2", p, p0), ("4.4.1", t, t0)):
            w = _kernels.first(X[x1] != X0[x1])
            if w is not None:
                return [(check, (x1, *w))]
    return []


@pytest.mark.parametrize("prefix", ["s5", "s6"])
@pytest.mark.parametrize("slab", ["default", "row"])
def test_blocked_associator_check_matches_a_row_loop(prefix, slab,
                                                     monkeypatch):
    P = _product(prefix)
    n = P.order
    k = _kernels.slabs(n, n * n)[0].stop  # rows per block at the default
    assert 1 < k < n
    if slab == "row":
        monkeypatch.setattr(_kernels, "SLAB", 1)
    plants = [
        [("p", (0, 5, 7))],
        [("t", (0, n - 1, 0))],
        [("t", (k - 1, n - 1, n - 1))],          # last row of a block
        [("p", (k, 0, 0))],                      # first row of the next
        [("t", (k, 0, 1)), ("p", (k, 9, 9))],    # both on one row: p first
        [("t", (k - 1, 3, 3)), ("p", (k, 0, 0))],
    ]
    for plant in plants:
        t, p = (X.copy() for X in _tensors(P))
        for name, idx in plant:
            X = t if name == "t" else p
            X[idx] = (X[idx] + 1) % n
        Q = _product(prefix)
        _serve(monkeypatch, Q, t, p)
        errs = products.verify_smashed_product(_instance(prefix), Q)
        got = [e for e in errs if e[0] in ("4.4.1", "4.4.2")]
        assert got == _first_changed_row(P, t, p) != [], plant


def _s4_with(name, value):
    data = _instance("s4")
    return dataclasses.replace(data, **{name: value(getattr(data, name))})


def _xi_with_cell(xi, dtype, value):
    xi = xi.astype(dtype)
    xi[1, 2, 1, 3] = value
    return xi


@pytest.mark.parametrize("value", [
    # the old value plus 65536, which wraps back to it in int16
    lambda xi: _xi_with_cell(xi, np.int64, xi[1, 2, 1, 3] + 65536),
    lambda xi: _xi_with_cell(xi, np.int64, 70000).tolist(),
], ids=["int64", "list"])
def test_smashing_data_keeps_wide_integers(value):
    rep = products.validate_smashing(_s4_with("xi", value))
    assert (rep.condition, rep.witness) == ("structure", ("xi value outside N",))


@pytest.mark.parametrize("name, value", [
    ("into_a", lambda into: [0, 1.7]),
    ("xi", lambda xi: _xi_with_cell(xi, float, 0.5)),
], ids=["into-a", "xi"])
def test_smashing_data_refuses_non_integers(name, value):
    with pytest.raises(ValueError, match=f"{name} must hold integers"):
        _s4_with(name, value)
