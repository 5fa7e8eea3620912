"""Constructors for new fan loops: direct products, smashed products, and
the Cayley-Dickson basis-loop generator.

The smashed product multiplies pairs over a shared central-ish group N:

    (a1,b1)·(a2,b2) = (a1·a2, (b1·b2^a1)·xi((a1,b1),(a2,b2)))

where b^a is an action of A on B fixing the embedded N pointwise, and eta,
kappa, xi are N-valued correction factors subject to the compatibility
conditions checked by validate_smashing (ids 4.3.4 .. 4.3.8 in the law/check
naming scheme used across this package).  After construction the product is
cross-checked against closed forms for its associators, inverses and
divisions (ids 4.4.1 .. 4.4.10); a mismatch is an implementation bug and is
raised, never swallowed.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import _kernels, core, quotient
from ._kernels import first
from .config import CAYLEY_DICKSON_CAP, check_order, order_cap
from .errors import FanLoopCheckFailed, SizeCapExceeded, ValidationFailed


# ---------------------------------------------------------------------------
# direct products
# ---------------------------------------------------------------------------

def _pair_loop(A, B, first, second, cap):
    """The loop on A×B with (a1,b1)·(a2,b2) = (first, second), both arrays
    broadcast over the axes (a1, b1, a2, b2); element (a, b) sits at index
    a·|B| + b, labelled (la,lb).  An order above the cap is refused before
    the table is built."""
    n = A.order * B.order
    cap = check_order(n, cap, SizeCapExceeded)
    table = (first.astype(np.int32) * B.order + second).reshape(n, n)
    labels = [f"({la},{lb})" for la in A.labels for lb in B.labels]
    return core.verify_loop(table, identity=0, labels=labels, cap=cap)


def _check_componentwise_sets(P, A, B):
    """N, Z and fan of A×B must be the componentwise products."""
    nB = B.order
    aA, aB, aP = A.analysis, B.analysis, P.analysis
    for name, SA, SB, SP in (
        ("nucleus", aA.nucleus, aB.nucleus, aP.nucleus),
        ("center", aA.center, aB.center, aP.center),
        ("fan", aA.fan, aB.fan, aP.fan),
    ):
        expect = {a * nB + b for a in SA.members for b in SB.members}
        if expect != SP.members:
            raise FanLoopCheckFailed(
                f"direct-product {name} not componentwise",
                (sorted(expect), sorted(SP.members)),
            )


def _row_reader(G, x):
    """read(i) -> (t, p) of G on the rows x[i], each (len(i), n, n), for a
    nondecreasing index array i whose first entry never falls from one call
    to the next: one assoc_slabs pass over x, holding only the rows from the
    last call's first on, so no n^3 array is kept."""
    n = G.order
    every = np.arange(n)
    slabs = _kernels.assoc_slabs(G.table, G.ldiv, G.rdiv, (x, every, every))
    none = np.empty((0, n, n), G.table.dtype)
    held = [0, none, none]

    def read(i):
        start, t, p = held
        lo = int(i[0])
        t, p = t[lo - start:], p[lo - start:]
        while len(t) <= i[-1] - lo:
            _, t_slab, p_slab = next(slabs)
            t, p = np.concatenate([t, t_slab]), np.concatenate([p, p_slab])
        held[:] = lo, t, p
        return t[i - lo], p[i - lo]

    return read


def _check_componentwise_assoc(P, A, B):
    """t and p of A×B must be the componentwise pairs; the witness names the
    first mismatching tensor, t before p, and its (a1,b1,a2,b2,a3,b3) index.

    P's associators are read slab by slab from _kernels.assoc_slabs, each
    against its factors' rows, so no n^3 array is built.  A's row changes
    every nB rows of P and B's rows repeat: each factor's rows are read once
    per run of P rows that share an A row.
    """
    nA, nB = A.order, B.order
    shape = (-1, nA, nB, nA, nB)
    every = np.arange(P.order)
    read_A, read_B = _row_reader(A, np.arange(nA)), _row_reader(B, every % nB)
    p_witness = None
    for rows, tP, pP in _kernels.assoc_slabs(P.table, P.ldiv, P.rdiv):
        x1 = every[rows]
        for name, XP, XA, XB in zip("tp", (tP, pP), read_A(x1 // nB),
                                    read_B(x1)):
            if name == "p" and p_witness is not None:
                continue
            # values stay below nA·nB, so int16 cannot overflow
            expect = XA[:, :, None, :, None] * nB + XB[:, None, :, None, :]
            w = first(XP.reshape(shape) != expect)
            if w is not None:
                witness = (name, *divmod(rows.start + w[0], nB), *w[1:])
                if name == "t":
                    raise FanLoopCheckFailed(
                        "direct-product associators not componentwise",
                        witness)
                p_witness = witness
    if p_witness is not None:
        raise FanLoopCheckFailed(
            "direct-product associators not componentwise", p_witness)


def direct_product(loops, cap=None, verify=True):
    """Componentwise product of a nonempty list of loops.

    With verify=True (default) the componentwise structure theorems are
    checked post-construction: N, Z, fan and both associator maps factor
    through the components.
    """
    loops = list(loops)
    if not loops:
        raise ValueError("direct_product needs at least one loop")
    cap = order_cap(cap)

    def pair(A, B):
        P = _pair_loop(A, B, A.table[:, None, :, None],
                       B.table[None, :, None, :], cap)
        if verify:
            _check_componentwise_sets(P, A, B)
            _check_componentwise_assoc(P, A, B)
        return P

    return reduce(pair, loops)


# ---------------------------------------------------------------------------
# Cayley-Dickson basis loops
# ---------------------------------------------------------------------------

def cayley_dickson_basis_loop(k, cap=None):
    """Basis loop {±e0, .., ±e_(2^k-1)} of the k-fold doubling algebra.

    k=1 gives the complex units (C4), k=2 the quaternion units (Q8), k=3 the
    octonion basis loop: order 16, nonassociative, central fan loop with
    fan {1,-1}.
    """
    k = core.count(k, "k", 1)
    if k > CAYLEY_DICKSON_CAP:
        raise ValueError(f"k must be at most {CAYLEY_DICKSON_CAP}, got {k}")
    n = 2 ** (k + 1)
    cap = check_order(n, cap, SizeCapExceeded)
    # double k times by (a,b)(c,d) = (ac - d*b, da + bc*): e_i·e_j is
    # sign[i, j]·e_index[i, j], and conjugation c negates every e_i but e_0
    sign, index = np.ones((1, 1), int), np.zeros((1, 1), int)
    for i in range(k):
        h = 2 ** i
        c = np.where(np.arange(h), -1, 1)
        sign = np.block([[sign, sign.T], [sign * c, -sign.T * c]])
        index = np.block([[index, index.T + h], [index + h, index.T]])
    # element (sign s, basis i) packed as 2*i + (0 if s>0 else 1), so the
    # signs of the two factors flip the low bit
    bits = np.arange(2)
    table = ((2 * index + (sign < 0))[:, None, :, None]
             ^ (bits[:, None] ^ bits)[None, :, None, :]).reshape(n, n)
    labels = [s + (f"e{i}" if i else "1") for i in range(n // 2)
              for s in ("", "-")]
    return core.verify_loop(table, identity=0, labels=labels, cap=cap)


# ---------------------------------------------------------------------------
# smashed products
# ---------------------------------------------------------------------------

# Argument factors and value domain of each smashing table, in file order;
# A, B and N name the two factors and the shared group.
TABLES = {"phi": ("AB", "B"), "eta": ("AAB", "N"), "kappa": ("ABB", "N"),
          "xi": ("ABAB", "N")}


def default_table(name, A, B):
    """The entries an omitted smash-file line means, as a read-only intp
    view that allocates no table: the identity action b^u = b for phi, the
    identity of N for the others."""
    args, values = TABLES[name]
    shape = tuple(A.order if f == "A" else B.order for f in args)
    fill = np.arange(B.order, dtype=np.intp) if values == "B" else np.intp(0)
    return np.broadcast_to(fill, shape)


@dataclass
class SmashingData:
    """A smashing system (A, B, N, phi, eta, kappa, xi), tables by index.

    n_labels: abstract labels for the group N.
    into_a / into_b: embeddings of N into A / B (index arrays).
    phi[u, b] = b^u (action of A on B).
    eta[v, u, b], kappa[u, c, b] and xi[u, c, v, b] take values in N
    (abstract N indices); xi[u, c, v, b] encodes xi((u,c),(v,b)).
    A table left out is default_table(name, A, B), a read-only view; a table
    given is copied.  Tables and embeddings must hold integers, kept
    unwrapped in intp so that validate_smashing sees every out-of-range
    value; anything else raises ValueError.
    """

    A: core.FiniteLoop
    B: core.FiniteLoop
    n_labels: tuple
    into_a: np.ndarray
    into_b: np.ndarray
    phi: np.ndarray = None
    eta: np.ndarray = None
    kappa: np.ndarray = None
    xi: np.ndarray = None
    name: str = ""

    def __post_init__(self):
        self.n_labels = tuple(self.n_labels)
        for name in ("into_a", "into_b", *TABLES):
            value = getattr(self, name)
            if value is None and name in TABLES:
                setattr(self, name, default_table(name, self.A, self.B))
                continue
            value = np.asarray(value)
            if value.size and value.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, got {value.dtype}")
            setattr(self, name, value.astype(np.intp))

    @property
    def n_size(self):
        return len(self.n_labels)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    condition: str | None = None
    witness: tuple | None = None
    checked: tuple = ()

    def __bool__(self):
        return self.ok


def _fail(condition, witness, checked):
    return ValidationReport(False, condition, tuple(witness), tuple(checked))


def _factor(data, f):
    """(loop, embedding of N) of factor "A" or "B"."""
    return (data.A, data.into_a) if f == "A" else (data.B, data.into_b)


def _shift_witness(data, name, slots):
    """First (g, 2k+side) such that multiplying argument slots[k] of the
    table by the image of g in N, on the left (side 0) or on the right
    (side 1), changes the table; None when no shift does."""
    table = getattr(data, name)
    factors = [_factor(data, TABLES[name][0][slot]) for slot in slots]
    for g in range(data.n_size):
        for k, (slot, (loop, into)) in enumerate(zip(slots, factors)):
            x = into[g]
            for side, perm in enumerate((loop.table[x, :], loop.table[:, x])):
                if not np.array_equal(np.take(table, perm, axis=slot), table):
                    return g, 2 * k + side
    return None


def _nonzero_on_n(data, name):
    """True when the table is not e at some entry with an argument in the
    image of N in that argument's factor."""
    table = getattr(data, name)
    return any(np.take(table, _factor(data, f)[1], axis=axis).any()
               for axis, f in enumerate(TABLES[name][0]))


def validate_smashing(data):
    """Exhaustively verify every defining condition of a smashing system.

    Returns a ValidationReport naming the first violated condition and a
    witness tuple; never raises for data failures.
    """
    A, B = data.A, data.B
    TA, TB = A.table, B.table
    nA, nB, nN = A.order, B.order, data.n_size
    sizes = {"A": nA, "B": nB, "N": nN}
    ia, ib, phi = data.into_a, data.into_b, data.phi

    # --- structure: embeddings are injective homomorphisms onto subgroups
    if (len(ia) != nN or len(ib) != nN or len(set(int(x) for x in ia)) != nN
            or len(set(int(x) for x in ib)) != nN):
        return _fail("structure", ("embedding not injective",), ())
    if nN == 0 or int(ia[0]) != 0 or int(ib[0]) != 0:
        return _fail("structure", ("N identity must embed to e",), ())
    for f, into in (("A", ia), ("B", ib)):
        if into.min() < 0 or into.max() >= sizes[f]:
            return _fail("structure", (f"embedding outside {f}",), ())
    img_a, img_b = A.subset(ia), B.subset(ib)

    def structure():
        if not img_a.is_subloop() or not img_b.is_subloop():
            return ("embedded image not closed",)
        # the two embeddings must induce the same group structure on N
        back_a = np.zeros(nA, dtype=np.intp)
        back_a[ia] = np.arange(nN)
        w = first(TB[np.ix_(ib, ib)] != ib[back_a[TA[np.ix_(ia, ia)]]])
        if w is not None:
            return ("embeddings not isomorphic", *w)
        for name, (args, _) in TABLES.items():
            shape = getattr(data, name).shape
            if shape != tuple(sizes[f] for f in args):
                return (f"{name} shape", shape)
        for name, (_, values) in TABLES.items():
            t = getattr(data, name)
            if t.size and (t.min() < 0 or t.max() >= sizes[values]):
                return (f"{name} value outside {values}",)

    def chain():  # fan(A) ⊆ iota_A(N) ⊆ N(A), the same for B
        for loop, img, side in ((A, img_a, "A"), (B, img_b, "B")):
            an = loop.analysis
            for bad, what in ((an.fan.members - img.members,
                               "fan not inside N image"),
                              (img.members - an.nucleus.members,
                               "N image not inside nucleus")):
                if bad:
                    return (side, what, min(bad))

    def normal(loop, img):
        rep = quotient.is_normal_subloop(loop, img)
        return None if rep.ok else (rep.condition, *(rep.witness or ()))

    def action():  # (b^u)^v = b^(vu)·eta(v,u,b)
        v, u, b = np.ix_(range(nA), range(nA), range(nB))
        return first(phi[v, phi[u, b]] != TB[phi[TA[v, u], b], ib[data.eta]])

    def twist():  # (cb)^u = (c^u·b^u)·kappa(u,c,b)
        u, c, b = np.ix_(range(nA), range(nB), range(nB))
        return first(phi[u, TB[c, b]]
                     != TB[TB[phi[u, c], phi[u, b]], ib[data.kappa]])

    def shift(name, slots):  # N-shifts in these slots leave the table as is
        w = _shift_witness(data, name, slots)
        if w is not None:
            return (("shift", w[0], "position", w[1]) if name == "xi"
                    else ("shift", w[0]))

    def degenerate(name):  # e when any argument lies in N
        return ((f"{name} nonzero on N argument",)
                if _nonzero_on_n(data, name) else None)

    def xi_identity():  # xi((e,e),·) = xi(·,(e,e)) = e
        for side, values in (("left", data.xi[0, 0]),
                             ("right", data.xi[:, :, 0, 0])):
            w = first(values != 0)
            if w is not None:
                return (side, *w)

    checked = []
    for condition, check in (
        ("structure", structure),
        # phi rows are permutations of B: with values in B, a row is one
        # iff it sorts to 0..nB-1
        ("phi-bijective",
         lambda: first((np.sort(phi, axis=1) != np.arange(nB)).any(axis=1))),
        ("4.3.1", chain),
        ("4.3.1-normal-A", lambda: normal(A, img_a)),
        ("4.3.1-normal-B", lambda: normal(B, img_b)),
        ("4.3.4", action),
        ("4.3.4-gamma-fixed", lambda: first(phi[:, ib] != ib)),
        ("4.3.4-action-trivial", lambda: first(phi[ia, :] != np.arange(nB))),
        ("4.3.5", lambda: shift("eta", (2,))),
        ("4.3.5-degenerate", lambda: degenerate("eta")),
        ("4.3.6", twist),
        ("4.3.7", lambda: shift("kappa", (1, 2))),
        ("4.3.7-degenerate", lambda: degenerate("kappa")),
        ("4.3.8", lambda: shift("xi", (0, 1, 2, 3))),
        ("4.3.8-identity", xi_identity),
    ):
        checked.append(condition)
        witness = check()
        if witness is not None:
            return _fail(condition, witness, checked)
    return ValidationReport(True, None, None, tuple(checked))


def smashed_product(data, cap=None, verify=True):
    """Build the loop on A×B with the twisted multiplication above.

    Raises SizeCapExceeded for an order above the cap before anything is
    validated, ValidationFailed when the smashing conditions fail, and
    FanLoopCheckFailed when a theorem-backed cross-check breaks (the latter
    signals a bug, not bad input).
    """
    A, B = data.A, data.B
    cap = check_order(A.order * B.order, cap, SizeCapExceeded)
    report = validate_smashing(data)
    if not report.ok:
        raise ValidationFailed(report.condition, report.witness)
    a1, b1, a2, b2 = np.ix_(range(A.order), range(B.order),
                            range(A.order), range(B.order))
    TB = B.table
    second = TB[TB[b1, data.phi[a1, b2]], data.into_b[data.xi[a1, b1, a2, b2]]]
    P = _pair_loop(A, B, A.table[a1, a2], second, cap)
    if verify:
        errs = verify_smashed_product(data, P)
        if errs:
            raise FanLoopCheckFailed(*errs[0])
    return P


def _r_map(B, w, nu):
    """r_(B,w)(nu) = (w·nu)/w, elementwise on index arrays."""
    return B.rdiv[B.table[w, nu], w]


def _r_check(B, w, nu):
    """ř_(B,w)(nu) = w\\(nu·w), elementwise on index arrays."""
    return B.ldiv[w, B.table[nu, w]]


def verify_smashed_product(data, P):
    """Cross-check a built product against the closed forms.

    Returns a list of (check-id, witness) pairs, empty when everything
    matches.  Checks: the fan-loop predicate, the associator closed forms
    (4.4.1/4.4.2), inverses (4.4.4/4.4.5 and 4.4.7/4.4.8), the derived
    divisions (4.4.9/4.4.10), the fan containment bound, and degeneracy to
    the direct product for trivial factors.
    """
    A, B = data.A, data.B
    nA, nB = A.order, B.order
    n = nA * nB
    TA, TB = A.table, B.table
    ia, ib = data.into_a, data.into_b
    phi = data.phi
    inv_b = B.ldiv[:, 0]  # x -> x\e  (two-sided inverse inside the nucleus)
    errs = []

    ana = P.analysis
    if not ana.is_fan_loop:
        errs.append(("fan-loop", ana.fan_witness))
        return errs  # everything below presumes a fan loop

    # --- 4.4.1 / 4.4.2: associator closed forms on the (x1, x2, x3) grid,
    #     P's slabs of x1 rows from _kernels.assoc_slabs, first to last,
    #     each against its factors' rows; the first row where either form
    #     fails is reported, 4.4.2 before 4.4.1 on that row
    X = np.arange(n)[:, None]
    Y = np.arange(n)[None, :]
    a2, b2 = X // nB, X % nB
    a3, b3 = Y // nB, Y % nB
    b3a2 = phi[a2, b3]
    # the correction factors as elements of B, xi indexed by the packed
    # pairs: xi[u·nB + c, v·nB + b] = xi((u,c),(v,b)), so xi[x2, x3] = xi
    xi = ib[data.xi].reshape(n, n)
    eta, kappa = ib[data.eta], ib[data.kappa]
    x23 = TA[a2, a3] * nB + TB[b2, b3a2]  # (a2a3, b2·b3^a2)
    read_A = _row_reader(A, np.arange(nA))
    read_B = _row_reader(B, X[:, 0] % nB)
    for rows, tP, pP in _kernels.assoc_slabs(P.table, P.ldiv, P.rdiv):
        x1 = X[rows, 0]
        tA, pA = read_A(x1 // nB)
        pB = read_B(x1)[1]
        i = np.arange(len(x1))[:, None, None]  # the row within the slab
        x1 = x1[:, None, None]
        a1, b1 = x1 // nB, x1 % nB
        a12 = TA[a1, a2]
        b2a1 = phi[a1, b2]
        b3a12 = phi[a12, b3]
        b = TB[b1, TB[b2a1, b3a12]]
        pa = pA[i, a2, a3]
        ta = tA[i, a2, a3]
        xi1 = xi[x1, X]
        xi3 = xi[a12 * nB + TB[b1, b2a1], Y]
        p_B = pB[i, b2a1, b3a12]  # p_B(b1, b2^a1, b3^(a1a2))
        alpha = TB[TB[p_B, _r_check(B, b3a12, xi1)], xi3]
        beta = TB[TB[TB[eta[a1, a2, b3], kappa[a1, b2, b3a2]], xi],
                  xi[x1, x23]]
        exp_p = pa.astype(np.int32) * nB + TB[inv_b[beta], alpha]
        exp_t = ta.astype(np.int32) * nB + _r_map(B, b, TB[alpha, inv_b[beta]])
        bad_p, bad_t = pP != exp_p, tP != exp_t
        r = first(bad_p.any(axis=(1, 2)) | bad_t.any(axis=(1, 2)))
        if r is not None:
            check, bad = (("4.4.2", bad_p) if bad_p[r].any()
                          else ("4.4.1", bad_t))
            errs.append((check, (rows.start + r[0], *first(bad[r]))))
            break

    # --- inverses
    x = np.arange(n)
    a = x // nB
    b = x % nB
    era = A.rdiv[0, a]  # e/a
    # left inverse (4.4.4/4.4.5): (e/a, xi^-1 · (e / b^(e/a)))
    b_ea = phi[era, b]
    c_slot = B.rdiv[0, b_ea]
    xiv = ib[data.xi[era, c_slot, a, b]]
    left_expected = era.astype(np.int32) * nB + TB[inv_b[xiv], c_slot]
    # right inverse (4.4.7/4.4.8)
    ale = A.ldiv[a, 0]  # a\e
    bea = phi[era, B.ldiv[b, 0]]  # (b\e)^(e/a)
    xiv2 = ib[data.xi[a, b, ale, bea]]
    eta_v = ib[data.eta[era, a, bea]]
    b2v = TB[phi[era, B.ldiv[b, inv_b[xiv2]]], inv_b[eta_v]]
    right_expected = ale.astype(np.int32) * nB + b2v

    for check, got, expected in (
        ("4.4.4/4.4.5", P.rdiv[0, x], left_expected),
        ("4.4.7/4.4.8", P.ldiv[x, 0], right_expected),
    ):
        w = first(got != expected)
        if w is not None:
            errs.append((check, w))
    # --- divisions a\b (4.4.9) and b/a (4.4.10) against their fan-loop
    #     reconstructions, laws 2.2.2b and 2.2.3b, gathered on every pair
    #     (a, b) as the registry reads them, with y = a\e and u = e/a:
    #       a\b = (yb)·p(a,y,b)    p(a,y,b) = (a(yb))\((ay)b)
    #       b/a = (t^-1·b)u        t = t(b,u,a) = ((bu)a)/(b(ua))
    #     the first failing (a, b) in C order is the witness
    T, L, R = P.table, P.ldiv, P.rdiv
    a, b = x[:, None], x
    y, u = L[a, 0], R[0, a]
    yb, bu = T[y, b], T[b, u]
    p = L[T[a, yb], T[T[a, y], b]]
    t = R[T[bu, a], T[b, T[u, a]]]
    for check, got, expected in (
        ("4.4.9", L[a, b], T[yb, p]),
        ("4.4.10", R[b, a], T[T[L[t, 0], b], u]),
    ):
        w = first(got != expected)
        if w is not None:
            errs.append((check, w))

    # --- Cor 4.7-style containment: fan(P) inside the subgroup generated by
    #     the two embedded copies of N
    gens = {int(g) * nB + 0 for g in ia} | {0 * nB + int(g) for g in ib}
    hull = core.subgroup_closure(P, gens)
    if not ana.fan.members <= hull.members:
        bad = sorted(ana.fan.members - hull.members)[0]
        errs.append(("fan-containment", (bad,)))

    # --- degeneracy: trivial factors collapse to the direct product
    trivial = all(np.array_equal(getattr(data, name), default_table(name, A, B))
                  for name in TABLES)
    if trivial:
        w = first(direct_product([A, B], verify=False).table != P.table)
        if w is not None:
            errs.append(("degeneracy", w))

    return errs
