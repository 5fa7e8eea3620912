"""Finite loops as Cayley tables: divisions, associator maps, nucleus, fan.

Conventions used throughout the package:
    table[a, b] = a·b
    ldiv[a, b]  = a\\b   (the unique x with a·x = b)
    rdiv[b, a]  = b/a    (the unique y with y·a = b)
    t(a,b,c) = ((ab)c)/(a(bc))        p(a,b,c) = (a(bc))\\((ab)c)
so that (ab)c = t(a,b,c)·(a(bc)) and (ab)c = (a(bc))·p(a,b,c) hold by
construction.  The identity element is always index 0 after ingestion.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .config import TENSOR_CACHE_DEFAULT_LIMIT, order_cap
from .errors import (
    LoopMismatch,
    NoIdentity,
    NotASubgroup,
    NotLatinSquare,
    OrderCapExceeded,
)

_DTYPE = np.int16


class FiniteLoop:
    """Immutable finite loop with precomputed division tables."""

    __slots__ = ("labels", "table", "ldiv", "rdiv", "_analysis", "_tensors",
                 "_label_index")

    identity = 0

    def __init__(self, labels, table, ldiv, rdiv):
        # internal constructor -- use verify_loop / from_rows to build
        self.labels = tuple(labels)
        self.table = table
        self.ldiv = ldiv
        self.rdiv = rdiv
        for arr in (table, ldiv, rdiv):
            arr.setflags(write=False)
        self._analysis = None
        self._tensors = None
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}

    # -- basics ------------------------------------------------------------

    @property
    def order(self):
        return self.table.shape[0]

    def __len__(self):
        return self.table.shape[0]

    def __repr__(self):
        return f"FiniteLoop(order={self.order}, labels={self.labels[:4]}...)"

    def elements(self):
        return range(self.order)

    def label(self, i):
        return self.labels[i]

    def index(self, label):
        return self._label_index[label]

    def equals(self, other):
        """Structural equality: same labels and same table."""
        return (
            isinstance(other, FiniteLoop)
            and self.labels == other.labels
            and np.array_equal(self.table, other.table)
        )

    # -- operations --------------------------------------------------------

    def mul(self, a, b):
        return int(self.table[a, b])

    def ld(self, a, b):
        """a \\ b"""
        return int(self.ldiv[a, b])

    def rd(self, b, a):
        """b / a"""
        return int(self.rdiv[b, a])

    def t(self, a, b, c):
        if self._tensors is not None:
            return int(self._tensors[0][a, b, c])
        T = self.table
        lhs = T[T[a, b], c]
        rhs = T[a, T[b, c]]
        return int(self.rdiv[lhs, rhs])

    def p(self, a, b, c):
        if self._tensors is not None:
            return int(self._tensors[1][a, b, c])
        T = self.table
        lhs = T[T[a, b], c]
        rhs = T[a, T[b, c]]
        return int(self.ldiv[rhs, lhs])

    def inv_l(self, a):
        """a \\ e"""
        return int(self.ldiv[a, 0])

    def inv_r(self, a):
        """e / a"""
        return int(self.rdiv[0, a])

    def assoc_tensors(self, cache=None):
        """Full n^3 tensors (t, p).

        cache=None keeps them on the instance when the order is at most
        TENSOR_CACHE_DEFAULT_LIMIT; pass cache=True/False to force.
        """
        if self._tensors is not None:
            return self._tensors
        tensors = _kernels.assoc_tensors(self.table, self.ldiv, self.rdiv)
        for arr in tensors:
            arr.setflags(write=False)
        if cache is None:
            cache = self.order <= TENSOR_CACHE_DEFAULT_LIMIT
        if cache:
            self._tensors = tensors
        return tensors

    def subset(self, members):
        idx = frozenset(
            m if isinstance(m, (int, np.integer)) else self.index(m)
            for m in members
        )
        for m in idx:
            if not 0 <= m < self.order:
                raise IndexError(f"element index {m} out of range")
        return ElementSet(self, idx)

    @property
    def analysis(self):
        if self._analysis is None:
            self._analysis = _analyze(self)
        return self._analysis


@dataclass(frozen=True)
class ElementSet:
    """A subset of a loop's elements, with setwise arithmetic helpers."""

    loop: FiniteLoop = field(compare=False)
    members: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(int(m) for m in self.members))

    def __contains__(self, x):
        return int(x) in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def __le__(self, other):
        return self.members <= other.members

    def labels(self):
        return tuple(self.loop.labels[i] for i in sorted(self.members))

    def mask(self):
        m = np.zeros(self.loop.order, dtype=bool)
        m[list(self.members)] = True
        return m

    def union(self, other):
        self._check(other)
        return ElementSet(self.loop, self.members | other.members)

    def mul(self, other):
        """Setwise product {a·b : a in self, b in other}."""
        self._check(other)
        if not self.members or not other.members:
            return ElementSet(self.loop, frozenset())
        a = np.fromiter(self.members, dtype=np.intp)
        b = np.fromiter(other.members, dtype=np.intp)
        prods = self.loop.table[np.ix_(a, b)]
        return ElementSet(self.loop, frozenset(int(x) for x in prods.ravel()))

    def inv_l_image(self):
        return ElementSet(
            self.loop, frozenset(self.loop.inv_l(a) for a in self.members)
        )

    def inv_r_image(self):
        return ElementSet(
            self.loop, frozenset(self.loop.inv_r(a) for a in self.members)
        )

    def is_subloop(self):
        """Closed under ·, \\, / and contains the identity."""
        if 0 not in self.members:
            return False
        idx = np.fromiter(self.members, dtype=np.intp)
        grid = np.ix_(idx, idx)
        for table in (self.loop.table, self.loop.ldiv, self.loop.rdiv):
            if not np.isin(table[grid], idx).all():
                return False
        return True

    def _check(self, other):
        if other.loop is not self.loop:
            raise LoopMismatch("element sets belong to different loops")


@dataclass(frozen=True)
class LoopAnalysis:
    """Everything classify() knows about a loop."""

    loop: FiniteLoop = field(compare=False)
    is_loop: bool
    is_group: bool
    is_commutative: bool
    is_fan_loop: bool
    is_central_fan_loop: bool
    com: ElementSet
    nucleus_l: ElementSet
    nucleus_m: ElementSet
    nucleus_r: ElementSet
    nucleus: ElementSet
    center: ElementSet
    fan: ElementSet
    t_range: ElementSet
    p_range: ElementSet
    # first failing tuple (lexicographic) for each flag that is False
    non_assoc_witness: tuple | None
    fan_witness: tuple | None
    central_witness: tuple | None
    # condition 3.5.2 (a subgroup of the nucleus containing every associator
    # value) is automatic for finite loops once fan ⊆ nucleus; recorded here
    fan_in_nucleus: bool


def verify_loop(table, identity=None, labels=None, cap=None):
    """Check the loop axioms and return a normalized FiniteLoop.

    table: n×n matrix of element indices (table[a][b] = a·b).
    identity: optional index that must act as two-sided identity; when
        omitted the identity is searched for.  The result is re-indexed so
        the identity sits at index 0 (labels are permuted along).
    Raises NotLatinSquare / NoIdentity / OrderCapExceeded.
    """
    table = np.asarray(table)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError(f"table must be square, got shape {table.shape}")
    n = table.shape[0]
    if n < 1:
        raise ValueError("order must be at least 1")
    cap = order_cap(cap)
    if n > cap:
        raise OrderCapExceeded(n, cap)
    if table.dtype != _DTYPE and table.dtype.kind in "iuO":
        # range-check before the cast: a wider integer would wrap to int16
        bad = (table < 0) | (table >= n)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), n)
            raise NotLatinSquare("value", i, j, int(table[i, j]))
    table = np.ascontiguousarray(table, dtype=_DTYPE)

    code, i, j = _kernels.latin_violation(table)
    if code == _kernels.LATIN_VALUE:
        raise NotLatinSquare("value", i, j, int(table[i, j]))
    if code == _kernels.LATIN_ROW:
        raise NotLatinSquare("row", i, j, int(table[i, j]))
    if code == _kernels.LATIN_COL:
        raise NotLatinSquare("col", i, j, int(table[i, j]))

    natural = np.arange(n, dtype=_DTYPE)
    if identity is not None:
        e = int(identity)
        row_ok = np.array_equal(table[e, :], natural)
        col_ok = np.array_equal(table[:, e], natural)
        if not (row_ok and col_ok):
            bad = table[e, :] != natural if not row_ok else table[:, e] != natural
            raise NoIdentity(candidate=e, counterexample=int(np.argmax(bad)))
    else:
        row_hits = np.nonzero((table == natural[None, :]).all(axis=1))[0]
        e = None
        for cand in row_hits:
            if np.array_equal(table[:, cand], natural):
                e = int(cand)
                break
        if e is None:
            raise NoIdentity()

    if labels is None:
        labels = ["e"] + [f"x{i}" for i in range(1, n)] if e == 0 else [
            f"x{i}" for i in range(n)
        ]
        if e != 0:
            labels[e] = "e"
    labels = list(labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise ValueError("labels must be distinct")

    if e != 0:
        # re-index so the identity is element 0, preserving relative order
        perm = np.array([e] + [x for x in range(n) if x != e], dtype=np.intp)
        inv = np.empty(n, dtype=_DTYPE)
        inv[perm] = np.arange(n, dtype=_DTYPE)
        table = np.ascontiguousarray(inv[table[np.ix_(perm, perm)]])
        labels = [labels[x] for x in perm]

    ldiv, rdiv = _kernels.division_tables(table)
    return FiniteLoop(labels, table, ldiv, rdiv)


def from_rows(labels, rows, cap=None):
    """Build a loop from labelled rows (row a lists a·b for b in label order)."""
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("labels must be distinct")
    n = len(labels)
    table = np.empty((n, n), dtype=_DTYPE)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
        for j, lab in enumerate(row):
            try:
                table[i, j] = index[lab]
            except KeyError:
                raise ValueError(f"unknown label {lab!r} in row {i}") from None
    return verify_loop(table, identity=None, labels=labels, cap=cap)


# -- associators and inverses as module-level operations --------------------

def t_assoc(G, a, b, c):
    """((ab)c)/(a(bc))"""
    return G.t(a, b, c)


def p_assoc(G, a, b, c):
    """(a(bc))\\((ab)c)"""
    return G.p(a, b, c)


def inv_l(G, a):
    """a \\ e"""
    return G.inv_l(a)


def inv_r(G, a):
    """e / a"""
    return G.inv_r(a)


# -- analysis ----------------------------------------------------------------

def _mask_set(G, mask):
    return ElementSet(G, frozenset(int(i) for i in np.nonzero(mask)[0]))


def subgroup_closure(G, seed):
    """Smallest subset containing `seed` closed under ·, \\, / (worklist).

    Termination is guaranteed by finiteness; the result always contains e
    (any a in the closure contributes a\\a = e).
    """
    mask = np.zeros(G.order, dtype=bool)
    seed = list(seed)
    if not seed:
        seed = [0]
    mask[np.asarray(seed, dtype=np.intp)] = True
    mask[0] = True
    while True:
        idx = np.nonzero(mask)[0]
        grid = np.ix_(idx, idx)
        new = mask.copy()
        for table in (G.table, G.ldiv, G.rdiv):
            new[table[grid].ravel()] = True
        if np.array_equal(new, mask):
            return _mask_set(G, mask)
        mask = new


def _analyze(G):
    T = G.table
    n = G.order
    nl, nm, nr = _kernels.nucleus_masks(T)
    nuc_mask = nl & nm & nr
    com_mask = (T == T.T).all(axis=1)
    z_mask = com_mask & nuc_mask

    t_tensor, p_tensor = G.assoc_tensors()
    t_vals = np.unique(t_tensor)
    p_vals = np.unique(p_tensor)
    is_group = t_vals.tolist() == [0] and p_vals.tolist() == [0]

    non_assoc_witness = None
    if not is_group:
        bad = t_tensor != 0
        flat = int(np.argmax(bad))
        non_assoc_witness = (flat // (n * n), (flat // n) % n, flat % n)

    found, a, b, c = _kernels.fan_violation(T, G.ldiv, G.rdiv, nuc_mask)
    is_fan = not found
    fan_witness = (a, b, c) if found else None

    seed = set(int(v) for v in t_vals) | set(int(v) for v in p_vals)
    fan_set = subgroup_closure(G, seed)

    # central fan condition: (ab)/(ba) in Z for every pair
    t2 = G.rdiv[T, T.T]
    central_ok = z_mask[t2]
    is_central = is_fan and bool(central_ok.all())
    central_witness = None
    if not central_ok.all():
        flat = int(np.argmax(~central_ok))
        central_witness = (flat // n, flat % n)

    return LoopAnalysis(
        loop=G,
        is_loop=True,
        is_group=is_group,
        is_commutative=bool(com_mask.all()),
        is_fan_loop=is_fan,
        is_central_fan_loop=is_central,
        com=_mask_set(G, com_mask),
        nucleus_l=_mask_set(G, nl),
        nucleus_m=_mask_set(G, nm),
        nucleus_r=_mask_set(G, nr),
        nucleus=_mask_set(G, nuc_mask),
        center=_mask_set(G, z_mask),
        fan=fan_set,
        t_range=ElementSet(G, frozenset(int(v) for v in t_vals)),
        p_range=ElementSet(G, frozenset(int(v) for v in p_vals)),
        non_assoc_witness=non_assoc_witness,
        fan_witness=fan_witness,
        central_witness=central_witness,
        fan_in_nucleus=bool(nuc_mask[list(fan_set.members)].all()),
    )


def classify(G):
    """Full analysis (cached on the loop)."""
    return G.analysis


def nucleus_parts(G):
    """(N_l, N_m, N_r, N, Com, Z) as ElementSets."""
    a = G.analysis
    return (a.nucleus_l, a.nucleus_m, a.nucleus_r, a.nucleus, a.com, a.center)


def fan(G):
    """Subgroup closure of all associator values t(a,b,c), p(a,b,c)."""
    return G.analysis.fan


def p_hull(G, A):
    """Setwise hull (P0 ∪ {e})(P0 ∪ {e}) with P0 = A ∪ Inv_l(A) ∪ Inv_r(A)."""
    if A.loop is not G:
        raise LoopMismatch("element set belongs to a different loop")
    p0 = A.union(A.inv_l_image()).union(A.inv_r_image())
    with_e = ElementSet(G, p0.members | {0})
    return with_e.mul(with_e)


def require_subgroup(G, S):
    """Raise NotASubgroup unless S is a subloop contained in the nucleus.

    A subloop inside the (associative) nucleus is automatically a group.
    """
    if not S.is_subloop():
        raise NotASubgroup(tuple(S), "not closed under ·, \\, /")
    nuc = G.analysis.nucleus
    if not S.members <= nuc.members:
        raise NotASubgroup(tuple(S), "not contained in the nucleus")
