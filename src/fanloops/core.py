"""Finite loops as Cayley tables: divisions, associator maps, nucleus, fan.

Conventions used throughout the package:
    table[a, b] = a·b
    ldiv[a, b]  = a\\b   (the unique x with a·x = b)
    rdiv[b, a]  = b/a    (the unique y with y·a = b)
    t(a,b,c) = ((ab)c)/(a(bc))        p(a,b,c) = (a(bc))\\((ab)c)
so that (ab)c = t(a,b,c)·(a(bc)) and (ab)c = (a(bc))·p(a,b,c) hold by
construction.  The identity element is always index 0 after ingestion.

The analysis finds the nucleus first and reads t and p only on coset
representatives, slab by slab, so it builds no n^3 array; the census
classifier and the product and quotient cross-checks stream
_kernels.assoc_slabs too, so no code in the package builds a whole t or p
tensor.
"""

import numbers
import operator
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .config import check_order
from .errors import (
    LoopMismatch,
    NoIdentity,
    NotASubgroup,
    NotLatinSquare,
)

_DTYPE = np.int16


def _integer(x):
    """x as a Python int when it is an integer and not a bool, else None."""
    if isinstance(x, bool):
        return None
    try:
        return operator.index(x)
    except TypeError:
        return None


def count(x, name, low=0):
    """x as a Python int: an integer (numpy's too) of at least low; a bool,
    a non-integer or a smaller value is refused with a ValueError that
    names it, never truncated."""
    i = _integer(x)
    if i is None:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if i < low:
        raise ValueError(f"{name} must be at least {low}, got {i}")
    return i


class FiniteLoop:
    """Immutable finite loop with precomputed division tables."""

    __slots__ = ("labels", "table", "ldiv", "rdiv", "_analysis",
                 "_label_index", "__weakref__")

    identity = 0

    def __init__(self, labels, table, ldiv, rdiv):
        # internal constructor -- use verify_loop to build
        self.labels = tuple(labels)
        self.table = table
        self.ldiv = ldiv
        self.rdiv = rdiv
        for arr in (table, ldiv, rdiv):
            arr.setflags(write=False)
        self._analysis = None
        self._label_index = None

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

    def label(self, x):
        return self.labels[self.element(x)]

    def index(self, label):
        # built on first use: most loops (a census stream's) never read it
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_index[label]

    def equals(self, other):
        """Structural equality: same labels and same table."""
        return (
            isinstance(other, FiniteLoop)
            and self.labels == other.labels
            and np.array_equal(self.table, other.table)
        )

    def same(self, other):
        """Whether other is this loop or an equal copy of it."""
        return other is self or self.equals(other)

    def element(self, x):
        """The index of element x, given as an index or a label; an unknown
        label, an index outside 0..n-1, or one that is not an integer (a
        bool included), is refused with ValueError rather than wrapped or
        truncated."""
        if isinstance(x, str):
            try:
                return self.index(x)
            except KeyError:
                raise ValueError(f"unknown element label {x!r}") from None
        i = _integer(x)
        if i is None:
            raise ValueError(f"element {x!r} is neither an index nor a label")
        if not 0 <= i < self.order:
            raise ValueError(f"element index {i} outside 0..{self.order - 1}")
        return i

    # -- operations --------------------------------------------------------

    def t(self, a, b, c):
        a, b, c = map(self.element, (a, b, c))
        T = self.table
        return int(self.rdiv[T[T[a, b], c], T[a, T[b, c]]])

    def p(self, a, b, c):
        a, b, c = map(self.element, (a, b, c))
        T = self.table
        return int(self.ldiv[T[a, T[b, c]], T[T[a, b], c]])

    def subset(self, members):
        """members as a set of this loop: an ElementSet of this loop or of
        an equal copy as it is, another loop's set refused with
        LoopMismatch, any other iterable read element by element."""
        if isinstance(members, ElementSet):
            if not self.same(members.loop):
                raise LoopMismatch("element set belongs to a different loop")
            return members
        return ElementSet(self, frozenset(map(self.element, members)))

    @property
    def analysis(self):
        if self._analysis is None:
            self._analysis = _analyze(self)
        return self._analysis


@dataclass(frozen=True, init=False)
class ElementSet:
    """A subset of a loop's elements, with setwise arithmetic helpers.

    The loop is held weakly, so the sets in a loop's cached analysis do not
    keep the loop alive; `loop` returns it while it lives and raises
    LoopMismatch once it has been freed.  The `is_subloop` verdict is
    cached, as the loop caches its analysis: the set and the table it is
    read from are both immutable.
    """

    members: frozenset
    _loop_ref: weakref.ref = field(compare=False, repr=False)
    _subloop: bool | None = field(compare=False, repr=False)

    def __init__(self, loop, members=frozenset()):
        object.__setattr__(self, "members", frozenset(int(m) for m in members))
        object.__setattr__(self, "_loop_ref", weakref.ref(loop))
        object.__setattr__(self, "_subloop", None)

    @property
    def loop(self):
        loop = self._loop_ref()
        if loop is None:
            raise LoopMismatch("the loop of this element set has been freed")
        return loop

    def __contains__(self, x):
        """Whether the element index x is a member; a bool, or anything
        that is not an integer, is refused with ValueError rather than
        truncated."""
        i = _integer(x)
        if i is None:
            raise ValueError(f"element {x!r} is not an integer index")
        return i in self.members

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

    def closure_witness(self):
        """The first (a, b, op) of the set, in index order, whose product,
        left or right division (op names it) leaves the set; None when
        the set is closed under all three."""
        G = self.loop
        idx = np.array(sorted(self.members), dtype=np.intp)
        grid = np.ix_(idx, idx)
        ops = np.stack([G.table[grid], G.ldiv[grid], G.rdiv[grid]], axis=2)
        w = _kernels.first(~np.isin(ops, idx))
        if w is None:
            return None
        i, j, op = w
        return (int(idx[i]), int(idx[j]),
                ("product", "left division", "right division")[op])

    def is_subloop(self):
        """Closed under ·, \\, / and contains the identity."""
        if self._subloop is None:
            object.__setattr__(self, "_subloop", 0 in self.members
                               and self.closure_witness() is None)
        return self._subloop

    def _check(self, other):
        if not self.loop.same(other.loop):
            raise LoopMismatch("element sets belong to different loops")


@dataclass(frozen=True)
class LoopAnalysis:
    """Everything the analysis of a loop knows (FiniteLoop.analysis)."""

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
    # first failing tuple (lexicographic) for each flag that is False, and
    # the first triple whose t, and whose p, lies outside the nucleus
    non_assoc_witness: tuple | None
    fan_witness: tuple | None
    central_witness: tuple | None
    t_witness: tuple | None
    p_witness: tuple | None


def default_labels(n, identity=0):
    """Labels for an unlabelled table: "e" for the identity, x<i> for
    every other index i."""
    return [("e" if i == identity else f"x{i}") for i in range(n)]


def _is_index(v, n):
    """Whether a table cell is an integer in 0..n-1: an int other than a
    bool, or a float with no fraction."""
    whole = (isinstance(v, numbers.Integral) and not isinstance(v, bool)
             or isinstance(v, (float, np.floating)) and float(v).is_integer())
    return whole and 0 <= v < n


def verify_loop(table, identity=None, labels=None, cap=None):
    """Check the loop axioms and return a normalized FiniteLoop.

    table: n×n matrix of element indices (table[a][b] = a·b).
    identity: optional index that must act as two-sided identity (a bool
        or a non-integer is refused, never truncated); when omitted the
        identity is searched for.  The result is re-indexed so
        the identity sits at index 0 (labels are permuted along).
    Raises NotLatinSquare / NoIdentity / OrderCapExceeded.
    """
    table = np.asarray(table)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError(f"table must be square, got shape {table.shape}")
    n = table.shape[0]
    if n < 1:
        raise ValueError("order must be at least 1")
    check_order(n, cap)
    if table.dtype != _DTYPE:
        # check before the cast: it would wrap a wider integer to int16,
        # drop a float's fraction and coerce a bool, complex, string or
        # bytes table.  The witness is the first cell in C order that is
        # not an integer in 0..n-1 (NaN != floor(NaN) catches NaN).
        kind = table.dtype.kind
        if kind in "iuf":
            bad = (table < 0) | (table >= n)
            if kind == "f":
                bad |= table != np.floor(table)
        else:
            index = np.frompyfunc(lambda v: _is_index(v, n), 1, 1)
            bad = ~index(table).astype(bool)
        w = _kernels.first(bad)
        if w is not None:
            v = table[w]
            raise NotLatinSquare(
                "value", *w, v.item() if isinstance(v, np.generic) else v)
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
        e = _integer(identity)
        if e is None or not 0 <= e < n:
            raise NoIdentity(candidate=identity)
        for line in (table[e, :], table[:, e]):  # the row first
            w = _kernels.first(line != natural)
            if w is not None:
                raise NoIdentity(candidate=e, counterexample=w[0])
    else:
        w = _kernels.first((table == natural).all(axis=1)
                           & (table == natural[:, None]).all(axis=0))
        if w is None:
            raise NoIdentity()
        e, = w

    labels = default_labels(n, e) if labels is None else list(labels)
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


# -- analysis ----------------------------------------------------------------

def _mask_set(G, mask):
    return ElementSet(G, np.flatnonzero(mask).tolist())


def subgroup_closure(G, seed):
    """Smallest subset containing `seed` (read by G.subset) closed under
    ·, \\, / (worklist).

    Termination is guaranteed by finiteness; the result always contains e
    (any a in the closure contributes a\\a = e).
    """
    mask = G.subset(seed).mask()
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
    """The analysis of G, nucleus first: no n^3 array is built or kept.

    The nucleus parts come from _kernels.nucleus_parts.  With N the
    nucleus and n in N, the definitions alone give, in every loop,
        t(a·n,b,c) = t(a,n·b,c)    t(a,b·n,c) = t(a,b,n·c)
        t(a,b,c·n) = t(a,b,c)
    and the same for p, but for p(a,b,c·n) = n\\(p(a,b,c)·n): moving n
    changes neither (ab)c nor a(bc), and in slot 3 it multiplies both on
    the right.  The left cosets xN partition G (y = x·n gives
    yN = x(nN) = xN); R holds the least element of each, and every x is
    r·n with r the least element of xN.  Three steps move any triple into
    R×R×R, each passing a slot's translate on to the next slot:
        (r1·n, b, c) -> (r1, r2·m, c) -> (r1, r2, r3·k) -> (r1, r2, r3)
    with n·b = r2·m and m·c = r3·k.  t keeps its value and p becomes its
    conjugate by k; every conjugate occurs, as p(r1,r2,r3·k).  So t on
    R×R×R gives every t value, and p there gives every p value up to
    N-conjugation, which maps N, and its complement, onto itself.  Whether
    a triple's t leaves N is thus that of its image, and so is whether its
    p does, and the image is no larger in C order: a step changes a slot
    only when the slot is not least in its coset, and then makes it
    smaller, leaving earlier slots alone.  The first triple in C order
    whose t leaves N is therefore in R×R×R, and so is the first whose p
    does: each witness, first in that domain's C order, is the first in
    G^3, and the fan witness is the earlier of the two.  No normality of N
    is needed.  The witnesses, t_range and p_range are read on R×R×R, slab
    by slab from _kernels.assoc_slabs; every other field needs O(n^2)
    lookups.
    """
    T, n = G.table, G.order
    nl, nm, nr = _kernels.nucleus_parts(T)
    nuc = nl & nm & nr
    N = np.flatnonzero(nuc)
    # x = x·e lies in xN, so x is least in its coset iff it is min(xN)
    R = np.flatnonzero(T[:, N].min(axis=1) == np.arange(n))
    t_range = np.zeros(n, dtype=bool)
    p_values = np.zeros(n, dtype=bool)
    witness = [None, None]  # the first triple whose t, and whose p, leaves N
    for a, t, p in _kernels.assoc_slabs(T, G.ldiv, G.rdiv, (R, R, R)):
        t_range[t] = True
        p_values[p] = True
        for k, X in enumerate((t, p)):
            if witness[k] is None and not (inside := nuc[X]).all():
                i, j, l = _kernels.first(~inside)
                witness[k] = (int(R[a][i]), int(R[j]), int(R[l]))
    p_range = np.zeros(n, dtype=bool)
    p_range[G.ldiv[N, T[np.flatnonzero(p_values)[:, None], N]]] = True
    fan_witness = min((w for w in witness if w is not None), default=None)
    is_fan = fan_witness is None

    # the first a outside N_l, then its first pair with (ab)c != a(bc)
    a = _kernels.first(~nl)
    is_group = a is None
    non_assoc_witness = None if is_group else (
        *a, *_kernels.first(T[T[a]] != T[a, T]))

    com = (T == T.T).all(axis=-1)
    center = com & nuc
    # central fan condition: (ab)/(ba) in Z for every pair
    central_witness = _kernels.first(
        ~_kernels.central_mask(T, G.rdiv, center))

    return LoopAnalysis(
        is_loop=True,
        is_group=is_group,
        is_commutative=bool(com.all()),
        is_fan_loop=is_fan,
        is_central_fan_loop=is_fan and central_witness is None,
        com=_mask_set(G, com),
        nucleus_l=_mask_set(G, nl),
        nucleus_m=_mask_set(G, nm),
        nucleus_r=_mask_set(G, nr),
        nucleus=_mask_set(G, nuc),
        center=_mask_set(G, center),
        fan=subgroup_closure(G, _mask_set(G, t_range | p_range)),
        t_range=_mask_set(G, t_range),
        p_range=_mask_set(G, p_range),
        non_assoc_witness=non_assoc_witness,
        fan_witness=fan_witness,
        central_witness=central_witness,
        t_witness=witness[0],
        p_witness=witness[1],
    )


def p_hull(G, A):
    """Setwise hull (P0 ∪ {e})(P0 ∪ {e}) with P0 = A ∪ Inv_l(A) ∪ Inv_r(A),
    A read by G.subset."""
    a = list(G.subset(A).members)
    p0 = {0, *a, *G.ldiv[a, 0].tolist(), *G.rdiv[0, a].tolist()}
    with_e = ElementSet(G, p0)
    return with_e.mul(with_e)


def require_subgroup(G, S):
    """Raise NotASubgroup unless S is a subloop contained in the nucleus,
    and return S as G.subset reads it (LoopMismatch for another loop's set).

    A subloop inside the (associative) nucleus is automatically a group.
    """
    S = G.subset(S)
    if not S.is_subloop():
        raise NotASubgroup(tuple(S), "not closed under ·, \\, /")
    nuc = G.analysis.nucleus
    if not S.members <= nuc.members:
        raise NotASubgroup(tuple(S), "not contained in the nucleus")
    return S
