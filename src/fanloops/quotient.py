"""Normal subloops, coset decompositions, and the quotient construction.

A subloop H of G is normal when
    (2.7.1)  xH = Hx
    (2.7.2)  (xy)H = x(yH),  (xH)y = x(Hy),  H(xy) = (Hx)y
for all x, y -- all as set equalities, checked exhaustively here.  When H
contains the fan of a fan loop, the quotient of cosets is a group with
two-sided inverses; quotient() verifies both facts on construction.
"""

from dataclasses import dataclass, field

import numpy as np

from . import core
from .errors import NotASubloop, NotNormal, WellDefinednessFailure

# Coset entries per block of rows in is_normal_subloop (bounds its memory).
_BLOCK = 1 << 20


@dataclass(frozen=True)
class NormalityReport:
    ok: bool
    condition: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class CosetDecomposition:
    """Partition of a loop into left cosets bH (with H normal, bH = Hb)."""

    loop: core.FiniteLoop = field(compare=False)
    subloop: core.ElementSet = field(compare=False)
    blocks: tuple = ()          # tuple of frozensets, block 0 = H itself
    representative_of: tuple = ()  # element index -> block index

    @property
    def count(self):
        return len(self.blocks)

    def representatives(self):
        """Minimal element index of each block, in block order."""
        return tuple(min(b) for b in self.blocks)


def _as_set(G, H):
    if isinstance(H, core.ElementSet):
        if H.loop is not G and not H.loop.equals(G):
            raise ValueError("subloop belongs to a different loop")
        return H
    return G.subset(H)


def is_normal_subloop(G, H):
    """Exhaustive Def-2.7 normality check; first violation wins.

    Returns a NormalityReport; raises NotASubloop when H is not even a
    subloop (closure under ·, \\, / plus e ∈ H).
    """
    H = _as_set(G, H)
    if not H.is_subloop():
        # recompute a closure witness for the error message
        idx = sorted(H.members)
        for a in idx:
            for b in idx:
                if int(G.table[a, b]) not in H.members:
                    raise NotASubloop((G.label(a), G.label(b)), "product escapes")
                if int(G.ldiv[a, b]) not in H.members:
                    raise NotASubloop((G.label(a), G.label(b)),
                                      "left division escapes")
                if int(G.rdiv[a, b]) not in H.members:
                    raise NotASubloop((G.label(a), G.label(b)),
                                      "right division escapes")
        raise NotASubloop((G.label(0),), "identity missing")

    T = G.table
    hs = np.array(sorted(H.members), dtype=np.intp)
    n = G.order
    xs = np.arange(n)
    Th = T[:, hs]    # row z: z·h over h in H
    hT = T[hs].T     # row z: h·z over h in H
    xH = np.sort(Th, axis=1)  # sorted cosets, one row per x
    bad = (xH != np.sort(hT, axis=1)).any(axis=1)
    if bad.any():
        return NormalityReport(False, "2.7.1", (G.label(int(np.argmax(bad))),))

    # 2.7.1 holds from here on, so H(xy) is the sorted row xH[xy] as well.
    # Rows of x are taken in blocks of about _BLOCK coset entries; the first
    # block with a violation holds the first one in (x, y) row-major order.
    rows = max(1, _BLOCK // (n * len(hs)))
    y = xs[None, :, None]
    for lo in range(0, n, rows):
        blk = slice(lo, lo + rows)
        x = xs[blk, None, None]
        xy_h = xH[T[blk]]                                 # (xy)H = H(xy)
        a = (xy_h != np.sort(T[x, Th[None]], axis=2)).any(axis=2)  # x(yH)
        b = (np.sort(T[Th[blk, None], y], axis=2)         # (xH)y
             != np.sort(T[x, hT[None]], axis=2)).any(axis=2)  # x(Hy)
        c = (xy_h != np.sort(T[hT[blk, None], y], axis=2)).any(axis=2)  # (Hx)y
        hit = a | b | c
        if hit.any():
            i, j = divmod(int(np.argmax(hit)), n)
            cond = "2.7.2a" if a[i, j] else "2.7.2b" if b[i, j] else "2.7.2c"
            return NormalityReport(False, cond, (G.label(lo + i), G.label(j)))
    return NormalityReport(True)


def coset_decomposition(G, H):
    """Left-coset partition of G by a normal subloop H."""
    H = _as_set(G, H)
    rep = is_normal_subloop(G, H)
    if not rep.ok:
        raise NotNormal(rep.condition, rep.witness)
    T = G.table
    hs = np.array(sorted(H.members), dtype=np.intp)
    n = G.order
    block_of = np.full(n, -1, dtype=np.intp)
    blocks = []
    for x in range(n):
        if block_of[x] >= 0:
            continue
        members = frozenset(int(v) for v in T[x, hs])
        if x not in members:  # e ∈ H so x = x·e must appear
            raise WellDefinednessFailure((G.label(x),))
        bi = len(blocks)
        for m in members:
            if block_of[m] >= 0:
                raise WellDefinednessFailure((G.label(x), G.label(m)))
            block_of[m] = bi
        blocks.append(members)
    # deterministic order: sort blocks by their minimal element, H first
    order = sorted(range(len(blocks)), key=lambda i: min(blocks[i]))
    relabel = {old: new for new, old in enumerate(order)}
    blocks = tuple(blocks[i] for i in order)
    block_of = tuple(relabel[int(b)] for b in block_of)
    return CosetDecomposition(G, H, blocks, block_of)


def quotient(G, H):
    """The loop of cosets G/··/H with (aH)(bH) = (ab)H.

    Representative independence is re-verified exhaustively during
    construction (defense in depth).  When H contains fan(G), the result is
    checked to be associative with two-sided inverses before returning.
    """
    dec = coset_decomposition(G, H)
    m = dec.count
    block = dec.representative_of
    T = G.table
    qtable = np.full((m, m), -1, dtype=np.int16)
    for bi, ablock in enumerate(dec.blocks):
        for bj, bblock in enumerate(dec.blocks):
            targets = {block[int(T[a, b])] for a in ablock for b in bblock}
            if len(targets) != 1:
                a = min(ablock)
                b = min(bblock)
                raise WellDefinednessFailure((G.label(a), G.label(b)))
            qtable[bi, bj] = targets.pop()
    labels = [f"[{G.label(r)}]" for r in dec.representatives()]
    Q = core.verify_loop(qtable, identity=0, labels=labels)

    fan_members = G.analysis.fan.members
    H_set = dec.subloop.members
    if fan_members <= H_set:
        tq, pq = Q.assoc_tensors()
        if tq.any() or pq.any():
            w = np.unravel_index(int(np.argmax(tq != 0)), tq.shape)
            raise WellDefinednessFailure(tuple(Q.label(int(i)) for i in w))
        for a in range(m):
            if Q.inv_l(a) != Q.inv_r(a):
                raise WellDefinednessFailure((Q.label(a),))
    return Q
