"""Normal subloops, coset decompositions, and the quotient construction.

A subloop H of G is normal when
    (2.7.1)  xH = Hx
    (2.7.2)  (xy)H = x(yH),  (xH)y = x(Hy),  H(xy) = (Hx)y
for all x, y -- all as set equalities.  is_normal_subloop checks 2.7.1 on
every x; 2.7.2 holds for any H inside the nucleus, and is checked on every
pair (x, y) only for an H outside it.  When H contains the fan of a fan
loop, the quotient of cosets is a group, and quotient() verifies its
associativity on construction.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels, core
from ._kernels import first, slabs
from .errors import NotASubloop, NotNormal, WellDefinednessFailure


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


def is_normal_subloop(G, H):
    """Def-2.7 normality check; first violation wins.

    Returns a NormalityReport; raises NotASubloop when H is not even a
    subloop (closure under ·, \\, / plus e ∈ H).  2.7.1 is checked on every
    x, as sorted cosets.  2.7.2 holds for every H inside the nucleus N of
    G's analysis, elementwise: for h in H,
        (xy)h = x(yh)    (2.7.2a, h in N_r)
        (xh)y = x(hy)    (2.7.2b, h in N_m)
        h(xy) = (hx)y    (2.7.2c, h in N_l)
    so only an H outside N is checked on every pair (x, y), n^2·|H|
    lookups, in (x, y) row-major order.
    """
    H = G.subset(H)
    w = H.closure_witness()
    if w is not None:
        a, b, op = w
        raise NotASubloop((G.label(a), G.label(b)), f"{op} escapes")
    if 0 not in H.members:
        raise NotASubloop((G.label(0),), "identity missing")
    hs = np.array(sorted(H.members), dtype=np.intp)

    T = G.table
    n = G.order
    xs = np.arange(n)
    Th = T[:, hs]    # row z: z·h over h in H
    hT = T[hs].T     # row z: h·z over h in H
    xH = np.sort(Th, axis=1)  # sorted cosets, one row per x
    w = first((xH != np.sort(hT, axis=1)).any(axis=1))
    if w is not None:
        return NormalityReport(False, "2.7.1", (G.label(*w),))
    if H.members <= G.analysis.nucleus.members:
        return NormalityReport(True)

    # 2.7.1 holds from here on, so H(xy) is the sorted row xH[xy] as well.
    # Rows of x, n·|H| coset entries each, are taken in slabs; the first
    # slab with a violation holds the first one in (x, y) row-major order.
    y = xs[None, :, None]
    for blk in slabs(n, n * len(hs)):
        x = xs[blk, None, None]
        xy_h = xH[T[blk]]                                 # (xy)H = H(xy)
        a = (xy_h != np.sort(T[x, Th[None]], axis=2)).any(axis=2)  # x(yH)
        b = (np.sort(T[Th[blk, None], y], axis=2)         # (xH)y
             != np.sort(T[x, hT[None]], axis=2)).any(axis=2)  # x(Hy)
        c = (xy_h != np.sort(T[hT[blk, None], y], axis=2)).any(axis=2)  # (Hx)y
        w = first(a | b | c)
        if w is not None:
            i, j = w
            cond = "2.7.2a" if a[w] else "2.7.2b" if b[w] else "2.7.2c"
            return NormalityReport(False, cond,
                                   (G.label(blk.start + i), G.label(j)))
    return NormalityReport(True)


def _cosets(G, H):
    """(blocks, block_of) for a normal subloop H: the left cosets as the
    sorted rows of an (m, |H|) array, in order of their least elements (H
    first), and each element's block index."""
    rep = is_normal_subloop(G, H)
    if not rep.ok:
        raise NotNormal(rep.condition, rep.witness)
    # is_normal_subloop refused an H without e, so x = x·e lies in xH
    cosets = np.sort(G.table[:, sorted(H.members)], axis=1)  # row x: xH
    # lexicographic order of disjoint sorted rows is that of their minima
    blocks, block_of = np.unique(cosets, axis=0, return_inverse=True)
    block_of = block_of.reshape(-1)
    # with x in xH, the cosets partition G iff every y in xH has yH = xH
    w = first(block_of[cosets] != block_of[:, None])
    if w is not None:
        raise WellDefinednessFailure((G.label(w[0]), G.label(cosets[w])))
    return blocks, block_of


def coset_decomposition(G, H):
    """Left-coset partition of G by a normal subloop H."""
    H = G.subset(H)
    blocks, block_of = _cosets(G, H)
    return CosetDecomposition(G, H, tuple(map(frozenset, blocks.tolist())),
                              tuple(block_of.tolist()))


def quotient(G, H):
    """The loop of cosets G/··/H with (aH)(bH) = (ab)H.

    Representative independence is re-verified exhaustively during
    construction (defense in depth).  When H contains fan(G), the result is
    checked to be associative, hence a group, before returning.
    """
    H = G.subset(H)
    blocks, block = _cosets(G, H)
    reps = blocks[:, 0]
    T = G.table
    qtable = block[T[np.ix_(reps, reps)]]
    # every product of a member of block i and one of block j lies in block
    # qtable[i, j]; the witness is the first failing block pair's reps
    prods = block[T[blocks[:, :, None, None], blocks[None, None]]]
    w = first((prods != qtable[:, None, :, None]).any(axis=(1, 3)))
    if w is not None:
        raise WellDefinednessFailure(tuple(G.label(reps[i]) for i in w))
    labels = [f"[{G.label(r)}]" for r in reps]
    Q = core.verify_loop(qtable, identity=0, labels=labels)

    if G.analysis.fan.members <= H.members:
        # t(a,b,c) = e exactly when p(a,b,c) = e, so t alone decides; an
        # associative loop is a group, where x\e = e/x
        for rows, t, _ in _kernels.assoc_slabs(Q.table, Q.ldiv, Q.rdiv):
            w = first(t != 0)
            if w is not None:
                raise WellDefinednessFailure(
                    (Q.label(rows.start + w[0]), Q.label(w[1]), Q.label(w[2])))
    return Q
