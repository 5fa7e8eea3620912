"""Hot integer kernels over Cayley tables and their associator tensors,
written in numpy.

Kernels that return a witness scan in a fixed order, stated above each, so
reports are reproducible.  Every witness in the package is read with first():
the first violation in C (row-major) order.

Exact-rational code (lp/haar) deliberately computes outside this module, on
arbitrary-precision rationals, which numpy cannot carry in its number types.
"""

from itertools import permutations

import numpy as np

# Only the numpy kernels exist; perfbench/run.py reads this for its
# environment block.
USE_NUMBA = False

# Latin violation codes
LATIN_OK = 0
LATIN_VALUE = 1  # entry out of 0..n-1
LATIN_ROW = 2  # duplicate within a row
LATIN_COL = 3  # duplicate within a column


def first(mask):
    """Index tuple (Python ints) of the first True entry of mask in C order,
    or None when there is none."""
    if not mask.any():
        return None
    return tuple(map(int, np.unravel_index(mask.argmax(), mask.shape)))


# Elements per step of every n^3 sweep that runs in slabs of its first axis:
# the analysis' associator pass, the product and quotient cross-checks and
# assoc_tensors.  A slab holds at least one row, so witnesses found slab by
# slab, first to last, are still the first in C order.
SLAB = 1 << 14


def slabs(rows, row_size):
    """Consecutive slices covering range(rows), each of at least one row and,
    while a row holds fewer than SLAB elements, of at most SLAB elements."""
    step = max(1, SLAB // row_size)
    return [slice(s, min(s + step, rows)) for s in range(0, rows, step)]


# ---------------------------------------------------------------------------
# Latin-square check.
# Scan order (fixed so the witness is reproducible): all cells row-major for
# range violations; then each row left-to-right for the first repeated
# value; then each column top-to-bottom.
# ---------------------------------------------------------------------------

def latin_violation(table):
    """Return (code, row, col); code 0 means the table is a Latin square."""
    n = table.shape[0]
    w = first((table < 0) | (table >= n))
    if w is not None:
        return (LATIN_VALUE, *w)
    # with every entry in 0..n-1, a line is duplicate-free iff it sorts to
    # 0..n-1; only the first bad line is scanned for its first repeat
    for code, lines in ((LATIN_ROW, table), (LATIN_COL, table.T)):
        w = first((np.sort(lines, axis=1) != np.arange(n)).any(axis=1))
        if w is not None:
            repeat = np.ones(n, dtype=bool)
            repeat[np.unique(lines[w], return_index=True)[1]] = False
            i, j = *w, *first(repeat)
            return (code, i, j) if code == LATIN_ROW else (code, j, i)
    return LATIN_OK, -1, -1


# ---------------------------------------------------------------------------
# Stack axes.  division_tables, assoc_slabs, assoc_tensors, nucleus_masks,
# nucleus_screen, value_mask and central_mask take any leading axes,
# (..., n, n), and treat each n×n slice as its own table; with none they
# index as for a single table.  The gathers and scatters index the
# flattened stack, table k's cells from k·n² on: one flat index array is
# faster than one index array per axis.
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# Division tables.  ldiv[a, b] = a \ b  (solution x of a·x = b)
#                   rdiv[b, a] = b / a  (solution y of y·a = b)
# Requires a verified Latin square.
# ---------------------------------------------------------------------------

def division_tables(table):
    lead, n = table.shape[:-2], table.shape[-1]
    start = np.arange(0, table.size, n * n).reshape(*lead, 1, 1)
    T = table.astype(np.intp)
    rows = np.arange(n)[:, None]
    cols = np.arange(n)
    ldiv = np.empty(table.shape, table.dtype)
    rdiv = np.empty(table.shape, table.dtype)
    ldiv.ravel()[start + rows * n + T] = cols  # ldiv[a, ab] = b
    rdiv.ravel()[start + T * n + cols] = rows  # rdiv[ab, b] = a
    return ldiv, rdiv


# ---------------------------------------------------------------------------
# Associator defect tensors:
#   t[a,b,c] = ((ab)c) / (a(bc))      p[a,b,c] = (a(bc)) \ ((ab)c)
# ---------------------------------------------------------------------------

def assoc_slabs(table, ldiv, rdiv, domain=None):
    """Yield (a, t, p) for consecutive slices a of the first axis of the
    domain (x, y, z), three 1-D index arrays (every element in order, by
    default): t[..., i, j, k] = t(x[a][i], y[j], z[k]), and p likewise.

    A slab holds at least one x and, while one x's entries number fewer
    than SLAB, at most SLAB entries, so peak memory is O(SLAB + n^2) per
    table; a census stack fills a slab with one x.  A witness found slab by
    slab, first to last, is the first in C order over the domain.
    """
    lead, n = table.shape[:-2], table.shape[-1]
    x, y, z = domain if domain is not None else (np.arange(n),) * 3
    # the gathers index the flattened stack: one flat index array is faster
    # than one index array per axis (about 1.4x at n = 128, 1.7x on a stack
    # of 256 tables of order 7).  t = rdiv[(ab)c, a(bc)] and p =
    # ldiv[a(bc), (ab)c] = ldiv^T[(ab)c, a(bc)], so one index serves both;
    # table k's offset k·n^2 is folded into the small arrays of ab and a,
    # and into (ab)c by reading it from T + k·n
    start = np.arange(0, table.size, n * n).reshape(*lead, 1, 1)
    T = table.astype(np.intp)
    flat_T, flat_Tk = T.ravel(), (T + start // n).ravel()
    flat_r, flat_lT = rdiv.ravel(), ldiv.swapaxes(-1, -2).ravel()
    xy = start + T[..., x[:, None], y] * n  # ab·n
    yz = T[..., y[:, None], z]  # bc
    xn = start[..., None] + (x * n)[:, None, None]  # a·n
    for a in slabs(len(x), table.size // (n * n) * len(y) * len(z)):
        idx = np.add(xy[..., a, :, None], z)
        lhs = flat_Tk.take(idx)  # (ab)c + k·n
        np.add(xn[..., a, :, :], yz[..., None, :, :], out=idx)
        lhs *= n
        lhs += flat_T.take(idx)  # a(bc)
        yield a, flat_r.take(lhs), flat_lT.take(lhs)


def assoc_tensors(table, ldiv, rdiv):
    """The whole tensors (t, p), filled slab by slab from assoc_slabs."""
    lead, n = table.shape[:-2], table.shape[-1]
    t = np.empty((*lead, n, n, n), table.dtype)
    p = np.empty((*lead, n, n, n), table.dtype)
    for a, t_slab, p_slab in assoc_slabs(table, ldiv, rdiv):
        t[..., a, :, :] = t_slab
        p[..., a, :, :] = p_slab
    return t, p


# ---------------------------------------------------------------------------
# Nucleus part membership masks, read from the t tensor: t[a,b,c] = e
# exactly when (ab)c = a(bc), so
#   nl[a] = forall b,c: t[a,b,c] == e   (and likewise over slots 2, 3)
# ---------------------------------------------------------------------------

def nucleus_masks(t):
    return (~t.any(axis=(-2, -1)), ~t.any(axis=(-3, -1)),
            ~t.any(axis=(-3, -2)))


# ---------------------------------------------------------------------------
# Nucleus screen: the three nucleus laws on the one column c = 1,
#   screen[a] = forall b: (ab)c = a(bc), (ba)c = b(ac) and (bc)a = b(ca)
# Every member of N_l ∩ N_m ∩ N_r passes; O(n^2) per table, no n^3 array.
# ---------------------------------------------------------------------------

def nucleus_screen(table):
    lead, n = table.shape[:-2], table.shape[-1]
    c = min(1, n - 1)  # at order 1 the only element is e
    start = np.arange(0, table.size, n * n).reshape(*lead, 1, 1)
    T = table.astype(np.intp)
    flat_T = T.ravel()
    i = np.arange(n)[:, None]
    yc = T[..., None, :, c]  # y·c along the columns
    ca = T[..., c, :, None]  # c·a along the rows
    # assoc[x, y]: (xy)c = x(yc); row a holds slot 1's law, column a slot 2's
    assoc = flat_T[start + T * n + c] == flat_T[start + i * n + yc]
    # right[a, b]: (bc)a = b(ca)
    right = flat_T[start + yc * n + i] == flat_T[start + i.T * n + ca]
    return assoc.all(axis=-1) & assoc.all(axis=-2) & right.all(axis=-1)


# ---------------------------------------------------------------------------
# Nucleus parts of one table without an n^3 array.  Write A(x,y,z) for
# (xy)z = x(yz); then
#   N_l = {a : A(a,b,c)},  N_m = {a : A(b,a,c)},  N_r = {a : A(b,c,a)}
# for all b, c.  Every part contains e, and A holds whenever one argument
# is e.
# ---------------------------------------------------------------------------

def _assoc_box(T, slot, cand, cols):
    """A on the box (len(cand), n, len(cols)) whose axes hold the candidate
    a, every b and the column c, with a in argument `slot` of the part's
    law above and c in the slot that b leaves free."""
    n = len(T)
    a, c = cand[:, None, None], cols[None, None, :]
    b = np.arange(n)[None, :, None]
    x, y, z = ((a, b, c), (b, a, c), (b, c, a))[slot]
    flat = T.ravel()  # one flat index per gather is the fastest take
    return flat[flat[x * n + y] * n + z] == flat[x * n + flat[y * n + z]]


def _screen(T, slot, cols):
    """The candidates that pass the part's law on every b and every column
    in cols, checked one block of columns at a time.  A candidate that fails
    a block is dropped, so each block is sized to the candidates left: at
    most SLAB triples, or one column over slabs of the candidates while one
    column holds more."""
    n = len(T)
    cand, done = np.arange(n), 0
    while done < len(cols) and len(cand):
        block = cols[done:done + max(1, SLAB // (len(cand) * n))]
        step = max(1, SLAB // (n * len(block)))
        cand = cand[np.concatenate([
            _assoc_box(T, slot, cand[s:s + step], block).all(axis=(1, 2))
            for s in range(0, len(cand), step)])]
        done += len(block)
    return cand


def nucleus_parts(table):
    """Masks (N_l, N_m, N_r) of one table, each exact, with no array larger
    than SLAB triples once n^3 exceeds it.

    When the whole cube fits one slab (n^3 <= SLAB), A is taken on all of
    it and each part read off, as nucleus_masks reads the t tensor.
    Otherwise N_r is screened first, on the columns from n-1 down to 0.  A
    column c in N_r satisfies A(a,b,c) and A(b,a,c) for every a and b, so
    N_l and N_m need only the columns outside N_r.  A part's candidates are
    checked on every column it needs, so each survivor is verified on all
    n^2 pairs (b, c): the screen is exact, not a filter.
    """
    T = table.astype(np.intp)
    n = len(T)
    every = np.arange(n)
    if n ** 3 <= SLAB:
        # T[T][x, y] is the row of xy, and x(yz) sits at x·n + yz
        A = T[T] == T.ravel()[(every * n)[:, None, None] + T]
        return A.all(axis=(1, 2)), A.all(axis=(0, 2)), A.all(axis=(0, 1))
    masks = np.zeros((3, n), dtype=bool)
    masks[2, _screen(T, 2, every[::-1])] = True
    outside = every[~masks[2]]
    for slot in (0, 1):
        masks[slot, _screen(T, slot, outside)] = True
    return tuple(masks)


# ---------------------------------------------------------------------------
# Value sets of the t/p tensors, and the central-fan pair condition.
# ---------------------------------------------------------------------------

def value_mask(X):
    """mask[..., v] iff v occurs in the tensor X[...] of shape (n, n, n);
    unlike np.unique, no sorted copy of X."""
    lead, n = X.shape[:-3], X.shape[-1]
    mask = np.zeros((*lead, n), dtype=bool)
    start = np.arange(0, mask.size, n).reshape(*lead, 1, 1, 1)
    mask.ravel()[start + X] = True
    return mask


def central_mask(table, rdiv, member):
    """m[..., a, b] iff (ab)/(ba) lies in the membership mask member[...]."""
    lead, n = table.shape[:-2], table.shape[-1]
    start = np.arange(0, table.size, n * n).reshape(*lead, 1, 1)
    T = table.astype(np.intp)
    q = rdiv.ravel()[start + T * n + T.swapaxes(-1, -2)]  # (ab)/(ba)
    return member.ravel()[start // n + q]


# ---------------------------------------------------------------------------
# First (a,b,c) in lexicographic order with t[a,b,c] or p[a,b,c] outside a
# membership mask.  Used for fan-loop witnesses.
# ---------------------------------------------------------------------------

def fan_violation(t, p, member):
    for a in range(t.shape[0]):
        w = first(~(member[t[a]] & member[p[a]]))
        if w is not None:
            return (True, a, *w)
    return False, -1, -1, -1


# ---------------------------------------------------------------------------
# Reduced Latin squares (first row and column in natural order), grown one
# row at a time as stacks of partial squares.
# ---------------------------------------------------------------------------

# Pairs (partial square, candidate row) tested per expansion step: a whole
# level at once more than doubles summary(6)'s peak, and needs GBs at order 7.
_PAIRS = 1 << 16


def latin_rectangles(n):
    """Yield the reduced (n-1)-row Latin rectangles of order n <= 8 in
    lexicographic order, as int16 stacks of shape (k, n-1, n): parents expand
    in order, each through its candidate rows in lexicographic order.  Bit
    j*n + v of a partial square's int64 word is set when column j holds v."""
    if n < 1:
        return
    perms = np.array(list(permutations(range(n))), dtype=np.int16)
    # row 0 is natural, and every later row differs from it in every column
    perms = perms[np.isin((perms == perms[0]).sum(axis=1), (0, n))]
    words = (np.int64(1) << (np.arange(n) * n + perms)).sum(axis=1)

    def grow(rows, used):
        r = rows.shape[1]
        if r == n - 1:
            yield rows
            return
        cand, cand_used = perms[perms[:, 0] == r], words[perms[:, 0] == r]
        step = max(1, _PAIRS // len(cand))
        for s in range(0, len(rows), step):
            i, c = np.nonzero((used[s:s + step, None] & cand_used) == 0)
            yield from grow(np.concatenate((rows[s + i], cand[c, None]), 1),
                            used[s + i] | cand_used[c])

    yield from grow(np.empty((1, 0, n), np.int16), np.zeros(1, np.int64))


def reduced_latin_squares(n, size):
    """Yield the reduced Latin squares of order n in lexicographic order, as
    int16 stacks of shape (size, n, n); only the last one may be shorter."""
    k = 0
    for rect in latin_rectangles(n):
        while len(rect):
            if k == 0:
                out = np.empty((size, n, n), np.int16)
            m = min(size - k, len(rect))
            out[k:k + m, :-1] = rect[:m]
            # the rectangle completes uniquely: n(n-1)/2 minus column sums
            out[k:k + m, -1] = n * (n - 1) // 2 - rect[:m].sum(axis=1)
            rect, k = rect[m:], (k + m) % size
            if k == 0:
                yield out
    if k:
        yield out[:k]
