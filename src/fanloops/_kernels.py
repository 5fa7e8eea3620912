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
# the law plans, the reduced law checks, the smashed-product cross-check and
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
# Stack axes.  division_tables, assoc_tensors, nucleus_masks,
# nucleus_screen, value_mask and central_mask take any leading axes,
# (..., n, n), and treat each n×n slice as its own table; with none they
# index as for a single table.
# ---------------------------------------------------------------------------

def _stack(lead, trailing):
    """Open-grid indices of the leading axes `lead`, each shaped to
    broadcast against index arrays with `trailing` more axes; () when
    there are no leading axes."""
    return tuple(g.reshape(g.shape + (1,) * trailing)
                 for g in np.ix_(*map(np.arange, lead)))


# ---------------------------------------------------------------------------
# Division tables.  ldiv[a, b] = a \ b  (solution x of a·x = b)
#                   rdiv[b, a] = b / a  (solution y of y·a = b)
# Requires a verified Latin square.
# ---------------------------------------------------------------------------

def division_tables(table):
    n = table.shape[-1]
    k = _stack(table.shape[:-2], 2)
    ldiv = np.empty(table.shape, table.dtype)
    rdiv = np.empty(table.shape, table.dtype)
    rows = np.arange(n, dtype=table.dtype)[:, None]
    cols = np.arange(n, dtype=table.dtype)[None, :]
    ldiv[(*k, rows, table)] = np.broadcast_to(cols, table.shape)
    rdiv[(*k, table, cols)] = np.broadcast_to(rows, table.shape)
    return ldiv, rdiv


# ---------------------------------------------------------------------------
# Associator defect tensors:
#   t[a,b,c] = ((ab)c) / (a(bc))      p[a,b,c] = (a(bc)) \ ((ab)c)
# ---------------------------------------------------------------------------

def assoc_tensors(table, ldiv, rdiv):
    lead, n = table.shape[:-2], table.shape[-1]
    t = np.empty((*lead, n, n, n), table.dtype)
    p = np.empty((*lead, n, n, n), table.dtype)
    # the gathers index the flattened stack: one flat index array is faster
    # than one index array per axis (about 1.4x at n = 128, 1.7x on a stack
    # of 256 tables of order 7)
    start = np.arange(0, table.size, n * n).reshape(*lead, 1, 1, 1)
    T = table.astype(np.intp)
    flat_T, flat_l, flat_r = T.ravel(), ldiv.ravel(), rdiv.ravel()
    cols = np.arange(n)
    an = (np.arange(n) * n)[:, None, None]
    # a slab of a values at a time keeps peak memory at O(SLAB + n^2) per
    # table; a census stack fills a slab with one a
    for a in slabs(n, table.size):
        lhs = flat_T[start + T[..., a, :, None] * n + cols]  # (ab)c
        rhs = flat_T[start + an[a] + T[..., None, :, :]]  # a(bc)
        t[..., a, :, :] = flat_r[start + lhs * n + rhs]
        p[..., a, :, :] = flat_l[start + rhs * n + lhs]
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
# Value sets of the t/p tensors, and the central-fan pair condition.
# ---------------------------------------------------------------------------

def value_mask(X):
    """mask[..., v] iff v occurs in the tensor X[...] of shape (n, n, n);
    unlike np.unique, no sorted copy of X."""
    lead = X.shape[:-3]
    mask = np.zeros((*lead, X.shape[-1]), dtype=bool)
    mask[(*_stack(lead, 3), X)] = True
    return mask


def central_mask(table, rdiv, member):
    """m[..., a, b] iff (ab)/(ba) lies in the membership mask member[...]."""
    k = _stack(table.shape[:-2], 2)
    return member[(*k, rdiv[(*k, table, table.swapaxes(-1, -2))])]


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
