"""Hot integer kernels over Cayley tables and their associator tensors,
written in numpy.

Kernels that return a witness scan in a fixed order, stated above each, so
reports are reproducible.  Every witness in the package is read with first():
the first violation in C (row-major) order.

Exact-rational code (lp/haar) deliberately does not go through this module:
those computations run on arbitrary-precision rationals, which numpy cannot
carry.
"""

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
# Stack axes.  division_tables, assoc_tensors, nucleus_masks, value_mask
# and central_mask take any leading axes, (..., n, n), and treat each n×n
# slice as its own table; with none they index as for a single table.
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
    start = np.arange(0, table.size, n * n).reshape(*lead, 1, 1)
    T = table.astype(np.intp)
    flat_T, flat_l, flat_r = T.ravel(), ldiv.ravel(), rdiv.ravel()
    cols = np.arange(n)
    for a in range(n):  # slab-wise keeps peak memory at O(n^2) per table
        lhs = flat_T[start + T[..., a, :, None] * n + cols]  # (ab)c
        rhs = flat_T[start + a * n + T]  # a(bc)
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
# Reduced Latin squares (first row and column in natural order).
# Row-major backtracking with bitmask forward checking on rows/columns.
# Candidate values tried in increasing order => lexicographic traversal.
# ---------------------------------------------------------------------------

def iter_reduced_latin(n):
    """Yield every reduced Latin square of order n in lexicographic order.

    Python generator: enumeration has to materialize each table anyway, so
    the bitmask bookkeeping is not the bottleneck at the supported orders.
    """
    if n < 1:
        return
    base = np.empty((n, n), np.int16)
    base[0, :] = np.arange(n, dtype=np.int16)
    base[:, 0] = np.arange(n, dtype=np.int16)
    if n == 1:
        yield base.copy()
        return
    m = (n - 1) * (n - 1)
    full = (1 << n) - 1
    rowmask = [(1 << i) for i in range(n)]
    colmask = [(1 << i) for i in range(n)]
    rowmask[0] = full
    colmask[0] = full
    choice = [-1] * m
    pos = 0
    while pos >= 0:
        i = 1 + pos // (n - 1)
        j = 1 + pos % (n - 1)
        v = choice[pos] + 1
        if choice[pos] >= 0:
            bit = 1 << choice[pos]
            rowmask[i] &= ~bit
            colmask[j] &= ~bit
            choice[pos] = -1
        while v < n:
            bit = 1 << v
            if not (rowmask[i] & bit) and not (colmask[j] & bit):
                break
            v += 1
        if v >= n:
            pos -= 1
            continue
        choice[pos] = v
        bit = 1 << v
        rowmask[i] |= bit
        colmask[j] |= bit
        base[i, j] = v
        if pos == m - 1:
            yield base.copy()
        else:
            pos += 1


def count_reduced_latin(n):
    """Number of reduced Latin squares of order n (exhaustive count)."""
    return sum(1 for _ in iter_reduced_latin(n))
