"""Hot integer kernels over Cayley tables, written in numpy.

Kernels that return a witness scan in a fixed order, stated above each, so
reports are reproducible.

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


# ---------------------------------------------------------------------------
# Latin-square check.
# Scan order (fixed so the witness is reproducible): all cells row-major for
# range violations; then each row left-to-right for the first repeated
# value; then each column top-to-bottom.
# ---------------------------------------------------------------------------

def latin_violation(table):
    """Return (code, row, col); code 0 means the table is a Latin square."""
    n = table.shape[0]
    bad = (table < 0) | (table >= n)
    if bad.any():
        flat = int(np.argmax(bad))
        return LATIN_VALUE, flat // n, flat % n
    # dup[i, j] = value at (i, j) already appeared earlier in row i
    eq = table[:, :, None] == table[:, None, :]  # eq[i, j, k] = t[i,j]==t[i,k]
    earlier = np.tril(np.ones((n, n), dtype=bool), k=-1)  # k < j
    rowdup = (eq & earlier[None, :, :]).any(axis=2)
    if rowdup.any():
        flat = int(np.argmax(rowdup))
        return LATIN_ROW, flat // n, flat % n
    eqc = table[:, :, None] == table.T[None, :, :]  # eqc[i, j, k] = t[i,j]==t[k,j]
    coldup = (eqc & earlier[:, None, :]).any(axis=2)  # k < i
    if coldup.any():
        # first in column-major order: scan columns left to right
        flat = int(np.argmax(coldup.T))
        return LATIN_COL, flat % n, flat // n
    return LATIN_OK, -1, -1


# ---------------------------------------------------------------------------
# Division tables.  ldiv[a, b] = a \ b  (solution x of a·x = b)
#                   rdiv[b, a] = b / a  (solution y of y·a = b)
# Requires a verified Latin square.
# ---------------------------------------------------------------------------

def division_tables(table):
    n = table.shape[0]
    ldiv = np.empty((n, n), table.dtype)
    rdiv = np.empty((n, n), table.dtype)
    rows = np.arange(n, dtype=table.dtype)[:, None]
    cols = np.arange(n, dtype=table.dtype)[None, :]
    ldiv[rows, table] = np.broadcast_to(cols, (n, n))
    rdiv[table, cols] = np.broadcast_to(rows, (n, n))
    return ldiv, rdiv


# ---------------------------------------------------------------------------
# Associator defect tensors:
#   t[a,b,c] = ((ab)c) / (a(bc))      p[a,b,c] = (a(bc)) \ ((ab)c)
# ---------------------------------------------------------------------------

def assoc_tensors(table, ldiv, rdiv):
    n = table.shape[0]
    t = np.empty((n, n, n), table.dtype)
    p = np.empty((n, n, n), table.dtype)
    for a in range(n):  # slab-wise keeps peak memory at O(n^2)
        lhs = table[table[a], :]  # (ab)c
        rhs = table[a][table]  # a(bc)
        t[a] = rdiv[lhs, rhs]
        p[a] = ldiv[rhs, lhs]
    return t, p


# ---------------------------------------------------------------------------
# Nucleus part membership masks.
#   nl[a] = forall b,c: (ab)c == a(bc)   (and cyclically for nm, nr)
# ---------------------------------------------------------------------------

def nucleus_masks(table):
    n = table.shape[0]
    nl = np.ones(n, np.bool_)
    nm = np.ones(n, np.bool_)
    nr = np.ones(n, np.bool_)
    for a in range(n):
        defect = table[table[a], :] != table[a][table]  # defect[b, c]
        if defect.any():
            nl[a] = False
            nm &= ~defect.any(axis=1)
            nr &= ~defect.any(axis=0)
    return nl, nm, nr


# ---------------------------------------------------------------------------
# First associator value outside a membership mask, in lexicographic (a,b,c)
# order.  Used for fan-loop witnesses.
# ---------------------------------------------------------------------------

def fan_violation(table, ldiv, rdiv, member):
    n = table.shape[0]
    for a in range(n):
        lhs = table[table[a], :]
        rhs = table[a][table]
        bad = ~member[rdiv[lhs, rhs]] | ~member[ldiv[rhs, lhs]]
        if bad.any():
            flat = int(np.argmax(bad))
            return True, a, flat // n, flat % n
    return False, -1, -1, -1


# ---------------------------------------------------------------------------
# Reduced Latin squares (first row and column in natural order).
# Row-major backtracking with bitmask forward checking on rows/columns.
# Candidate values tried in increasing order => lexicographic traversal.
# ---------------------------------------------------------------------------

def iter_reduced_latin(n, dtype=np.int16):
    """Yield every reduced Latin square of order n in lexicographic order.

    Python generator: enumeration has to materialize each table anyway, so
    the bitmask bookkeeping is not the bottleneck at the supported orders.
    """
    if n < 1:
        return
    base = np.empty((n, n), dtype)
    base[0, :] = np.arange(n, dtype=dtype)
    base[:, 0] = np.arange(n, dtype=dtype)
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
