"""Kernel correctness: each kernel against a naive per-element oracle."""

import numpy as np

from fanloops import _kernels, catalog

# --- naive oracles ---------------------------------------------------------

def naive_divisions(table):
    n = table.shape[0]
    ldiv = np.full((n, n), -1, dtype=np.int16)
    rdiv = np.full((n, n), -1, dtype=np.int16)
    for a in range(n):
        for b in range(n):
            c = table[a, b]
            ldiv[a, c] = b      # a \ c = b
            rdiv[c, b] = a      # c / b = a
    return ldiv, rdiv


def naive_assoc(table, ldiv, rdiv):
    n = table.shape[0]
    t = np.empty((n, n, n), dtype=np.int16)
    p = np.empty((n, n, n), dtype=np.int16)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = table[table[a, b], c]
                right = table[a, table[b, c]]
                t[a, b, c] = rdiv[left, right]
                p[a, b, c] = ldiv[right, left]
    return t, p


def naive_nucleus(table):
    n = table.shape[0]
    nl = np.ones(n, dtype=bool)
    nm = np.ones(n, dtype=bool)
    nr = np.ones(n, dtype=bool)
    for x in range(n):
        for a in range(n):
            for b in range(n):
                if table[table[x, a], b] != table[x, table[a, b]]:
                    nl[x] = False
                if table[table[a, x], b] != table[a, table[x, b]]:
                    nm[x] = False
                if table[table[a, b], x] != table[a, table[b, x]]:
                    nr[x] = False
    return nl, nm, nr


def naive_count_reduced(n):
    """Unpruned row-by-row enumeration: build every row permutation with the
    right first element, keep those that stay Latin.  Exponential, n <= 5."""
    from itertools import permutations

    if n == 1:
        return 1
    rows0 = [tuple(range(n))]
    perms = list(permutations(range(n)))

    def extend(rows):
        r = len(rows)
        if r == n:
            return 1
        total = 0
        for perm in perms:
            if perm[0] != r:
                continue
            ok = True
            for c in range(n):
                for prev in rows:
                    if prev[c] == perm[c]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                total += extend(rows + [perm])
        return total

    return extend(rows0)


# --- tests ----------------------------------------------------------------

SAMPLE = [
    catalog.cyclic(1), catalog.cyclic(5), catalog.klein4(),
    catalog.symmetric3(), catalog.quaternion8(), catalog.octonion16(),
]


def test_division_tables_match_naive():
    for G in SAMPLE:
        ldiv, rdiv = _kernels.division_tables(G.table)
        nl, nr = naive_divisions(G.table)
        assert np.array_equal(ldiv, nl)
        assert np.array_equal(rdiv, nr)


def test_latin_violation_clean_and_dirty():
    G = catalog.cyclic(4)
    assert _kernels.latin_violation(G.table)[0] == _kernels.LATIN_OK
    bad = G.table.copy()
    bad[2, 3] = bad[2, 2]  # duplicate inside row 2
    code, i, j = _kernels.latin_violation(bad)
    assert code in (_kernels.LATIN_ROW, _kernels.LATIN_COL)
    assert (i, j) != (-1, -1)


def test_latin_violation_out_of_range():
    G = catalog.cyclic(3)
    bad = G.table.copy()
    bad[1, 1] = 7
    code, i, j = _kernels.latin_violation(bad)
    assert code == _kernels.LATIN_VALUE and (i, j) == (1, 1)


def test_assoc_tensors_match_naive():
    for G in SAMPLE:
        t, p = _kernels.assoc_tensors(G.table, G.ldiv, G.rdiv)
        nt, npp = naive_assoc(G.table, G.ldiv, G.rdiv)
        assert np.array_equal(t, nt)
        assert np.array_equal(p, npp)


def test_nucleus_masks_match_naive():
    for G in SAMPLE:
        nl, nm, nr = _kernels.nucleus_masks(G.table)
        el, em, er = naive_nucleus(G.table)
        assert np.array_equal(nl, el)
        assert np.array_equal(nm, em)
        assert np.array_equal(nr, er)


def test_fan_violation_octonion():
    G = catalog.octonion16()
    member = np.zeros(16, dtype=bool)
    member[[0, 1]] = True  # {1, -1}, the nucleus
    hit, a, b, c = _kernels.fan_violation(G.table, G.ldiv, G.rdiv, member)
    assert not hit
    # shrink the allowed set to {1}: now t(e1,e2,e4) = -1 escapes
    only_e = np.zeros(16, dtype=bool)
    only_e[0] = True
    hit, a, b, c = _kernels.fan_violation(G.table, G.ldiv, G.rdiv, only_e)
    assert hit
    # the reported triple really does have an associator outside {1}
    lhs = G.table[G.table[a, b], c]
    rhs = G.table[a, G.table[b, c]]
    assert int(G.rdiv[lhs, rhs]) != 0 or int(G.ldiv[rhs, lhs]) != 0


def test_count_reduced_latin_vs_naive_oracle():
    for n in range(1, 6):
        assert _kernels.count_reduced_latin(n) == naive_count_reduced(n)


def test_count_reduced_latin_order6_frozen():
    # value derived once from the unpruned oracle (minutes at order 6),
    # frozen here; the counter must keep agreeing
    assert _kernels.count_reduced_latin(6) == 9408


def test_iter_reduced_latin_lexicographic_and_complete():
    tables = [t.copy() for t in _kernels.iter_reduced_latin(4)]
    assert len(tables) == 4
    keys = [t.tobytes() for t in tables]
    assert keys == sorted(keys)
    for t in tables:
        assert _kernels.latin_violation(t)[0] == _kernels.LATIN_OK
        assert np.array_equal(t[0], np.arange(4))
        assert np.array_equal(t[:, 0], np.arange(4))
