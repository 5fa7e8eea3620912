"""Kernel correctness: each kernel against a naive per-element oracle."""

from itertools import islice
from random import Random
from typing import NamedTuple

import numpy as np
import pytest

from fanloops import _kernels, catalog, census, cli, core

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


def dense_latin_violation(table):
    """The earlier Latin kernel: n^3 pairwise-equality arrays per axis."""
    n = table.shape[0]
    bad = (table < 0) | (table >= n)
    if bad.any():
        flat = int(np.argmax(bad))
        return _kernels.LATIN_VALUE, flat // n, flat % n
    eq = table[:, :, None] == table[:, None, :]
    earlier = np.tril(np.ones((n, n), dtype=bool), k=-1)
    rowdup = (eq & earlier[None, :, :]).any(axis=2)
    if rowdup.any():
        flat = int(np.argmax(rowdup))
        return _kernels.LATIN_ROW, flat // n, flat % n
    eqc = table[:, :, None] == table.T[None, :, :]
    coldup = (eqc & earlier[:, None, :]).any(axis=2)
    if coldup.any():
        flat = int(np.argmax(coldup.T))
        return _kernels.LATIN_COL, flat % n, flat // n
    return _kernels.LATIN_OK, -1, -1


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


def naive_fan_violation(table, ldiv, rdiv, member):
    """First (a,b,c) in lexicographic order whose t or p leaves `member`."""
    n = table.shape[0]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = table[table[a, b], c]
                right = table[a, table[b, c]]
                if not (member[rdiv[left, right]] and member[ldiv[right, left]]):
                    return True, a, b, c
    return False, -1, -1, -1


# --- the whole-tensor classifier: the oracle of core's analysis and of the
# census' streamed masks ----------------------------------------------------

class Masks(NamedTuple):
    """The element masks of a stack of tables.  Each has the stack axes,
    then one axis over the elements; is_fan has only the stack axes,
    central_pairs two element axes."""

    nucleus_l: np.ndarray
    nucleus_m: np.ndarray
    nucleus_r: np.ndarray
    nucleus: np.ndarray
    com: np.ndarray
    center: np.ndarray
    t_range: np.ndarray
    p_range: np.ndarray
    is_fan: np.ndarray
    central_pairs: np.ndarray  # [..., a, b]: (ab)/(ba) lies in Z


def masks(table, rdiv, t, p):
    """Masks of a stack of tables (..., n, n), given its right divisions
    and whole associator tensors."""
    nl, nm, nr = _kernels.nucleus_masks(t)
    nuc = nl & nm & nr
    com = (table == table.swapaxes(-1, -2)).all(axis=-1)
    z = com & nuc
    t_range, p_range = _kernels.value_mask(t), _kernels.value_mask(p)
    # fan: every associator value lies in the nucleus
    is_fan = ~((t_range | p_range) & ~nuc).any(axis=-1)
    return Masks(nl, nm, nr, nuc, com, z, t_range, p_range, is_fan,
                 _kernels.central_mask(table, rdiv, z))


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


def iter_reduced_latin(n):
    """Yield every reduced Latin square of order n in lexicographic order.

    The census's former per-square backtracker, kept as the oracle of the
    stacked enumerator: row-major backtracking with bitmask forward checking
    on rows and columns, candidate values tried in increasing order.
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


# --- tests ----------------------------------------------------------------

SAMPLE = [
    catalog.cyclic(1), catalog.cyclic(5), catalog.klein4(),
    catalog.symmetric3(), catalog.quaternion8(), catalog.octonion16(),
]


def reduced_loops(n, count=None):
    """The first `count` (default all) reduced Latin squares of order n as
    loops."""
    tables = islice(census.iter_reduced_latin(n), count)
    return [core.verify_loop(t) for t in tables]


def _tensors(G):
    """G's whole t and p tensors."""
    return _kernels.assoc_tensors(G.table, G.ldiv, G.rdiv)


def test_latin_violation_matches_dense_kernel():
    # seeded Latin squares of order 1..11 with 0-3 cells overwritten by
    # values from -1 to n, so range, row and column faults all occur
    rng = Random(8)
    seen = set()
    for n in range(1, 12):
        for _ in range(300):
            rows, cols, vals = (rng.sample(range(n), n) for _ in range(3))
            table = np.array([[vals[(r + c) % n] for c in cols] for r in rows],
                             dtype=np.int16)
            for _ in range(rng.randrange(4)):
                table[rng.randrange(n), rng.randrange(n)] = rng.randint(-1, n)
            got = _kernels.latin_violation(table)
            assert got == dense_latin_violation(table), table
            seen.add(got[0])
    assert seen == {_kernels.LATIN_OK, _kernels.LATIN_VALUE,
                    _kernels.LATIN_ROW, _kernels.LATIN_COL}


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


@pytest.mark.parametrize("slab", [1 << 14, 7])
def test_assoc_slabs_cover_a_domain_in_order(slab, monkeypatch):
    # any index arrays, repeats included, in consecutive slabs of the first
    # axis; at 7 entries per slab no slab holds more than two x.  The
    # non-fan loop of order 5 has u\v != v\u among its associator
    # arguments, so t and p read from swapped division tables show
    monkeypatch.setattr(_kernels, "SLAB", slab)
    rng = np.random.default_rng(5)
    for G in SAMPLE + [census.find_witness(5, "non-fan")]:
        t, p = naive_assoc(G.table, G.ldiv, G.rdiv)
        n = G.order
        x, y, z = (rng.integers(0, n, size) for size in (2 * n, n, 3))
        got = list(_kernels.assoc_slabs(G.table, G.ldiv, G.rdiv, (x, y, z)))
        assert [a.start for a, *_ in got] == [0, *(a.stop for a, *_ in got[:-1])]
        assert got[-1][0].stop == len(x)
        grid = np.ix_(x, y, z)
        assert np.array_equal(np.concatenate([s[1] for s in got]), t[grid])
        assert np.array_equal(np.concatenate([s[2] for s in got]), p[grid])


@pytest.mark.parametrize("slab", [1 << 14, 1])
def test_nucleus_parts_match_naive(slab, monkeypatch):
    # one slab holds an order-6 cube at the default; at 1 every part is
    # screened one column and one candidate at a time
    monkeypatch.setattr(_kernels, "SLAB", slab)
    for G in SAMPLE + reduced_loops(5) + reduced_loops(6, 40):
        got = _kernels.nucleus_parts(G.table)
        for part, want in zip(got, naive_nucleus(G.table)):
            assert np.array_equal(part, want)


def test_nucleus_masks_match_naive():
    # the first 40 squares of order 6 include loops whose N_l, N_m and N_r
    # differ pairwise; those of order 5 have N_m = N_r throughout
    for G in SAMPLE + reduced_loops(5) + reduced_loops(6, 40):
        nl, nm, nr = _kernels.nucleus_masks(_tensors(G)[0])
        el, em, er = naive_nucleus(G.table)
        assert np.array_equal(nl, el)
        assert np.array_equal(nm, em)
        assert np.array_equal(nr, er)


def naive_nucleus_screen(table):
    """screen[a]: the three nucleus laws at a hold for every b and c = 1."""
    n = table.shape[0]
    c = min(1, n - 1)
    T = table.tolist()
    return np.array([all(T[T[a][b]][c] == T[a][T[b][c]]
                         and T[T[b][a]][c] == T[b][T[a][c]]
                         and T[T[b][c]][a] == T[b][T[c][a]]
                         for b in range(n)) for a in range(n)])


def test_nucleus_screen_matches_naive():
    # single tables, and every reduced square of orders 1-6 in census
    # batches (a screen that reads the right law along the wrong axis
    # differs on 336 squares of order 6, and on none of order 5)
    for G in SAMPLE:
        assert np.array_equal(_kernels.nucleus_screen(G.table),
                              naive_nucleus_screen(G.table))
    for n in range(1, 7):
        for batch in _kernels.reduced_latin_squares(n, census._BATCH):
            assert np.array_equal(_kernels.nucleus_screen(batch),
                                  [naive_nucleus_screen(T) for T in batch])


def test_nucleus_screen_passes_every_nucleus_element():
    # every reduced square of orders 1-6 and the first 100 batches of
    # order 7, in census batches
    def batches():
        for n in range(1, 7):
            yield from _kernels.reduced_latin_squares(n, census._BATCH)
        yield from islice(_kernels.reduced_latin_squares(7, census._BATCH),
                          100)

    seen = weaker = 0
    for batch in batches():
        ldiv, rdiv = _kernels.division_tables(batch)
        t, _ = _kernels.assoc_tensors(batch, ldiv, rdiv)
        nucleus = np.logical_and.reduce(_kernels.nucleus_masks(t))
        screen = _kernels.nucleus_screen(batch)
        assert screen.shape == nucleus.shape
        assert not (nucleus & ~screen).any()
        seen += len(batch)
        weaker += int((screen & ~nucleus).any(axis=-1).sum())
    assert seen == 1 + 1 + 1 + 4 + 56 + 9408 + 100 * census._BATCH
    # the screen passes elements outside N too, so it decides no verdict
    assert weaker > 0


def test_fan_violation_matches_lexicographic_oracle():
    seen = set()
    for G in SAMPLE + reduced_loops(5):
        n = G.order
        only_e = np.zeros(n, dtype=bool)
        only_e[0] = True
        masks = {"nucleus": np.logical_and.reduce(naive_nucleus(G.table)),
                 "e": only_e, "empty": np.zeros(n, dtype=bool)}
        for name, member in masks.items():
            got = _kernels.fan_violation(*_tensors(G), member)
            assert got == naive_fan_violation(G.table, G.ldiv, G.rdiv, member)
            seen.add((name, got[0]))
    # fan and non-fan loops, groups and non-groups all occur
    assert seen == {("nucleus", False), ("nucleus", True), ("e", False),
                    ("e", True), ("empty", True)}


def test_fan_violation_octonion():
    G = catalog.octonion16()
    t, p = _tensors(G)
    member = np.zeros(16, dtype=bool)
    member[[0, 1]] = True  # {1, -1}, the nucleus
    assert _kernels.fan_violation(t, p, member) == (False, -1, -1, -1)
    # shrink the allowed set to {1}: now t(e1,e2,e4) = -1 escapes
    only_e = np.zeros(16, dtype=bool)
    only_e[0] = True
    hit, a, b, c = _kernels.fan_violation(t, p, only_e)
    assert hit
    # the reported triple really does have an associator outside {1}
    lhs = G.table[G.table[a, b], c]
    rhs = G.table[a, G.table[b, c]]
    assert int(G.rdiv[lhs, rhs]) != 0 or int(G.ldiv[rhs, lhs]) != 0


def test_no_package_path_calls_the_oracle_kernels(monkeypatch, capsys):
    # assoc_tensors, nucleus_masks and fan_violation are the tests'
    # whole-tensor oracles: the census, the analysis, the laws and the
    # product and quotient cross-checks stream assoc_slabs instead
    def refuse(*args):
        raise AssertionError("an oracle kernel was called")

    for name in ("assoc_tensors", "nucleus_masks", "fan_violation"):
        monkeypatch.setattr(_kernels, name, refuse)
    for n in range(1, 7):
        census.summary(n)
    for filter in census.FILTERS:
        for _ in census.enumerate_loops(census.CensusQuery(5, filter)):
            pass
    corpus = catalog.corpus_path("")
    for path in sorted(corpus.iterdir()):
        if path.suffix == ".loop":
            assert cli.main(["--quiet", "check", str(path)]) == cli.EXIT_OK
        elif path.suffix == ".smash":
            assert cli.main(["--quiet", "smash", str(path)]) == cli.EXIT_OK
    for name in ("q8.loop", "oct16.loop"):
        assert cli.main(["--quiet", "haar", str(corpus / name),
                         "-f", str(corpus / "halves.fn")]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""


def test_count_reduced_latin_vs_naive_oracle():
    for n in range(1, 6):
        assert census.count_reduced(n) == naive_count_reduced(n)


def test_count_reduced_latin_order6_frozen():
    # value derived once from the unpruned oracle (minutes at order 6),
    # frozen here; the counter must keep agreeing
    assert census.count_reduced(6) == 9408


def test_iter_reduced_latin_lexicographic_and_complete():
    tables = [t.copy() for t in census.iter_reduced_latin(4)]
    assert len(tables) == 4
    keys = [t.tobytes() for t in tables]
    assert keys == sorted(keys)
    for t in tables:
        assert _kernels.latin_violation(t)[0] == _kernels.LATIN_OK
        assert np.array_equal(t[0], np.arange(4))
        assert np.array_equal(t[:, 0], np.arange(4))


@pytest.fixture(scope="module")
def order7_prefix():
    """The backtracker's first 10^5 squares of order 7 (about 5 s)."""
    return np.stack(list(islice(iter_reduced_latin(7), 10**5)))


def test_stacked_enumerator_matches_backtracker():
    # stacks of 1 and 7 squares end inside almost every stack of (n-1)-row
    # rectangles; 256 is the census batch
    for n in range(1, 7):
        want = np.stack(list(iter_reduced_latin(n)))
        for size in (1, 7, 256):
            stacks = list(_kernels.reduced_latin_squares(n, size))
            assert [len(s) for s in stacks[:-1]] == [size] * (len(stacks) - 1)
            assert all(s.dtype == np.int16 for s in stacks)
            assert np.array_equal(np.concatenate(stacks), want)


def test_stacked_enumerator_matches_backtracker_on_order7_prefix(
        order7_prefix):
    stacks = islice(_kernels.reduced_latin_squares(7, 256), 10**5 // 256 + 1)
    got = np.concatenate(list(stacks))[:10**5]
    assert got.dtype == np.int16 and np.array_equal(got, order7_prefix)


def test_census_stream_at_order7_starts_as_the_backtracker(order7_prefix):
    query = census.CensusQuery(7, filter="all", limit=1000)
    tables = [G.table for G in census.enumerate_loops(query)]
    assert np.array_equal(np.stack(tables), order7_prefix[:1000])


def test_first_scans_in_c_order():
    assert _kernels.first(np.zeros(0, dtype=bool)) is None
    assert _kernels.first(np.zeros((0, 3), dtype=bool)) is None
    assert _kernels.first(np.zeros((2, 3, 4), dtype=bool)) is None
    rng = Random(3)
    for shape in ((7,), (3, 5), (2, 3, 4)):
        for _ in range(20):
            mask = np.array([rng.random() < 0.1 for _ in range(np.prod(shape))])
            mask = mask.reshape(shape)
            hits = [i for i in np.ndindex(shape) if mask[i]]
            got = _kernels.first(mask)
            assert got == (hits[0] if hits else None)
            assert got is None or all(type(i) is int for i in got)
    # a broadcast (zero-stride) view is scanned in its broadcast shape
    row = np.array([False, False, True])
    assert _kernels.first(np.broadcast_to(row, (4, 3))) == (0, 2)
    col = np.array([[False], [True]])
    assert _kernels.first(np.broadcast_to(col, (2, 3))) == (1, 0)


def _relabel(table, perm):
    """The isomorphic table under perm (perm[0] = 0 keeps the identity)."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def test_stacked_kernels_match_per_table_kernels():
    # seeded order-6 loops, relabelled so the stack mixes isomorphic copies;
    # each kernel on the stack, with one or two leading axes, equals the
    # kernel on each table alone
    rng = Random(11)
    squares = list(census.iter_reduced_latin(6))
    tables = []
    for T in rng.sample(squares, 12):
        perm = np.array([0, *rng.sample(range(1, 6), 5)])
        tables.append(_relabel(T, perm))
    single = []
    for T in tables:
        ldiv, rdiv = _kernels.division_tables(T)
        t, p = _kernels.assoc_tensors(T, ldiv, rdiv)
        single.append((T, ldiv, rdiv, t, p, masks(T, rdiv, t, p)))
    stacked = np.stack(tables)
    for shape in ((12,), (3, 4)):
        T = stacked.reshape(*shape, 6, 6)
        ldiv, rdiv = _kernels.division_tables(T)
        t, p = _kernels.assoc_tensors(T, ldiv, rdiv)
        m = masks(T, rdiv, t, p)
        for k, (_, ld1, rd1, t1, p1, m1) in enumerate(single):
            at = np.unravel_index(k, shape)
            for got, want in ((ldiv, ld1), (rdiv, rd1), (t, t1), (p, p1)):
                assert np.array_equal(got[at], want)
            for got, want in zip(m, m1):
                assert np.array_equal(got[at], want)
    # the sample holds fan and non-fan loops
    assert m.is_fan.any() and not m.is_fan.all()
