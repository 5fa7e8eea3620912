"""Census cross-checked against a naive oracle.

The oracle enumerates reduced Latin squares by filtered row permutations and
classifies them with direct triple loops (divisions, associators, nucleus
membership) -- no shared code with fanloops.census or the kernels.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import test_kernels
from fanloops import _kernels, census, cli, core
from fanloops.config import CENSUS_ORDER_CAP
from fanloops.errors import (
    FanLoopCheckFailed,
    NoIdentity,
    NotLatinSquare,
    OrderCapExceeded,
    UnknownPredicate,
)

# --- naive oracle ------------------------------------------------------------

def naive_reduced_squares(n):
    """All reduced Latin squares of order n (first row/column in natural
    order), as tuples of row tuples."""
    first = tuple(range(n))

    def extend(rows):
        r = len(rows)
        if r == n:
            yield tuple(rows)
            return
        for perm in itertools.permutations(range(n)):
            if perm[0] != r:
                continue
            if any(
                perm[c] == rows[k][c] for k in range(r) for c in range(n)
            ):
                continue
            yield from extend(rows + [perm])

    return list(extend([first]))


def naive_classify(rows):
    """Classification dict straight from the definitions."""
    n = len(rows)
    ldiv = [[rows[a].index(y) for y in range(n)] for a in range(n)]

    def rd(y, a):  # y/a
        return next(x for x in range(n) if rows[x][a] == y)

    def t(a, b, c):
        return rd(rows[rows[a][b]][c], rows[a][rows[b][c]])

    def p(a, b, c):
        return ldiv[rows[a][rows[b][c]]][rows[rows[a][b]][c]]

    nucleus = set()
    for x in range(n):
        if all(
            rows[rows[x][a]][b] == rows[x][rows[a][b]]
            and rows[rows[a][x]][b] == rows[a][rows[x][b]]
            and rows[rows[a][b]][x] == rows[a][rows[b][x]]
            for a in range(n)
            for b in range(n)
        ):
            nucleus.add(x)
    com = {
        x
        for x in range(n)
        if all(rows[x][y] == rows[y][x] for y in range(n))
    }
    center = nucleus & com
    trip = itertools.product(range(n), repeat=3)
    tp_values = {v for a, b, c in trip for v in (t(a, b, c), p(a, b, c))}
    is_fan = tp_values <= nucleus
    central = is_fan and all(
        rd(rows[a][b], rows[b][a]) in center
        for a in range(n)
        for b in range(n)
    )
    split = any(ldiv[a][0] != rd(0, a) for a in range(n))
    assoc = tp_values == {0}
    return {
        "fan": is_fan,
        "central": central,
        "split": split,
        "assoc": assoc,
    }


# --- counts and classification ----------------------------------------------

def test_counts_match_naive_oracle():
    for n in range(1, 6):
        squares = naive_reduced_squares(n)
        assert census.count_reduced(n) == len(squares)
        got = list(census.enumerate_loops(n))
        assert len(got) == len(squares)
        assert {tuple(map(tuple, G.table)) for G in got} == set(squares)


def test_reduced_count_ladder():
    assert [census.count_reduced(n)
            for n in range(1, CENSUS_ORDER_CAP + 1)] == [
        1, 1, 1, 4, 56, 9408, 16942080
    ]


def test_order5_summary_matches_naive_classification():
    squares = naive_reduced_squares(5)
    cls = [naive_classify(s) for s in squares]
    want = {
        "all": len(squares),
        "fan-only": sum(c["fan"] for c in cls),
        "non-fan": sum(not c["fan"] for c in cls),
        "central-fan": sum(c["central"] for c in cls),
        "nontrivial-two-sided-inverse-split": sum(c["split"] for c in cls),
    }
    assert census.summary(5) == want
    assert want == {
        "all": 56,
        "fan-only": 6,
        "non-fan": 50,
        "central-fan": 6,
        "nontrivial-two-sided-inverse-split": 48,
    }


def test_order5_fan_loops_are_the_group_tables():
    # the six reduced fan loops of order 5 are exactly the six reduced
    # C5 multiplication tables: 4!/|Aut(C5)| = 24/4 = 6
    fans = list(census.enumerate_loops(census.CensusQuery(5, "fan-only")))
    assert len(fans) == 6
    for G in fans:
        assert naive_classify(tuple(map(tuple, G.table)))["assoc"]
        assert G.analysis.is_group and G.analysis.is_commutative


def test_filters_partition_all():
    q_all = {tuple(map(tuple, G.table)) for G in census.enumerate_loops(5)}
    q_fan = {
        tuple(map(tuple, G.table))
        for G in census.enumerate_loops(census.CensusQuery(5, "fan-only"))
    }
    q_non = {
        tuple(map(tuple, G.table))
        for G in census.enumerate_loops(census.CensusQuery(5, "non-fan"))
    }
    assert q_fan | q_non == q_all
    assert not q_fan & q_non


def test_enumeration_is_deterministic():
    a = [G.table.tobytes() for G in census.enumerate_loops(5)]
    b = [G.table.tobytes() for G in census.enumerate_loops(5)]
    assert a == b


def test_limit_is_a_prefix():
    full = [G.table.tobytes() for G in census.enumerate_loops(5)]
    for limit in (0, 1, 7):
        part = [
            G.table.tobytes()
            for G in census.enumerate_loops(census.CensusQuery(5, limit=limit))
        ]
        assert part == full[:limit]
    with pytest.raises(ValueError):
        census.CensusQuery(5, limit=-1)


# --- witnesses ---------------------------------------------------------------

def test_non_fan_witness_at_order_5():
    G = census.find_witness(5, "non-fan")
    assert G is not None
    cls = naive_classify(tuple(map(tuple, G.table)))
    assert not cls["fan"]
    # and the analysis agrees, with a live witness triple
    a = G.analysis
    assert not a.is_fan_loop
    x, y, z = a.fan_witness[:3]
    tv = G.t(x, y, z)
    pv = G.p(x, y, z)
    assert tv not in a.nucleus.members or pv not in a.nucleus.members


def test_inverse_split_witness_at_order_5():
    G = census.find_witness(5, "nontrivial-two-sided-inverse-split")
    assert G is not None
    split = [
        a for a in range(5) if int(G.ldiv[a, 0]) != int(G.rdiv[0, a])
    ]
    assert split  # e/a != a\e somewhere


def test_no_witnesses_below_order_5():
    for n in range(1, 5):
        assert census.find_witness(n, "non-fan") is None
        assert census.find_witness(
            n, "nontrivial-two-sided-inverse-split") is None
        for G in census.enumerate_loops(n):
            assert G.analysis.is_group  # orders <= 4: nothing but groups


# --- query plumbing ----------------------------------------------------------

def test_query_validation():
    with pytest.raises(UnknownPredicate):
        census.CensusQuery(5, "weird")
    with pytest.raises(UnknownPredicate) as e:
        census.find_witness(5, "weird")
    # the names in FILTERS order
    assert str(e.value) == (
        "unknown predicate 'weird'; known: all, fan-only, non-fan, "
        "central-fan, nontrivial-two-sided-inverse-split")


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        list(census.enumerate_loops(8))
    with pytest.raises(OrderCapExceeded):
        census.count_reduced(8)
    with pytest.raises(OrderCapExceeded):
        next(census.iter_reduced_latin(8))


@pytest.mark.parametrize("order", [0, -1, -2])
def test_an_order_below_1_is_refused(order):
    for call in (lambda: census.CensusQuery(order),
                 lambda: census.CensusQuery(order, limit=0),
                 lambda: census.summary(order),
                 lambda: census.count_reduced(order),
                 lambda: next(census.iter_reduced_latin(order))):
        with pytest.raises(ValueError, match="order must be at least 1"):
            call()


@pytest.mark.parametrize("order", [5.5, "5", True])
def test_a_non_integer_order_is_refused(order):
    for call in (lambda: census.CensusQuery(order),
                 lambda: census.summary(order),
                 lambda: census.count_reduced(order),
                 lambda: next(census.iter_reduced_latin(order))):
        with pytest.raises(ValueError, match="order must be an integer"):
            call()


@pytest.mark.parametrize("limit", [1.5, True])
def test_a_non_integer_limit_is_refused(limit):
    with pytest.raises(ValueError, match="limit must be an integer"):
        census.CensusQuery(5, limit=limit)


def test_a_query_keeps_its_order_and_limit_as_python_ints():
    q = census.CensusQuery(np.int64(5), limit=np.int64(2))
    assert (q.order, q.limit) == (5, 2)
    assert type(q.order) is int and type(q.limit) is int
    # the report of a numpy order renders, as the same bytes as an int's
    for args in ((4,), (4, "all", 2)):
        plain = cli.render_report(cli.cmd_census(*args)[1])
        numpy_args = [np.int64(a) if isinstance(a, int) else a for a in args]
        assert cli.render_report(cli.cmd_census(*numpy_args)[1]) == plain


def test_enumerated_loops_are_verified_objects():
    for G in census.enumerate_loops(4):
        assert isinstance(G, core.FiniteLoop)
        assert int(G.table[0, 1]) == 1  # reduced: identity first
        tbl = np.asarray(G.table)
        assert sorted(tbl[:, 0].tolist()) == list(range(4))


# --- batched classification against the per-loop path -----------------------

def _per_loop_verdicts(G):
    """Each filter's verdict from verify_loop's loop and its analysis."""
    a = G.analysis
    return {
        "all": True,
        "fan-only": a.is_fan_loop,
        "non-fan": not a.is_fan_loop,
        "central-fan": a.is_central_fan_loop,
        "nontrivial-two-sided-inverse-split":
            any(G.ldiv[x, 0] != G.rdiv[0, x] for x in G.elements()),
    }


def _snapshot(G):
    return (G.labels, G.table.tobytes(), G.ldiv.tobytes(), G.rdiv.tobytes())


@pytest.mark.parametrize("order", [5, 6])
def test_batch_masks_and_loops_match_verify_loop(order):
    want = {name: [] for name in census.FILTERS}
    tables = []
    for table in census.iter_reduced_latin(order):
        G = core.verify_loop(table, identity=0)
        tables.append(_snapshot(G))
        for name, verdict in _per_loop_verdicts(G).items():
            want[name].append(verdict)
    got = {name: [] for name in census.FILTERS}
    for batch, ldiv, rdiv, masks in census._batches(order):
        for name in census.FILTERS:
            got[name].extend(masks[name].tolist())
    assert got == want
    emitted = list(census.enumerate_loops(order))
    assert [_snapshot(G) for G in emitted] == tables
    _check_emitted_views(order, "all", emitted)


def _check_emitted_views(order, filter, emitted):
    """Each emitted loop's table, ldiv and rdiv are read-only, C-contiguous
    int16 row views, and their base holds exactly the squares that their
    batch emits (a copy, never the batch), so a kept loop pins no more."""
    loops = iter(emitted)
    for batch, ldiv, rdiv, masks in census._batches(order, (filter,)):
        keep = np.flatnonzero(masks[filter])
        group = list(itertools.islice(loops, len(keep)))
        assert len(group) == len(keep)
        for name, whole in (("table", batch), ("ldiv", ldiv), ("rdiv", rdiv)):
            arrs = [getattr(G, name) for G in group]
            if not arrs:
                continue
            base = arrs[0].base
            assert base.flags.owndata and not base.flags.writeable
            assert base.shape == (len(keep), order, order)
            assert np.array_equal(base, whole[keep])
            for i, arr in enumerate(arrs):
                assert arr.base is base
                assert (arr.__array_interface__["data"]
                        == base[i].__array_interface__["data"])
                assert arr.dtype == np.int16 and arr.shape == (order, order)
                assert arr.flags.c_contiguous and not arr.flags.writeable
    assert next(loops, None) is None


@pytest.mark.parametrize("order, filter", [(6, "fan-only"), (6, "non-fan")])
def test_emitted_loops_pin_only_their_batchs_emitted_squares(order, filter):
    # fan-only keeps few squares of a batch (300 of 9,408 at order 6),
    # and some batches none
    emitted = list(census.enumerate_loops(census.CensusQuery(order, filter)))
    _check_emitted_views(order, filter, emitted)


def test_summary_order6_frozen():
    assert census.summary(6) == {
        "all": 9408,
        "fan-only": 300,
        "non-fan": 9108,
        "central-fan": 240,
        "nontrivial-two-sided-inverse-split": 7600,
    }


@pytest.mark.parametrize("filter", ["all", "non-fan"])
def test_limit_prefix_across_batch_edges(filter):
    full = [G.table.tobytes()
            for G in census.enumerate_loops(census.CensusQuery(6, filter))]
    assert len(full) > 2 * census._BATCH
    for limit in (1, 255, 256, 257):
        query = census.CensusQuery(6, filter, limit=limit)
        assert ([G.table.tobytes() for G in census.enumerate_loops(query)]
                == full[:limit])


@pytest.mark.parametrize("filter, tensors", [
    ("all", False), ("nontrivial-two-sided-inverse-split", False),
    ("non-fan", True), ("central-fan", True)])
def test_only_the_tensor_filters_build_tensors(filter, tensors, monkeypatch):
    # the filters that read associators stream them from assoc_slabs
    calls = []
    build = _kernels.assoc_slabs
    monkeypatch.setattr(_kernels, "assoc_slabs",
                        lambda *args: calls.append(1) or build(*args))
    emitted = sum(1 for _ in census.enumerate_loops(
        census.CensusQuery(5, filter)))
    assert bool(calls) == tensors
    assert emitted == census.summary(5)[filter]


# --- the nucleus screen -------------------------------------------------------

def _prefix7():
    """(batch, ldiv, rdiv) of the first 100 batches of order 7, which hold
    no square with a nontrivial nucleus."""
    return [b[:3] for b in itertools.islice(census._batches(7, ("all",)), 100)]


def _batches_of(order):
    return [b[:3] for b in census._batches(order, ("all",))]


def _tensor_masks_differ(batches):
    """Whether _filter_masks differs, on some batch, from the verdicts of
    the whole-tensor masks of the whole batch, with no screen."""
    for batch, ldiv, rdiv in batches:
        got = census._filter_masks(batch, ldiv, rdiv, census.FILTERS)
        m = test_kernels.masks(batch, rdiv,
                               *_kernels.assoc_tensors(batch, ldiv, rdiv))
        want = {"fan-only": m.is_fan, "non-fan": ~m.is_fan,
                "central-fan": m.is_fan & m.central_pairs.all(axis=(-2, -1))}
        if any(not np.array_equal(got[name], want[name]) for name in want):
            return True
    return False


@pytest.fixture(scope="module")
def screen_batches():
    """Every batch of orders 1-4, and the order-7 prefix."""
    return [b for n in range(1, 5) for b in _batches_of(n)] + _prefix7()


def test_screened_masks_match_the_unscreened_masks(screen_batches):
    # orders 5 and 6 are compared with verify_loop's analysis by
    # test_batch_masks_and_loops_match_verify_loop
    assert not _tensor_masks_differ(screen_batches)


def test_a_screen_that_drops_nucleus_elements_is_caught(screen_batches,
                                                        monkeypatch):
    # negative control: a screen that rejects every a calls every square
    # of orders 2-4, all of them groups, non-fan
    monkeypatch.setattr(_kernels, "nucleus_screen",
                        lambda table: np.zeros(table.shape[:-1], bool))
    assert _tensor_masks_differ(screen_batches)


def test_only_the_screened_squares_reach_the_tensors(monkeypatch):
    sent = []
    build = _kernels.assoc_slabs
    monkeypatch.setattr(_kernels, "assoc_slabs",
                        lambda table, *args: sent.append(table.copy())
                        or build(table, *args))

    def classify(batches):
        sent.clear()
        for batch, ldiv, rdiv in batches:
            census._filter_masks(batch, ldiv, rdiv, ("fan-only",))

    batches = _batches_of(6)
    squares = np.concatenate([b for b, *_ in batches])
    kept = _kernels.nucleus_screen(squares)[:, 1:].any(axis=-1)
    classify(batches)
    assert np.array_equal(np.concatenate(sent), squares[kept])
    assert len(squares) == 9408 and 300 <= kept.sum() < 1100
    classify(_prefix7())
    assert not sent


@pytest.mark.parametrize("slab", [1 << 14, 8])
def test_streamed_masks_match_the_tensor_masks(slab, monkeypatch):
    # every batch of orders 1-6 with no screen; N_m and N_r are narrowed
    # slab by slab, so a pass that kept only the last slab's shows where a
    # batch takes several: six at order 6 with the default SLAB, one per
    # row at 8
    monkeypatch.setattr(_kernels, "SLAB", slab)
    most = 0
    for n in range(1, 7):
        for batch, ldiv, rdiv in _batches_of(n):
            t, p = _kernels.assoc_tensors(batch, ldiv, rdiv)
            want = (*_kernels.nucleus_masks(t),
                    _kernels.value_mask(t) | _kernels.value_mask(p))
            got = census._nucleus_and_values(batch, ldiv, rdiv)
            assert len(got) == len(want)
            for part, oracle in zip(got, want):
                assert np.array_equal(part, oracle)
            most = max(most, len(_kernels.slabs(n, len(batch) * n * n)))
    assert most == 6


def test_batches_are_full_across_stack_edges():
    # the enumerator's stacks of (n-1)-row rectangles end every 1,700 or so
    # squares at order 6 and every 300 or so at order 7; only the last
    # batch of a sweep may be short
    full, rest = divmod(9408, census._BATCH)
    assert ([len(batch) for batch, *_ in census._batches(6)]
            == [census._BATCH] * full + [rest])
    prefix = itertools.islice(census._batches(7), 100)
    assert {len(batch) for batch, *_ in prefix} == {census._BATCH}


def _traced_peak_mb(run):
    """Peak memory traced while run() runs, in MB, above what was traced
    when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()


def test_enumeration_memory_is_bounded():
    # Measured 1.5 MB for summary(6) and 3.3 MB for 2e5 squares of order 7;
    # the bounds allow two thirds more.  Without the enumerator's bound on
    # the pairs tested per step, summary(6) peaks at 3.5 MB, and order 7
    # asks for 3 GB in one step, so the order-6 check comes first.
    assert _traced_peak_mb(lambda: census.summary(6)) < 2.5
    squares = itertools.islice(census.iter_reduced_latin(7), 2 * 10**5)
    assert _traced_peak_mb(lambda: sum(1 for _ in squares)) < 5.5


def test_a_pass_that_misses_squares_is_refused(monkeypatch):
    # an enumerator that loses its last batch fails every pass that runs
    # to the end; a pass that a limit stops early checks nothing
    squares = _kernels.reduced_latin_squares

    def short(*args):
        yield from list(squares(*args))[:-1]

    monkeypatch.setattr(_kernels, "reduced_latin_squares", short)
    for full_pass in (lambda: census.summary(6),
                      lambda: list(census.enumerate_loops(6))):
        with pytest.raises(FanLoopCheckFailed, match="census-count") as e:
            full_pass()
        assert e.value.witness == (6, 9408 - 9408 % census._BATCH)
    stopped = census.enumerate_loops(census.CensusQuery(6, limit=1))
    assert len(list(stopped)) == 1


def test_the_reduced_check_refuses_exactly_the_unsorted_squares():
    # oracle: each line sorts to 0..n-1, and row 0 and column 0 are natural
    rng = np.random.default_rng(7)
    batch = next(_kernels.reduced_latin_squares(6, 64))
    natural = np.arange(6)
    refused = 0
    for square in batch:
        for _ in range(20):
            bad = square.copy()
            for _ in range(rng.integers(1, 4)):
                bad[tuple(rng.integers(0, 6, 2))] = rng.integers(-2, 9)
            want = ((np.sort(bad, axis=1) == natural).all()
                    and (np.sort(bad, axis=0) == natural[:, None]).all()
                    and (bad[0] == natural).all()
                    and (bad[:, 0] == natural).all())
            if want:
                census._check_reduced(bad[None])
            else:
                refused += 1
                with pytest.raises((NotLatinSquare, NoIdentity)):
                    census._check_reduced(bad[None])
    assert 0 < refused < 64 * 20


def test_a_non_latin_batch_is_refused():
    batch = np.stack([np.asarray(G.table) for G in census.enumerate_loops(4)])
    census._check_reduced(batch)
    broken = batch.copy()
    broken[2, 1, 1], broken[2, 1, 2] = broken[2, 1, 2], broken[2, 1, 1]
    with pytest.raises(NotLatinSquare):
        census._check_reduced(broken)
    moved = batch[:, [1, 0, 2, 3]]  # Latin, but row 0 is no longer natural
    with pytest.raises(NoIdentity):
        census._check_reduced(moved)
