"""Exhaustive census of small loops via reduced Latin squares.

Reduced form (first row and column in natural order) is the enumeration
unit; every reduced square of order n is a loop table with identity 0.
The squares are classified in fixed batches, stacked as one (k, n, n)
array through the batched classifier `masks`, which reads whole
associator tensors (core's per-loop analysis reads none), so each filter
is one mask over the batch and a FiniteLoop is built only for the squares
emitted, on row views of one copy per batch of those squares.  The n^3
associator tensors are built only for the squares where some a != e
passes the O(n^2) nucleus screen, the only squares that can be fan
(1,032 of 9,408 at order 6, none of the first 131,072 at order 7).  The
number of reduced squares of each order is known (OEIS A000315), and every
pass that runs to the end checks that the enumerator yielded exactly that
many.  The census is a corpus feeder for fan/non-fan examples —
including loops where the left and right inverses split (e/a != a\\e for
some a).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels, core
from .config import CENSUS_ORDER_CAP, check_order
from .errors import FanLoopCheckFailed, UnknownPredicate

# Squares classified per batch.  Large enough that the per-call overhead of
# the kernels is spread thin, small enough that a batch's tensors stay a
# few hundred kB.
_BATCH = 256

FILTERS = ("all", "fan-only", "non-fan", "central-fan",
           "nontrivial-two-sided-inverse-split")


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
    and associator tensors: the batched classifier of the census, which
    reads whole tensors where core's per-loop analysis reads none."""
    nl, nm, nr = _kernels.nucleus_masks(t)
    nuc = nl & nm & nr
    com = (table == table.swapaxes(-1, -2)).all(axis=-1)
    z = com & nuc
    t_range, p_range = _kernels.value_mask(t), _kernels.value_mask(p)
    # fan: every associator value lies in the nucleus
    is_fan = ~((t_range | p_range) & ~nuc).any(axis=-1)
    return Masks(nl, nm, nr, nuc, com, z, t_range, p_range, is_fan,
                 _kernels.central_mask(table, rdiv, z))


def _filter_masks(batch, ldiv, rdiv, names):
    """Filter name -> boolean mask over a (k, n, n) stack of loop tables,
    for at least ``names``: no tensor is built when none of them reads one.

    The tensors are built only for the squares that can be fan.  A fan
    loop's associators lie in its nucleus N, so with N = {e} it would be
    a group, whose nucleus is the whole loop: at order n >= 2 every fan
    square has a nucleus element a != e, and every nucleus element passes
    _kernels.nucleus_screen.  A square where no a != e passes is non-fan,
    and so not central-fan."""
    out = {
        "all": np.ones(len(batch), dtype=bool),
        # e/a != a\e for some a: the split is witnessed
        "nontrivial-two-sided-inverse-split":
            (ldiv[..., 0] != rdiv[..., 0, :]).any(axis=-1),
    }
    if not out.keys() >= set(names):
        is_fan = np.zeros(len(batch), dtype=bool)
        central = np.zeros(len(batch), dtype=bool)
        # at order 1 there is no a != e: its one square is a group
        keep = (_kernels.nucleus_screen(batch)[:, 1:].any(axis=-1)
                | (batch.shape[-1] == 1))
        if keep.any():
            sub, sub_l, sub_r = batch[keep], ldiv[keep], rdiv[keep]
            m = masks(sub, sub_r, *_kernels.assoc_tensors(sub, sub_l, sub_r))
            is_fan[keep] = m.is_fan
            central[keep] = m.is_fan & m.central_pairs.all(axis=(-2, -1))
        out.update({"fan-only": is_fan, "non-fan": ~is_fan,
                      "central-fan": central})
    return out


def _check_reduced(batch):
    """Re-check the enumerator's guarantee on a batch: every line is a
    permutation of 0..n-1, and row 0 and column 0 are natural (identity 0).
    With every entry in 0..n-1, a line is a permutation iff its n powers
    2^v sum to 2^n - 1: that sum has n one-bits, so n powers of two reach
    it only without a carry, that is with no value twice.  The first square
    that fails goes to core.verify_loop, which raises the typed error with
    its witness."""
    n = batch.shape[-1]
    natural = np.arange(n)
    bits = 1 << batch  # garbage outside 0..n-1, where the range test fails
    ok = (((batch >= 0) & (batch < n)).all(axis=(-2, -1))
          & (bits.sum(axis=-1) == (1 << n) - 1).all(axis=-1)
          & (bits.sum(axis=-2) == (1 << n) - 1).all(axis=-1)
          & (batch[:, 0, :] == natural).all(axis=-1)
          & (batch[:, :, 0] == natural).all(axis=-1))
    bad = _kernels.first(~ok)
    if bad is not None:
        core.verify_loop(batch[bad], identity=0)
        raise AssertionError(f"square {bad} of the batch is not reduced")


def _check_order(order):
    """order as core.count reads it, at least 1; above the census cap it is
    refused with OrderCapExceeded."""
    order = core.count(order, "order", 1)
    check_order(order, CENSUS_ORDER_CAP)
    return order


def _batches(order, names=FILTERS):
    """(batch, ldiv, rdiv, masks of ``names``) for the reduced squares of
    this order in stream order, _BATCH squares at a time.  A pass that runs
    to the end checks that it saw count_reduced(order) squares."""
    order = _check_order(order)
    visited = 0
    for batch in _kernels.reduced_latin_squares(order, _BATCH):
        _check_reduced(batch)
        visited += len(batch)
        ldiv, rdiv = _kernels.division_tables(batch)
        yield batch, ldiv, rdiv, _filter_masks(batch, ldiv, rdiv, names)
    if visited != count_reduced(order):
        raise FanLoopCheckFailed("census-count", (order, visited))


def iter_reduced_latin(order):
    """The census's squares of this order one at a time, in stream order."""
    order = _check_order(order)
    for batch in _kernels.reduced_latin_squares(order, _BATCH):
        yield from batch


@dataclass(frozen=True)
class CensusQuery:
    order: int
    filter: str = "all"
    limit: int | None = None

    def __post_init__(self):
        if self.filter not in FILTERS:
            raise UnknownPredicate(self.filter, FILTERS)
        object.__setattr__(self, "order", _check_order(self.order))
        if self.limit is not None:
            object.__setattr__(self, "limit", core.count(self.limit, "limit"))


def enumerate_loops(query):
    """Stream the reduced Latin squares of query.order as verified loops,
    lexicographic by table rows, filtered; duplicate-free and
    deterministic (same query twice gives the identical stream)."""
    q = query if isinstance(query, CensusQuery) else CensusQuery(order=query)
    if q.limit == 0:
        return
    labels = tuple(core.default_labels(q.order))
    emitted = 0
    for batch, ldiv, rdiv, masks in _batches(q.order, (q.filter,)):
        # one copy of the emitted squares, so a kept loop pins those alone
        # and never the whole batch; each loop is built on row views of it
        keep = np.flatnonzero(masks[q.filter])
        tables, ls, rs = batch[keep], ldiv[keep], rdiv[keep]
        for arr in (tables, ls, rs):
            arr.setflags(write=False)
        for table, ld, rd in zip(tables, ls, rs):
            yield core.FiniteLoop(labels, table, ld, rd)
            emitted += 1
            if emitted == q.limit:
                return


# OEIS A000315: the number of reduced Latin squares of order 1, 2, ...
_REDUCED = (1, 1, 1, 4, 56, 9408, 16942080)


def count_reduced(order):
    """Total number of reduced Latin squares at this order (no filter)."""
    return _REDUCED[_check_order(order) - 1]


def find_witness(order, filter):
    """First loop (in enumeration order) that passes the named filter, or
    None when the exhaustive sweep finds nothing at this order."""
    return next(enumerate_loops(CensusQuery(order, filter, limit=1)), None)


def summary(order):
    """Counts per filter at the given order, from one pass over the batch
    masks; no loop is built."""
    counts = dict.fromkeys(FILTERS, 0)
    for *_, masks in _batches(order):
        for name in FILTERS:
            counts[name] += int(masks[name].sum())
    return counts
