"""Exhaustive census of small loops via reduced Latin squares.

Reduced form (first row and column in natural order) is the enumeration
unit; every reduced square of order n is a loop table with identity 0.
The squares are classified in fixed batches, stacked as one (k, n, n)
array through the same kernels as core's per-loop analysis, so each
filter is one mask over the batch and a FiniteLoop is built only for the
squares emitted.  The census is a corpus feeder for fan/non-fan examples
— including loops where the left and right inverses split (e/a != a\\e
for some a).
"""

import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels, core
from .config import CENSUS_ORDER_CAP
from .errors import OrderCapExceeded, UnknownPredicate

# Squares classified per batch.  Large enough that the per-call overhead of
# the kernels is spread thin, small enough that a batch's tensors stay a
# few hundred kB.
_BATCH = 256

FILTERS = ("all", "fan-only", "non-fan", "central-fan",
           "nontrivial-two-sided-inverse-split")


def _filter_masks(batch, ldiv, rdiv, names):
    """Filter name -> boolean mask over a (k, n, n) stack of loop tables,
    for at least ``names``: no tensor is built when none of them reads one."""
    masks = {
        "all": np.ones(len(batch), dtype=bool),
        # e/a != a\e for some a: the split is witnessed
        "nontrivial-two-sided-inverse-split":
            (ldiv[..., 0] != rdiv[..., 0, :]).any(axis=-1),
    }
    if not masks.keys() >= set(names):
        m = core.masks(batch, rdiv, *_kernels.assoc_tensors(batch, ldiv, rdiv))
        masks.update({
            "fan-only": m.is_fan,
            "non-fan": ~m.is_fan,
            "central-fan": m.is_fan & m.central_pairs.all(axis=(-2, -1)),
        })
    return masks


def _check_reduced(batch):
    """Re-check the enumerator's guarantee on a batch: every line is a
    permutation of 0..n-1, and row 0 and column 0 are natural (identity 0).
    The first square that fails goes to core.verify_loop, which raises the
    typed error with its witness."""
    natural = np.arange(batch.shape[-1])
    ok = ((np.sort(batch, axis=-1) == natural).all(axis=(-2, -1))
          & (np.sort(batch, axis=-2) == natural[:, None]).all(axis=(-2, -1))
          & (batch[:, 0, :] == natural).all(axis=-1)
          & (batch[:, :, 0] == natural).all(axis=-1))
    bad = _kernels.first(~ok)
    if bad is not None:
        core.verify_loop(batch[bad], identity=0)
        raise AssertionError(f"square {bad} of the batch is not reduced")


def _check_integer(name, value):
    """Refuse a value that is not an integer; a bool is refused too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_order(order):
    """Refuse an order that is not an integer, below 1 or above the census
    cap."""
    _check_integer("order", order)
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if order > CENSUS_ORDER_CAP:
        raise OrderCapExceeded(order, CENSUS_ORDER_CAP)


def _batches(order, names=FILTERS):
    """(batch, ldiv, rdiv, masks of ``names``) for the reduced squares of
    this order in stream order, _BATCH squares at a time."""
    _check_order(order)
    for batch in _kernels.reduced_latin_squares(order, _BATCH):
        _check_reduced(batch)
        ldiv, rdiv = _kernels.division_tables(batch)
        yield batch, ldiv, rdiv, _filter_masks(batch, ldiv, rdiv, names)


def iter_reduced_latin(order):
    """The census's squares of this order one at a time, in stream order."""
    _check_order(order)
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
        _check_order(self.order)
        if self.limit is not None:
            _check_integer("limit", self.limit)
            if self.limit < 0:
                raise ValueError(f"limit must be at least 0, got {self.limit}")


class Sweep:
    """One pass of a census query.  Iterating yields the loops that pass
    the filter; `total` is the number of reduced squares of the order once
    the pass has classified the last one, and None until then (so also
    when the limit stopped the pass early)."""

    def __init__(self, query):
        self.query = (query if isinstance(query, CensusQuery)
                      else CensusQuery(order=query))
        self.total = None

    def __iter__(self):
        q = self.query
        if q.limit == 0:
            return
        labels = core.default_labels(q.order)
        emitted = visited = 0
        for batch, ldiv, rdiv, masks in _batches(q.order, (q.filter,)):
            visited += len(batch)
            for i in np.flatnonzero(masks[q.filter]):
                # own copies, so the loop does not keep the batch alive
                yield core.FiniteLoop(labels, batch[i].copy(),
                                      ldiv[i].copy(), rdiv[i].copy())
                emitted += 1
                if emitted == q.limit:
                    return
        self.total = visited


def enumerate_loops(query):
    """Stream the reduced Latin squares of query.order as verified loops,
    lexicographic by table rows, filtered; duplicate-free and
    deterministic (same query twice gives the identical stream)."""
    return iter(Sweep(query))


PREDICATES = {
    "non-fan": "non-fan",
    "fan-only": "fan-only",
    "central-fan": "central-fan",
    "inverse-split": "nontrivial-two-sided-inverse-split",
    "nontrivial-two-sided-inverse-split":
        "nontrivial-two-sided-inverse-split",
}


def count_reduced(order):
    """Total number of reduced Latin squares at this order (no filter): one
    per reduced (n-1)-row Latin rectangle, which completes uniquely."""
    _check_order(order)
    return sum(map(len, _kernels.latin_rectangles(order)))


def find_witness(order, predicate):
    """First loop (in enumeration order) satisfying the named predicate,
    or None when the exhaustive sweep finds nothing at this order."""
    if predicate not in PREDICATES:
        raise UnknownPredicate(predicate, tuple(sorted(PREDICATES)))
    query = CensusQuery(order=order, filter=PREDICATES[predicate], limit=1)
    return next(enumerate_loops(query), None)


def summary(order):
    """Counts per filter at the given order, from one pass over the batch
    masks; no loop is built."""
    counts = dict.fromkeys(FILTERS, 0)
    for *_, masks in _batches(order):
        for name in FILTERS:
            counts[name] += int(masks[name].sum())
    return counts
