"""Exhaustive census of small loops via reduced Latin squares.

Reduced form (first row and column in natural order) is the enumeration
unit; every reduced square of order n is a loop table with identity 0.
Filters classify each table through core.classify, which makes the census
a corpus feeder for fan/non-fan examples — including loops where the left
and right inverses split (e/a != a\\e for some a).
"""

from dataclasses import dataclass

from . import core
from ._kernels import count_reduced_latin, iter_reduced_latin
from .config import CENSUS_ORDER_CAP
from .errors import OrderCapExceeded, UnknownPredicate


def _inverse_split(G):
    """True when e/a != a\\e for some a but the loop is otherwise
    unremarkable about it — i.e. the split is witnessed."""
    return bool((G.ldiv[:, 0] != G.rdiv[0, :]).any())


# filter name -> predicate on a verified loop
_FILTERS = {
    "all": lambda G: True,
    "fan-only": lambda G: G.analysis.is_fan_loop,
    "non-fan": lambda G: not G.analysis.is_fan_loop,
    "central-fan": lambda G: G.analysis.is_central_fan_loop,
    "nontrivial-two-sided-inverse-split": _inverse_split,
}
FILTERS = tuple(_FILTERS)


@dataclass(frozen=True)
class CensusQuery:
    order: int
    filter: str = "all"
    limit: int | None = None

    def __post_init__(self):
        if self.filter not in FILTERS:
            raise UnknownPredicate(self.filter, FILTERS)
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"limit must be at least 0, got {self.limit}")


def enumerate_loops(query):
    """Stream the reduced Latin squares of query.order as verified loops,
    lexicographic by table rows, filtered; duplicate-free and
    deterministic (same query twice gives the identical stream)."""
    if isinstance(query, int):
        query = CensusQuery(order=query)
    if query.order > CENSUS_ORDER_CAP:
        raise OrderCapExceeded(query.order, CENSUS_ORDER_CAP)
    if query.order < 1 or query.limit == 0:
        return
    keep = _FILTERS[query.filter]
    emitted = 0
    for table in iter_reduced_latin(query.order):
        G = core.verify_loop(table, identity=0)
        if not keep(G):
            continue
        yield G
        emitted += 1
        if query.limit is not None and emitted >= query.limit:
            return


# documented alias; enumerate_loops avoids shadowing the builtin internally
enumerate = enumerate_loops

PREDICATES = {
    "non-fan": "non-fan",
    "fan-only": "fan-only",
    "central-fan": "central-fan",
    "inverse-split": "nontrivial-two-sided-inverse-split",
    "nontrivial-two-sided-inverse-split":
        "nontrivial-two-sided-inverse-split",
}


def count_reduced(order):
    """Total number of reduced Latin squares at this order (no filter)."""
    if order > CENSUS_ORDER_CAP:
        raise OrderCapExceeded(order, CENSUS_ORDER_CAP)
    return count_reduced_latin(order)


def find_witness(order, predicate):
    """First loop (in enumeration order) satisfying the named predicate,
    or None when the exhaustive sweep finds nothing at this order."""
    if predicate not in PREDICATES:
        raise UnknownPredicate(predicate, tuple(sorted(PREDICATES)))
    query = CensusQuery(order=order, filter=PREDICATES[predicate], limit=1)
    for G in enumerate_loops(query):
        return G
    return None


def summary(order):
    """Counts per filter at the given order, from one enumeration pass."""
    counts = dict.fromkeys(FILTERS, 0)
    for G in enumerate_loops(CensusQuery(order=order)):
        for name, keep in _FILTERS.items():
            counts[name] += bool(keep(G))
    return counts
