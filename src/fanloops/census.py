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

FILTERS = (
    "all",
    "fan-only",
    "non-fan",
    "central-fan",
    "nontrivial-two-sided-inverse-split",
)


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


def _inverse_split(G):
    """True when e/a != a\\e for some a but the loop is otherwise
    unremarkable about it — i.e. the split is witnessed."""
    return bool((G.ldiv[:, 0] != G.rdiv[0, :]).any())


def _passes(G, name):
    if name == "all":
        return True
    ana = G.analysis
    if name == "fan-only":
        return ana.is_fan_loop
    if name == "non-fan":
        return not ana.is_fan_loop
    if name == "central-fan":
        return ana.is_central_fan_loop
    if name == "nontrivial-two-sided-inverse-split":
        return _inverse_split(G)
    raise UnknownPredicate(name, FILTERS)  # pragma: no cover - query checks


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
    emitted = 0
    for table in iter_reduced_latin(query.order):
        G = core.verify_loop(table, identity=0)
        if not _passes(G, query.filter):
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
    """Counts per filter at the given order (one enumeration pass each
    for the classified filters; 'all' reuses the total)."""
    counts = {name: 0 for name in FILTERS}
    for G in enumerate_loops(CensusQuery(order=order)):
        counts["all"] += 1
        ana = G.analysis
        if ana.is_fan_loop:
            counts["fan-only"] += 1
        else:
            counts["non-fan"] += 1
        if ana.is_central_fan_loop:
            counts["central-fan"] += 1
        if _inverse_split(G):
            counts["nontrivial-two-sided-inverse-split"] += 1
    return counts
