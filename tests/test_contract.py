"""The argument contract: an element, a count or a rational is read by one
function each (FiniteLoop.element, core.count, lp.rational), and every
entry point that takes one returns its answer or raises ValueError or a
package error.  None wraps an index, truncates a float or reads a bool as
0 or 1."""

import numpy as np
import pytest

from fanloops import catalog, census, core, haar, lp, products
from fanloops.errors import FanloopsError

BAD = (1.5, -1, 99, True, "zz", None, np.float64(1.0), b"1")

# name -> (call of (G, x) with G = Q8, the values of BAD it refuses); a
# value left out is a valid argument there (99 as an order, -1 as a
# rational) or means the default (None as a limit or an identity)
ENTRIES = {
    "element": (lambda G, x: G.element(x), BAD),
    "label": (lambda G, x: G.label(x), BAD),
    "LoopFunction.__call__": (lambda G, x: haar.delta(G)(x), BAD),
    "t": (lambda G, x: G.t(x, 0, 0), BAD),
    "p": (lambda G, x: G.p(0, 0, x), BAD),
    "subset": (lambda G, x: G.subset([x]), BAD),
    "delta": (lambda G, x: haar.delta(G, x), BAD),
    "translate": (lambda G, x: haar.translate(haar.delta(G), x), BAD),
    "verify_loop identity": (
        lambda G, x: core.verify_loop(G.table, identity=x),
        (1.5, -1, 99, True, "zz", np.float64(1.0), b"1")),
    "cyclic": (lambda G, x: catalog.cyclic(x),
               (1.5, -1, True, "zz", None, np.float64(1.0), b"1")),
    "dihedral": (lambda G, x: catalog.dihedral(x),
                 (1.5, -1, True, "zz", None, np.float64(1.0), b"1")),
    "cayley_dickson k": (lambda G, x: products.cayley_dickson_basis_loop(x),
                         BAD),
    "census order": (lambda G, x: census.CensusQuery(x), BAD),
    "census limit": (lambda G, x: census.CensusQuery(5, limit=x),
                     (1.5, -1, True, "zz", np.float64(1.0), b"1")),
    "count_reduced": (lambda G, x: census.count_reduced(x), BAD),
    "verify_uniqueness trials": (
        lambda G, x: haar.verify_uniqueness(
            G, haar.constant(G), haar.constant(G, 2), trials=x),
        (1.5, -1, True, "zz", None, np.float64(1.0), b"1")),
    "rational": (lambda G, x: lp.rational(x),
                 (1.5, True, "zz", None, np.float64(1.0), b"1")),
    "constant": (lambda G, x: haar.constant(G, x),
                 (1.5, -1, True, "zz", None, np.float64(1.0), b"1")),
    "LoopFunction": (lambda G, x: haar.LoopFunction(G, [x] * G.order),
                     (1.5, -1, True, "zz", None, np.float64(1.0), b"1")),
    "scale": (lambda G, x: haar.delta(G).scale(x),
              (1.5, -1, True, "zz", None, np.float64(1.0), b"1")),
}

CASES = [pytest.param(name, x, id=f"{name}-{x!r}")
         for name, (_, values) in ENTRIES.items() for x in values]


@pytest.mark.parametrize("name, x", CASES)
def test_a_bad_argument_is_refused(q8, name, x):
    call, _ = ENTRIES[name]
    with pytest.raises((ValueError, FanloopsError)):
        call(q8, x)


def test_a_cayley_dickson_k_below_1_is_refused_by_name():
    # not as the order 2 it implies (test_cd_cap covers k past the cap)
    with pytest.raises(ValueError, match="^k must be at least 1, got 0$"):
        products.cayley_dickson_basis_loop(0)
