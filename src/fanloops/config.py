"""Runtime knobs: size caps and seeds.

Environment variables:
    FANLOOP_CAP      -- overrides the default analysis order cap (same as --cap).
"""

import operator
import os

from .errors import InvalidOrderCap, OrderCapExceeded

DEFAULT_ORDER_CAP = 256
CENSUS_ORDER_CAP = 7
CAYLEY_DICKSON_CAP = 5
DEFAULT_SEED = 12345

# Simplex tableau entries past this many bits (numerator plus denominator)
# trigger a BitGrowthWarning; growth itself is allowed.
LP_BIT_ALARM = 4096

# Tables hold element indices as int16, so a larger order would wrap.
_INT16_MAX = 32767


def order_cap(explicit=None):
    """Resolve the analysis order cap: explicit argument > env > default.

    A cap that is not an integer raises InvalidOrderCap, one above the
    int16 index width OrderCapExceeded (InvalidOrderCap's base class).
    """
    raw = explicit if explicit is not None else os.environ.get("FANLOOP_CAP")
    if raw is None or (explicit is None and not raw.strip()):
        return DEFAULT_ORDER_CAP
    try:
        cap = int(raw) if isinstance(raw, str) else operator.index(raw)
    except (TypeError, ValueError):
        raise InvalidOrderCap(raw) from None
    if cap > _INT16_MAX:
        raise OrderCapExceeded(cap, _INT16_MAX)
    return cap


def check_order(n, cap=None, error=OrderCapExceeded):
    """Refuse order n above order_cap(cap) with error(n, cap) before any
    table of that order is built; returns the resolved cap."""
    cap = order_cap(cap)
    if n > cap:
        raise error(n, cap)
    return cap
