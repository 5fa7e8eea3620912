"""Runtime knobs: size caps and seeds.

Environment variables:
    FANLOOP_CAP      -- overrides the default analysis order cap (same as --cap).
"""

import os

from .errors import OrderCapExceeded

DEFAULT_ORDER_CAP = 256
CENSUS_ORDER_CAP = 7
CAYLEY_DICKSON_CAP = 5
DEFAULT_SEED = 12345

# Above this order, FiniteLoop.assoc_tensors() refuses to cache by default
# (the caller can still force it); below it the n^3 tensors are kept.
TENSOR_CACHE_DEFAULT_LIMIT = 64

# Simplex tableau entries past this many bits (numerator plus denominator)
# trigger a BitGrowthWarning; growth itself is allowed.
LP_BIT_ALARM = 4096

# Tables hold element indices as int16, so a larger order would wrap.
_INT16_MAX = 32767


def order_cap(explicit=None):
    """Resolve the analysis order cap: explicit argument > env > default.

    A cap above the int16 index width raises OrderCapExceeded.
    """
    if explicit is not None:
        cap = int(explicit)
    else:
        env = os.environ.get("FANLOOP_CAP")
        cap = int(env) if env is not None and env.strip() else DEFAULT_ORDER_CAP
    if cap > _INT16_MAX:
        raise OrderCapExceeded(cap, _INT16_MAX)
    return cap
