"""fanloops: a workbench for finite fan loops.

Construct and verify finite loops, test the fan condition (all associators
in the nucleus), check the identity catalog, form quotients and smashed
products, and realize the left-invariant-measure construction exactly via
rational linear programming.
"""

__version__ = "0.1.0"

from . import catalog, census, cli, core, haar, laws, lp, products, quotient
from .core import (
    ElementSet,
    FiniteLoop,
    LoopAnalysis,
    p_hull,
    subgroup_closure,
    verify_loop,
)
from .errors import (
    AxiomError,
    FanloopsError,
    FanLoopCheckFailed,
    InvalidOrderCap,
    NoIdentity,
    NotASubloop,
    NotFanLoop,
    NotLatinSquare,
    NotNormal,
    OrderCapExceeded,
    ParseError,
    ReferenceNotInUpsilon,
    SizeCapExceeded,
    ValidationFailed,
    WellDefinednessFailure,
)
from .census import CensusQuery, enumerate_loops, find_witness
from .haar import (
    HaarFunctional,
    InvariantMeasure,
    LoopFunction,
    covering_number,
    fan_average,
    haar_limit,
    invariant_measure,
    ratio_functional,
    translate,
    upsilon_member,
    verify_uniqueness,
)
from .laws import LawReport, check_all, check_law, law_ids
from .products import (
    SmashingData,
    cayley_dickson_basis_loop,
    direct_product,
    smashed_product,
    validate_smashing,
)
# the quotient *operation* stays namespaced (fanloops.quotient.quotient)
# so the submodule name is not shadowed at package level
from .quotient import CosetDecomposition, coset_decomposition, is_normal_subloop
from . import quotient  # noqa: F811 - re-bind the submodule last

__all__ = [name for name in dir() if not name.startswith("_")]
