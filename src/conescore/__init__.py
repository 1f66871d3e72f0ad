"""conescore: polyhedral-cone structure and minimal surrogate score design.

Compute cone membership, pointedness, the lineality decomposition, and any
of the three cone ranks of a generator matrix (``cone_ranks``, one entry for
every ``RankKind``); use them to design minimal-dimension linear score
functions S(f) = A f satisfying improvement and/or optimality objectives,
with brute-force verification oracles (``check_cone_subset`` for cone
containment) and a JSON CLI.

Outside input enters only through the objects exported here, and each is
validated once, when it is built.
"""

__version__ = "0.1.0"

from .cone import (
    ConeDecomposition,
    GeneratorSet,
    decompose,
    is_in_cone,
    is_pointed,
)
from .design import (
    MetricSpace,
    Objective,
    Restriction,
    ScoreDesign,
    design_score,
    pareto_front,
)
from .errors import (
    ConescoreError,
    InputError,
    NotPointedError,
    ResourceCapError,
    VerificationError,
)
from .linalg import AffineHull, Tolerances
from .lp import kernel_name
from .ranks import (
    RankKind,
    RankResult,
    cone_ranks,
)
from .verify import (
    VerificationReport,
    check_cone_subset,
    check_improvement,
    check_optimality,
    check_restriction,
)

from types import ModuleType as _ModuleType

# every name imported above; the submodules stay attributes of the package
# (conescore.design is the module) but are not part of its API.  Their
# internal helpers, such as lp.solve_feasibility, lp.pivot_loop or
# linalg.numeric_rank, keep names without a leading underscore all the same:
# perfbench/tracer.py times exactly the module-level functions named so,
# wraps lp.pivot_loop as its simplex layer, and checks that every lp.phase1
# call came through a traced lp.solve_feasibility.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
