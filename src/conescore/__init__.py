"""conescore: polyhedral-cone structure and minimal surrogate score design.

Compute cone membership, pointedness, the lineality decomposition, and the
three cone ranks of a generator matrix; use them to design minimal-dimension
linear score functions S(f) = A f satisfying improvement and/or optimality
objectives, with brute-force verification oracles and a JSON CLI.
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
from .linalg import (
    AffineHull,
    Tolerances,
    compute_affine_hull,
    numeric_rank,
    orthonormal_basis,
    project_complement,
)
from .lp import (
    FeasibilityProblem,
    FeasibilityResult,
    SeparatingHyperplane,
    find_strict_separator,
    kernel_name,
    solve_feasibility,
)
from .ranks import (
    RankKind,
    RankResult,
    cone_generating_rank,
    cone_rank,
    cone_ranks,
    cone_subset_rank,
    csr_subspace,
    enclosing_simplex,
)
from .verify import (
    VerificationReport,
    check_cone_equal,
    check_cone_subset,
    check_improvement,
    check_optimality,
    check_restriction,
)

from types import ModuleType as _ModuleType

# every name imported above; the submodules stay attributes of the package
# (conescore.design is the module) but are not part of its API
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
