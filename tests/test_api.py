"""The package's public names, pinned: an API change must edit this list."""

import sys

import conescore
import conescore.cli  # noqa: F401  (cli is the one submodule not imported by the package)

PUBLIC = [
    "AffineHull",
    "ConeDecomposition",
    "ConescoreError",
    "FeasibilityProblem",
    "FeasibilityResult",
    "GeneratorSet",
    "InputError",
    "MetricSpace",
    "NotPointedError",
    "Objective",
    "RankKind",
    "RankResult",
    "ResourceCapError",
    "Restriction",
    "ScoreDesign",
    "SeparatingHyperplane",
    "Tolerances",
    "VerificationError",
    "VerificationReport",
    "check_cone_equal",
    "check_cone_subset",
    "check_improvement",
    "check_optimality",
    "check_restriction",
    "compute_affine_hull",
    "cone_generating_rank",
    "cone_rank",
    "cone_ranks",
    "cone_subset_rank",
    "csr_subspace",
    "decompose",
    "design_score",
    "enclosing_simplex",
    "find_strict_separator",
    "is_in_cone",
    "is_pointed",
    "kernel_name",
    "numeric_rank",
    "orthonormal_basis",
    "pareto_front",
    "project_complement",
    "solve_feasibility",
]

# attributes of the package, but not in __all__
SUBMODULES = ["linalg", "lp", "cone", "ranks", "design", "verify", "cli"]


def test_all_is_the_public_api():
    assert conescore.__all__ == PUBLIC


def test_submodules_are_not_shadowed():
    # a public function named like a submodule would replace it as the
    # package attribute, and `import conescore.design as m` would give it
    for name in SUBMODULES:
        assert getattr(conescore, name) is sys.modules[f"conescore.{name}"], name
