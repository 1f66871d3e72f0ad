"""The package's public names, pinned: an API change must edit this list."""

import sys

import conescore
import conescore.cli  # noqa: F401  (cli is the one submodule not imported by the package)

PUBLIC = [
    "AffineHull",
    "ConeDecomposition",
    "ConescoreError",
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
    "Tolerances",
    "VerificationError",
    "VerificationReport",
    "check_cone_subset",
    "check_improvement",
    "check_optimality",
    "check_restriction",
    "cone_ranks",
    "decompose",
    "design_score",
    "is_in_cone",
    "is_pointed",
    "kernel_name",
    "pareto_front",
]

# internal helpers: attributes of their modules only.  Their names have no
# leading underscore, because perfbench/tracer.py times exactly the
# module-level functions named so
INTERNAL = {
    "FeasibilityResult": "lp",
    "SeparatingHyperplane": "lp",
    "solve_feasibility": "lp",
    "pivot_loop": "lp",
    "find_strict_separator": "lp",
    "compute_affine_hull": "linalg",
    "numeric_rank": "linalg",
    "orthonormal_basis": "linalg",
    "project_complement": "linalg",
    "csr_subspace": "ranks",
    "enclosing_simplex": "ranks",
}

# attributes of the package, but not in __all__
SUBMODULES = ["linalg", "lp", "cone", "ranks", "design", "verify", "cli"]


def test_all_is_the_public_api():
    assert conescore.__all__ == PUBLIC


def test_submodules_are_not_shadowed():
    # a public function named like a submodule would replace it as the
    # package attribute, and `import conescore.design as m` would give it
    for name in SUBMODULES:
        assert getattr(conescore, name) is sys.modules[f"conescore.{name}"], name


def test_internal_helpers_stay_internal():
    for name, module in INTERNAL.items():
        assert not hasattr(conescore, name), name
        mod = sys.modules[f"conescore.{module}"]
        assert name in vars(mod) and name not in mod.__all__, name
    # solve_feasibility takes M and target directly
    assert not hasattr(conescore, "FeasibilityProblem")
    assert not hasattr(conescore.lp, "FeasibilityProblem")
