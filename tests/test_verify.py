import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conescore.design
from conescore import (
    GeneratorSet,
    InputError,
    MetricSpace,
    Objective,
    RankKind,
    Restriction,
    ScoreDesign,
    check_cone_subset,
    check_improvement,
    check_optimality,
    check_restriction,
    cone_ranks,
    design_score,
    pareto_front,
)
from conescore.design import _BLOCK_CELLS
from conescore.lp import solve_feasibility
from conftest import TOL, fixture_generators, l1_ball_samples, linf_grid, load_fixture


def manual_design(A, samples, restriction=Restriction.RES_L, objective=Objective.BOTH):
    space = MetricSpace.from_samples(samples)
    A = np.atleast_2d(np.asarray(A, float))
    return space, ScoreDesign(
        A=A, restriction=restriction, objective=objective,
        V=A @ space.hull.basis, rank_used=None, minimality_certified=False,
    )


class TestCheckImprovement:
    def test_passes_without_relint_hypothesis(self):
        # a 1-row selection works here even though the hull is 2-dimensional
        doc = load_fixture("improvement_without_relint.json")
        space, design = manual_design(doc["design"]["A"], doc["metrics_samples"])
        rep = check_improvement(design, space.samples)
        assert rep.passed
        assert rep.checked_pairs == 6

    def test_grid_counterexample(self):
        pts = linf_grid(2, 1.0)
        space, design = manual_design([[1.0, 0.0]], pts)
        rep = check_improvement(design, space.samples)
        assert not rep.passed
        # pairs differing only in the dropped coordinate violate the objective
        pairs = {v[0] for v in rep.violations}
        i = pts.tolist().index([0.0, 0.0])
        j = pts.tolist().index([0.0, -1.0])
        assert (i, j) in pairs

    def test_identity_always_passes(self, rng):
        F = rng.standard_normal((25, 3))
        space, design = manual_design(np.eye(3), F)
        assert check_improvement(design, F).passed


class TestCheckOptimality:
    def test_linf_grid_single_coordinate_fails(self):
        pts = linf_grid(2, 0.5)
        space, design = manual_design([[1.0, 0.0]], pts)
        rep = check_optimality(design, pts)
        assert not rep.passed

    def test_identity_passes(self):
        pts = linf_grid(2, 0.5)
        space, design = manual_design(np.eye(2), pts)
        assert check_optimality(design, pts).passed

    def test_l1_ball_single_coordinate_passes(self, rng):
        pts = l1_ball_samples(rng, 2, 60)
        space, design = manual_design([[1.0, 0.0]], pts)
        assert check_optimality(design, pts).passed


@pytest.mark.parametrize("oracle", [check_improvement, check_optimality])
@pytest.mark.parametrize("samples, match", [
    ([[0.0, 0.0], [np.nan, 1.0]], "finite"),
    ([[0.0, 0.0], [1.0]], "not a numeric matrix"),
    ([0.0, 1.0, 2.0], "3 columns"),
    ([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]], "3 columns"),
    (np.zeros((2, 2, 2)), "2-D"),
])
def test_oracles_reject_malformed_samples(oracle, samples, match):
    _, design = manual_design(np.eye(2), [[0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(InputError, match=match):
        oracle(design, samples)


@pytest.mark.parametrize("A, match", [
    ([[np.nan, 1.0]], "design.A: entries must be finite"),
    ([[1.0, 2.0], [3.0]], "design.A: not a numeric matrix"),
    ([[10**400, 1]], "design.A: not a numeric matrix"),
])
def test_score_design_rejects_a_malformed_A(A, match):
    # the oracles read A as a finite 2-D float array, checked once when the
    # design is built
    with pytest.raises(InputError, match=match):
        ScoreDesign(A=A, restriction=Restriction.RES_L, objective=Objective.BOTH,
                    V=np.zeros((1, 2)), rank_used=None, minimality_certified=False)


def test_score_design_takes_A_as_a_list():
    F = linf_grid(2, 1.0)
    space, design = manual_design([[1.0, 0.0]], F)
    listed = ScoreDesign(A=[1.0, 0.0], restriction=design.restriction,
                         objective=design.objective, V=design.V, rank_used=None,
                         minimality_certified=False)
    assert listed.k == 1
    for oracle in (check_improvement, check_optimality):
        rep = oracle(listed, F)
        assert not rep.passed
        assert rep == oracle(design, F)


class TestCheckRestriction:
    def test_identity_is_coordinate_selection(self):
        space, design = manual_design(
            np.eye(2), [[-1, 0], [1, -1], [-3, 1]], restriction=Restriction.RES_CS
        )
        rep = check_restriction(design, space.hull)
        assert rep.passed and rep.check_name == "restriction-res-cs"

    def test_lm_certificate_from_generating_witness(self):
        samples = load_fixture("square_cone_samples.json")["metrics_samples"]
        space = MetricSpace.from_samples(samples)
        design = design_score(space, Objective.IMPROVEMENT, Restriction.RES_LM)
        rep = check_restriction(design, space.hull)
        assert rep.passed
        assert rep.check_name == "restriction-res-lm-certificate"

    def test_lm_certificate_rejects_sign_flip(self):
        space, design = manual_design(
            [[1.0, -1.0]], [[-1, 0], [1, -1], [-3, 1], [0, 0]],
            restriction=Restriction.RES_LM,
        )
        rep = check_restriction(design, space.hull)
        assert not rep.passed
        assert rep.check_name == "restriction-res-lm-certificate"

    def test_lm_certificate_rejects_direction_off_the_lattice(self):
        # a 3-D hull in R^5 and one negative entry in A: the direction that
        # breaks monotonicity is not among the signed {-1, 0, 1}^3 combinations
        # of the hull basis
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 5))
        A = rng.random((2, 5))
        A[0, 0] = -3.0
        space, design = manual_design(A, samples, restriction=Restriction.RES_LM)
        Z = space.hull.basis
        # Farkas witness: y with Z y >= 0 and V[0] . y = -1, i.e. two points of
        # the hull, f = anchor + Z y >= anchor, whose first score decreases
        M = np.vstack([np.c_[Z.T, design.V[0]], -np.c_[Z.T, design.V[0]],
                       np.c_[-np.eye(5), np.zeros(5)]])
        res = solve_feasibility(M, np.r_[np.zeros(5), -1.0])
        assert res.feasible
        y = res.witness[:3] - res.witness[3:6]
        assert np.all(Z @ y >= -1e-9) and A[0] @ (Z @ y) < -0.5
        rep = check_restriction(design, space.hull)
        assert not rep.passed
        assert rep.check_name == "restriction-res-lm-certificate"
        assert rep.checked_pairs == 2 and rep.violations == ((0, 1.0),)

    def test_res_l_vacuous(self):
        space, design = manual_design([[1.0, -5.0]], [[0, 0], [1, 2], [2, 1]])
        rep = check_restriction(design, space.hull)
        assert rep.passed


class TestConeContainment:
    def test_scaled_ray_equal(self):
        W = GeneratorSet.from_rows([[2.0, 1.0], [4.0, 2.0]])
        V = GeneratorSet.from_rows([[1.0, 0.5]])
        assert check_cone_subset(W, V) and check_cone_subset(V, W)

    def test_strict_enclosure_is_not_equality(self):
        W = fixture_generators("square_cone_generators.json")
        V = fixture_generators("triangular_witness.json")
        assert check_cone_subset(W, V)
        assert not check_cone_subset(V, W)

    def test_self_subset(self):
        W = fixture_generators("halfspace_2d.json")
        assert check_cone_subset(W, W)

    def test_empty_cone_is_a_subset_of_its_own_dimension_only(self):
        V = fixture_generators("halfspace_2d.json")
        assert check_cone_subset(GeneratorSet.from_rows([], dim=2), V)
        for W in (GeneratorSet.from_rows([], dim=3), GeneratorSet.from_rows([[1.0, 0.0, 0.0]])):
            with pytest.raises(InputError, match="W has dim 3, V has dim 2"):
                check_cone_subset(W, V)

    def test_generating_witness_equivalence_relation(self, rng):
        # reflexive + symmetric across observed witness pairs
        for _ in range(5):
            G = rng.standard_normal((6, 3))
            W = GeneratorSet.from_rows(G)
            V = cone_ranks(W, kinds=(RankKind.CGR,))[RankKind.CGR].witness
            assert check_cone_subset(W, V) and check_cone_subset(V, W)
            assert check_cone_subset(V, V)


def test_monotone_improvement_implies_optimality(rng):
    # small-scale version of the design-theorem fuzz in the acceptance suite
    hits = 0
    for _ in range(60):
        d = int(rng.integers(1, 4))
        F = rng.standard_normal((int(rng.integers(2, 12)), d))
        A = rng.random((int(rng.integers(1, 4)), d)) * (rng.random() * 2)
        space, design = manual_design(A, F)
        if check_improvement(design, F).passed:
            hits += 1
            assert check_optimality(design, F).passed
    assert hits > 0


# Reference oracles: the per-row loops the vectorized scans replaced.  The
# comparisons and the arithmetic are the same, so results must be equal.

def reference_pareto_front(points, score=None, tol=TOL):
    F = np.asarray(points, dtype=float)
    S = F if score is None else F @ np.asarray(score, dtype=float).T
    eps = tol.cone_tol
    front = []
    for i in range(S.shape[0]):
        geq = np.all(S >= S[i] - eps, axis=1)
        ahead = np.any(S > S[i] + eps, axis=1)
        if not np.any(geq & ahead):
            front.append(i)
    return front


def reference_improvement(design, samples, tol=TOL):
    F = np.asarray(samples, dtype=float)
    S = F @ design.A.T
    eps = tol.cone_tol
    n = F.shape[0]
    violations = []
    for i in range(n):
        score_geq = np.all(S >= S[i] - eps, axis=1)
        metric_geq = np.all(F >= F[i] - eps, axis=1)
        for j in np.nonzero(score_geq & ~metric_geq)[0]:
            if j != i:
                violations.append(((i, int(j)), float(np.max(F[i] - F[j]) - eps)))
    violations.sort()
    return n * (n - 1), tuple(violations)


def reference_optimality(design, samples, tol=TOL):
    F = np.asarray(samples, dtype=float)
    eps = tol.cone_tol
    front_s = reference_pareto_front(F, design.A, tol)
    front_f = set(reference_pareto_front(F, None, tol))
    violations = []
    for i in front_s:
        if i in front_f:
            continue
        dominators = [
            float(np.max(F[j] - F[i]))
            for j in range(F.shape[0])
            if np.all(F[j] >= F[i] - eps) and np.any(F[j] > F[i] + eps)
        ]
        violations.append((i, max(dominators, default=0.0)))
    violations.sort()
    return len(front_s), tuple(violations)


def with_ties(rng, base, eps):
    """base plus duplicate rows and rows offset by +-eps and +-eps/2."""
    m, d = base.shape
    extra = [base[rng.integers(m, size=m // 4)]]
    for delta in (eps, -eps, eps / 2, -eps / 2):
        rows = base[rng.integers(m, size=m // 8)].copy()
        rows[np.arange(len(rows)), rng.integers(d, size=len(rows))] += delta
        extra.append(rows)
        extra.append(base[rng.integers(m, size=m // 16)] + delta)
    F = np.vstack([base, *extra])
    return F[rng.permutation(len(F))]


def assert_oracles_match(F, A):
    space, design = manual_design(A, F)
    assert pareto_front(F) == reference_pareto_front(F)
    assert pareto_front(F, design.A) == reference_pareto_front(F, design.A)
    for check, reference in ((check_improvement, reference_improvement),
                             (check_optimality, reference_optimality)):
        rep = check(design, F)
        pairs, violations = reference(design, F)
        assert rep.checked_pairs == pairs
        assert rep.violations == violations
        assert rep.passed == (not violations)


class TestOraclesMatchReference:
    N_BASE = 200

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 2), (5, 3)])
    def test_mixed_sign_scores(self, rng, d, k):
        # a coarse grid makes many exact ties before the offsets are added
        base = np.round(rng.standard_normal((self.N_BASE, d)) * 2) / 2
        F = with_ties(rng, base, TOL.cone_tol)
        assert len(F) > 3 * (_BLOCK_CELLS // len(F))  # at least 3 row blocks
        assert_oracles_match(F, rng.standard_normal((k, d)))
        assert_oracles_match(F, np.eye(d))

    def test_score_front_of_dominated_points(self, rng):
        # the score -I puts the shrunk copies on its front; every one of them
        # is dominated raw, so optimality flags rows across several blocks
        u = np.abs(rng.standard_normal((self.N_BASE // 2, 3)))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        F = with_ties(rng, np.vstack([u, 0.5 * u]), TOL.cone_tol)
        rep = check_optimality(manual_design(-np.eye(3), F)[1], F)
        assert len(rep.violations) > 3 * (_BLOCK_CELLS // len(F))
        assert_oracles_match(F, -np.eye(3))

    def test_single_point(self):
        assert_oracles_match(np.array([[0.5, -1.0]]), [[1.0, -1.0]])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(8, 48))
def test_oracles_match_reference_on_small_grids(seed, d, m):
    # half-integer grid rows and, half the time, integer scores make exact
    # ties in both orders; with_ties puts more rows on and just inside eps
    rng = np.random.default_rng(seed)
    F = with_ties(rng, rng.integers(-2, 3, size=(m, d)) / 2, TOL.cone_tol)
    k = int(rng.integers(1, d + 1))
    A = rng.integers(-2, 3, size=(k, d)) if rng.random() < 0.5 else rng.standard_normal((k, d))
    assert_oracles_match(F, A)


# _DENSE = 0 never tests a whole block; _DENSE = _BLOCK_CELLS always does
# when any pair of a block of at most _BLOCK_CELLS cells passes
@pytest.mark.parametrize("dense", [0, _BLOCK_CELLS], ids=["pairs-only", "whole-blocks-only"])
def test_both_block_tests_match_reference(rng, monkeypatch, dense):
    # a block tests its second condition on its passing pairs or on every
    # cell, as its pass count decides; forced either way, reports are equal
    monkeypatch.setattr(conescore.design, "_DENSE", dense)
    F = with_ties(rng, np.round(rng.standard_normal((200, 3)) * 2) / 2, TOL.cone_tol)
    for A in (np.ones((1, 3)), rng.standard_normal((2, 3)), -np.eye(3), np.zeros((0, 3))):
        assert_oracles_match(F, A)


class TestOracleMemory:
    # N x N bools are 9 MB and N x N x d floats 72 MB at this size
    N, D = 3000, 8
    BOUND = 3 * 2**20

    def peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_scans_stay_in_bounded_blocks(self, rng):
        F = rng.standard_normal((self.N, self.D))
        space, design = manual_design(np.eye(self.D), F)
        assert self.peak(lambda: pareto_front(F)) < self.BOUND
        assert self.peak(lambda: check_improvement(design, F).passed) < self.BOUND

    def test_dense_order_stays_in_bounded_blocks(self, rng):
        # under one score row about half of all pairs pass the >= order, so
        # the pairs of more than one block at a time would break the bound
        F = rng.standard_normal((self.N, self.D))
        space, design = manual_design(rng.standard_normal((1, self.D)), F)
        assert self.peak(lambda: pareto_front(F, design.A)) < self.BOUND
        assert self.peak(lambda: check_optimality(design, F).passed) < self.BOUND
