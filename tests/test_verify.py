import json
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
from conescore.cli import main
from conescore.design import _TILE, _order
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

    def test_res_cs_flags_each_row_that_is_not_one_hot_with_its_max_abs(self):
        A = [[1.0, 1e-12, 0.0], [0.5, 0.5, 0.0], [1.0, 1.0, 0.0], [0.0, -3.0, 0.0],
             [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        space, design = manual_design(A, [[0, 0, 0], [1, 2, 0], [2, 1, 1]],
                                      restriction=Restriction.RES_CS)
        rep = check_restriction(design, space.hull)
        assert rep.checked_pairs == 6
        assert rep.violations == ((1, 0.5), (2, 1.0), (3, 3.0), (5, 0.0))


def assert_report_arrays(rep, violations, pairs):
    """rep's arrays: intp (i, j) pairs or row indices and float values, read
    only, equal to the reference violations; and violations built from them."""
    assert rep.where.dtype == np.intp and rep.value.dtype == np.float64
    assert rep.where.shape == ((len(violations), 2) if pairs else (len(violations),))
    assert rep.value.shape == (len(violations),)
    assert not rep.where.flags.writeable and not rep.value.flags.writeable
    assert [tuple(w) if pairs else w for w in rep.where.tolist()] == [w for w, _ in violations]
    assert rep.value.tolist() == [v for _, v in violations]
    assert rep.violations == violations
    assert rep.passed == (not violations)


class TestReportArrays:
    # a failing and a passing report of each oracle; a passing improvement
    # report holds a (0, 2) where
    def test_improvement(self):
        F = linf_grid(2, 1.0)
        for A, passed in (([[1.0, 0.0]], False), (np.eye(2), True)):
            _, design = manual_design(A, F)
            rep = check_improvement(design, F)
            assert rep.passed == passed
            assert_report_arrays(rep, reference_improvement(design, F)[1], pairs=True)

    def test_optimality(self):
        F = linf_grid(2, 0.5)
        for A, passed in (([[1.0, 0.0]], False), (np.eye(2), True)):
            _, design = manual_design(A, F)
            rep = check_optimality(design, F)
            assert rep.passed == passed
            assert_report_arrays(rep, reference_optimality(design, F)[1], pairs=False)

    @pytest.mark.parametrize("restriction, A, violations", [
        (Restriction.RES_CS, [[0.0, 1.0]], ()),
        (Restriction.RES_CS, [[0.0, 1.0], [2.0, -1.0]], ((1, 2.0),)),
        (Restriction.RES_LM, [[1.0, 1.0]], ()),
        (Restriction.RES_LM, [[1.0, -1.0], [1.0, 0.0]], ((0, 1.0),)),
        (Restriction.RES_L, [[1.0, -5.0]], ()),
    ])
    def test_restriction(self, restriction, A, violations):
        space, design = manual_design(A, [[-1, 0], [1, -1], [-3, 1], [0, 0]],
                                      restriction=restriction)
        assert_report_arrays(check_restriction(design, space.hull), violations, pairs=False)

    def test_reports_compare_and_hash_on_their_violations(self):
        F = linf_grid(2, 1.0)
        _, design = manual_design([[1.0, 0.0]], F)
        rep = check_improvement(design, F)
        again = check_improvement(design, F)
        assert rep == again and hash(rep) == hash(again)
        assert rep != check_improvement(manual_design(np.eye(2), F)[1], F)
        assert rep != check_optimality(design, F)


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
    # the oracles read A alone, so no affine hull of F is needed (its SVD
    # rejects samples whose centred values overflow)
    A = np.atleast_2d(np.asarray(A, float))
    design = ScoreDesign(A=A, restriction=Restriction.RES_L, objective=Objective.BOTH,
                         V=A, rank_used=None, minimality_certified=False)
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
        assert_oracles_match(F, rng.standard_normal((k, d)))
        assert_oracles_match(F, np.eye(d))

    def test_score_front_of_dominated_points(self, rng):
        # the score -I puts the shrunk copies on its front; every one of them
        # is dominated raw, so optimality flags many rows
        u = np.abs(rng.standard_normal((self.N_BASE // 2, 3)))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        F = with_ties(rng, np.vstack([u, 0.5 * u]), TOL.cone_tol)
        rep = check_optimality(manual_design(-np.eye(3), F)[1], F)
        assert len(rep.violations) > self.N_BASE // 4
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


# _PAIR_BITS = 1 unpacks one candidate row's pairs at a time;
# _TILE * _TILE unpacks a whole block's relation at once
@pytest.mark.parametrize("pair_bits", [1, _TILE * _TILE], ids=["pairs-only", "whole-blocks-only"])
def test_both_block_tests_match_reference(rng, monkeypatch, pair_bits):
    # a block's pairs come out row by row or all at once, as _PAIR_BITS
    # decides; forced either way, reports are equal. The score shapes: one
    # row (about half of all pairs in the >= order), mixed signs, a negated
    # order, and k = 0, where every pair is in the >= order
    monkeypatch.setattr(conescore.design, "_PAIR_BITS", pair_bits)
    F = with_ties(rng, np.round(rng.standard_normal((200, 3)) * 2) / 2, TOL.cone_tol)
    for A in (np.ones((1, 3)), rng.standard_normal((2, 3)), -np.eye(3), np.zeros((0, 3))):
        assert_oracles_match(F, A)


# a column tile and a block of candidate rows are _TILE rows, so these sizes
# end a tile one row early, exactly, one row late, and one row into a third
@pytest.mark.parametrize("n", [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1])
def test_oracles_match_reference_across_tiles(rng, n):
    # samples near a chain keep the pairs that break improvement few while
    # dominators and violating pairs fall in every tile; one score row puts
    # about half of all pairs in the >= order
    t = rng.integers(0, n // 4, size=(n, 1)) / 2
    F = with_ties(rng, t + rng.integers(0, 2, size=(n, 3)) / 2, TOL.cone_tol)[:n]
    assert_oracles_match(F, [[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]])
    assert_oracles_match(F, [[1.0, 1.0, 1.0]])


@pytest.mark.parametrize("n", [_TILE - 1, _TILE + 1, 2 * _TILE + 1])
def test_cli_writes_the_first_50_violations(tmp_path, rng, n):
    # samples near a chain under one score row: a few violating pairs per
    # row. Row n - 1 is swapped with a later partner j of the first row i
    # that has one, so beyond one tile the first 50 pairs hold (i, n - 1),
    # from the last tile, and then pairs of later rows from the first tile:
    # only sorting across tiles gives that order
    t = rng.integers(0, n // 4, size=(n, 1)) / 2
    F = with_ties(rng, t + rng.integers(0, 2, size=(n, 3)) / 2, TOL.cone_tol)[:n]
    A = np.ones((1, 3))
    _, design = manual_design(A, F)
    i, j = next(ij for ij, _ in reference_improvement(design, F)[1] if ij[1] > ij[0])
    F[[j, n - 1]] = F[[n - 1, j]]
    (tmp_path / "problem.json").write_text(
        json.dumps({"metrics_samples": F.tolist(), "design": {"A": A.tolist()}}))
    code = main(["verify", "--in", str(tmp_path / "problem.json"),
                 "--out", str(tmp_path / "result.json"), "--reproducible"])
    written = json.loads((tmp_path / "result.json").read_text())["verification"][0]
    assert code == 4 and written["check"] == "improvement"
    first = [((a, b), lead) for (a, b), lead in written["violations"]]
    assert len(first) == 50
    assert first == list(check_improvement(design, F).violations[:50])
    assert first == list(reference_improvement(design, F)[1][:50])
    assert (i, n - 1) in [ij for ij, _ in first] and first[-1][0][0] > i


def test_order_of_non_finite_scores_matches_the_pair_scan(rng):
    # NaN compares false with everything, so a NaN row is in no set and has
    # an empty one, though argsort puts NaN last, inside every suffix
    eps = TOL.cone_tol
    S = rng.choice([np.nan, np.inf, -np.inf, 0.0, eps, -1.0, 1.0], size=(150, 3))
    unpack = lambda b: np.unpackbits(b.view(np.uint8), axis=1, bitorder="little")[:, :150]
    geq = np.all(S >= S[:, None] - eps, axis=2)
    assert np.array_equal(unpack(_order(S, 0, np.arange(150), eps, False)), geq)
    dominated = geq & np.any(S > S[:, None] + eps, axis=2)
    assert np.array_equal(unpack(_order(S, 0, np.arange(150), eps, True)), dominated)


def test_oracles_match_reference_on_overflowing_scores(rng):
    # finite samples whose scores overflow to inf and -inf (whether a dot
    # product of both gives NaN depends on how the BLAS sums it)
    F = rng.choice([-1.5e308, -1.0, 0.0, 1.0, 1.5e308], size=(120, 2))
    A = np.array([[2.0, 2.0], [1.0, -1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        S = F @ A.T
        assert np.isposinf(S).any() and np.isneginf(S).any()
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

    def test_large_n_stays_in_bounded_tiles(self, rng):
        # a block of rows against all 10^4 columns would be 1.2 MB of bits
        F = rng.standard_normal((10**4, 6))
        space, design = manual_design(np.eye(6), F)
        assert self.peak(lambda: pareto_front(F)) < self.BOUND
        assert self.peak(lambda: check_improvement(design, F).passed) < self.BOUND

    def test_dense_order_stays_in_bounded_blocks(self, rng):
        # under one score row about half of all pairs pass the >= order, so
        # the pairs of more than one block at a time would break the bound
        F = rng.standard_normal((self.N, self.D))
        space, design = manual_design(rng.standard_normal((1, self.D)), F)
        assert self.peak(lambda: pareto_front(F, design.A)) < self.BOUND
        assert self.peak(lambda: check_optimality(design, F).passed) < self.BOUND
