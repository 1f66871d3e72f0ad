import numpy as np
import pytest

from conescore import (
    FeasibilityProblem,
    GeneratorSet,
    InputError,
    NotPointedError,
    ResourceCapError,
    find_strict_separator,
    kernel_name,
    solve_feasibility,
)
from conftest import TOL, load_fixture, random_cone_rows


def test_kernel_selected():
    assert kernel_name() in ("compiled", "python")


class TestSolveFeasibility:
    def test_axis_combination(self):
        res = solve_feasibility(
            FeasibilityProblem(M=np.eye(2), target=np.array([1.0, 1.0]))
        )
        assert res.feasible
        assert np.allclose(res.witness, [1.0, 1.0])
        assert res.max_violation <= TOL.feas_tol

    def test_convex_zero_combination_on_line(self):
        M = np.array([[2.0, 1.0], [-2.0, -1.0]])
        res = solve_feasibility(
            FeasibilityProblem(M=M, target=np.zeros(2), sum_to_one=True)
        )
        assert res.feasible
        lam = res.witness
        assert np.all(lam >= -TOL.feas_tol)
        assert abs(lam.sum() - 1.0) <= TOL.feas_tol
        assert np.max(np.abs(lam @ M)) <= TOL.feas_tol

    def test_no_convex_zero_combination_in_halfplane(self):
        # both rows have x + y > 0, so no convex combination reaches 0
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = solve_feasibility(
            FeasibilityProblem(M=M, target=np.zeros(2), sum_to_one=True)
        )
        assert not res.feasible
        assert res.witness is None

    def test_row_permutation_invariance(self, rng):
        for _ in range(20):
            M = rng.standard_normal((5, 3))
            c = rng.standard_normal(3)
            perm = rng.permutation(5)
            a = solve_feasibility(FeasibilityProblem(M=M, target=c))
            b = solve_feasibility(FeasibilityProblem(M=M[perm], target=c))
            assert a.feasible == b.feasible

    def test_determinism(self, rng):
        M = rng.standard_normal((6, 4))
        c = M.sum(axis=0)
        r1 = solve_feasibility(FeasibilityProblem(M=M, target=c))
        r2 = solve_feasibility(FeasibilityProblem(M=M, target=c))
        assert r1.feasible and r2.feasible
        assert np.array_equal(r1.witness, r2.witness)


    def test_iteration_cap_is_a_resource_cap(self, monkeypatch):
        import conescore.lp

        monkeypatch.setattr(conescore.lp, "pivot_loop", lambda T, basis, eps, max_iter: 1)
        prob = FeasibilityProblem(M=np.eye(2), target=np.ones(2))
        with pytest.raises(ResourceCapError, match="simplex did not terminate"):
            solve_feasibility(prob)


class TestStrictSeparator:
    def test_single_ray(self):
        hp = find_strict_separator([[2.0, 1.0], [4.0, 2.0]])
        u = np.array([2.0, 1.0]) / np.sqrt(5)
        assert hp.offset == 0.5
        assert hp.normal @ u >= 1.0 - TOL.feas_tol

    def test_orthant(self):
        hp = find_strict_separator(np.eye(4))
        assert np.all(np.eye(4) @ hp.normal >= 1.0 - TOL.feas_tol)

    def test_square_cone(self):
        G = np.array(load_fixture("square_cone_generators.json")["generators"])
        hp = find_strict_separator(G)
        U = G / np.linalg.norm(G, axis=1)[:, None]
        b_i = U @ hp.normal
        # strict separation margin guaranteed by the 1-vs-1/2 normalization
        assert np.min(b_i) - hp.offset >= 0.25 - TOL.feas_tol

    def test_non_pointed_rejected(self):
        with pytest.raises(NotPointedError, match="no strict separator"):
            find_strict_separator([[2.0, 1.0], [-2.0, -1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_generator_is_an_input_error(self, bad):
        with pytest.raises(InputError, match="generators: entries must be finite"):
            find_strict_separator([[1.0, 0.0], [bad, 1.0]])

    def test_dichotomy_with_lp1(self, rng):
        # a separator exists exactly when no convex zero-combination does
        for trial in range(30):
            G = random_cone_rows(rng, int(rng.integers(2, 9)), int(rng.integers(2, 5)), trial % 3)
            W = GeneratorSet.from_rows(G)
            lp1 = solve_feasibility(
                FeasibilityProblem(
                    M=W.generators, target=np.zeros(W.dim), sum_to_one=True
                )
            )
            if lp1.feasible:
                with pytest.raises(NotPointedError):
                    find_strict_separator(W.generators)
            else:
                hp = find_strict_separator(W.generators)
                U = W.generators / np.linalg.norm(W.generators, axis=1)[:, None]
                assert np.all(U @ hp.normal >= 1.0 - TOL.feas_tol)
