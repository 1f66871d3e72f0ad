import numpy as np
import pytest

from conescore import GeneratorSet, NotPointedError, ResourceCapError, kernel_name
from conescore.linalg import Tolerances
from conescore.lp import _phase1_batch, find_strict_separator, phase1, solve_feasibility
from conftest import TOL, load_fixture, random_cone_rows


def test_kernel_selected():
    assert kernel_name() in ("compiled", "python")


class TestSolveFeasibility:
    def test_axis_combination(self):
        M, c = np.eye(2), np.array([1.0, 1.0])
        res = solve_feasibility(M, c)
        assert res.feasible
        assert np.allclose(res.witness, [1.0, 1.0])
        assert np.all(res.witness >= 0.0)
        assert np.abs(res.witness @ M - c).sum() <= TOL.feas_tol

    @pytest.mark.parametrize("rows", [0, 1], ids=["no-rows", "zero-row"])
    def test_verdict_is_the_l1_residual_when_no_row_helps(self, rows):
        # no row can reduce the residual, so the verdict is |target|_1 <= feas_tol
        M = np.zeros((rows, 2))
        assert not solve_feasibility(M, np.array([6e-9, -6e-9])).feasible
        res = solve_feasibility(M, np.array([4e-9, -4e-9]))
        assert res.feasible
        assert np.array_equal(res.witness, np.zeros(rows))

    def test_convex_zero_combination_on_line(self):
        M = np.array([[2.0, 1.0], [-2.0, -1.0]])
        res = solve_feasibility(M, np.zeros(2), sum_to_one=True)
        assert res.feasible
        lam = res.witness
        assert np.all(lam >= -TOL.feas_tol)
        assert abs(lam.sum() - 1.0) <= TOL.feas_tol
        assert np.max(np.abs(lam @ M)) <= TOL.feas_tol

    def test_no_convex_zero_combination_in_halfplane(self):
        # both rows have x + y > 0, so no convex combination reaches 0
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = solve_feasibility(M, np.zeros(2), sum_to_one=True)
        assert not res.feasible
        assert res.witness is None

    def test_row_permutation_invariance(self, rng):
        for _ in range(20):
            M = rng.standard_normal((5, 3))
            c = rng.standard_normal(3)
            perm = rng.permutation(5)
            a = solve_feasibility(M, c)
            b = solve_feasibility(M[perm], c)
            assert a.feasible == b.feasible

    def test_determinism(self, rng):
        M = rng.standard_normal((6, 4))
        c = M.sum(axis=0)
        r1 = solve_feasibility(M, c)
        r2 = solve_feasibility(M, c)
        assert r1.feasible and r2.feasible
        assert np.array_equal(r1.witness, r2.witness)


    def test_iteration_cap_is_a_resource_cap(self, monkeypatch):
        import conescore.lp

        monkeypatch.setattr(conescore.lp, "pivot_loop", lambda T, basis, eps, max_iter: 1)
        with pytest.raises(ResourceCapError, match="simplex did not terminate"):
            solve_feasibility(np.eye(2), np.ones(2))


class TestPhase1Batch:
    def test_each_lp_matches_phase1(self, rng):
        # same tableau, same kernel operations: the same verdict and the same
        # basic solution, bit for bit, at every shape including p = 0 or q = 0
        for trial in range(120):
            k, p, q = (int(rng.integers(lo, hi)) for lo, hi in ((1, 6), (0, 12), (0, 14)))
            A = rng.standard_normal((k, p, q))
            b = rng.standard_normal((k, p))
            if trial % 2:  # ties, zero rows and zero targets
                A, b = np.round(A), np.round(b)
            bound = 10.0 ** rng.uniform(-9, 0, k)
            T = np.zeros((k, p + 1, q + p + 1))
            T[:, :p, :q], T[:, :p, -1] = A, b
            feasible, x = _phase1_batch(T, bound)
            for s in range(k):
                f, xs = phase1(A[s], b[s], Tolerances(feas_tol=bound[s]))
                assert (f, xs.tobytes()) == (feasible[s], x[s].tobytes())

    def test_iteration_cap_is_a_resource_cap(self, monkeypatch):
        import conescore.lp

        # one LP of three hits the cap, 50 (p + q) + 1000 pivots as in phase1
        monkeypatch.setattr(conescore.lp, "pivot_batch", lambda T, *args: [0, 1, 0])
        T = np.zeros((3, 3, 5))
        T[:, :2, :2] = np.eye(2)
        T[:, :2, -1] = 1.0
        with pytest.raises(ResourceCapError, match="within 1200 pivots"):
            _phase1_batch(T, np.full(3, 1e-8))


class TestStrictSeparator:
    def test_single_ray(self):
        hp = find_strict_separator(np.array([[2.0, 1.0], [4.0, 2.0]]))
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

    def test_huge_rows(self):
        # squaring these rows overflows; their unit rows are (+-1, 1)/sqrt(2)
        hp = find_strict_separator(np.array([[1e200, 1e200], [-1e200, 1e200]]))
        U = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        assert np.all(U @ hp.normal >= 1.0 - TOL.feas_tol)

    def test_non_pointed_rejected(self):
        with pytest.raises(NotPointedError, match="no strict separator"):
            find_strict_separator(np.array([[2.0, 1.0], [-2.0, -1.0]]))

    def test_dichotomy_with_lp1(self, rng):
        # a separator exists exactly when no convex zero-combination does
        for trial in range(30):
            G = random_cone_rows(rng, int(rng.integers(2, 9)), int(rng.integers(2, 5)), trial % 3)
            W = GeneratorSet.from_rows(G)
            lp1 = solve_feasibility(W.generators, np.zeros(W.dim), sum_to_one=True)
            if lp1.feasible:
                with pytest.raises(NotPointedError):
                    find_strict_separator(W.generators)
            else:
                hp = find_strict_separator(W.generators)
                U = W.generators / np.linalg.norm(W.generators, axis=1)[:, None]
                assert np.all(U @ hp.normal >= 1.0 - TOL.feas_tol)
