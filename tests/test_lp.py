import numpy as np
import pytest

from conescore import GeneratorSet, NotPointedError, ResourceCapError, kernel_name
from conescore.linalg import Tolerances
from conescore.lp import _phase1_stack, find_strict_separator, phase1, solve_feasibility
from conftest import TOL, load_fixture, random_cone_rows


def zero_combination(M):
    """solve_feasibility for a convex combination of the rows of M that is
    zero: a column of ones adds the row sum(lam) = 1."""
    return solve_feasibility(np.c_[M, np.ones(len(M))], np.append(np.zeros(M.shape[1]), 1.0))


def test_kernel_selected():
    assert kernel_name() in ("compiled", "python")


def test_pivot_loop_keeps_the_tracer_contract(rng):
    # perfbench/tracer.py wraps lp.pivot_loop, phase1's kernel, as its
    # simplex layer and counts pivots by calling it with max_iter=1 until it
    # returns 0: the status must be an int (a list is never 0, so the count
    # would run to the cap), and pivots one call at a time must end on the
    # same tableau and basis as one call
    from conescore.lp import _PIVOT_EPS, _tableaux, pivot_loop

    assert pivot_loop.__module__ == "conescore.lp"
    for _ in range(30):
        p, q = (int(n) for n in rng.integers(1, 9, 2))
        T, basis = _tableaux(rng.standard_normal((p, q)), rng.standard_normal((1, p)))
        Ts, bs = T.copy(), basis.copy()
        status = pivot_loop(T, basis, _PIVOT_EPS, 5000)
        assert type(status) is int and status == 0
        steps = 0
        while (status := pivot_loop(Ts, bs, _PIVOT_EPS, 1)) != 0:
            assert type(status) is int and status == 1
            steps += 1
            assert steps < 5000
        assert (Ts.tobytes(), bs.tolist()) == (T.tobytes(), basis.tolist())


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
        res = zero_combination(M)
        assert res.feasible
        lam = res.witness
        assert np.all(lam >= -TOL.feas_tol)
        assert abs(lam.sum() - 1.0) <= TOL.feas_tol
        assert np.max(np.abs(lam @ M)) <= TOL.feas_tol

    def test_no_convex_zero_combination_in_halfplane(self):
        # both rows have x + y > 0, so no convex combination reaches 0
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = zero_combination(M)
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
    @staticmethod
    def _draw(rng, trial):
        """Rows G, targets X, bounds and a keep mask (or None) of random
        shapes, with ties, zero rows and zero targets on odd trials."""
        k, m, n = (int(rng.integers(lo, hi)) for lo, hi in ((1, 6), (0, 14), (0, 12)))
        G, X = rng.standard_normal((m, n)), rng.standard_normal((k, n))
        if trial % 2:
            G, X = np.round(G), np.round(X)
        keep = rng.random((k, m)) < 0.7 if trial % 3 else None
        return G, X, 10.0 ** rng.uniform(-9, 0, k), keep

    def test_each_lp_matches_phase1(self, rng):
        # one tableau per target, the rows keep leaves out as zero columns:
        # the verdict and basic solution of phase1 on that tableau, bit for
        # bit, and of phase1 on the kept rows alone, at every shape
        # including n = 0 or m = 0
        for trial in range(120):
            G, X, bound, keep = self._draw(rng, trial)
            feasible, lam = _phase1_stack(G, X, bound, keep)
            for s in range(len(X)):
                kept = np.ones(len(G), bool) if keep is None else keep[s]
                tol = Tolerances(feas_tol=bound[s])
                f, x = phase1(np.where(kept, G.T, 0.0), X[s], tol)
                assert (f, x.tobytes()) == (feasible[s], lam[s].tobytes())
                f, x = phase1(G[kept].T, X[s], tol)
                assert (f, x.tobytes()) == (feasible[s], lam[s, kept].tobytes())
                assert not lam[s, ~kept].any()

    def test_stacks_split_by_batch_cells_give_the_same_results(self, rng, monkeypatch):
        import conescore.lp

        depths = []
        batch = conescore.lp.pivot_batch

        def counting(T, *args):
            depths.append(T.shape[0])
            return batch(T, *args)

        for trial in range(40):
            G, X, bound, keep = self._draw(rng, trial)
            whole = _phase1_stack(G, X, bound, keep)
            # room for two tableaux per stack
            cells = 2 * (G.shape[1] + 1) * (G.shape[0] + G.shape[1] + 1)
            monkeypatch.setattr(conescore.lp, "_BATCH_CELLS", cells)
            monkeypatch.setattr(conescore.lp, "pivot_batch", counting)
            depths.clear()
            split = _phase1_stack(G, X, bound, keep)
            monkeypatch.undo()
            assert depths == [2] * (len(X) // 2) + [1] * (len(X) % 2)
            assert [a.tobytes() for a in split] == [a.tobytes() for a in whole]

    def test_iteration_cap_is_a_resource_cap(self, monkeypatch):
        import conescore.lp

        # one LP of three hits the cap, 50 (p + q) + 1000 pivots as in phase1
        monkeypatch.setattr(conescore.lp, "pivot_batch", lambda T, *args: [0, 1, 0])
        with pytest.raises(ResourceCapError, match="within 1200 pivots"):
            _phase1_stack(np.eye(2), np.ones((3, 2)), np.full(3, 1e-8))


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
            lp1 = zero_combination(W.generators)
            if lp1.feasible:
                with pytest.raises(NotPointedError):
                    find_strict_separator(W.generators)
            else:
                hp = find_strict_separator(W.generators)
                U = W.generators / np.linalg.norm(W.generators, axis=1)[:, None]
                assert np.all(U @ hp.normal >= 1.0 - TOL.feas_tol)
