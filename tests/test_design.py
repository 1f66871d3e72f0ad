import numpy as np
import pytest

from conescore import (
    GeneratorSet,
    InputError,
    MetricSpace,
    Objective,
    Restriction,
    check_improvement,
    check_optimality,
    design_score,
    is_in_cone,
    pareto_front,
)
from conftest import TOL, linf_grid, load_fixture

IMP, OPT, BOTH = Objective.IMPROVEMENT, Objective.OPTIMALITY, Objective.BOTH


def space_from(name, relint=False):
    return MetricSpace.from_samples(load_fixture(name)["metrics_samples"], relint)


def random_space(rng, d, r, n):
    basis = rng.standard_normal((r, d))
    anchor = rng.standard_normal(d)
    return MetricSpace.from_samples(anchor + rng.standard_normal((n, r)) @ basis)


class TestDesignImprovement:
    def test_correlated_line_all_restrictions(self):
        space = space_from("correlated_line_samples.json")
        for res in Restriction:
            d = design_score(space, IMP, res)
            assert d.k == 1
            if res is Restriction.RES_CS:
                assert d.A.tolist() in ([[1.0, 0.0]], [[0.0, 1.0]])

    def test_anticorrelated_line_needs_both(self):
        space = space_from("anticorrelated_line_samples.json")
        for res in Restriction:
            d = design_score(space, IMP, res)
            assert d.k == 2
        d = design_score(space, IMP, Restriction.RES_CS)
        assert sorted(d.A.tolist()) == [[0.0, 1.0], [1.0, 0.0]]

    def test_square_plane_rank_split(self):
        space = space_from("square_cone_samples.json")
        assert design_score(space, IMP, Restriction.RES_CS).k == 4
        assert design_score(space, IMP, Restriction.RES_LM).k == 4
        assert design_score(space, IMP, Restriction.RES_L).k == 3

    def test_minimality_flag_follows_relint(self):
        certified = space_from("correlated_line_samples.json", relint=True)
        assert design_score(certified, IMP, Restriction.RES_L).minimality_certified
        plain = space_from("correlated_line_samples.json")
        assert not design_score(plain, IMP, Restriction.RES_L).minimality_certified

    def test_degenerate_single_point(self):
        space = MetricSpace.from_samples([[1.0, 2.0, 3.0]])
        for objective in Objective:
            for res in Restriction:
                d = design_score(space, objective, res)
                assert d.k == 0 and d.A.shape == (0, 3)
                assert d.rank_used is None and not d.minimality_certified
                assert d.warnings == ("degenerate metric space: affine hull is a point, k = 0",)

    def test_dimension_ordering(self, rng):
        for _ in range(6):
            space = random_space(rng, 5, int(rng.integers(1, 5)), 15)
            ks = {
                res: design_score(space, IMP, res).k
                for res in Restriction
            }
            assert ks[Restriction.RES_CS] >= ks[Restriction.RES_LM] >= ks[Restriction.RES_L]

    def test_monotone_witness_for_res_lm(self, rng):
        for _ in range(5):
            space = random_space(rng, 4, 3, 12)
            d = design_score(space, IMP, Restriction.RES_LM)
            Zset = GeneratorSet.from_rows(space.hull.basis, dim=space.hull.dim)
            for v in np.atleast_2d(d.V):
                assert is_in_cone(v, Zset)


class TestDesignOptimality:
    def test_positive_row_for_lm(self):
        space = space_from("square_cone_samples.json")
        d = design_score(space, OPT, Restriction.RES_LM)
        assert d.k == 1
        assert np.array_equal(d.A, np.ones((1, 4)))

    def test_cs_selects_hull_dim_coordinates(self):
        space = space_from("square_cone_samples.json")
        d = design_score(space, OPT, Restriction.RES_CS)
        assert d.k == 3
        assert all(sorted(row.tolist(), reverse=True)[0] == 1.0 for row in d.A)
        assert np.allclose(d.A.sum(axis=1), 1.0)

    def test_scalar_metric(self):
        space = MetricSpace.from_samples([[0.0], [1.0], [2.0]])
        for res in Restriction:
            d = design_score(space, OPT, res)
            assert d.A.tolist() == [[1.0]]

    def test_passes_oracle(self, rng):
        for _ in range(6):
            space = random_space(rng, 4, int(rng.integers(1, 5)), 12)
            for res in Restriction:
                d = design_score(space, OPT, res)
                assert check_optimality(d, space.samples).passed


class TestDesignBoth:
    def test_res_l_uses_generating_rank(self):
        space = space_from("square_cone_samples.json")
        assert design_score(space, BOTH, Restriction.RES_L).k == 4  # not the cone rank 3

    def test_line_all_one(self):
        space = space_from("correlated_line_samples.json")
        for res in Restriction:
            assert design_score(space, BOTH, res).k == 1

    def test_5d_space_ranks(self):
        space = space_from("nonpointed_5d_samples.json")
        assert design_score(space, BOTH, Restriction.RES_CS).k == 8
        assert design_score(space, BOTH, Restriction.RES_LM).k == 7

    def test_passes_both_oracles(self, rng):
        for _ in range(5):
            space = random_space(rng, 4, int(rng.integers(1, 4)), 12)
            for res in Restriction:
                d = design_score(space, BOTH, res)
                assert check_improvement(d, space.samples).passed
                assert check_optimality(d, space.samples).passed


class TestDesignScore:
    def test_rank_table(self):
        # the paper's table on the square cone (CSR, CGR, CR = 4, 4, 3) in a
        # hull of dimension r = 3: k and the rank it is read from
        space = space_from("square_cone_samples.json")
        CS, LM, L = Restriction.RES_CS, Restriction.RES_LM, Restriction.RES_L
        expected = {
            (IMP, CS): (4, "csr"), (IMP, LM): (4, "cgr"), (IMP, L): (3, "cr"),
            (BOTH, CS): (4, "csr"), (BOTH, LM): (4, "cgr"), (BOTH, L): (4, "cgr"),
            (OPT, CS): (3, None), (OPT, LM): (1, None), (OPT, L): (1, None),
        }
        for (objective, res), (k, kind) in expected.items():
            d = design_score(space, objective, res)
            assert (d.k, d.objective, d.restriction) == (k, objective, res)
            assert (d.rank_used and d.rank_used.kind.value) == kind

    def test_A_Z_equals_V(self, rng):
        # A is recovered from V: exact 1-hot rows for Res-CS, so V is a
        # choice of rows of Z bit for bit; otherwise A = V Z^T
        for _ in range(8):
            d = int(rng.integers(1, 6))
            space = random_space(rng, d, int(rng.integers(1, d + 1)), 12)
            Z = space.hull.basis
            for objective in Objective:
                for res in Restriction:
                    des = design_score(space, objective, res)
                    if res is Restriction.RES_CS:
                        cols = np.argmax(des.A, axis=1)
                        assert np.array_equal(des.A, np.eye(d)[cols])
                        assert np.array_equal(des.V, Z[cols])
                    else:
                        assert np.max(np.abs(des.A @ Z - des.V)) <= 10 * TOL.rank_tol

    def test_rejects_what_is_not_an_objective_or_restriction(self):
        # a table lookup would otherwise read a string as "no rank needed"
        space = space_from("square_cone_samples.json")
        with pytest.raises(InputError, match="expected an Objective and a Restriction"):
            design_score(space, IMP, "res-l")
        with pytest.raises(InputError, match="expected an Objective and a Restriction"):
            design_score(space, "both", Restriction.RES_L)

    def test_published_triangular_witness(self):
        # the published triangular witness is one valid A, the min-norm
        # V Z^T another; both satisfy A Z = V on the square cone's basis rows
        Z = np.array(load_fixture("square_cone_generators.json")["generators"])
        V = np.array(load_fixture("triangular_witness.json")["generators"])
        A_published = 0.25 * np.array(
            [[3, 3, -1, -1], [3, -3, -1, 5], [-3, 3, 5, -1]], float
        )
        assert np.allclose(A_published @ Z, V)
        assert np.max(np.abs((V @ Z.T) @ Z - V)) <= 10 * TOL.rank_tol


class TestParetoFront:
    def test_dominant_point(self):
        assert pareto_front([[0, 0], [1, 1], [2, 3]]) == [2]

    def test_single_point(self):
        assert pareto_front([[5.0, -1.0]]) == [0]

    def test_scored_linf_grid_keeps_bad_corner(self):
        pts = linf_grid(2, 0.5)
        front = pareto_front(pts, np.array([[1.0, 0.0]]))
        selected = pts[front]
        assert np.all(selected[:, 0] == 1.0)
        assert [1.0, -1.0] in selected.tolist()

    def test_vector_score_is_one_row(self, rng):
        pts = np.round(rng.standard_normal((40, 3)), 1)
        score = [1.0, 0.0, -0.5]
        assert pareto_front(pts, score) == pareto_front(pts, np.array([score]))
        assert pareto_front(np.eye(3), score=[1.0, 0.0, 0.0]) == [0]

    def test_rejects_malformed_input(self):
        with pytest.raises(InputError, match="score has 2 columns"):
            pareto_front(np.eye(3), score=[[1.0, 0.0]])
        with pytest.raises(InputError, match="points: expected a 2-D matrix"):
            pareto_front(np.ones((2, 2, 2)))
        with pytest.raises(InputError, match="points: entries must be finite"):
            pareto_front([[np.nan, 0.0], [1.0, 1.0]])

    def test_1hot_rows_are_1hot(self):
        space = space_from("square_cone_samples.json")
        d = design_score(space, BOTH, Restriction.RES_CS)
        for row in d.A:
            assert sorted(row.tolist(), reverse=True)[0] == 1.0
            assert np.count_nonzero(row) == 1
