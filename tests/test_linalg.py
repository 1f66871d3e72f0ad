import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conescore import InputError, MetricSpace, Tolerances
from conescore.linalg import (
    compute_affine_hull,
    numeric_rank,
    orthonormal_basis,
    project_complement,
)
from conftest import TOL, fixture_generators, load_fixture

SQUARE_Z = np.array(load_fixture("square_cone_generators.json")["generators"])


class TestNumericRank:
    def test_square_cone_matrix(self):
        assert numeric_rank(SQUARE_Z) == 3

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((4, 3))) == 0

    def test_empty(self):
        assert numeric_rank(np.zeros((0, 3))) == 0

    def test_rank2_product(self, rng):
        # rank known by construction
        M = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))
        assert numeric_rank(M) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_transpose_invariant(self, seed):
        g = np.random.default_rng(seed)
        M = g.standard_normal((g.integers(1, 7), g.integers(1, 7)))
        assert numeric_rank(M) == numeric_rank(M.T)


class TestOrthonormalBasis:
    def test_collinear_pair(self):
        B = orthonormal_basis(np.array([[2.0, 1.0], [4.0, 2.0]]))
        assert B.shape == (2, 1)
        assert np.allclose(B[:, 0], np.array([2.0, 1.0]) / np.sqrt(5))

    def test_standard_basis(self):
        B = orthonormal_basis(np.eye(2))
        assert B.shape == (2, 2)
        assert np.allclose(np.abs(B.T @ B), np.eye(2))
        # spans R^2
        assert numeric_rank(B) == 2

    def test_all_zero_input(self):
        assert orthonormal_basis(np.zeros((3, 4))).shape == (4, 0)

    def test_span_recovery_in_subspace(self, rng):
        S = rng.standard_normal((3, 6))  # 3-dim subspace of R^6
        V = rng.standard_normal((10, 3)) @ S
        B = orthonormal_basis(V)
        assert B.shape == (6, 3)
        resid = V - (V @ B) @ B.T
        assert np.max(np.abs(resid)) <= 1e-9

    def test_orthonormality_bound(self, rng):
        for _ in range(20):
            V = rng.standard_normal((rng.integers(1, 8), rng.integers(1, 8)))
            B = orthonormal_basis(V)
            if B.shape[1]:
                assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= 10 * TOL.rank_tol


class TestAffineHull:
    def test_correlated_line(self):
        hull = compute_affine_hull(np.array([[-1.0, 0.0], [1.0, 1.0], [0.0, 0.5]]))
        assert hull.dim == 1
        assert np.allclose(np.abs(hull.basis[:, 0]), np.array([2, 1]) / np.sqrt(5))

    def test_single_point(self):
        hull = compute_affine_hull(np.array([[3.0, 4.0]]))
        assert hull.dim == 0
        assert hull.basis.shape == (2, 0)

    def test_plane_in_r4(self, rng):
        # 20 points on the plane [1,-1,1,-1] . f = 0
        normal = np.array([1.0, -1.0, 1.0, -1.0])
        P = rng.standard_normal((20, 4))
        P -= np.outer(P @ normal / 4.0, normal)
        hull = compute_affine_hull(P)
        assert hull.dim == 3

    def test_order_invariance(self, rng):
        F = rng.standard_normal((8, 3))
        h1 = compute_affine_hull(F)
        h2 = compute_affine_hull(F[::-1])
        assert h1.dim == h2.dim
        assert np.allclose(h1.anchor, h2.anchor)

    def test_anchor_residual(self, rng):
        F = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5)) + rng.standard_normal(5)
        hull = compute_affine_hull(F)
        resid = project_complement(F - hull.anchor, hull.basis)
        assert np.max(np.abs(resid)) <= 10 * TOL.rank_tol

    @pytest.mark.parametrize("F", [
        [[1.7e308, 0.0], [1.7e308, 1.0]],  # the centroid's sum overflows
        [[-1.7e308, 0.0], [1.7e308, 1.0], [1.7e308, 0.0]],  # the centred values do
    ], ids=["centroid", "centred"])
    def test_overflowing_centred_samples_are_an_input_error(self, F):
        with pytest.raises(InputError, match="centred samples overflow"):
            compute_affine_hull(np.array(F))

    def test_empty_errors(self):
        # a hull needs a sample; the space built from outside input refuses none
        with pytest.raises(InputError, match="samples must be nonempty"):
            MetricSpace.from_samples(np.zeros((0, 2)))


class TestProjectComplement:
    def test_off_e1(self):
        out = project_complement(np.array([[1.0, 1.0]]), np.array([[1.0], [0.0]]))
        assert np.allclose(out, [[0.0, 1.0]])

    def test_row_inside_span(self):
        Z = orthonormal_basis(np.array([[2.0, 1.0]]))
        assert np.allclose(project_complement(np.array([[4.0, 2.0]]), Z), 0.0)

    def test_halfspace_rows(self):
        Z = orthonormal_basis(np.array([[2.0, 1.0]]))
        out = project_complement(np.array([[1.0, 2.0], [-2.0, 2.0]]), Z)
        # both land on the direction (-1, 2), orthogonal to (2, 1)
        assert np.allclose(out @ np.array([2.0, 1.0]), 0.0)
        assert np.allclose(out[0] / out[0][1], out[1] / out[1][1])

    def test_empty_basis_keeps_the_bits(self, rng):
        # with no basis columns the product is zero: W itself, -0.0 included,
        # as a new array
        W = np.vstack([rng.standard_normal((3, 4)), [-0.0, 0.0, -0.0, 1.0]])
        out = project_complement(W, np.zeros((4, 0)))
        assert out is not W
        assert np.array_equal(out, W) and np.array_equal(np.signbit(out), np.signbit(W))


def test_unit_rows_keep_the_bits_of_ordinary_rows(rng):
    from conescore.linalg import _unit_rows

    G = rng.standard_normal((200, 5)) * 10.0 ** rng.uniform(-6, 6, size=(200, 1))
    norms = np.linalg.norm(G, axis=1)
    U, n = _unit_rows(G)
    assert np.array_equal(n, norms) and np.array_equal(U, G / norms[:, None])
    # rows whose squares overflow, and a zero row, which stays zero
    U, n = _unit_rows(np.array([[3e200, -4e200], [0.0, 0.0]]))
    np.testing.assert_allclose(n, [5e200, 0.0], rtol=1e-15)
    np.testing.assert_allclose(U, [[0.6, -0.8], [0.0, 0.0]], rtol=1e-15)


def test_tolerances_validate():
    with pytest.raises(InputError):
        Tolerances(rank_tol=0.0)
    with pytest.raises(InputError):
        Tolerances(cone_tol=2.0)
