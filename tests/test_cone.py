import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conescore
from conescore import (
    GeneratorSet,
    InputError,
    cone_rank,
    cone_subset_rank,
    decompose,
    is_in_cone,
    is_pointed,
)
from conescore.cone import _members, _membership_bound
from conescore.linalg import orthonormal_basis, project_complement
from conftest import (
    TOL,
    fixture_generators,
    random_cone_rows,
    random_rotation,
    scalar_member,
)


class TestGeneratorSet:
    def test_keeps_every_row(self):
        # row i is input row i, so every index the package reports is an
        # input position; decompose alone decides which rows count as zero
        rows = np.array([[0.0, 0.0], [1.0, 2.0], [1e-10, 0.0], [0.0, 0.0]])
        W = GeneratorSet.from_rows(rows)
        assert W.m == 4 and W.dim == 2
        np.testing.assert_array_equal(W.generators, rows)
        rows[1, 0] = 5.0  # the set holds a copy
        assert W.generators[1, 0] == 1.0
        dec = decompose(W)
        assert dec.inside_rows == () and dec.outside_rows == (1,)

    def test_empty_needs_dim(self):
        W = GeneratorSet.from_rows(np.zeros((0, 3)), dim=3)
        assert W.m == 0 and W.dim == 3

    def test_rejects_non_matrix_input(self):
        with pytest.raises(InputError, match="expected a 2-D matrix"):
            GeneratorSet.from_rows(np.ones((2, 2, 3)))
        with pytest.raises(InputError, match="finite"):
            GeneratorSet.from_rows([[1.0, np.nan]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_generator_is_an_input_error(self, bad):
        # the constructor itself validates, so no set of generators, however
        # built, reaches decompose or the ranks with a non-finite entry
        rows = np.array([[bad, 1.0], [1.0, 0.0]])
        for build in (GeneratorSet, GeneratorSet.from_rows):
            with pytest.raises(InputError, match="generators: entries must be finite"):
                build(rows)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_index_tuples_do_not_grow_peak_rss(self):
        # a new process inherits its parent's RSS high-water mark, so the
        # loop runs in a fork of a small interpreter, whose mark is its own
        code = textwrap.dedent("""
            import os
            import sys

            pid = os.fork()
            if pid:
                sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

            import resource
            import numpy as np
            from conescore import GeneratorSet

            mats = [np.random.default_rng(m).standard_normal((m, 8)) for m in range(1, 38)]

            def burst(n):
                for i in range(n):
                    GeneratorSet.from_rows(mats[i % len(mats)])

            burst(2000)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            burst(30000)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
        """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(conescore.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1024  # KiB on Linux


class TestMembership:
    def test_scaled_ray(self):
        assert is_in_cone([4.0, 2.0], GeneratorSet.from_rows([[2.0, 1.0]]))

    def test_origin_always_inside(self):
        assert is_in_cone([0.0, 0.0], fixture_generators("wedge_2d.json"))
        assert is_in_cone(np.zeros(2), GeneratorSet.from_rows(np.zeros((0, 2)), dim=2))

    def test_wedge_in_and_out(self):
        W = GeneratorSet.from_rows([[2.0, 1.0], [1.0, 2.0]])
        assert is_in_cone([1.0, 1.0], W)
        # (1,3) sits above the (1,2) edge: 2a+b=1, a+2b=3 needs a = -1/3
        assert not is_in_cone([1.0, 3.0], W)
        assert not is_in_cone([1.0, -1.0], W)

    def test_2d_angle_oracle(self, rng):
        # membership in a 2D wedge is an angle comparison
        W = GeneratorSet.from_rows([[2.0, 1.0], [1.0, 2.0]])
        lo, hi = math.atan2(1, 2), math.atan2(2, 1)
        for _ in range(40):
            x = rng.standard_normal(2)
            inside = lo - 1e-9 <= math.atan2(x[1], x[0]) <= hi + 1e-9
            assert is_in_cone(x, W) == inside


    @pytest.mark.parametrize("rows", [np.zeros((0, 2)), [[0.0, 0.0]], [[1e-11, 0.0]]],
                             ids=["no-rows", "zero-row", "tiny-row"])
    def test_rows_that_span_nothing_share_one_verdict(self, rows):
        # one phase-1 LP decides all three: the point is inside when its l1
        # norm is within max(feas_tol, cone_tol * (1 + max|x|))
        W = GeneratorSet.from_rows(rows, dim=2)
        assert not is_in_cone([8e-9, 8e-9], W)
        assert is_in_cone([4e-9, 4e-9], W)
        # the same verdicts for both points in one stack, and with every row
        # left out by keep
        X, G = np.array([[8e-9, 8e-9], [4e-9, 4e-9]]), W.generators
        assert members_match_the_scalar_reference(X, G) == [False, True]
        keep = np.zeros((2, W.m), bool)
        assert members_match_the_scalar_reference(X, G, keep) == [False, True]

    @pytest.mark.parametrize("x, match", [
        ([np.inf, 0.0], "point: entries must be finite"),
        ([np.nan, 0.0], "point: entries must be finite"),
        ([[1.0, 0.0], [0.0, 1.0]], "point: expected one point, got 2 rows"),
        ([1.0, 0.0, 0.0], "point has dim 3, cone has dim 2"),
        ([["a", 0.0]], "point: not a numeric matrix"),
    ])
    def test_rejects_a_bad_point(self, x, match):
        W = GeneratorSet.from_rows([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(InputError, match=match):
            is_in_cone(x, W)

    @pytest.mark.parametrize("scale", [1.0, 1e8, 1e12])
    def test_large_points_keep_the_lp_tolerance_in_range(self, scale):
        # the slack cone_tol * (1 + max|x|) exceeds 1 from max|x| ~ 1e8 on
        W = GeneratorSet.from_rows(scale * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert is_in_cone(scale * np.array([1.0, 1.0]), W)
        assert is_in_cone(scale * np.array([3.0, 0.5]), W)
        assert not is_in_cone(scale * np.array([-1.0, 1.0]), W)
        assert not is_in_cone(scale * np.array([1.0, -1e-3]), W)


def members_match_the_scalar_reference(X, G, keep=None):
    """_members(X, G, TOL, keep) and, row by row, the scalar LP on the rows
    keep leaves it: the same verdict, and uses[s, j] exactly where the
    scalar witness gives row j a share lam_j * max|g_j| above the bound.
    Returns the verdicts."""
    inside, uses = _members(X, G, TOL, keep)
    share = np.max(np.abs(G), axis=1, initial=0.0)
    for s, x in enumerate(X):
        kept = np.ones(len(G), bool) if keep is None else keep[s]
        feasible, lam = scalar_member(x, G[kept])
        _, bound = _membership_bound(x, TOL)
        expected = np.zeros(len(G), bool)
        expected[kept] = lam * share[kept] > bound
        assert inside[s] == feasible
        assert uses[s].tolist() == expected.tolist()
    return inside.tolist()


class TestMembers:
    def test_random_stacks_match_the_scalar_reference(self, rng, monkeypatch):
        # zero rows, rows below the LP's tolerances, keep rows that leave
        # every row out, m = 0, and stacks split into one kernel call per LP
        import conescore.lp

        for trial in range(80):
            m, n, k = int(rng.integers(0, 8)), int(rng.integers(1, 5)), int(rng.integers(1, 7))
            G = random_cone_rows(rng, m + 1, n, trial % 3)[:m]
            G[rng.random(len(G)) < 0.15] = 0.0
            G[rng.random(len(G)) < 0.15] *= 1e-11
            combos = rng.random((k, len(G))) @ G if len(G) else np.zeros((k, n))
            X = np.where(rng.random((k, 1)) < 0.5, combos, rng.standard_normal((k, n)))
            keep = rng.random((k, len(G))) < 0.7
            keep[rng.random(k) < 0.2] = False
            monkeypatch.setattr(conescore.lp, "_BATCH_CELLS", 1 if trial % 4 > 1 else 1 << 19)
            members_match_the_scalar_reference(X, G, keep if trial % 2 else None)


class TestPointedness:
    def test_ray(self):
        assert is_pointed(fixture_generators("ray_2d.json"))

    def test_line(self):
        assert not is_pointed(fixture_generators("line_2d.json"))

    def test_plane(self):
        assert not is_pointed(fixture_generators("plane_2d.json"))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_negated_generator_equivalence(self, seed):
        # non-pointed iff some generator's negation stays inside the cone
        g = np.random.default_rng(seed)
        G = random_cone_rows(g, 10, 4, int(g.integers(0, 3)))
        W = GeneratorSet.from_rows(G)
        has_mirrored = any(is_in_cone(-w, W) for w in W.generators)
        assert is_pointed(W) == (not has_mirrored)


    def test_agrees_with_decompose_on_negligible_rows(self):
        # a row 1e-10 times a generator is zero to decompose (max|w| <= cone_tol);
        # is_pointed and the ranks must see the cone the same way
        g = np.random.default_rng(1)
        for _ in range(40):
            d = int(g.integers(2, 5))
            G = (np.abs(g.standard_normal((int(g.integers(d, d + 5)), d))) + 0.05) @ \
                random_rotation(g, d).T
            W = GeneratorSet.from_rows(np.vstack([G, 1e-10 * G[int(g.integers(len(G)))]]))
            assert decompose(W).ell == 0
            assert is_pointed(W)
            assert len(G) not in cone_subset_rank(W).subset_indices
            assert cone_rank(W).value == d


class TestDecompose:
    def test_pointed_passthrough(self):
        W = fixture_generators("square_cone_generators.json")
        dec = decompose(W)
        assert dec.ell == 0
        assert dec.pointed_generators.m == W.m
        assert np.allclose(dec.pointed_generators.generators, W.generators)

    def test_halfspace(self):
        W = fixture_generators("halfspace_2d.json")
        dec = decompose(W)
        assert dec.ell == 1
        # lineality is the line through (2, 1)
        z = dec.lineality_basis[:, 0]
        assert np.allclose(np.abs(z), np.array([2.0, 1.0]) / np.sqrt(5))
        assert dec.pointed_generators.m >= 1
        for p in dec.pointed_generators.generators:
            assert np.allclose(p / p[1], np.array([-1.0, 2.0]) / 2.0)

    def test_5d_two_dim_lineality(self):
        W = fixture_generators("nonpointed_5d_generators.json")
        dec = decompose(W)
        assert dec.ell == 2
        assert is_pointed(dec.pointed_generators)

    @pytest.mark.parametrize("name, inside, outside", [
        ("nonpointed_5d_generators.json", (0, 1, 2, 3), (4, 5, 6, 7)),
        ("ray_2d.json", (), (0, 1)),
        ("halfspace_2d.json", (0, 1), (2, 3)),
    ], ids=["5d", "ray", "halfspace"])
    def test_row_split(self, name, inside, outside):
        # rows inside the lineality space are kept as they are; the others
        # are projected into the pointed part, one for one
        W = fixture_generators(name)
        dec = decompose(W)
        assert dec.inside_rows == inside
        assert dec.outside_rows == outside
        assert dec.lineal_generators.m == len(inside)
        assert dec.pointed_generators.m == len(outside)
        assert np.array_equal(dec.lineal_generators.generators, W.generators[list(inside)])

    def test_invariants_random(self, rng):
        for trial in range(25):
            G = random_cone_rows(rng, int(rng.integers(2, 9)), int(rng.integers(2, 6)), trial % 3)
            W = GeneratorSet.from_rows(G)
            dec = decompose(W)
            Z = dec.lineality_basis
            if dec.ell:
                assert np.allclose(Z.T @ Z, np.eye(dec.ell), atol=10 * TOL.rank_tol)
                # maximality: both directions of every basis vector stay inside
                for j in range(dec.ell):
                    assert is_in_cone(Z[:, j], W)
                    assert is_in_cone(-Z[:, j], W)
            for g in dec.lineal_generators.generators:
                assert np.max(np.abs(project_complement(g, Z))) <= TOL.cone_tol
            for p in dec.pointed_generators.generators:
                assert np.max(np.abs(p @ Z)) <= TOL.cone_tol if dec.ell else True
            assert is_pointed(dec.pointed_generators)

    def test_reconstruction(self, rng):
        for trial in range(12):
            G = random_cone_rows(rng, 7, 4, trial % 3)
            W = GeneratorSet.from_rows(G)
            dec = decompose(W)
            Z = dec.lineality_basis
            frame = np.vstack([Z.T, -Z.T]) if dec.ell else np.zeros((0, W.dim))
            parts = GeneratorSet.from_rows(
                np.vstack([frame, dec.pointed_generators.generators]), dim=W.dim
            )
            for w in W.generators:
                assert is_in_cone(w, parts)
            for v in parts.generators:
                assert is_in_cone(v, W)


def test_projection_cone_interchange(rng):
    # projecting a cone point lands in the cone of the projected generators
    for _ in range(10):
        G = rng.standard_normal((6, 4))
        W = GeneratorSet.from_rows(G)
        V = orthonormal_basis(rng.standard_normal((2, 4)))
        proj = GeneratorSet.from_rows(G - project_complement(G, V), dim=4)
        lam = rng.random(6)
        x = lam @ G
        x_proj = x - project_complement(x, V).ravel()
        assert is_in_cone(x_proj, proj)
