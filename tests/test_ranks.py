import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conescore import (
    GeneratorSet,
    InputError,
    NotPointedError,
    RankKind,
    ResourceCapError,
    VerificationError,
    check_cone_subset,
    cone_ranks,
    decompose,
    is_in_cone,
    is_pointed,
)
from conescore.linalg import _pow2_rows, numeric_rank, orthonormal_basis
from conescore.lp import find_strict_separator, solve_feasibility
from conescore.ranks import _extreme_rows, csr_subspace, enclosing_simplex
from conftest import (
    TOL,
    fixture_generators,
    plane_with_a_missed_line,
    random_cone_rows,
    random_pointed_rows,
    random_rotation,
    scalar_member,
)


def sequential_extreme_rows(W, tol, columns=None):
    """The reference scan for ``ranks._extreme_rows``: drop each row, in
    input order, that is a nonnegative combination of the rows still kept.
    The LPs combine the rows of columns (by default W's own rows)."""
    G = W.generators
    C = G if columns is None else columns
    idx = list(range(W.m))
    for i in range(W.m):
        others = [j for j in idx if j != i]
        if others and scalar_member(G[i], C[others], tol)[0]:
            idx.remove(i)
    return idx


def count_membership_lps(monkeypatch):
    """A list that grows by the number of LPs in each stack that
    cone._phase1_stack solves: every membership LP goes through it, and no
    other LP does (phase1 pivots its one LP through lp.pivot_loop)."""
    import conescore.cone

    solved = []
    solve = conescore.cone._phase1_stack

    def counting(G, X, *args):
        solved.append(X.shape[0])
        return solve(G, X, *args)

    monkeypatch.setattr(conescore.cone, "_phase1_stack", counting)
    return solved


def _spread_rays(g, count, n, wide=False):
    """Up to count rows (1, x) in R^n, rotated, with the x unit vectors at
    least 0.25 apart and scaled onto an ellipsoid: each row is an extreme
    ray with a margin far above the LP tolerances.  A wide draw stretches x
    30-fold, so the rays span up to about 176 degrees."""
    pts = []
    for _ in range(200 * count):
        x = g.standard_normal(n - 1)
        x /= np.linalg.norm(x)
        if all(np.linalg.norm(x - y) >= 0.25 for y in pts):
            pts.append(x)
        if len(pts) == count:
            break
    X = np.array(pts) * g.uniform(0.4, 1.0, size=n - 1) * (30.0 if wide else 1.0)
    return np.hstack([np.ones((len(X), 1)), X]) @ random_rotation(g, n).T


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_batched_scan_matches_the_sequential_scan(seed, scaled, wide):
    # pointed cones, some nearly halfspaces, with interior rows and rows
    # repeated at shuffled positions; the rows kept are the last one on
    # each extreme ray
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 6))
    R = _spread_rays(g, int(g.integers(1, 8)), n, wide)
    # with one ray, every positive combination lies on it
    inner = int(g.integers(0, 5)) if len(R) > 1 else 0
    interior = g.uniform(0.05, 1.0, size=(inner, len(R))) @ R
    base = np.vstack([R, interior])
    source = np.concatenate([np.arange(len(base)), g.integers(0, len(base), int(g.integers(0, 6)))])
    factors = np.concatenate([np.ones(len(base)),
                              [g.choice([2.0, 3.0, 0.5, g.uniform(0.1, 10.0)])
                               for _ in range(len(source) - len(base))]])
    order = g.permutation(len(source))
    source, G = source[order], (factors[:, None] * base[source])[order]
    if scaled:
        G *= 10.0 ** g.uniform(-6, 6, size=(len(G), 1))
    W = GeneratorSet.from_rows(G)
    expected = sorted(int(np.nonzero(source == r)[0][-1]) for r in range(len(R)))
    assert _extreme_rows(W, TOL) == expected
    # the scan with the same power-of-two columns chooses the same rows; at
    # unit scale so does the scan on the rows themselves
    assert sequential_extreme_rows(W, TOL, _pow2_rows(G)[0]) == expected
    if not scaled:
        assert sequential_extreme_rows(W, TOL) == expected


def test_wide_pointed_cone_is_eliminated_in_one_batch(monkeypatch):
    # a pointed cone whose rays span 178 degrees, which the sum of its unit
    # rows does not separate from the origin: every row is tested in one
    # batch, and rows 0 and 5, on one ray, in one group batch of one LP
    W = fixture_generators("wide_wedge_2d.json")
    solved = count_membership_lps(monkeypatch)
    assert _extreme_rows(W, TOL) == [3, 5]
    assert solved == [6, 1]
    assert sequential_extreme_rows(W, TOL) == [3, 5]


class TestCsrPointed:
    def test_duplicate_ray(self):
        W = fixture_generators("ray_2d.json")
        res = cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR]
        assert res.value == 1
        assert res.relation == "equal"
        assert res.subset_indices in ((0,), (1,))

    def test_boundary_rays_survive(self):
        W = GeneratorSet.from_rows([[2.0, 1.0], [-2.0, 1.0], [1.0, 2.0]])
        res = cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR]
        assert res.value == 2
        assert res.subset_indices == (0, 1)

    def test_square_cone_all_extreme(self):
        W = fixture_generators("square_cone_generators.json")
        res = cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR]
        assert res.value == 4
        assert res.subset_indices == (0, 1, 2, 3)

    def test_witness_minimality(self, rng):
        # dropping any witness row loses some original generator, also when W
        # holds a duplicated direction and an interior row
        G = random_pointed_rows(rng, 8, 3)
        G = np.vstack([G, 3.0 * G[2], rng.random(8) @ G])
        W = GeneratorSet.from_rows(G)
        res = cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR]
        V = res.witness.generators
        for drop in range(res.value):
            reduced = GeneratorSet.from_rows(np.delete(V, drop, axis=0), dim=W.dim)
            assert not all(is_in_cone(w, reduced) for w in W.generators)

    def test_one_membership_test_per_row(self, rng, monkeypatch):
        # a redundant row leaves the cone unchanged, so one scan suffices
        G = random_pointed_rows(rng, 6, 3)
        G = np.vstack([2.0 * G[1], G, rng.random(6) @ G, G[4]])
        solved = count_membership_lps(monkeypatch)
        W = GeneratorSet.from_rows(G)
        res = cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR]
        assert 0 < sum(solved) <= W.m
        assert res.value < W.m - 2


class TestCsrSubspace:
    def test_line_needs_two(self):
        assert csr_subspace(fixture_generators("line_2d.json")) == (0, 1)

    def test_plane_needs_all_four(self):
        # every 3-subset of the four diagonal directions spans a halfplane only
        assert csr_subspace(fixture_generators("plane_2d.json")) == (0, 1, 2, 3)

    def test_three_suffice_with_redundant_row(self):
        W = GeneratorSet.from_rows([[1, 0], [0, 1], [-1, -1], [5, 5]])
        assert csr_subspace(W) == (0, 1, 2)

    def test_enumeration_cap(self):
        big = np.vstack([np.eye(7), -np.eye(7)])
        with pytest.raises(ResourceCapError, match="lineality dimension too large"):
            csr_subspace(GeneratorSet.from_rows(big))

    def test_cap_counts_the_subsets_tried(self, monkeypatch):
        # 30 Gaussian rows span R^6: C(30, 12) subsets could be enumerated,
        # but the 1,011th one tried already positively spans
        W = GeneratorSet.from_rows(np.random.default_rng(0).standard_normal((30, 6)))
        ranks = cone_ranks(W)
        assert [ranks[k].value for k in RankKind] == [7, 7, 7]
        assert ranks[RankKind.CSR].subset_indices == (0, 1, 2, 3, 7, 19, 25)
        monkeypatch.setattr("conescore.ranks._MAX_SUBSETS", 1011)
        assert csr_subspace(W) == (0, 1, 2, 3, 7, 19, 25)
        for cap in (1010, 10):
            monkeypatch.setattr("conescore.ranks._MAX_SUBSETS", cap)
            with pytest.raises(ResourceCapError, match="lineality dimension too large"):
                csr_subspace(W)


class TestConeSubsetRank:
    def test_pointed_delegates(self):
        W = fixture_generators("square_cone_generators.json")
        res = cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR]
        assert res.value == 4
        assert res.subset_indices == tuple(_extreme_rows(W, TOL))

    def test_5d_example(self):
        W = fixture_generators("nonpointed_5d_generators.json")
        res = cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR]
        assert res.value == 8
        assert res.subset_indices == tuple(range(8))

    def test_halfspace(self):
        W = fixture_generators("halfspace_2d.json")
        res = cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR]
        assert res.value == 3
        assert res.relation == "equal"

    def test_witness_regenerates(self, rng):
        for trial in range(10):
            G = random_cone_rows(rng, 7, 3, trial % 3)
            W = GeneratorSet.from_rows(G)
            res = cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR]
            assert check_cone_subset(W, res.witness) and check_cone_subset(res.witness, W)
            # witness rows really are rows of W
            for i, idx in enumerate(res.subset_indices):
                assert np.allclose(res.witness.generators[i], W.generators[idx])


class TestConeGeneratingRank:
    def test_5d_example(self):
        W = fixture_generators("nonpointed_5d_generators.json")
        res = cone_ranks(W, kinds=(RankKind.CGR,))[RankKind.CGR]
        assert res.value == 7
        assert res.relation == "equal"

    def test_full_plane_frame(self):
        W = fixture_generators("plane_2d.json")
        res = cone_ranks(W, kinds=(RankKind.CGR,))[RankKind.CGR]
        assert res.value == 3

    def test_square_cone(self):
        W = fixture_generators("square_cone_generators.json")
        assert cone_ranks(W, kinds=(RankKind.CGR,))[RankKind.CGR].value == 4

    def test_witness_exact(self, rng):
        for trial in range(10):
            G = random_cone_rows(rng, 6, 3, trial % 3)
            W = GeneratorSet.from_rows(G)
            res = cone_ranks(W, kinds=(RankKind.CGR,))[RankKind.CGR]
            assert check_cone_subset(W, res.witness) and check_cone_subset(res.witness, W)

    def test_pointed_matches_subset_rank(self, rng):
        for _ in range(8):
            W = GeneratorSet.from_rows(random_pointed_rows(rng, 7, 4))
            cgr = cone_ranks(W, kinds=(RankKind.CGR,))[RankKind.CGR]
            assert cgr.value == cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR].value


class TestCrPointed:
    def test_square_cone_triangle(self):
        W = fixture_generators("square_cone_generators.json")
        res = cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR]
        assert res.value == 3
        assert res.relation == "encloses"
        assert check_cone_subset(W, res.witness)

    def test_single_ray(self):
        W = GeneratorSet.from_rows([[2.0, 1.0]])
        res = cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR]
        assert res.value == 1
        assert np.allclose(res.witness.generators[0], [2.0, 1.0])

    def test_random_3d(self, rng):
        W = GeneratorSet.from_rows(random_pointed_rows(rng, 6, 3))
        res = cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR]
        assert res.value == numeric_rank(W.generators)
        assert check_cone_subset(W, res.witness)

    def test_paper_triangle_is_alternate_witness(self):
        W = fixture_generators("square_cone_generators.json")
        V = fixture_generators("triangular_witness.json")
        assert check_cone_subset(W, V)
        assert not check_cone_subset(V, W)


class TestEnclosingSimplex:
    def _hyperplane(self, rng, n, r):
        B = orthonormal_basis(rng.standard_normal((r, n)))
        W = GeneratorSet.from_rows((np.abs(rng.random((r + 2, r))) + 0.2) @ B.T, dim=n)
        return find_strict_separator(W.generators)

    def test_single_point(self, rng):
        hp = self._hyperplane(rng, 4, 3)
        u = 0.5 * hp.normal / (hp.normal @ hp.normal)
        verts = enclosing_simplex(u.reshape(1, -1), hp)
        assert verts.shape[0] == 3

    def test_rank_one_is_the_point_itself(self):
        # at r = 1 the hyperplane meets span(W) in one point, which is the
        # whole simplex: its mean, with nothing degenerate along the way
        hp = find_strict_separator(np.array([[2.0, 1.0, 0.0]]))
        u = np.array([2.0, 1.0, 0.0]) / np.sqrt(5.0)
        point = ((hp.offset / (hp.normal @ u)) * u).reshape(1, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verts = enclosing_simplex(point, hp)
        np.testing.assert_array_equal(verts, point)

    def test_square_points_get_triangle(self):
        W = fixture_generators("square_cone_generators.json")
        hp = find_strict_separator(W.generators)
        U = W.generators  # already unit rows
        pts = (hp.offset / (U @ hp.normal))[:, None] * U
        verts = enclosing_simplex(pts, hp)
        assert verts.shape == (3, 3)

    def test_random_plane_points(self, rng):
        hp = self._hyperplane(rng, 4, 3)
        w = hp.normal
        x0 = hp.offset * w / (w @ w)
        H = orthonormal_basis(hp.ambient_basis.T - np.outer(hp.ambient_basis.T @ (w / np.linalg.norm(w)), w / np.linalg.norm(w)))
        pts = x0 + rng.standard_normal((20, H.shape[1])) @ H.T
        verts = enclosing_simplex(pts, hp)
        # u is a convex combination of the vertices: a column of ones adds
        # the row sum(lam) = 1
        rows = np.c_[verts, np.ones(len(verts))]
        for u in pts:
            assert solve_feasibility(rows, np.append(u, 1.0)).feasible


class TestConeRank:
    def test_square_cone(self):
        W = fixture_generators("square_cone_generators.json")
        assert cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR].value == 3

    def test_line(self):
        W = fixture_generators("line_2d.json")
        assert cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR].value == 2

    def test_5d(self):
        W = fixture_generators("nonpointed_5d_generators.json")
        res = cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR]
        assert res.value == 6
        assert res.relation == "encloses"

    def test_closed_form_and_chain(self, rng):
        for trial in range(40):
            G = random_cone_rows(rng, int(rng.integers(2, 10)), int(rng.integers(2, 6)), trial % 3)
            W = GeneratorSet.from_rows(G)
            r = numeric_rank(W.generators)
            csr = cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR].value
            cgr = cone_ranks(W, kinds=(RankKind.CGR,))[RankKind.CGR].value
            cr = cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR].value
            assert W.m >= csr >= cgr >= cr >= r
            assert cr == r + (0 if is_pointed(W) else 1)

    def test_enclosure_holds(self, rng):
        for trial in range(8):
            G = random_cone_rows(rng, 6, 4, trial % 3)
            W = GeneratorSet.from_rows(G)
            res = cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR]
            assert check_cone_subset(W, res.witness)


class TestCrCertificate:
    """The CR witness is certified by one linear solve, not one LP per row."""

    @staticmethod
    def _random_cone(rng, trial):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(d, d + 21))
        G = random_pointed_rows(rng, m, d) @ random_rotation(rng, d)
        if trial % 2:
            G *= 10.0 ** rng.uniform(-6, 6, size=(m, 1))
        else:
            G[rng.integers(m)] *= 1e-6
        return GeneratorSet.from_rows(G)

    def test_agrees_with_is_in_cone(self, rng):
        from conescore.ranks import _simplicial_members

        verdicts = set()
        for trial in range(40):
            W = self._random_cone(rng, trial)
            V = cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR].witness.generators
            B = orthonormal_basis(V)
            for shrink in (1.0, 0.5):
                # halving the simplex about its centroid drops rows out of it
                verts = V @ B
                verts = verts.mean(axis=0) + shrink * (verts - verts.mean(axis=0))
                Vset = GeneratorSet.from_rows(verts @ B.T)
                got = bool(np.all(_simplicial_members(W.generators, B, verts, TOL)))
                assert got == all(is_in_cone(g, Vset, TOL) for g in W.generators)
                verdicts.add(got)
        assert verdicts == {True, False}

    def test_pointed_cr_solves_two_lps(self, rng, monkeypatch):
        # one for the decomposition, one for the separator
        import conescore.cone
        import conescore.lp

        calls = []
        real = conescore.lp.solve_feasibility

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(conescore.lp, "solve_feasibility", counting)
        monkeypatch.setattr(conescore.cone, "solve_feasibility", counting)
        W = GeneratorSet.from_rows(random_pointed_rows(rng, 15, 5))
        ranks = cone_ranks(W, TOL, kinds=(RankKind.CR,))
        assert ranks[RankKind.CR].value == 5
        assert len(calls) == 2

    def test_failed_certificate_raises(self, monkeypatch):
        import conescore.ranks

        real = conescore.ranks.enclosing_simplex

        def shrunk(*args, **kwargs):
            verts = real(*args, **kwargs)
            return verts.mean(axis=0) + 0.5 * (verts - verts.mean(axis=0))

        monkeypatch.setattr(conescore.ranks, "enclosing_simplex", shrunk)
        with pytest.raises(VerificationError, match="does not contain a generator"):
            cone_ranks(fixture_generators("square_cone_generators.json"), kinds=(RankKind.CR,))

    def test_rank_one_witness_is_certified(self):
        # numeric rank 1 (the threshold scales with the largest singular
        # value), yet the first row's ray misses the second row
        W = GeneratorSet.from_rows([[1e-5, 1e-5], [3e4, -1e4]])
        assert numeric_rank(W.generators) == 1
        assert not is_in_cone(W.generators[1], GeneratorSet.from_rows(W.generators[:1]))
        with pytest.raises(VerificationError, match="does not contain a generator"):
            cone_ranks(W, kinds=(RankKind.CR,))

    def test_rank_one_witness_is_the_first_row(self):
        G = np.array([[2.0, 1.0, 0.0], [4.0, 2.0, 0.0], [0.2, 0.1, 0.0]])
        res = cone_ranks(GeneratorSet.from_rows(G), kinds=(RankKind.CR,))[RankKind.CR]
        assert res.value == 1
        np.testing.assert_array_equal(res.witness.generators, G[:1])

    @pytest.mark.parametrize("rows, value", [
        (np.array([[1.0, 1.0], [-1.0, 1.0]]) * 1e155, 2),
        (np.array([[1.0, 1.0], [-1.0, 1.0]]) * 1e200, 2),
        ([[1e200, 1e200], [2e200, 2e200]], 1),
        (np.array([[1.0, 1.0], [-1.0, 1.0]]) * 8e307, 2),
    ])
    def test_huge_rows_do_not_overflow(self, rows, value):
        # their squares overflow, so the unit rows must not come from them;
        # at 8e307 the CR certificate's own products would overflow too
        ranks = cone_ranks(GeneratorSet.from_rows(rows))
        assert [ranks[k].value for k in RankKind] == [value] * 3

    def test_rows_below_cone_tol_count_as_zero(self):
        # decompose ignores the +-1e-9 rows; CR must not separate them
        W = GeneratorSet.from_rows([[0.0, 1.0], [1e-9, 0.0], [-1e-9, 0.0]])
        assert decompose(W).ell == 0
        res = cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR]
        assert res.value == 1
        np.testing.assert_array_equal(res.witness.generators, [[0.0, 1.0]])


def test_basis_invariance_small(rng):
    for trial in range(6):
        G = random_cone_rows(rng, 6, 3, trial % 3)
        W = GeneratorSet.from_rows(G)
        vals = (
            cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR].value,
            cone_ranks(W, kinds=(RankKind.CGR,))[RankKind.CGR].value,
            cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR].value,
        )
        Q = random_rotation(rng, 3)
        WQ = GeneratorSet.from_rows(G @ Q)
        assert vals == (
            cone_ranks(WQ, kinds=(RankKind.CSR,))[RankKind.CSR].value,
            cone_ranks(WQ, kinds=(RankKind.CGR,))[RankKind.CGR].value,
            cone_ranks(WQ, kinds=(RankKind.CR,))[RankKind.CR].value,
        )


def test_rank_kinds_tagged():
    W = fixture_generators("wedge_2d.json")
    for kind in RankKind:
        res = cone_ranks(W, kinds=(kind,))[kind]
        assert res.kind is kind
    for kind, res in cone_ranks(W).items():
        assert res.kind is kind


class TestConeRanks:
    @pytest.mark.parametrize("kinds", [("csr",), "cgr", RankKind.CR],
                             ids=["tuple-of-strings", "string", "bare-member"])
    def test_kinds_must_be_a_tuple_of_rank_kinds(self, kinds):
        W = fixture_generators("square_cone_generators.json")
        with pytest.raises(InputError, match="tuple of RankKind members"):
            cone_ranks(W, kinds=kinds)

    def test_one_elimination_for_csr_and_cgr(self, rng, monkeypatch):
        G = random_pointed_rows(rng, 6, 3)
        G = np.vstack([G, rng.random(6) @ G, 2.0 * G[3]])
        solved = count_membership_lps(monkeypatch)
        W = GeneratorSet.from_rows(G)
        ranks = cone_ranks(W, TOL, kinds=(RankKind.CSR, RankKind.CGR))
        assert 0 < sum(solved) <= W.m
        assert ranks[RankKind.CSR].value == ranks[RankKind.CGR].value <= W.m - 2

    def test_validates_nothing_per_membership_test(self, rng, monkeypatch):
        # only input from outside the package is validated: on a pointed cone
        # the number of as_matrix calls does not grow with the number of rows
        import conescore

        real = conescore.linalg.as_matrix
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in vars(conescore).values():
            if getattr(module, "as_matrix", None) is real:
                monkeypatch.setattr(module, "as_matrix", counting)
        counts = []
        for m in (6, 12, 24):
            W = GeneratorSet.from_rows(random_pointed_rows(rng, m, 4))
            calls.clear()
            ranks = cone_ranks(W)
            assert ranks[RankKind.CR].value == 4
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize("name, lps", [("square_cone_generators.json", 1),
                                           ("wide_wedge_2d.json", 1),
                                           ("halfspace_2d.json", 2),
                                           ("nonpointed_5d_generators.json", 2)])
    def test_one_pointedness_lp_per_part(self, monkeypatch, name, lps):
        # decompose's zero-combination LP certifies W's pointed part at
        # ell = 0; at ell > 0 the projected part gets one LP of its own
        import conescore.cone

        real = conescore.cone._zero_combination
        calls = []

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(conescore.cone, "_zero_combination", counting)
        W = fixture_generators(name)
        cone_ranks(W, kinds=(RankKind.CGR,))
        assert len(calls) == lps

    @pytest.mark.parametrize("kind", [RankKind.CSR, RankKind.CGR])
    def test_line_missed_by_the_decomposition_is_not_eliminated(self, monkeypatch, kind):
        W, missing_a_line = plane_with_a_missed_line()
        monkeypatch.setattr("conescore.ranks.decompose", missing_a_line)
        with pytest.raises(NotPointedError, match="holds a line the decomposition missed"):
            cone_ranks(W, kinds=(kind,))

    def test_cgr_reuses_the_csr_extreme_rows(self):
        W = fixture_generators("nonpointed_5d_generators.json")
        dec = decompose(W)
        ranks = cone_ranks(W)
        csr, cgr = ranks[RankKind.CSR], ranks[RankKind.CGR]
        pointed = [p for p, i in enumerate(dec.outside_rows) if i in csr.subset_indices]
        assert pointed
        np.testing.assert_array_equal(
            cgr.witness.generators[dec.ell + 1:], dec.pointed_generators.generators[pointed]
        )


KIND_SUBSETS = [
    kinds for size in range(1, 4) for kinds in itertools.combinations(tuple(RankKind), size)
]


@pytest.mark.parametrize(
    "name",
    [
        "ray_2d.json",
        "wedge_2d.json",
        "line_2d.json",
        "halfspace_2d.json",
        "plane_2d.json",
        "square_cone_generators.json",
        "nonpointed_5d_generators.json",
        "triangular_witness.json",
    ],
)
def test_cone_ranks_match_single_kinds(name):
    # each kind computed alone is the reference for every subset of kinds
    W = fixture_generators(name)
    single = {kind: cone_ranks(W, kinds=(kind,))[kind] for kind in RankKind}
    for kinds in KIND_SUBSETS:
        ranks = cone_ranks(W, kinds=kinds)
        assert tuple(ranks) == kinds
        for kind, res in ranks.items():
            ref = single[kind]
            assert res.kind is ref.kind is kind
            assert (res.value, res.subset_indices, res.relation) == (
                ref.value, ref.subset_indices, ref.relation)
            np.testing.assert_array_equal(res.witness.generators, ref.witness.generators)


def _cone_with_lineality(g, ell):
    """Shuffled rows of a cone in R^n whose lineality space is exactly the
    span of the first ell columns of a random rotation Q, returned with Q."""
    n = int(g.integers(ell + 2, 6))
    Q = random_rotation(g, n)
    Z, Y = Q[:, :ell], Q[:, ell:]
    frame = np.vstack([Z.T, -Z.sum(axis=1)]) if ell else np.zeros((0, n))
    lineal = g.uniform(0.5, 2.0, size=(len(frame), 1)) * frame
    k = int(g.integers(n - ell, n - ell + 5))
    pointed = random_pointed_rows(g, k, n - ell) @ Y.T + g.standard_normal((k, ell)) @ Z.T
    return g.permutation(np.vstack([lineal, pointed])), Q


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
@example(96, 1)  # a projection lengthens a tiny row past cone_tol
def test_rows_below_cone_tol_change_nothing(seed, ell):
    # the README's guarantee: rows with max|w| <= cone_tol count as zero for
    # the decomposition and for all three ranks alike
    g = np.random.default_rng(seed)
    G, Q = _cone_with_lineality(g, ell)
    n = G.shape[1]
    directions = [g.standard_normal(n), G[int(g.integers(len(G)))]]
    if ell:
        directions.append(g.standard_normal(ell) @ Q[:, :ell].T)  # inside the lineality
    tiny = np.array([v / np.max(np.abs(v)) for v in directions])
    tiny *= TOL.cone_tol * g.uniform(0.01, 0.99, size=(len(tiny), 1))
    tiny = np.vstack([tiny, np.zeros(n)])  # an exact zero row is one more
    t = len(tiny)
    W = GeneratorSet.from_rows(G)
    Wt = GeneratorSet.from_rows(np.vstack([tiny, G]))
    assert Wt.m == W.m + t

    dec, dect = decompose(W), decompose(Wt)
    assert dect.ell == dec.ell == ell
    assert dect.inside_rows == tuple(i + t for i in dec.inside_rows)
    assert dect.outside_rows == tuple(i + t for i in dec.outside_rows)

    ranks, rankst = cone_ranks(W), cone_ranks(Wt)
    for kind in RankKind:
        assert rankst[kind].value == ranks[kind].value
    csr = ranks[RankKind.CSR].subset_indices
    assert rankst[RankKind.CSR].subset_indices == tuple(i + t for i in csr)
