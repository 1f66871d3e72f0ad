import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conescore import (
    GeneratorSet,
    RankKind,
    ResourceCapError,
    VerificationError,
    check_cone_equal,
    check_cone_subset,
    cone_generating_rank,
    cone_rank,
    cone_ranks,
    cone_subset_rank,
    decompose,
    is_in_cone,
    is_pointed,
)
from conescore.linalg import numeric_rank, orthonormal_basis
from conescore.lp import find_strict_separator, solve_feasibility
from conescore.ranks import csr_subspace, enclosing_simplex
from conftest import (
    TOL,
    fixture_generators,
    random_cone_rows,
    random_pointed_rows,
    random_rotation,
)


class TestCsrPointed:
    def test_duplicate_ray(self):
        res = cone_subset_rank(fixture_generators("ray_2d.json"))
        assert res.value == 1
        assert res.relation == "equal"
        assert res.subset_indices in ((0,), (1,))

    def test_boundary_rays_survive(self):
        res = cone_subset_rank(GeneratorSet.from_rows([[2.0, 1.0], [-2.0, 1.0], [1.0, 2.0]]))
        assert res.value == 2
        assert res.subset_indices == (0, 1)

    def test_square_cone_all_extreme(self):
        res = cone_subset_rank(fixture_generators("square_cone_generators.json"))
        assert res.value == 4
        assert res.subset_indices == (0, 1, 2, 3)

    def test_witness_minimality(self, rng):
        # dropping any witness row loses some original generator, also when W
        # holds a duplicated direction and an interior row
        G = random_pointed_rows(rng, 8, 3)
        G = np.vstack([G, 3.0 * G[2], rng.random(8) @ G])
        W = GeneratorSet.from_rows(G)
        res = cone_subset_rank(W)
        V = res.witness.generators
        for drop in range(res.value):
            reduced = GeneratorSet.from_rows(np.delete(V, drop, axis=0), dim=W.dim)
            assert not all(is_in_cone(w, reduced) for w in W.generators)

    def test_one_membership_test_per_row(self, rng, monkeypatch):
        # a redundant row leaves the cone unchanged, so one scan suffices
        import conescore.ranks

        G = random_pointed_rows(rng, 6, 3)
        G = np.vstack([2.0 * G[1], G, rng.random(6) @ G, G[4]])
        calls = []
        real = conescore.ranks._in_cone

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(conescore.ranks, "_in_cone", counting)
        W = GeneratorSet.from_rows(G)
        res = cone_subset_rank(W)
        assert len(calls) <= W.m
        assert res.value < W.m - 2


class TestCsrSubspace:
    def test_line_needs_two(self):
        res = csr_subspace(fixture_generators("line_2d.json"))
        assert res.value == 2

    def test_plane_needs_all_four(self):
        # every 3-subset of the four diagonal directions spans a halfplane only
        res = csr_subspace(fixture_generators("plane_2d.json"))
        assert res.value == 4

    def test_three_suffice_with_redundant_row(self):
        W = GeneratorSet.from_rows([[1, 0], [0, 1], [-1, -1], [5, 5]])
        res = csr_subspace(W)
        assert res.value == 3
        assert res.subset_indices == (0, 1, 2)

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
        assert csr_subspace(W).subset_indices == (0, 1, 2, 3, 7, 19, 25)
        for cap in (1010, 10):
            monkeypatch.setattr("conescore.ranks._MAX_SUBSETS", cap)
            with pytest.raises(ResourceCapError, match="lineality dimension too large"):
                csr_subspace(W)


class TestConeSubsetRank:
    def test_pointed_delegates(self):
        from conescore.ranks import _extreme_rows

        W = fixture_generators("square_cone_generators.json")
        res = cone_subset_rank(W)
        assert res.value == 4
        assert res.subset_indices == tuple(_extreme_rows(W, TOL))

    def test_5d_example(self):
        res = cone_subset_rank(fixture_generators("nonpointed_5d_generators.json"))
        assert res.value == 8
        assert res.subset_indices == tuple(range(8))

    def test_halfspace(self):
        res = cone_subset_rank(fixture_generators("halfspace_2d.json"))
        assert res.value == 3
        assert res.relation == "equal"

    def test_witness_regenerates(self, rng):
        for trial in range(10):
            G = random_cone_rows(rng, 7, 3, trial % 3)
            W = GeneratorSet.from_rows(G)
            res = cone_subset_rank(W)
            assert check_cone_equal(W, res.witness)
            # witness rows really are rows of W
            for i, idx in enumerate(res.subset_indices):
                assert np.allclose(res.witness.generators[i], W.generators[idx])


class TestConeGeneratingRank:
    def test_5d_example(self):
        res = cone_generating_rank(fixture_generators("nonpointed_5d_generators.json"))
        assert res.value == 7
        assert res.relation == "equal"

    def test_full_plane_frame(self):
        res = cone_generating_rank(fixture_generators("plane_2d.json"))
        assert res.value == 3

    def test_square_cone(self):
        assert cone_generating_rank(fixture_generators("square_cone_generators.json")).value == 4

    def test_witness_exact(self, rng):
        for trial in range(10):
            G = random_cone_rows(rng, 6, 3, trial % 3)
            W = GeneratorSet.from_rows(G)
            res = cone_generating_rank(W)
            assert check_cone_equal(W, res.witness)

    def test_pointed_matches_subset_rank(self, rng):
        for _ in range(8):
            W = GeneratorSet.from_rows(random_pointed_rows(rng, 7, 4))
            assert cone_generating_rank(W).value == cone_subset_rank(W).value


class TestCrPointed:
    def test_square_cone_triangle(self):
        W = fixture_generators("square_cone_generators.json")
        res = cone_rank(W)
        assert res.value == 3
        assert res.relation == "encloses"
        assert check_cone_subset(W, res.witness)

    def test_single_ray(self):
        res = cone_rank(GeneratorSet.from_rows([[2.0, 1.0]]))
        assert res.value == 1
        assert np.allclose(res.witness.generators[0], [2.0, 1.0])

    def test_random_3d(self, rng):
        W = GeneratorSet.from_rows(random_pointed_rows(rng, 6, 3))
        res = cone_rank(W)
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
        for u in pts:
            res = solve_feasibility(verts, u, sum_to_one=True)
            assert res.feasible


class TestConeRank:
    def test_square_cone(self):
        assert cone_rank(fixture_generators("square_cone_generators.json")).value == 3

    def test_line(self):
        assert cone_rank(fixture_generators("line_2d.json")).value == 2

    def test_5d(self):
        res = cone_rank(fixture_generators("nonpointed_5d_generators.json"))
        assert res.value == 6
        assert res.relation == "encloses"

    def test_closed_form_and_chain(self, rng):
        for trial in range(40):
            G = random_cone_rows(rng, int(rng.integers(2, 10)), int(rng.integers(2, 6)), trial % 3)
            W = GeneratorSet.from_rows(G)
            r = numeric_rank(W.generators)
            csr = cone_subset_rank(W).value
            cgr = cone_generating_rank(W).value
            cr = cone_rank(W).value
            assert W.m >= csr >= cgr >= cr >= r
            assert cr == r + (0 if is_pointed(W) else 1)

    def test_enclosure_holds(self, rng):
        for trial in range(8):
            G = random_cone_rows(rng, 6, 4, trial % 3)
            W = GeneratorSet.from_rows(G)
            res = cone_rank(W)
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
            V = cone_rank(W).witness.generators
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
            cone_rank(fixture_generators("square_cone_generators.json"))

    def test_rank_one_witness_is_certified(self):
        # numeric rank 1 (the threshold scales with the largest singular
        # value), yet the first row's ray misses the second row
        W = GeneratorSet.from_rows([[1e-5, 1e-5], [3e4, -1e4]])
        assert numeric_rank(W.generators) == 1
        assert not is_in_cone(W.generators[1], GeneratorSet.from_rows(W.generators[:1]))
        with pytest.raises(VerificationError, match="does not contain a generator"):
            cone_rank(W)

    def test_rank_one_witness_is_the_first_row(self):
        G = np.array([[2.0, 1.0, 0.0], [4.0, 2.0, 0.0], [0.2, 0.1, 0.0]])
        res = cone_rank(GeneratorSet.from_rows(G))
        assert res.value == 1
        np.testing.assert_array_equal(res.witness.generators, G[:1])

    @pytest.mark.parametrize("rows, value", [
        (np.array([[1.0, 1.0], [-1.0, 1.0]]) * 1e155, 2),
        (np.array([[1.0, 1.0], [-1.0, 1.0]]) * 1e200, 2),
        ([[1e200, 1e200], [2e200, 2e200]], 1),
    ])
    def test_huge_rows_do_not_overflow(self, rows, value):
        # their squares overflow, so the unit rows must not come from them
        ranks = cone_ranks(GeneratorSet.from_rows(rows))
        assert [ranks[k].value for k in RankKind] == [value] * 3

    def test_rows_below_cone_tol_count_as_zero(self):
        # decompose ignores the +-1e-9 rows; CR must not separate them
        W = GeneratorSet.from_rows([[0.0, 1.0], [1e-9, 0.0], [-1e-9, 0.0]])
        assert decompose(W).ell == 0
        res = cone_rank(W)
        assert res.value == 1
        np.testing.assert_array_equal(res.witness.generators, [[0.0, 1.0]])


def test_basis_invariance_small(rng):
    for trial in range(6):
        G = random_cone_rows(rng, 6, 3, trial % 3)
        W = GeneratorSet.from_rows(G)
        vals = (
            cone_subset_rank(W).value,
            cone_generating_rank(W).value,
            cone_rank(W).value,
        )
        Q = random_rotation(rng, 3)
        WQ = GeneratorSet.from_rows(G @ Q)
        assert vals == (
            cone_subset_rank(WQ).value,
            cone_generating_rank(WQ).value,
            cone_rank(WQ).value,
        )


def test_rank_kinds_tagged():
    W = fixture_generators("wedge_2d.json")
    assert cone_subset_rank(W).kind is RankKind.CSR
    assert cone_generating_rank(W).kind is RankKind.CGR
    assert cone_rank(W).kind is RankKind.CR


class TestConeRanks:
    def test_one_elimination_for_csr_and_cgr(self, rng, monkeypatch):
        import conescore.ranks

        G = random_pointed_rows(rng, 6, 3)
        G = np.vstack([G, rng.random(6) @ G, 2.0 * G[3]])
        calls = []
        real = conescore.ranks._in_cone

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(conescore.ranks, "_in_cone", counting)
        W = GeneratorSet.from_rows(G)
        ranks = cone_ranks(W, TOL, kinds=(RankKind.CSR, RankKind.CGR))
        assert len(calls) <= W.m
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


SINGLE_KIND = {
    RankKind.CSR: cone_subset_rank,
    RankKind.CGR: cone_generating_rank,
    RankKind.CR: cone_rank,
}
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
    W = fixture_generators(name)
    single = {kind: rank(W) for kind, rank in SINGLE_KIND.items()}
    for kinds in KIND_SUBSETS:
        ranks = cone_ranks(W, kinds=kinds)
        assert tuple(ranks) == kinds
        for kind, res in ranks.items():
            ref = single[kind]
            assert (res.kind, res.value, res.subset_indices, res.relation) == (
                ref.kind, ref.value, ref.subset_indices, ref.relation)
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
