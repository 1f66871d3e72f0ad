"""Acceptance suite: one test per criterion, with wall-clock budgets.

Criteria 4 and 5 share one 300-instance random ensemble (cached per session).
"""

import itertools
import json
import time

import numpy as np
import pytest

from conescore import (
    GeneratorSet,
    MetricSpace,
    Objective,
    RankKind,
    Restriction,
    ScoreDesign,
    check_improvement,
    check_optimality,
    cone_ranks,
    decompose,
    design_score,
    is_in_cone,
    is_pointed,
)
from conescore.cli import main
from conescore.linalg import numeric_rank, project_complement
from conftest import (
    TOL,
    fixture_generators,
    l1_ball_samples,
    linf_grid,
    load_fixture,
    random_cone_rows,
    random_rotation,
)


def all_three(W):
    return (
        cone_ranks(W, kinds=(RankKind.CSR,))[RankKind.CSR].value,
        cone_ranks(W, kinds=(RankKind.CGR,))[RankKind.CGR].value,
        cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR].value,
    )


@pytest.fixture(scope="session")
def ensemble_300():
    rng = np.random.default_rng(4242)
    out = []
    for trial in range(300):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 13))
        out.append(GeneratorSet.from_rows(random_cone_rows(rng, m, n, trial % 3)))
    return out


def test_criterion_01_square_plane_exactness(tmp_path):
    from conescore.fixtures import fixture_path

    t0 = time.monotonic()
    W = fixture_generators("square_cone_generators.json")
    assert all_three(W) == (4, 4, 3)

    out = tmp_path / "r.json"
    code = main(["rank", "--in", str(fixture_path("square_cone_generators.json")),
                 "--out", str(out), "--reproducible"])
    assert code == 0
    res = json.loads(out.read_text())
    assert {k: v["value"] for k, v in res["ranks"].items()} == {"csr": 4, "cgr": 4, "cr": 3}

    space = MetricSpace.from_samples(load_fixture("square_cone_samples.json")["metrics_samples"])
    ks = {res_: design_score(space, Objective.IMPROVEMENT, res_).k for res_ in Restriction}
    assert ks == {Restriction.RES_CS: 4, Restriction.RES_LM: 4, Restriction.RES_L: 3}
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_nonpointed_5d_fixture():
    t0 = time.monotonic()
    W = fixture_generators("nonpointed_5d_generators.json")
    assert all_three(W) == (8, 7, 6)
    assert decompose(W).ell == 2
    assert time.monotonic() - t0 < 5.0


def test_criterion_03_planar_taxonomy():
    t0 = time.monotonic()
    expected = {
        "ray_2d.json": (1, 1, 1),
        "line_2d.json": (2, 2, 2),
        "wedge_2d.json": (2, 2, 2),
        "halfspace_2d.json": (3, 3, 3),
        "plane_2d.json": (4, 3, 3),
    }
    for name, triple in expected.items():
        assert all_three(fixture_generators(name)) == triple, name
    assert time.monotonic() - t0 < 1.0


def test_criterion_04_cone_rank_closed_form(ensemble_300):
    t0 = time.monotonic()
    for W in ensemble_300:
        r = numeric_rank(W.generators)
        expected = r if is_pointed(W) else r + 1
        assert cone_ranks(W, kinds=(RankKind.CR,))[RankKind.CR].value == expected
    assert time.monotonic() - t0 < 60.0


def test_criterion_05_chain_inequality(ensemble_300):
    for W in ensemble_300:
        csr, cgr, cr = all_three(W)
        assert W.m >= csr >= cgr >= cr >= numeric_rank(W.generators)


def test_criterion_06_design_oracle_round_trip():
    t0 = time.monotonic()
    rng = np.random.default_rng(515151)
    for trial in range(200):
        d = int(rng.integers(1, 7))
        r = int(rng.integers(1, d + 1))
        n = int(rng.integers(r + 1, 41))
        basis = rng.standard_normal((r, d))
        space = MetricSpace.from_samples(
            rng.standard_normal(d) + rng.standard_normal((n, r)) @ basis
        )
        for restriction in Restriction:
            imp = design_score(space, Objective.IMPROVEMENT, restriction)
            assert check_improvement(imp, space.samples).passed, (trial, restriction)
            opt = design_score(space, Objective.OPTIMALITY, restriction)
            assert check_optimality(opt, space.samples).passed, (trial, restriction)
            both = design_score(space, Objective.BOTH, restriction)
            assert check_improvement(both, space.samples).passed, (trial, restriction)
            assert check_optimality(both, space.samples).passed, (trial, restriction)
    assert time.monotonic() - t0 < 120.0


def test_criterion_07_monotone_improvement_implies_optimality():
    rng = np.random.default_rng(616161)
    passes = 0
    for _ in range(500):
        d = int(rng.integers(1, 5))
        F = rng.standard_normal((int(rng.integers(2, 15)), d))
        A = rng.random((int(rng.integers(1, 5)), d)) * rng.choice([0.5, 1.0, 3.0])
        space = MetricSpace.from_samples(F)
        design = ScoreDesign(
            A=A, restriction=Restriction.RES_LM,
            objective=Objective.BOTH, V=A @ space.hull.basis,
            rank_used=None, minimality_certified=False,
        )
        if check_improvement(design, F).passed:
            passes += 1
            assert check_optimality(design, F).passed
    assert passes > 0  # the implication was actually exercised


def test_criterion_08_norm_ball_selection_thresholds():
    t0 = time.monotonic()
    grid = linf_grid(3, 0.25)
    space = MetricSpace.from_samples(grid)

    def selection(coords):
        A = np.zeros((len(coords), 3))
        A[np.arange(len(coords)), list(coords)] = 1.0
        return ScoreDesign(
            A=A, restriction=Restriction.RES_CS,
            objective=Objective.OPTIMALITY, V=A @ space.hull.basis,
            rank_used=None, minimality_certified=False,
        )

    for k in (1, 2):
        for coords in itertools.combinations(range(3), k):
            assert not check_optimality(selection(coords), grid).passed, coords
    assert check_optimality(selection((0, 1, 2)), grid).passed

    ball = l1_ball_samples(np.random.default_rng(717171), 3, 100)
    ball_space = MetricSpace.from_samples(ball)
    one = ScoreDesign(
        A=np.array([[1.0, 0.0, 0.0]]), restriction=Restriction.RES_CS,
        objective=Objective.OPTIMALITY, V=np.array([[1.0, 0.0, 0.0]]) @ ball_space.hull.basis,
        rank_used=None, minimality_certified=False,
    )
    assert check_optimality(one, ball).passed
    assert time.monotonic() - t0 < 10.0


def test_criterion_09_relint_free_fixture(tmp_path):
    from conescore.fixtures import fixture_path

    in_path = fixture_path("improvement_without_relint.json")
    out = tmp_path / "verify.json"
    assert main(["verify", "--in", str(in_path), "--out", str(out), "--reproducible"]) == 0
    res = json.loads(out.read_text())
    assert {r["check"]: r["passed"] for r in res["verification"]}["improvement"] is True

    out2 = tmp_path / "design.json"
    assert main(["design", "--in", str(in_path), "--out", str(out2),
                 "--objective", "improvement", "--restriction", "res-cs",
                 "--reproducible"]) == 0
    res2 = json.loads(out2.read_text())
    assert res2["design"]["minimality_certified"] is False


def test_criterion_10_decomposition_invariants():
    rng = np.random.default_rng(818181)
    for trial in range(300):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 10))
        W = GeneratorSet.from_rows(random_cone_rows(rng, m, n, trial % 3))
        dec = decompose(W)
        Z = dec.lineality_basis
        if dec.ell:
            assert np.max(np.abs(Z.T @ Z - np.eye(dec.ell))) <= 10 * TOL.rank_tol
        for g in dec.lineal_generators.generators:
            assert np.max(np.abs(project_complement(g, Z))) <= TOL.cone_tol
        if dec.ell:
            assert np.max(np.abs(dec.pointed_generators.generators @ Z), initial=0.0) <= TOL.cone_tol
        assert is_pointed(dec.pointed_generators)
        for j in range(dec.ell):
            assert is_in_cone(Z[:, j], W)
            assert is_in_cone(-Z[:, j], W)
        frame = np.vstack([Z.T, -Z.T]) if dec.ell else np.zeros((0, W.dim))
        parts = GeneratorSet.from_rows(
            np.vstack([frame, dec.pointed_generators.generators]), dim=W.dim
        )
        for w in W.generators:
            assert is_in_cone(w, parts)
        for v in parts.generators:
            assert is_in_cone(v, W)


def test_criterion_11_basis_invariance():
    rng = np.random.default_rng(919191)
    bases = []
    for trial in range(20):
        n = int(rng.integers(2, 5))
        W = GeneratorSet.from_rows(random_cone_rows(rng, int(rng.integers(3, 9)), n, trial % 3))
        bases.append((W, all_three(W)))
    for check in range(50):
        W, triple = bases[check % 20]
        Q = random_rotation(rng, W.dim)
        WQ = GeneratorSet.from_rows(W.generators @ Q)
        assert all_three(WQ) == triple
