"""Seeded instance pools with known answers, one per benchmark workload.

Every instance is built so that its correct answer follows from the
construction alone, never from running conescore: the benchmark checks the
program against these answers.  The same seed gives byte-identical problem
files.  Input sizes are stratified over the pool (one size per stratum,
jittered inside it), a second cost-setting property, where a workload has
one, cycles across the strata, and pools are about as large as the number of
ops a run makes, so that the mix of op costs is nearly the same for every
seed and per-op latencies spread smoothly between the extremes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

RANK_DIM = 8
DESIGN_DIM = 8
DESIGN_HULL_DIM = 5
VERIFY_DIM = 6


@dataclass(frozen=True)
class Instance:
    """One problem file plus the CLI arguments and the answer it must give."""

    doc: dict
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    def problem_bytes(self) -> bytes:
        return json.dumps(self.doc, sort_keys=True).encode()


def _strata(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """One integer per equal-width stratum of [lo, hi), in increasing order."""
    u = (np.arange(count) + rng.random(count)) / count
    return np.floor(lo + (hi - lo) * u).astype(int)


def _orthonormal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _interleave(rng, *blocks: np.ndarray) -> np.ndarray:
    """Rows of all blocks, each block spread evenly through the order."""
    keys = np.concatenate([(np.arange(len(b)) + rng.random(len(b))) / len(b) for b in blocks])
    return np.vstack(blocks)[np.argsort(keys, kind="stable")]


def _spread_on_sphere(rng, count: int, dim: int, min_sep: float) -> np.ndarray:
    # unit vectors pairwise at least min_sep apart, so every one is an extreme
    # ray of the cone over (1, x) with a margin far above the LP tolerances
    pts: list[np.ndarray] = []
    while len(pts) < count:
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        if all(np.linalg.norm(x - p) >= min_sep for p in pts):
            pts.append(x)
    return np.array(pts)


def _rank_instance(rng, m: int, ell: int) -> Instance:
    """A cone in R^8 with `rays` extreme rays, redundant interior rows and,
    when ell > 0, an ell-dim lineality space generated by an (ell+1)-frame."""
    n = RANK_DIM
    k = n - ell  # dimension of the pointed part
    frame = ell + 1 if ell else 0
    rays = max(k, int(round(0.4 * m)))
    interior = m - rays - frame
    Q = _orthonormal(rng, n)
    L, Lperp = Q[:, :ell], Q[:, ell:]

    # pointed part in L-perp coordinates: rays (1, x_i) with x_i on an
    # ellipsoid, so every x_i is extreme; on a sphere all rays would make the
    # same angle with the axis and all would touch one separating hyperplane,
    # a degenerate LP that data in general position does not give
    X = _spread_on_sphere(rng, rays, k - 1, 0.25) * rng.uniform(0.4, 1.0, size=k - 1)
    R = np.hstack([np.ones((rays, 1)), X])
    # interior rows weight every ray, so each lies strictly inside the cone
    # and no few rows are linearly dependent
    I = rng.uniform(0.05, 1.0, size=(interior, rays)) @ R
    R, I = R @ Lperp.T, I @ Lperp.T
    if ell:
        R += rng.standard_normal((rays, ell)) @ L.T
        I += rng.standard_normal((interior, ell)) @ L.T
        G = rng.standard_normal((ell, ell))
        rows = _interleave(rng, R, I, np.vstack([G, -G.sum(axis=0)]) @ L.T)
    else:
        rows = _interleave(rng, R, I)
    rows *= rng.uniform(0.5, 2.0, size=(rows.shape[0], 1))
    subset = rays + frame
    return Instance(
        doc={"schema_version": 1, "generators": rows.tolist()},
        argv=("rank", "--kind", "all", "--reproducible"),
        expect={
            "m": m,
            "csr": subset,
            "cgr": subset,
            "cr": n + (1 if ell else 0),
            "numeric_rank": n,
        },
    )


def rank_all_pool(seed: int, size: int) -> list[Instance]:
    """Pointed cones only; cones with a lineality space are in
    rank_lineality_pool."""
    rng = np.random.default_rng([seed, 1])
    return [_rank_instance(rng, int(m), 0) for m in _strata(rng, size, 16, 37)]


def rank_lineality_pool(seed: int, size: int) -> list[Instance]:
    """Cones with a 1-, 2- or 3-dim lineality space.

    Not a timed workload: the LP that asks whether such a cone is pointed is
    degenerate (its right-hand side is zero but for the sum-to-one row), and
    on about 1 cone in 3,000 the phase-1 simplex cycles on it, so `rank`
    raises RuntimeError("simplex did not terminate").  Seed 2041 holds one
    (instance 45).  The workload reproduces that defect until the LP
    numerics are fixed.
    """
    rng = np.random.default_rng([seed, 4])
    return [_rank_instance(rng, int(m), 1 + i % 3)
            for i, m in enumerate(_strata(rng, size, 16, 37))]


def _design_instance(rng, N: int) -> Instance:
    """N samples spread over a 5-dim affine subspace of R^8."""
    B = rng.standard_normal((DESIGN_DIM, DESIGN_HULL_DIM))
    anchor = rng.uniform(-1.0, 1.0, DESIGN_DIM)
    F = anchor + rng.standard_normal((N, DESIGN_HULL_DIM)) @ B.T
    return Instance(
        doc={"schema_version": 1, "metrics_samples": F.tolist()},
        argv=("design", "--objective", "both", "--restriction", "res-lm", "--reproducible"),
    )


def design_both_pool(seed: int, size: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 2])
    return [_design_instance(rng, int(N)) for N in _strata(rng, size, 500, 701)]


def _verify_instance(rng, N: int, k: int) -> Instance:
    """Gaussian samples in R^6 and a random signed k x 6 score matrix A.

    A's rows are orthogonal, so the scores of the samples are independent
    Gaussians whatever the draw, and the number of violating pairs, which
    sets the cost of the reject path, depends on N and k alone.  One planted
    pair f_j = f_i + v with A v >= 0 and min(v) < 0 makes the improvement
    check fail by construction, so the answer is exit code 4.
    """
    d = VERIFY_DIM
    rows = _orthonormal(rng, d)[:k]
    if k < d:
        r = rng.standard_normal(d)
        v = r - rows.T @ (rows @ r)  # A v = 0
        v = v if v.min() <= -v.max() else -v
    else:
        v = rows[np.argmin(rows.min(axis=1))]  # A v is a positive multiple of e_c
    A = rng.uniform(0.5, 2.0, size=(k, 1)) * rows
    F = rng.standard_normal((N, d))
    i, j = rng.choice(N, size=2, replace=False)
    F[j] = F[i] + v / np.linalg.norm(v)
    return Instance(
        doc={"schema_version": 1, "metrics_samples": F.tolist(), "design": {"A": A.tolist()}},
        argv=("verify", "--reproducible"),
    )


def verify_reject_pool(seed: int, size: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 3])
    return [_verify_instance(rng, int(N), 2 + i % 5)
            for i, N in enumerate(_strata(rng, size, 180, 341))]


def check_rank(inst: Instance, code: int, out: dict | None) -> str | None:
    e = inst.expect
    if code != 0 or out is None:
        return f"exit code {code}, expected 0"
    got = {kind: out["ranks"][kind]["value"] for kind in ("csr", "cgr", "cr")}
    want = {kind: e[kind] for kind in ("csr", "cgr", "cr")}
    if got != want:
        return f"ranks {got}, expected {want}"
    if out["m"] != e["m"] or out["numeric_rank"] != e["numeric_rank"]:
        return f"m/rank {out['m']}/{out['numeric_rank']}, expected {e['m']}/{e['numeric_rank']}"
    if out["chain_ok"] is not True:
        return "chain_ok is not true"
    return None


def check_design(inst: Instance, code: int, out: dict | None) -> str | None:
    if code != 0 or out is None:
        return f"exit code {code}, expected 0"
    d = out["design"]
    if (d["restriction"], d["objective"]) != ("res-lm", "both"):
        return f"design echoes {d['restriction']}/{d['objective']}"
    if not 1 <= d["k"] <= DESIGN_DIM or len(d["A"]) != d["k"]:
        return f"design k={d['k']} with {len(d['A'])} rows of A"
    checks = [r["check"] for r in out["verification"]]
    if checks != ["improvement", "optimality", "restriction-res-lm-certificate"]:
        return f"embedded reports {checks}"
    failed = [r["check"] for r in out["verification"] if not r["passed"]]
    if failed:
        return f"embedded reports failed: {failed}"
    return None


def check_verify(inst: Instance, code: int, out: dict | None) -> str | None:
    if code != 4 or out is None:
        return f"exit code {code}, expected 4"
    if out["declared_passed"] is not False:
        return "declared_passed is not false"
    imp = out["verification"][0]
    if imp["check"] != "improvement" or imp["passed"] or not imp["violations"]:
        return "improvement report does not reject the planted pair"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    make_pool: Callable[[int, int], list[Instance]]
    check: Callable[[Instance, int | None, dict | None], str | None]
    pool_size: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rank-all", rank_all_pool, check_rank, 120),
        Workload("design-both", design_both_pool, check_design, 96),
        Workload("verify-reject", verify_reject_pool, check_verify, 120),
        Workload("rank-lineality", rank_lineality_pool, check_rank, 60),
    )
}
