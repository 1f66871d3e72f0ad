"""Brute-force verification oracles for score designs and cone witnesses.

These are deliberately independent of the design algorithms: pairwise scans
over the sample set for the two objectives, LP membership for cone
containment.  Componentwise comparisons carry cone_tol slack on both sides of
each implication; dominance additionally needs one coordinate ahead by more
than cone_tol (so duplicate score rows simply create ties, never dominance).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cone import GeneratorSet, is_in_cone
from .design import Restriction, ScoreDesign, _tolerant_order, pareto_front
from .linalg import AffineHull, DEFAULT_TOL, Tolerances

__all__ = [
    "VerificationReport",
    "check_improvement",
    "check_optimality",
    "check_restriction",
    "check_cone_equal",
    "check_cone_subset",
]


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    checked_pairs: int
    violations: tuple
    check_name: str

    def __post_init__(self) -> None:
        if self.passed != (len(self.violations) == 0):
            raise ValueError(
                f"report {self.check_name!r}: passed={self.passed} "
                f"with {len(self.violations)} violations"
            )


def _lead(cols: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """max(f_i - f_j) over the coordinates, for each index pair (i, j)."""
    lead = cols[0][i] - cols[0][j]
    for col in cols[1:]:
        np.maximum(lead, col[i] - col[j], out=lead)
    return lead


def check_improvement(
    design: ScoreDesign, samples, tol: Tolerances = DEFAULT_TOL
) -> VerificationReport:
    """Score order must imply metric order on every ordered sample pair."""
    F = np.asarray(samples, dtype=float)
    S = F @ design.A.T
    cols = np.ascontiguousarray(F.T)
    eps = tol.cone_tol
    n = F.shape[0]
    violations = []
    # S and F have the same rows, so the two scans yield the same blocks
    blocks = zip(_tolerant_order(S, eps), _tolerant_order(F, eps))
    for (idx, score_geq, _), (_, metric_geq, _) in blocks:
        bad = score_geq & ~metric_geq  # A f_j >= A f_i but not f_j >= f_i
        bad[np.arange(idx.size), idx] = False
        a, j = np.nonzero(bad)  # row-major, so sorted by (i, j)
        if a.size:
            rows = idx.tolist()  # one int object per row, shared by its pairs
            pairs = zip(map(rows.__getitem__, a.tolist()), j.tolist())
            violations.extend(zip(pairs, (_lead(cols, idx[a], j) - eps).tolist()))
    return VerificationReport(
        passed=not violations,
        checked_pairs=n * (n - 1),
        violations=tuple(violations),
        check_name="improvement",
    )


def check_optimality(
    design: ScoreDesign, samples, tol: Tolerances = DEFAULT_TOL
) -> VerificationReport:
    """Pareto-optimal points of the scores must be Pareto-optimal raw.

    A score-front point fails when some sample dominates it raw; its value is
    the largest lead max(f_j - f_i) over its dominators j.
    """
    F = np.asarray(samples, dtype=float)
    front_s = pareto_front(F, design.A, tol)
    cols = np.ascontiguousarray(F.T)
    violations = []
    for idx, geq, ahead in _tolerant_order(F, tol.cone_tol, front_s):
        a, j = np.nonzero(geq & ahead)
        if a.size:
            rows, starts = np.unique(a, return_index=True)
            lead = np.maximum.reduceat(_lead(cols, j, idx[a]), starts)
            violations.extend(zip(idx[rows].tolist(), lead.tolist()))
    return VerificationReport(
        passed=not violations,
        checked_pairs=len(front_s),
        violations=tuple(violations),
        check_name="optimality",
    )


def _lm_directions(r: int, rng_seed: int = 0):
    if r <= 6:
        for c in itertools.product((-1.0, 0.0, 1.0), repeat=r):
            if any(c):
                yield np.array(c)
    else:
        rng = np.random.default_rng(rng_seed)
        for _ in range(200):
            yield rng.standard_normal(r)


def check_restriction(
    design: ScoreDesign, hull: AffineHull, tol: Tolerances = DEFAULT_TOL
) -> VerificationReport:
    """Certify the declared structural restriction of A.

    Res-CS: exact 1-hot rows.  Res-L: vacuous.  Res-LM: exact polyhedral
    certificate (every witness row inside cone of the hull-basis rows) when
    the rank witness claims exact generation; otherwise sampled directional
    evidence over signed basis combinations.
    """
    if design.restriction is Restriction.RES_L:
        return VerificationReport(True, 0, (), "restriction-res-l-vacuous")

    if design.restriction is Restriction.RES_CS:
        violations = []
        for i, row in enumerate(design.A):
            ones = np.isclose(row, 1.0, atol=10 * tol.rank_tol).sum()
            zeros = np.isclose(row, 0.0, atol=10 * tol.rank_tol).sum()
            if not (ones == 1 and ones + zeros == row.size):
                violations.append((i, float(np.max(np.abs(row)))))
        return VerificationReport(
            not violations, design.k, tuple(violations), "restriction-res-cs"
        )

    # Res-LM
    Z = hull.basis
    Zset = GeneratorSet.from_rows(Z, dim=hull.dim)
    if design.rank_used is not None and design.rank_used.relation == "equal":
        violations = [
            (i, 1.0)
            for i, v in enumerate(np.atleast_2d(design.V))
            if not is_in_cone(v, Zset, tol)
        ]
        return VerificationReport(
            not violations,
            design.V.shape[0],
            tuple(violations),
            "restriction-res-lm-certificate",
        )
    V = np.atleast_2d(design.V)
    violations = []
    checked = 0
    for c in _lm_directions(hull.dim):
        if not np.all(Z @ c >= -tol.cone_tol):
            continue
        checked += 1
        margin = float(np.min(V @ c)) if V.size else 0.0
        if margin < -tol.cone_tol:
            violations.append((tuple(c), margin))
    violations.sort()
    return VerificationReport(
        not violations, checked, tuple(violations), "restriction-res-lm-evidence"
    )


def check_cone_subset(W: GeneratorSet, V: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff K_W is contained in K_V (generator membership suffices)."""
    return all(is_in_cone(w, V, tol) for w in W.generators)


def check_cone_equal(W: GeneratorSet, V: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff K_W = K_V (mutual generator membership)."""
    return check_cone_subset(W, V, tol) and check_cone_subset(V, W, tol)
