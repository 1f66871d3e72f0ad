"""Brute-force verification oracles for score designs and cone witnesses.

These are deliberately independent of the design algorithms: every ordered
sample pair is decided for the two objectives (as bitsets, see
design._order), LP membership for cone containment.  Componentwise
comparisons carry cone_tol slack on both sides of each implication;
dominance additionally needs one coordinate ahead by more than cone_tol (so
duplicate score rows simply create ties, never dominance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import GeneratorSet, _members, _points
from .design import Restriction, ScoreDesign, _TILE, _order, _pairs, pareto_front
from .errors import InputError
from .linalg import AffineHull, DEFAULT_TOL, Tolerances, as_matrix

__all__ = [
    "VerificationReport",
    "check_improvement",
    "check_optimality",
    "check_restriction",
    "check_cone_subset",
]


@dataclass(frozen=True)
class VerificationReport:
    """What one oracle checked and what failed; it passed when nothing did."""

    checked_pairs: int
    violations: tuple
    check_name: str

    @property
    def passed(self) -> bool:
        return not self.violations


def _samples(design: ScoreDesign, samples) -> np.ndarray:
    """The samples as a finite matrix with one column per column of A."""
    F = as_matrix(samples, "samples")
    if F.shape[1] != design.A.shape[1]:
        raise InputError(
            f"samples have {F.shape[1]} columns, design A has {design.A.shape[1]}"
        )
    return F


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
    F = _samples(design, samples)
    S = F @ design.A.T
    eps = tol.cone_tol
    n = F.shape[0]
    violations = []
    # A f_j >= A f_i but not f_j >= f_i
    bad = lambda j0, idx: _order(S, j0, idx, eps, False) & ~_order(F, j0, idx, eps, False)
    for i, j in _pairs(n, np.arange(n), bad):
        violations.extend(zip(zip(i.tolist(), j.tolist()), (_lead(F.T, i, j) - eps).tolist()))
    if n > _TILE:  # the pairs came a column tile at a time
        violations.sort()
    return VerificationReport(n * (n - 1), tuple(violations), "improvement")


def check_optimality(
    design: ScoreDesign, samples, tol: Tolerances = DEFAULT_TOL
) -> VerificationReport:
    """Pareto-optimal points of the scores must be Pareto-optimal raw.

    A score-front point fails when some sample dominates it raw; its value is
    the largest lead max(f_j - f_i) over its dominators j.
    """
    F = _samples(design, samples)
    front_s = pareto_front(F, design.A, tol)
    lead = np.full(len(F), -np.inf)
    dominated = lambda j0, idx: _order(F, j0, idx, tol.cone_tol, True)
    for i, j in _pairs(len(F), np.array(front_s, dtype=np.intp), dominated):
        np.maximum.at(lead, i, _lead(F.T, j, i))
    # a dominator is ahead in some coordinate, so its lead is positive
    flagged = np.flatnonzero(lead > 0)
    violations = tuple(zip(flagged.tolist(), lead[flagged].tolist()))
    return VerificationReport(len(front_s), violations, "optimality")


def check_restriction(
    design: ScoreDesign, hull: AffineHull, tol: Tolerances = DEFAULT_TOL
) -> VerificationReport:
    """Certify the declared structural restriction of A.

    Res-CS: exact 1-hot rows.  Res-L: vacuous.  Res-LM: exact polyhedral
    certificate, every row of V inside the cone over the hull-basis rows.
    """
    if design.restriction is Restriction.RES_L:
        return VerificationReport(0, (), "restriction-res-l-vacuous")

    if design.restriction is Restriction.RES_CS:
        violations = []
        for i, row in enumerate(design.A):
            ones = np.isclose(row, 1.0, atol=10 * tol.rank_tol).sum()
            zeros = np.isclose(row, 0.0, atol=10 * tol.rank_tol).sum()
            if not (ones == 1 and ones + zeros == row.size):
                violations.append((i, float(np.max(np.abs(row)))))
        return VerificationReport(design.k, tuple(violations), "restriction-res-cs")

    # Res-LM: by Farkas, v . y >= 0 for every y with Z y >= 0 exactly when v
    # lies in the cone over the rows of Z, so this is exact monotonicity
    V = _points(design.V, hull.dim)
    inside, _ = _members(V, GeneratorSet(hull.basis).generators, tol)
    violations = [(i, 1.0) for i in np.flatnonzero(~inside).tolist()]
    return VerificationReport(V.shape[0], tuple(violations), "restriction-res-lm-certificate")


def check_cone_subset(W: GeneratorSet, V: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff K_W is contained in K_V (generator membership suffices).
    K_W = K_V exactly when both check_cone_subset(W, V) and
    check_cone_subset(V, W) hold.  InputError when the two cones have
    different dimensions."""
    if W.dim != V.dim:
        raise InputError(f"cone dims differ: W has dim {W.dim}, V has dim {V.dim}")
    return bool(_members(W.generators, V.generators, tol)[0].all())
