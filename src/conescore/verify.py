"""Brute-force verification oracles for score designs and cone witnesses.

These are deliberately independent of the design algorithms: pairwise scans
over the sample set for the two objectives, LP membership for cone
containment.  Componentwise comparisons carry cone_tol slack on both sides of
each implication; dominance additionally needs one coordinate ahead by more
than cone_tol (so duplicate score rows simply create ties, never dominance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import GeneratorSet, _members, _points
from .design import Restriction, ScoreDesign, _ahead, _behind, _order_blocks, pareto_front
from .errors import InputError
from .linalg import AffineHull, DEFAULT_TOL, Tolerances, as_matrix

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
    cols = np.ascontiguousarray(F.T)
    eps = tol.cone_tol
    n = F.shape[0]
    violations = []
    # A f_j >= A f_i but not f_j >= f_i
    for idx, bad in _order_blocks(S, eps, lambda i, j: _behind(cols, i, j, eps)):
        a, j = np.divmod(np.flatnonzero(bad), n)  # sorted by (i, j)
        if a.size:
            rows = idx.tolist()  # one int object per row, shared by its pairs
            pairs = zip(map(rows.__getitem__, a.tolist()), j.tolist())
            violations.extend(zip(pairs, (_lead(cols, idx[a], j) - eps).tolist()))
    return VerificationReport(
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
    F = _samples(design, samples)
    front_s = pareto_front(F, design.A, tol)
    cols = np.ascontiguousarray(F.T)
    eps = tol.cone_tol
    n = F.shape[0]
    violations = []
    for idx, dominated in _order_blocks(F, eps, lambda i, j: _ahead(cols, i, j, eps), front_s):
        a, j = np.divmod(np.flatnonzero(dominated), n)
        if a.size:
            rows, starts = np.unique(a, return_index=True)
            lead = np.maximum.reduceat(_lead(cols, j, idx[a]), starts)
            violations.extend(zip(idx[rows].tolist(), lead.tolist()))
    return VerificationReport(
        checked_pairs=len(front_s),
        violations=tuple(violations),
        check_name="optimality",
    )


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
    InputError when the two cones have different dimensions."""
    if W.dim != V.dim:
        raise InputError(f"cone dims differ: W has dim {W.dim}, V has dim {V.dim}")
    return bool(_members(W.generators, V.generators, tol)[0].all())


def check_cone_equal(W: GeneratorSet, V: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff K_W = K_V (mutual generator membership)."""
    return check_cone_subset(W, V, tol) and check_cone_subset(V, W, tol)
