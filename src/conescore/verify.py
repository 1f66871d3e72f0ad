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


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """What one oracle checked and what failed; it passed when nothing did.

    The failures are kept as two read-only arrays, 24 B per violation for
    the improvement oracle and 16 B for the others: ``where`` holds the
    failing (i, j) sample pairs, shape (v, 2), for improvement, and the
    failing row indices, shape (v,), for optimality and restriction;
    ``value`` holds each one's lead or size, shape (v,).  ``violations``
    builds the (where, value) tuples from them on each access, and reports
    compare equal on (checked_pairs, check_name, violations); the CLI
    writes the first 50 rows straight from the arrays.
    """

    checked_pairs: int
    where: np.ndarray
    value: np.ndarray
    check_name: str

    def __post_init__(self) -> None:
        self.where.flags.writeable = False
        self.value.flags.writeable = False

    @property
    def passed(self) -> bool:
        return self.value.size == 0

    @property
    def violations(self) -> tuple:
        """((i, j), lead) per failing pair, or (i, value) per failing row."""
        where = self.where.tolist()
        if self.where.ndim == 2:
            where = map(tuple, where)
        return tuple(zip(where, self.value.tolist()))

    def _key(self) -> tuple:
        return self.checked_pairs, self.check_name, self.violations

    def __eq__(self, other) -> bool:
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


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
    # A f_j >= A f_i but not f_j >= f_i
    bad = lambda j0, idx: _order(S, j0, idx, eps, False) & ~_order(F, j0, idx, eps, False)
    where = np.concatenate([np.empty((0, 2), np.intp),
                            *(np.column_stack(ij) for ij in _pairs(n, np.arange(n), bad))])
    if n > _TILE:  # a block's pairs came tile by tile, each tile's in (i, j) order
        where = where[np.argsort(where[:, 0], kind="stable")]
    value = _lead(F.T, where[:, 0], where[:, 1]) - eps
    return VerificationReport(n * (n - 1), where, value, "improvement")


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
    return VerificationReport(len(front_s), flagged, lead[flagged], "optimality")


def check_restriction(
    design: ScoreDesign, hull: AffineHull, tol: Tolerances = DEFAULT_TOL
) -> VerificationReport:
    """Certify the declared structural restriction of A.

    Res-CS: exact 1-hot rows.  Res-L: vacuous.  Res-LM: exact polyhedral
    certificate, every row of V inside the cone over the hull-basis rows.
    """
    if design.restriction is Restriction.RES_L:
        return VerificationReport(0, np.empty(0, np.intp), np.empty(0), "restriction-res-l-vacuous")

    if design.restriction is Restriction.RES_CS:
        A = design.A
        ones = np.isclose(A, 1.0, atol=10 * tol.rank_tol).sum(axis=1)
        zeros = np.isclose(A, 0.0, atol=10 * tol.rank_tol).sum(axis=1)
        flagged = np.flatnonzero((ones != 1) | (ones + zeros != A.shape[1]))
        value = np.abs(A[flagged]).max(axis=1)
        return VerificationReport(design.k, flagged, value, "restriction-res-cs")

    # Res-LM: by Farkas, v . y >= 0 for every y with Z y >= 0 exactly when v
    # lies in the cone over the rows of Z, so this is exact monotonicity
    V = _points(design.V, hull.dim)
    inside, _ = _members(V, hull.basis, tol)
    flagged = np.flatnonzero(~inside)
    return VerificationReport(V.shape[0], flagged, np.ones(flagged.size),
                              "restriction-res-lm-certificate")


def check_cone_subset(W: GeneratorSet, V: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff K_W is contained in K_V (generator membership suffices).
    K_W = K_V exactly when both check_cone_subset(W, V) and
    check_cone_subset(V, W) hold.  InputError when the two cones have
    different dimensions."""
    if W.dim != V.dim:
        raise InputError(f"cone dims differ: W has dim {W.dim}, V has dim {V.dim}")
    return bool(_members(W.generators, V.generators, tol)[0].all())
