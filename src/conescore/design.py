"""Surrogate score design S(f) = A f over a sampled metric space.

Three restrictions on A (coordinate selection, linear monotone, linear) and
three objectives: improvement (score order implies metric order), optimality
(Pareto points of the scores are Pareto points of the metrics), or both.
The minimal score dimension k is the matching cone rank of the affine-hull
basis rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cone import GeneratorSet
from .errors import InputError
from .linalg import (
    AffineHull,
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    compute_affine_hull,
    numeric_rank,
)
from .ranks import DEFAULT_MAX_LINEALITY_DIM, RankKind, RankResult, cone_ranks

__all__ = [
    "Restriction",
    "Objective",
    "MetricSpace",
    "ScoreDesign",
    "design_score",
    "pareto_front",
]


class Restriction(Enum):
    RES_CS = "res-cs"  # 1-hot rows: pick metric coordinates
    RES_LM = "res-lm"  # linear and monotone
    RES_L = "res-l"    # linear, unrestricted


class Objective(Enum):
    IMPROVEMENT = "improvement"
    OPTIMALITY = "optimality"
    BOTH = "both"


@dataclass(frozen=True)
class MetricSpace:
    """Finite sample of metric vectors plus its derived affine hull.

    relint_nonempty is a user assertion (it cannot be decided from finitely
    many samples); it gates minimality certification only.
    """

    samples: np.ndarray
    hull: AffineHull
    relint_nonempty: bool = False

    @classmethod
    def from_samples(
        cls, samples, relint_nonempty: bool = False, tol: Tolerances = DEFAULT_TOL
    ) -> "MetricSpace":
        F = as_matrix(samples, "samples")
        if F.size == 0:
            raise InputError("samples must be nonempty")
        return cls(F, compute_affine_hull(F, tol), relint_nonempty)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class ScoreDesign:
    """A k x d score matrix with its coefficient form V = A Z and provenance.

    k, the score dimension, is read from A.  Every construction validates A
    through ``as_matrix`` (a vector becomes one row), so the oracles get a
    finite 2-D float array.
    """

    A: np.ndarray
    restriction: Restriction
    objective: Objective
    V: np.ndarray
    rank_used: RankResult | None
    minimality_certified: bool
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", as_matrix(self.A, "design.A"))

    @property
    def k(self) -> int:
        return self.A.shape[0]


# The paper's rank table: for the improvement and both objectives the minimal
# k is this cone rank of the affine-hull basis rows.  Optimality needs none.
_RANK_FOR = {
    Objective.IMPROVEMENT: {
        Restriction.RES_CS: RankKind.CSR,
        Restriction.RES_LM: RankKind.CGR,
        Restriction.RES_L: RankKind.CR,
    },
    # the witness cone must regenerate the hull cone exactly (monotone
    # score), so Res-L uses the generating rank here, not the cone rank
    Objective.BOTH: {
        Restriction.RES_CS: RankKind.CSR,
        Restriction.RES_LM: RankKind.CGR,
        Restriction.RES_L: RankKind.CGR,
    },
}


def design_score(
    space: MetricSpace,
    objective: Objective,
    restriction: Restriction,
    tol: Tolerances = DEFAULT_TOL,
    max_lineality_dim: int = DEFAULT_MAX_LINEALITY_DIM,
) -> ScoreDesign:
    """Minimal-k design for an objective under a restriction.

    The rows of Z, the d x r affine-hull basis, one per metric coordinate,
    generate the hull cone.  For improvement and both, k is the cone rank
    ``_RANK_FOR`` names, of those rows, and V is its witness.  Optimality
    needs no rank: any positive functional works for Res-LM/Res-L (k = 1, an
    all-ones row), and Res-CS takes the first r linearly independent rows of
    Z (k = r).  Under Res-CS A has 1-hot rows at the chosen rows of Z, so
    V = A Z exactly; otherwise A = V Z^T, the minimum-norm solution of
    A Z = V.  A hull that is a point gives k = 0 with a warning.
    """
    if not (isinstance(objective, Objective) and isinstance(restriction, Restriction)):
        raise InputError(
            f"expected an Objective and a Restriction, got {objective!r}, {restriction!r}"
        )
    Z = space.hull.basis
    d, r = Z.shape
    kind = _RANK_FOR.get(objective, {}).get(restriction) if r else None
    rank = None if kind is None else cone_ranks(
        GeneratorSet(Z), tol, max_lineality_dim, (kind,))[kind]
    if r == 0:
        A, V = np.zeros((0, d)), np.zeros((0, 0))
    elif restriction is Restriction.RES_CS:
        if rank is not None:
            rows = list(rank.subset_indices)
        else:
            rows = []
            for j in range(d):
                if len(rows) < r and numeric_rank(Z[rows + [j]], tol) == len(rows) + 1:
                    rows.append(j)
        A = np.zeros((len(rows), d))
        A[np.arange(len(rows)), rows] = 1.0
        V = Z[rows]
    elif rank is None:
        A = np.ones((1, d))
        V = A @ Z
    else:
        V = rank.witness.generators
        A = V @ Z.T
    return ScoreDesign(
        A=A,
        restriction=restriction,
        objective=objective,
        V=V,
        rank_used=rank,
        minimality_certified=rank is not None and space.relint_nonempty,
        warnings=("degenerate metric space: affine hull is a point, k = 0",) if r == 0 else (),
    )


# cells per boolean matrix in one block of the pairwise scans: a block of
# rows against all N rows stays small whatever N is
_BLOCK_CELLS = 1 << 14

# a block in which more than 1/_DENSE of the pairs pass the >= order tests
# its second condition on every cell: gathering that many pairs costs more
_DENSE = 8


def _order_blocks(S: np.ndarray, eps: float, second, rows=None):
    """Yield (idx, mask) for blocks of candidate rows of S.

    For candidate row i = idx[a] and every row j of S, mask[a, j] =
    all(S[j] >= S[i] - eps) and second(i, j); second takes index arrays that
    broadcast and returns a boolean array of their shape, false where j = i
    (as _ahead is).  Candidates are all rows, or the row indices in rows, in
    order.  The >= test is built one coordinate at a time, and second runs
    only on the pairs that pass it, unless more than 1/_DENSE of the block's
    pairs do, when it runs on the whole block; so no block allocates more
    than about _BLOCK_CELLS cells.
    """
    n, d = S.shape
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    cols = np.ascontiguousarray(S.T)
    every = np.arange(n)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, rows.size, step):
        idx = rows[start:start + step]
        lo = S[idx] - eps
        mask = np.ones((idx.size, n), dtype=bool)
        for c in range(d):
            mask &= cols[c] >= lo[:, c, None]
        if np.count_nonzero(mask) * _DENSE > mask.size:
            mask &= second(idx[:, None], every)
        else:
            flat = np.flatnonzero(mask)
            a, j = np.divmod(flat, n)
            mask.flat[flat[~second(idx[a], j)]] = False
        yield idx, mask


def _ahead(cols: np.ndarray, i: np.ndarray, j: np.ndarray, eps: float) -> np.ndarray:
    """any(S[j] > S[i] + eps) for index arrays i and j that broadcast, from
    the columns of S."""
    ahead = np.zeros(np.broadcast(i, j).shape, dtype=bool)
    for col in cols:
        ahead |= col[j] > col[i] + eps
    return ahead


def pareto_front(points, score=None, tol: Tolerances = DEFAULT_TOL) -> list[int]:
    """Indices of points not dominated under the (optionally scored) order.

    j dominates i when score(f_j) >= score(f_i) - cone_tol componentwise with
    at least one coordinate ahead by more than cone_tol.  Without a score the
    raw metric order is used; a score is a k x d matrix, and a vector is one
    score row.  Time is one O(N^2 k) scan of the >= order over the k score
    coordinates plus the ahead test: O(k) per pair that passes the scan, or
    O(k) per cell in a block of rows where more than an eighth do.  Memory is
    one block of rows (about 16K cells) and the pairs that pass in it.
    """
    F = as_matrix(points, "points")
    if F.shape[0] == 0:
        raise InputError("pareto_front needs at least one point")
    S = F
    if score is not None:
        A = as_matrix(score, "score")
        if A.shape[1] != F.shape[1]:
            raise InputError(f"score has {A.shape[1]} columns, points have dim {F.shape[1]}")
        S = F @ A.T
    cols = np.ascontiguousarray(S.T)
    eps = tol.cone_tol
    front = []
    for idx, dominated in _order_blocks(S, eps, lambda i, j: _ahead(cols, i, j, eps)):
        front.extend(idx[~dominated.any(axis=1)].tolist())
    return front
