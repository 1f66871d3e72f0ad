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
from .linalg import AffineHull, DEFAULT_TOL, Tolerances, as_matrix, compute_affine_hull
from .ranks import DEFAULT_MAX_LINEALITY_DIM, RankKind, RankResult, cone_ranks

__all__ = [
    "Restriction",
    "Objective",
    "MetricSpace",
    "ScoreDesign",
    "design_improvement",
    "design_optimality",
    "design_both",
    "pareto_front",
    "recover_A",
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
    """A k x d score matrix with its coefficient form V = A Z and provenance."""

    A: np.ndarray
    k: int
    restriction: Restriction
    objective: Objective
    V: np.ndarray
    rank_used: RankResult | None
    minimality_certified: bool
    warnings: tuple[str, ...] = field(default=())


def _degenerate(space: MetricSpace, restriction, objective) -> ScoreDesign:
    d = space.dim
    return ScoreDesign(
        A=np.zeros((0, d)),
        k=0,
        restriction=restriction,
        objective=objective,
        V=np.zeros((0, 0)),
        rank_used=None,
        minimality_certified=False,
        warnings=("degenerate metric space: affine hull is a point, k = 0",),
    )


def recover_A(V, Z, restriction, selected_indices=None, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Recover a k x d score matrix A with A Z = V.

    For coordinate selection the rows of V must be rows of Z and A gets 1-hot
    rows picking those coordinates (selected_indices, when given, names them
    directly).  Otherwise the minimum-norm solution A = V Z^T is returned.
    """
    V = np.asarray(V, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if V.ndim == 1:
        V = V.reshape(1, -1)
    d = Z.shape[0]
    if restriction == Restriction.RES_CS:
        k = V.shape[0]
        A = np.zeros((k, d))
        for i in range(k):
            if selected_indices is not None:
                j = int(selected_indices[i])
                if not np.allclose(Z[j], V[i], atol=10 * tol.rank_tol):
                    raise InputError("not coordinate-selectable")
            else:
                matches = [
                    j for j in range(d)
                    if np.allclose(Z[j], V[i], atol=10 * tol.rank_tol)
                ]
                if not matches:
                    raise InputError("not coordinate-selectable")
                j = matches[0]
            A[i, j] = 1.0
        return A
    return V @ Z.T


def _improvement_design(
    space: MetricSpace,
    restriction: Restriction,
    objective: Objective,
    kind: RankKind,
    tol: Tolerances,
    max_lineality_dim: int,
) -> ScoreDesign:
    if space.hull.dim == 0:
        return _degenerate(space, restriction, objective)
    # the rows of Z, one per metric coordinate, generate the hull cone
    Z = space.hull.basis
    rank = cone_ranks(GeneratorSet(Z), tol, max_lineality_dim, (kind,))[kind]
    V = rank.witness.generators
    A = recover_A(V, Z, restriction, selected_indices=rank.subset_indices, tol=tol)
    return ScoreDesign(
        A=A,
        k=rank.value,
        restriction=restriction,
        objective=objective,
        V=V,
        rank_used=rank,
        minimality_certified=space.relint_nonempty,
    )


def design_improvement(
    space: MetricSpace,
    restriction: Restriction,
    tol: Tolerances = DEFAULT_TOL,
    max_lineality_dim: int = DEFAULT_MAX_LINEALITY_DIM,
) -> ScoreDesign:
    """Minimal-k design for the improvement objective.

    k is the subset rank (Res-CS), generating rank (Res-LM) or cone rank
    (Res-L) of the affine-hull basis rows; A is recovered from the witness.
    """
    kind = {
        Restriction.RES_CS: RankKind.CSR,
        Restriction.RES_LM: RankKind.CGR,
        Restriction.RES_L: RankKind.CR,
    }[restriction]
    return _improvement_design(
        space, restriction, Objective.IMPROVEMENT, kind, tol, max_lineality_dim
    )


def design_optimality(
    space: MetricSpace, restriction: Restriction, tol: Tolerances = DEFAULT_TOL
) -> ScoreDesign:
    """Minimal-k design for the optimality objective.

    Any positive linear functional works for Res-LM/Res-L (k = 1, all-ones
    row); Res-CS selects r linearly independent metric coordinates (k = r).
    """
    Z = space.hull.basis
    d = space.dim
    r = space.hull.dim
    if r == 0:
        return _degenerate(space, restriction, Objective.OPTIMALITY)
    if restriction in (Restriction.RES_LM, Restriction.RES_L):
        A = np.ones((1, d))
        return ScoreDesign(
            A=A,
            k=1,
            restriction=restriction,
            objective=Objective.OPTIMALITY,
            V=A @ Z,
            rank_used=None,
            minimality_certified=False,
        )
    # Res-CS: first r linearly independent rows of Z, greedily by index
    chosen: list[int] = []
    for j in range(d):
        trial = chosen + [j]
        if np.linalg.matrix_rank(Z[trial], tol=tol.rank_tol) == len(trial):
            chosen.append(j)
        if len(chosen) == r:
            break
    if len(chosen) < r:  # pragma: no cover - Z has rank r by construction
        raise InputError("could not select independent coordinates")
    A = np.zeros((r, d))
    A[np.arange(r), chosen] = 1.0
    return ScoreDesign(
        A=A,
        k=r,
        restriction=Restriction.RES_CS,
        objective=Objective.OPTIMALITY,
        V=Z[chosen],
        rank_used=None,
        minimality_certified=False,
    )


def design_both(
    space: MetricSpace,
    restriction: Restriction,
    tol: Tolerances = DEFAULT_TOL,
    max_lineality_dim: int = DEFAULT_MAX_LINEALITY_DIM,
) -> ScoreDesign:
    """Design satisfying improvement and optimality simultaneously.

    The witness cone must regenerate the hull cone exactly (monotone score),
    so Res-L uses the generating rank here, not the cone rank.
    """
    kind = RankKind.CSR if restriction is Restriction.RES_CS else RankKind.CGR
    return _improvement_design(
        space, restriction, Objective.BOTH, kind, tol, max_lineality_dim
    )


# cells per boolean matrix in one block of the pairwise scans: a block of
# rows against all N rows stays small whatever N is
_BLOCK_CELLS = 1 << 14


def _tolerant_order(S: np.ndarray, eps: float, rows=None, ahead: bool = True):
    """Yield (idx, geq, ahead) for blocks of candidate rows of S.

    For candidate row i = idx[a] and every row j of S,
    geq[a, j] = all(S[j] >= S[i] - eps) and ahead[a, j] = any(S[j] > S[i] + eps);
    with ahead=False only geq is built and None takes ahead's place.
    Candidates are all rows, or the row indices in rows, in order.  The
    matrices are built one coordinate at a time, so no block allocates more
    than about _BLOCK_CELLS cells per matrix.
    """
    n, d = S.shape
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    cols = np.ascontiguousarray(S.T)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, rows.size, step):
        idx = rows[start:start + step]
        R = S[idx]
        lo = R - eps
        hi = R + eps
        geq = np.ones((idx.size, n), dtype=bool)
        lead = np.zeros((idx.size, n), dtype=bool) if ahead else None
        for c in range(d):
            geq &= cols[c] >= lo[:, c, None]
            if ahead:
                lead |= cols[c] > hi[:, c, None]
        yield idx, geq, lead


def pareto_front(points, score=None, tol: Tolerances = DEFAULT_TOL) -> list[int]:
    """Indices of points not dominated under the (optionally scored) order.

    j dominates i when score(f_j) >= score(f_i) - cone_tol componentwise with
    at least one coordinate ahead by more than cone_tol.  Without a score the
    raw metric order is used; a score is a k x d matrix, and a vector is one
    score row.  O(N^2 d) time in bounded-memory row blocks.
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
    front = []
    for idx, geq, ahead in _tolerant_order(S, tol.cone_tol):
        front.extend(idx[~np.any(geq & ahead, axis=1)].tolist())
    return front
