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


# most rows in one column tile of a dominance relation, and in one block of
# candidate rows tested against it: a tile's suffix sets and a block's
# relation each take about _TILE x _TILE bits
_TILE = 1024

# most bits unpacked at a time into (i, j) pairs
_PAIR_BITS = 1 << 14


def _suffix_sets(col: np.ndarray):
    """(values, sets): the non-NaN entries of col in ascending order, and for
    each position p the bitset sets[p] of the rows holding values[p:].

    Row r is bit r % 64 of word r // 64.  NaN sorts last and compares false
    with everything, so its rows are in no set.
    """
    order = np.argsort(col)[:col.size - np.count_nonzero(np.isnan(col))]
    sets = np.zeros((order.size + 1, -(-col.size // 64)), dtype=np.uint64)
    sets[np.arange(order.size), order >> 6] = np.uint64(1) << (order & 63).astype(np.uint64)
    np.bitwise_or.accumulate(sets[::-1], axis=0, out=sets[::-1])
    return col[order], sets


def _order(M: np.ndarray, j0: int, idx: np.ndarray, eps: float, dominance: bool):
    """Bitsets over the column tile j0 <= j < j0 + _TILE of the rows of M,
    for the candidate rows idx: row a holds the rows j with
    all(M[j] >= M[i] - eps), for i = idx[a], and, under dominance, also
    any(M[j] > M[i] + eps).

    Per column, the tile's suffix sets give each candidate's set from its
    position among the tile's values.  x - eps and x + eps are monotone in
    x, so the keys are sorted once and searched in ascending order: at 1024
    rows a search takes about a third of its time in row order.
    """
    tile = M[j0:j0 + _TILE]
    geq = np.full((idx.size, -(-tile.shape[0] // 64)), 2**64 - 1, dtype=np.uint64)
    geq[:, -1] >>= np.uint64(-tile.shape[0] % 64)
    far = np.zeros_like(geq) if dominance else None
    for c in range(M.shape[1]):
        values, sets = _suffix_sets(tile[:, c])
        order = np.argsort(M[idx, c])
        x = M[idx[order], c]
        pos = np.empty_like(order)
        pos[order] = np.searchsorted(values, x - eps)
        geq &= sets[pos]
        if dominance:
            pos[order] = np.searchsorted(values, x + eps, "right")
            far |= sets[pos]
    return geq & far if dominance else geq


def _pairs(n: int, rows: np.ndarray, relation):
    """Yield (i, j) index arrays of the pairs in a relation over n rows, for
    the candidate rows i in rows, unpacking about _PAIR_BITS bits at a time.

    relation(j0, idx) gives the bitsets of the pairs (see _order) over the
    column tile from j0, for a block idx of at most _TILE candidate rows.
    The pairs come block by block and, within a block, one tile after
    another, each tile's sorted by (i, j); so they are in (i, j) order
    overall only when n <= _TILE.
    """
    for idx in np.split(rows, range(_TILE, rows.size, _TILE)):
        for j0 in range(0, n, _TILE):
            bits = relation(j0, idx)
            hit = np.flatnonzero(bits.any(axis=1))
            step = max(1, _PAIR_BITS // (64 * bits.shape[1]))
            for a in np.split(hit, range(step, hit.size, step)):
                octets = bits[a].astype("<u8", copy=False).view(np.uint8)
                row_bits = np.unpackbits(octets, axis=1, bitorder="little")
                r, j = np.divmod(np.flatnonzero(row_bits), row_bits.shape[1])
                yield idx[a[r]], j0 + j


def pareto_front(points, score=None, tol: Tolerances = DEFAULT_TOL) -> list[int]:
    """Indices of points not dominated under the (optionally scored) order.

    j dominates i when score(f_j) >= score(f_i) - cone_tol componentwise with
    at least one coordinate ahead by more than cone_tol.  Without a score the
    raw metric order is used; a score is a k x d matrix, and a vector is one
    score row.  The relation is built as bitsets (see _order), so time is
    O(N^2 k / 64) word operations plus sorting each tile's k columns once
    per block of rows, whatever share of pairs is ordered; a row found
    dominated is not tested against later tiles.  Memory is one column's
    suffix sets and one block's relation, each at most _TILE x _TILE bits.
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
    n = S.shape[0]
    front = []
    for idx in np.split(np.arange(n), range(_TILE, n, _TILE)):
        for j0 in range(0, n, _TILE):
            # a dominated row stays dominated
            idx = idx[~_order(S, j0, idx, tol.cone_tol, True).any(axis=1)]
        front.extend(idx.tolist())
    return front
