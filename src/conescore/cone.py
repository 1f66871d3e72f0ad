"""Polyhedral cone predicates and the lineality/pointed decomposition.

A cone is given by generators (rows of W); membership and pointedness reduce
to LP feasibility, and ``decompose`` peels off the lineality space
K  ∩ (-K) iteratively until the projected remainder is pointed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceCapError
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, orthonormal_basis, project_complement
from .lp import _phase1_stack, solve_feasibility

__all__ = [
    "GeneratorSet",
    "ConeDecomposition",
    "is_in_cone",
    "is_pointed",
    "decompose",
]

# steps of decompose's loop: each adds one zero-combination's support to the
# lineality basis, so in exact arithmetic at most dim of them are needed
_MAX_STEPS = 1000

@dataclass(frozen=True)
class GeneratorSet:
    """Rows of W generating cone K_W, as a finite m x dim matrix.

    Every input row is kept, so row i is input row i; rows with
    max|w| <= cone_tol count as zero to ``decompose`` and to everything built
    on it.  Every construction validates the rows through ``as_matrix`` (a
    vector becomes one row), so a GeneratorSet always holds a finite 2-D
    float array; ``from_rows`` also copies them.
    """

    generators: np.ndarray  # m x dim

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", as_matrix(self.generators, "generators"))

    @classmethod
    def from_rows(cls, rows, dim: int | None = None) -> "GeneratorSet":
        """A set holding a copy of the rows; dim is read only when there are
        none."""
        G = cls(rows).generators
        if G.size == 0:
            if dim is None:
                raise InputError("empty generator set needs an explicit dimension")
            return cls(np.zeros((0, dim)))
        return cls(np.array(G, order="C"))

    @property
    def m(self) -> int:
        return self.generators.shape[0]

    @property
    def dim(self) -> int:
        return self.generators.shape[1]


@dataclass(frozen=True)
class ConeDecomposition:
    """K_W = L + K_P with L the lineality space and K_P pointed.

    lineality_basis: d x ell orthonormal columns spanning L
    lineal_generators: the rows of W lying inside L
    pointed_generators: projections of the rows outside L onto L-perp
    inside_rows / outside_rows: their row positions in W, which are input
    positions, in the order of the two generator sets
    ell: dim L, read from lineality_basis

    Rows with max|w| <= cone_tol count as zero: they are in neither list and
    in neither generator set, at every ell.
    """

    lineality_basis: np.ndarray
    lineal_generators: GeneratorSet
    pointed_generators: GeneratorSet
    inside_rows: tuple[int, ...]
    outside_rows: tuple[int, ...]

    @property
    def ell(self) -> int:
        return self.lineality_basis.shape[1]


def is_in_cone(x, W: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff x = lam @ W for some lam >= 0, up to an l1 residual of
    max(feas_tol, cone_tol * (1 + max|x|)).  A W with no rows goes through
    the same LP, so it holds the points whose l1 norm is within that bound.
    x must be one finite point of W's dimension."""
    X = _points(x, W.dim)
    if X.shape[0] != 1:
        raise InputError(f"point: expected one point, got {X.shape[0]} rows")
    return bool(_members(X, W.generators, tol)[0][0])


def _points(x, dim: int) -> np.ndarray:
    """x as finite points of dimension dim, one per row; InputError else."""
    X = as_matrix(x, "point")
    if X.shape[1] != dim:
        raise InputError(f"point has dim {X.shape[1]}, cone has dim {dim}")
    return X


def _membership_bound(X: np.ndarray, tol: Tolerances):
    """The scale 1 + max|x| of the point x (of each row, when X is 2-D) and
    the bound max(feas_tol / scale, cone_tol) under which the l1 residual of
    a nonnegative combination, relative to scale, puts x in the cone.

    The phase-1 residual is linear in the target, so deciding x / scale at
    this bound is deciding x at max(feas_tol, cone_tol * scale), with the
    LP's tolerance kept inside (0, 1) however large x is.
    """
    scale = 1.0 + np.max(np.abs(X), axis=-1, initial=0.0)
    return scale, np.maximum(tol.feas_tol / scale, tol.cone_tol)


def _members(X: np.ndarray, G: np.ndarray, tol: Tolerances,
             keep: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Whether each row x of X lies in the cone of the rows of G (row s: of
    the rows j with keep[s, j]), and which rows each witness uses.

    Row s is inside when some lam >= 0 brings the l1 residual of
    lam @ G = x / scale within bound (both from _membership_bound): one
    phase-1 LP per row, all solved as stacks by lp._phase1_stack.  A row
    that keep leaves out is a zero column, which never enters the basis, so
    each LP pivots as the LP on the kept rows alone does.  uses[s, j] when
    the witness's lam_j * max|g_j|, row j's share of the target, exceeds
    the bound.  The package's callers pass finite arrays of matching
    shapes, which are not checked.
    """
    scale, bound = _membership_bound(X, tol)
    inside, lam = _phase1_stack(G, X / scale[:, None], bound, keep)
    return inside, lam * np.max(np.abs(G), axis=1, initial=0.0) > bound[:, None]


def _nonzero_rows(G: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Mask of the rows of G with max|w| > cone_tol.  The other rows count as
    zero, for the decomposition and for all three ranks alike."""
    return np.max(np.abs(G), axis=1, initial=0.0) > tol.cone_tol


def _zero_combination(G: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    """Support of a convex combination of the rows of G that is zero, or None
    when there is none.  Rows that count as zero take no part, so K is
    pointed exactly when this returns None."""
    active = np.nonzero(_nonzero_rows(G, tol))[0]
    if active.size == 0:
        return None
    # a column of ones adds the row sum(lam) = 1 to the LP
    rows = np.hstack([G[active], np.ones((active.size, 1))])
    res = solve_feasibility(rows, np.append(np.zeros(G.shape[1]), 1.0), tol)
    return active[res.witness > tol.feas_tol] if res.feasible else None


def is_pointed(W: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff K_W contains no line: no convex combination of generators is 0
    (generators with max|w| <= cone_tol count as zero, as in ``decompose``)."""
    return _zero_combination(W.generators, tol) is None


def decompose(W: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> ConeDecomposition:
    """Split K_W into lineality space plus pointed remnant.

    Repeatedly finds a convex zero-combination of the current projected rows,
    absorbs its support into the lineality basis, and re-projects; stops when
    the remaining projected cone is pointed.  A row that does not count as
    zero lies inside the lineality space when its projection does count as
    zero (cheaper than an LP and exact for a subspace).  Raises
    ResourceCapError when the loop has not ended after _MAX_STEPS steps.
    """
    G = W.generators
    d = W.dim
    # rows that count as zero are decided once, on W itself: a projection
    # can lengthen a row in the max-norm, so they take no part in the loop
    rows = np.nonzero(_nonzero_rows(G, tol))[0]
    P = N = G[rows]
    Z = np.zeros((d, 0))
    for _ in range(_MAX_STEPS):
        if (support := _zero_combination(P, tol)) is None:
            break
        # supported projected rows lie in the lineality of the projected
        # cone and are orthogonal to Z, so in exact arithmetic the basis
        # grows; rounding can make a step only rotate it, which is allowed
        Z = orthonormal_basis(np.vstack([Z.T, P[support]]), tol)
        P = project_complement(N, Z)
    else:
        raise ResourceCapError(f"decompose did not finish within {_MAX_STEPS} steps")

    off = _nonzero_rows(P, tol)
    inside, outside = rows[~off], rows[off]
    return ConeDecomposition(
        lineality_basis=Z,
        lineal_generators=GeneratorSet(G[inside]),
        pointed_generators=GeneratorSet(project_complement(G[outside], Z)),
        inside_rows=tuple(inside.tolist()),
        outside_rows=tuple(outside.tolist()),
    )
