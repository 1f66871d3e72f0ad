"""Polyhedral cone predicates and the lineality/pointed decomposition.

A cone is given by generators (rows of W); membership and pointedness reduce
to LP feasibility, and ``decompose`` peels off the lineality space
K  ∩ (-K) iteratively until the projected remainder is pointed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, orthonormal_basis, project_complement
from .lp import FeasibilityProblem, solve_feasibility

__all__ = [
    "GeneratorSet",
    "ConeDecomposition",
    "is_in_cone",
    "is_pointed",
    "decompose",
]

@dataclass(frozen=True)
class GeneratorSet:
    """Rows of W generating cone K_W, as a finite m x dim matrix.

    Every input row is kept, so row i is input row i; rows with
    max|w| <= cone_tol count as zero to ``decompose`` and to everything built
    on it.  ``from_rows`` validates input from outside the package; code
    inside it builds a GeneratorSet directly from an already validated matrix.
    """

    generators: np.ndarray  # m x dim

    @classmethod
    def from_rows(cls, rows, dim: int | None = None) -> "GeneratorSet":
        """Validate and copy the rows; dim is read only when there are none."""
        G = as_matrix(rows, "generators")
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
    X = as_matrix(x, "point")
    if X.shape[0] != 1:
        raise InputError(f"point: expected one point, got {X.shape[0]} rows")
    if X.shape[1] != W.dim:
        raise InputError(f"point has dim {X.shape[1]}, cone has dim {W.dim}")
    return _in_cone(X[0], W.generators, tol)


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


def _in_cone(x: np.ndarray, G: np.ndarray, tol: Tolerances) -> bool:
    """``is_in_cone`` for a point and generator rows already validated."""
    scale, bound = _membership_bound(x, tol)
    eff = Tolerances(tol.rank_tol, bound, tol.cone_tol)
    return solve_feasibility(FeasibilityProblem(M=G, target=x / scale), eff).feasible


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
    res = solve_feasibility(
        FeasibilityProblem(M=G[active], target=np.zeros(G.shape[1]), sum_to_one=True), tol
    )
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
    zero (cheaper than an LP and exact for a subspace).
    """
    G = W.generators
    d = W.dim
    # rows that count as zero are decided once, on W itself: a projection
    # can lengthen a row in the max-norm, so they take no part in the loop
    rows = np.nonzero(_nonzero_rows(G, tol))[0]
    P = N = G[rows]
    Z = np.zeros((d, 0))
    while (support := _zero_combination(P, tol)) is not None:
        # supported projected rows lie in the lineality of the projected cone;
        # they are orthogonal to Z already, so the basis strictly grows
        Z = orthonormal_basis(np.vstack([Z.T, P[support]]), tol)
        P = project_complement(N, Z)

    off = _nonzero_rows(P, tol)
    inside, outside = rows[~off], rows[off]
    return ConeDecomposition(
        lineality_basis=Z,
        lineal_generators=GeneratorSet(G[inside]),
        pointed_generators=GeneratorSet(project_complement(G[outside], Z)),
        inside_rows=tuple(inside.tolist()),
        outside_rows=tuple(outside.tolist()),
    )
