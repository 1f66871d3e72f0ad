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

_ZERO_ROW_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorSet:
    """Rows of W generating cone K_W.  Zero rows are stripped at construction
    (dropped_zero_rows counts them); source_indices maps retained rows back to
    positions in the input."""

    generators: np.ndarray  # m x dim, no zero rows
    dim: int
    source_indices: tuple[int, ...]
    dropped_zero_rows: int

    @classmethod
    def from_rows(cls, rows, dim: int | None = None) -> "GeneratorSet":
        G = as_matrix(rows, "generators")
        if G.size == 0:
            if dim is None:
                raise InputError("empty generator set needs an explicit dimension")
            return cls(np.zeros((0, dim)), dim, (), 0)
        keep = np.max(np.abs(G), axis=1) > _ZERO_ROW_TOL
        kept = G[keep]
        return cls(
            np.ascontiguousarray(kept),
            G.shape[1],
            tuple(np.nonzero(keep)[0].tolist()),
            int(np.sum(~keep)),
        )

    @property
    def m(self) -> int:
        return self.generators.shape[0]


@dataclass(frozen=True)
class ConeDecomposition:
    """K_W = L + K_P with L the lineality space and K_P pointed.

    lineality_basis: d x ell orthonormal columns spanning L
    lineal_generators: original rows of W lying inside L
    pointed_generators: projections of the rows outside L onto L-perp
    inside_rows / outside_rows: index lists into W for recovery

    Rows with max|w| <= cone_tol count as zero: they are in neither list and
    in neither generator set, at every ell.
    """

    lineality_basis: np.ndarray
    lineal_generators: GeneratorSet
    pointed_generators: GeneratorSet
    inside_rows: tuple[int, ...]
    outside_rows: tuple[int, ...]
    ell: int


def is_in_cone(x, W: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff x = lam @ W for some lam >= 0, within cone_tol scaled by
    (1 + max|x|)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != W.dim:
        raise InputError(f"point has dim {x.shape[0]}, cone has dim {W.dim}")
    scale = 1.0 + float(np.max(np.abs(x), initial=0.0))
    if W.m == 0:
        return bool(np.max(np.abs(x), initial=0.0) <= tol.cone_tol * scale)
    # the phase-1 residual is linear in the target: deciding x / scale at
    # max(feas_tol / scale, cone_tol) is deciding x at
    # max(feas_tol, cone_tol * scale), with the LP's tolerance kept inside
    # (0, 1) however large x is
    eff = Tolerances(tol.rank_tol, max(tol.feas_tol / scale, tol.cone_tol), tol.cone_tol)
    res = solve_feasibility(FeasibilityProblem(M=W.generators, target=x / scale), eff)
    return res.feasible


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
        lineal_generators=GeneratorSet.from_rows(G[inside], dim=d),
        pointed_generators=GeneratorSet.from_rows(project_complement(G[outside], Z), dim=d),
        inside_rows=tuple(inside.tolist()),
        outside_rows=tuple(outside.tolist()),
        ell=Z.shape[1],
    )
