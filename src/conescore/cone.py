"""Polyhedral cone predicates and the lineality/pointed decomposition.

A cone is given by generators (rows of W); membership and pointedness reduce
to LP feasibility.  ``decompose`` finds the lineality space L = K ∩ (-K)
without iterating: L is the smallest face of K, so it is spanned by the
generators g with -g in K.  One zero-combination LP decides whether there
are any, and only when there are, one batch of membership LPs finds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import (DEFAULT_TOL, Tolerances, _pow2_rows, as_matrix, orthonormal_basis,
                     project_complement)
from .lp import _phase1_stack, solve_feasibility

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
    """Support of a convex combination of the rows of G, each scaled by
    _pow2_rows, that is zero, or None when there is none.  Rows that count
    as zero take no part (with none left, no column can enter the LP, which
    is then infeasible), so K is pointed exactly when this returns None.
    The scaling is exact and keeps each row's ray, and with every row's
    max-norm in [0.5, 1) feas_tol bounds a residual relative to the rows'
    size, whatever their scale."""
    active = np.nonzero(_nonzero_rows(G, tol))[0]
    # a column of ones adds the row sum(lam) = 1 to the LP
    rows = np.hstack([_pow2_rows(G[active])[0], np.ones((active.size, 1))])
    res = solve_feasibility(rows, np.append(np.zeros(G.shape[1]), 1.0), tol)
    return active[res.witness > tol.feas_tol] if res.feasible else None


def is_pointed(W: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff K_W contains no line: no convex combination of generators,
    each scaled by a power of two, is 0 (generators with max|w| <= cone_tol
    count as zero).  ``decompose`` solves this same LP first, so the two
    agree: is_pointed(W) == (decompose(W).ell == 0)."""
    return _zero_combination(W.generators, tol) is None


def decompose(W: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> ConeDecomposition:
    """Split K_W into lineality space plus pointed remnant.

    A row g lies in L = K_W ∩ (-K_W) exactly when -g is in K_W, and L is
    spanned by those rows.  The zero-combination LP of ``is_pointed`` comes
    first: when it finds none, L = 0 and that one LP is the whole cost.
    Otherwise the rows in its support lie in L, and every other row g is
    tested once, in one _members batch of the -g against the rows scaled
    by _pow2_rows, at the bound relative to each target that the extreme-row
    scan uses.  The basis of L is taken from the lineal rows scaled by one
    common power of two, so it does not overflow near the float maximum.
    Raises InputError when the projections of the other rows onto L-perp
    overflow.
    """
    G = W.generators
    nonzero = _nonzero_rows(G, tol)
    lineal = np.zeros(W.m, bool)
    if (support := _zero_combination(G, tol)) is not None:
        lineal[support] = True
        rest = np.nonzero(nonzero & ~lineal)[0]
        Gs, _ = _pow2_rows(G)
        lineal[rest] = _members(-Gs[rest], Gs[nonzero], tol)[0]
    inside, outside = np.nonzero(lineal)[0], np.nonzero(nonzero & ~lineal)[0]
    _, e = np.frexp(np.max(np.abs(G[inside]), initial=0.0))
    Z = orthonormal_basis(np.ldexp(G[inside], -e), tol)
    with np.errstate(over="ignore", invalid="ignore"):
        P = project_complement(G[outside], Z)
    if not np.all(np.isfinite(P)):
        raise InputError("generators: projected generators overflow (entries must be finite)")
    return ConeDecomposition(
        lineality_basis=Z,
        lineal_generators=GeneratorSet(G[inside]),
        pointed_generators=GeneratorSet(P),
        inside_rows=tuple(inside.tolist()),
        outside_rows=tuple(outside.tolist()),
    )
