"""Dense real linear-algebra primitives shared by every other module.

Input matrix validation, numerical rank, orthonormal bases, affine hulls and
complement projections.  Everything here is a pure function over immutable
values; arrays handed out are never mutated afterwards.

``as_matrix`` is the one validation of outside input; the package's objects
call it when they are built.  The helpers after it are internal: they take
finite 2-D float arrays that have already passed through it (or are derived
from ones that have) and check nothing themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["Tolerances", "AffineHull", "as_matrix"]


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack knobs used throughout the package.

    rank_tol  - singular-value / pivot threshold
    feas_tol  - LP constraint slack
    cone_tol  - cone-membership and dominance slack
    """

    rank_tol: float = 1e-9
    feas_tol: float = 1e-8
    cone_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_tol", "feas_tol", "cone_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise InputError(f"{name} must lie strictly between 0 and 1, got {v}")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class AffineHull:
    """Affine hull of a finite sample set.

    anchor is the sample centroid, basis is a d x r matrix whose orthonormal
    columns span the associated linear subspace, dim = r.
    """

    anchor: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def as_matrix(entries, name: str) -> np.ndarray:
    """Coerce input to a finite 2-D float array (a vector becomes one row).

    Ragged, non-numeric, non-2-D or non-finite input, and integers beyond
    the float range, raise InputError naming ``name``.
    """
    try:
        M = np.asarray(entries, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name}: not a numeric matrix ({exc})") from None
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise InputError(f"{name}: expected a 2-D matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise InputError(f"{name}: entries must be finite (no NaN/Inf)")
    return M


def numeric_rank(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values of the validated 2-D array M above the rank
    threshold.

    The threshold is rank_tol scaled by max(1, largest singular value) so the
    count is stable under positive rescaling of well-conditioned input.
    """
    if M.size == 0:
        return 0
    return _rank_of(np.linalg.svd(M, compute_uv=False), tol)


def _rank_of(s: np.ndarray, tol: Tolerances) -> int:
    """How many of the descending, nonempty singular values s count:
    those above rank_tol * max(1, s[0])."""
    return int(np.sum(s > tol.rank_tol * max(1.0, s[0])))


def _pow2_rows(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G with each row scaled by the power of two that puts its max-norm in
    [0.5, 1) (zero rows stay zero), and the exponents e that undo it:
    G = ldexp(result, e[:, None]).  The scaling is exact, so arithmetic on
    the scaled rows rounds as on the rows themselves, short of overflow.
    """
    _, e = np.frexp(np.max(np.abs(G), axis=1, initial=0.0))
    return np.ldexp(G, -e[:, None]), e


def _unit_rows(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of G divided by their 2-norms (zero rows stay zero), and the
    norms.

    Each row is first scaled by _pow2_rows, so its squares cannot overflow,
    and a row whose squares did not overflow gets the same unit row and norm
    as with np.linalg.norm on the row itself.
    """
    S, e = _pow2_rows(G)
    n = np.linalg.norm(S, axis=1)
    return S / np.where(n > 0, n, 1.0)[:, None], np.ldexp(n, e)


def _fix_signs(B: np.ndarray) -> np.ndarray:
    # Deterministic sign convention: make each column's largest-magnitude
    # entry positive (ties broken by lowest row index via argmax).
    B = B.copy()
    for j in range(B.shape[1]):
        i = int(np.argmax(np.abs(B[:, j])))
        if B[i, j] < 0:
            B[:, j] = -B[:, j]
    return B


def orthonormal_basis(V: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns of a d x r matrix) of the span of the
    rows of the validated m x d array V.

    Returns a d x 0 matrix for all-zero or empty input.  Deterministic: SVD
    plus a fixed sign convention.
    """
    if V.size == 0:
        return np.zeros((V.shape[1], 0))
    _, s, vh = np.linalg.svd(V, full_matrices=False)
    return _fix_signs(vh[:_rank_of(s, tol)].T)


def compute_affine_hull(F: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> AffineHull:
    """Affine hull of the rows of the validated, nonempty 2-D array F,
    anchored at their centroid.

    The hull is invariant to the anchor choice; the centroid makes the result
    independent of sample order.  Samples whose centroid or centred values
    overflow raise InputError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        anchor = F.mean(axis=0)
        centred = F - anchor
    if not np.all(np.isfinite(centred)):
        raise InputError("samples: centred samples overflow (entries must be finite)")
    return AffineHull(anchor=anchor, basis=orthonormal_basis(centred, tol))


def project_complement(W: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Project the rows of W onto the orthogonal complement of span(Z).

    Computes W (I - Z Z^T), as a new array, for an m x d array W and a d x ell
    array Z with orthonormal columns.  At ell = 0 the product is zero, so
    the result is W, bit for bit.
    """
    return W - (W @ Z) @ Z.T
