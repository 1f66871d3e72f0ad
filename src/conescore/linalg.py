"""Dense real linear-algebra primitives shared by every other module.

Input matrix validation, numerical rank, orthonormal bases, affine hulls and
complement projections.  Everything here is a pure function over immutable
values; arrays handed out are never mutated afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "Tolerances",
    "AffineHull",
    "as_matrix",
    "numeric_rank",
    "orthonormal_basis",
    "compute_affine_hull",
    "project_complement",
]


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

    Ragged, non-numeric, non-2-D or non-finite input raises InputError naming
    ``name``.
    """
    try:
        M = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: not a numeric matrix ({exc})") from None
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise InputError(f"{name}: expected a 2-D matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise InputError(f"{name}: entries must be finite (no NaN/Inf)")
    return M


def numeric_rank(M, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values above the rank threshold.

    The threshold is rank_tol scaled by max(1, largest singular value) so the
    count is stable under positive rescaling of well-conditioned input.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    return _rank_of(np.linalg.svd(M, compute_uv=False), tol)


def _rank_of(s: np.ndarray, tol: Tolerances) -> int:
    """How many of the descending, nonempty singular values s count:
    those above rank_tol * max(1, s[0])."""
    return int(np.sum(s > tol.rank_tol * max(1.0, s[0])))


def _unit_rows(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of G divided by their 2-norms (zero rows stay zero), and the
    norms.

    Each row is first scaled by the power of two that puts its max-norm in
    [0.5, 1), so its squares cannot overflow.  The scaling is exact, so a
    row whose squares did not overflow gets the same unit row and norm as
    with np.linalg.norm on the row itself.
    """
    _, e = np.frexp(np.max(np.abs(G), axis=1, initial=0.0))
    S = np.ldexp(G, -e[:, None])
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


def orthonormal_basis(vectors, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns of a d x r matrix) of span(vectors).

    Returns a d x 0 matrix for all-zero or empty input.  Deterministic: SVD
    plus a fixed sign convention.
    """
    V = np.asarray(vectors, dtype=float)
    if V.ndim == 1:
        V = V.reshape(1, -1)
    if V.size == 0:
        d = V.shape[1] if V.ndim == 2 else 0
        return np.zeros((d, 0))
    _, s, vh = np.linalg.svd(V, full_matrices=False)
    return _fix_signs(vh[:_rank_of(s, tol)].T)


def compute_affine_hull(samples, tol: Tolerances = DEFAULT_TOL) -> AffineHull:
    """Affine hull of the samples, anchored at their centroid.

    The hull is invariant to the anchor choice; the centroid makes the result
    independent of sample order.
    """
    F = np.asarray(samples, dtype=float)
    if F.ndim == 1:
        F = F.reshape(1, -1)
    if F.size == 0 or F.shape[0] == 0:
        raise InputError("no samples")
    anchor = F.mean(axis=0)
    return AffineHull(anchor=anchor, basis=orthonormal_basis(F - anchor, tol))


def project_complement(W, Z) -> np.ndarray:
    """Project the rows of W onto the orthogonal complement of span(Z).

    Computes W (I - Z Z^T); Z must have orthonormal columns.
    """
    W = np.asarray(W, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if W.ndim == 1:
        W = W.reshape(1, -1)
    if W.shape[1] != Z.shape[0]:
        raise InputError(
            f"dimension mismatch: W has {W.shape[1]} cols, Z has {Z.shape[0]} rows"
        )
    if Z.shape[1] == 0:
        return W.copy()
    return W - (W @ Z) @ Z.T
