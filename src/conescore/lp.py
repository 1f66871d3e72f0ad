"""Small dense LP feasibility solver and strict separation.

Everything reduces to one phase-1 simplex with Bland's anti-cycling rule on a
dense tableau, so results are fully deterministic.  The pivot loop itself is
the hot kernel: the compiled extension built from ``_simplex.c`` is
preferred, with the vectorized numpy ``_simplex_py`` selected at import when
it is absent (or forced via CONESCORE_PURE=1).  Both run the same operations
in the same order, so their tableaux, and every result, are bit-identical.

Only ``kernel_name`` is public.  The solvers are internal: their callers in
the package pass finite float arrays of matching shapes, which the solvers
neither coerce nor check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotPointedError, ResourceCapError
from .linalg import DEFAULT_TOL, Tolerances, _unit_rows, orthonormal_basis

if os.environ.get("CONESCORE_PURE"):
    from ._simplex_py import pivot_loop

    _KERNEL = "python"
else:
    try:
        from ._simplex import pivot_loop  # type: ignore[no-redef]

        _KERNEL = "compiled"
    except ImportError:  # pragma: no cover - build environment dependent
        from ._simplex_py import pivot_loop  # type: ignore[no-redef]

        _KERNEL = "python"

__all__ = ["kernel_name"]

# pivot epsilons are fixed; user tolerances only affect the feasibility verdict
_PIVOT_EPS = 1e-11


def kernel_name() -> str:
    """Which pivot kernel is active: 'compiled' or 'python'."""
    return _KERNEL


@dataclass(frozen=True)
class FeasibilityResult:
    """The verdict of one phase-1 LP and, when feasible, its basic solution.

    Feasible means the phase-1 l1 residual, sum |lam @ M - target| (plus
    |sum(lam) - 1| with sum_to_one), reached feas_tol; that residual is the
    one certificate, and witness is the lam attaining it (None when
    infeasible).
    """

    feasible: bool
    witness: np.ndarray | None


@dataclass(frozen=True)
class SeparatingHyperplane:
    """Hyperplane {x : normal . x = offset} strictly separating the origin
    from the unit-normalized generators (normal . w_i >= 1 > offset > 0)."""

    normal: np.ndarray
    offset: float
    ambient_basis: np.ndarray


def phase1(A: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Phase-1 simplex for A x = b, x >= 0.

    Returns (feasible, x).  Feasible iff the artificial objective, the l1
    residual sum |A x - b|, reaches feas_tol; x is the basic solution
    (meaningful only when feasible).  Any p, q >= 0 goes through the same
    tableau: with no rows or no columns no column can enter, so the verdict
    is the l1 norm of b.  Raises ResourceCapError when the pivot loop hits
    its iteration cap.
    """
    A = np.ascontiguousarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    p, q = A.shape
    flip = b < 0
    if np.any(flip):
        A = A.copy()
        A[flip] = -A[flip]
        b[flip] = -b[flip]

    T = np.zeros((p + 1, q + p + 1))
    T[:p, :q] = A
    T[:p, q:q + p] = np.eye(p)
    T[:p, -1] = b
    T[p, :q] = -A.sum(axis=0)
    T[p, -1] = -b.sum()
    basis = (q + np.arange(p)).astype(np.int64)

    max_iter = 50 * (p + q) + 1000
    # Bland's rule cannot cycle in exact arithmetic, but rounding can make it
    if pivot_loop(T, basis, _PIVOT_EPS, max_iter) != 0:
        raise ResourceCapError(f"simplex did not terminate within {max_iter} pivots")

    feasible = bool(-T[p, -1] <= tol.feas_tol)
    x = np.zeros(q)
    for i in range(p):
        if basis[i] < q:
            x[basis[i]] = T[i, -1]
    return feasible, x


def solve_feasibility(M: np.ndarray, target: np.ndarray, tol: Tolerances = DEFAULT_TOL,
                      sum_to_one: bool = False) -> FeasibilityResult:
    """Decide whether some row vector lam >= 0 has lam @ M = target (and
    sum(lam) = 1 with sum_to_one), with a witness when it does.

    M is an m x n array and target a vector of length n.  Deterministic
    (fixed Bland pivot rule).
    """
    A, b = M.T, target
    if sum_to_one:
        A = np.vstack([A, np.ones(M.shape[0])])
        b = np.append(target, 1.0)

    feasible, lam = phase1(A, b, tol)
    return FeasibilityResult(feasible, lam if feasible else None)


def find_strict_separator(W: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SeparatingHyperplane:
    """Hyperplane in span(W) strictly separating the origin from cone(W).

    W is an m x n array of generator rows.  Generators are scaled to unit
    length first; the returned normal w satisfies w . w_i >= 1 for every unit
    generator, with offset b = 1/2.  Raises NotPointedError when no separator
    exists (non-pointed cone).
    """
    U, norms = _unit_rows(W)
    if np.any(norms <= tol.rank_tol):
        raise InputError("separator requires nonzero generators")
    B = orthonormal_basis(U, tol)  # n x r
    r = B.shape[1]
    m = U.shape[0]
    C = U @ B  # m x r coefficients

    # variables (y+, y-, s) >= 0 with C y - s = 1
    M_sep = np.vstack([C.T, -C.T, -np.eye(m)])
    res = solve_feasibility(M_sep, np.ones(m), tol)
    if not res.feasible:
        raise NotPointedError("no strict separator exists")
    lam = res.witness
    y = lam[:r] - lam[r:2 * r]
    w = B @ y
    return SeparatingHyperplane(normal=w, offset=0.5, ambient_basis=B)
