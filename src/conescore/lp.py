"""Small dense LP feasibility solver.

Everything reduces to one phase-1 simplex with Bland's anti-cycling rule on a
dense tableau, so results are fully deterministic.  One builder fills the
tableaux and one reader pivots them and reads their verdicts, for a single
LP (``phase1``, a stack of one) and for a stack of LPs of one shape
(``_phase1_stack``, which every cone-membership test goes through).  The
pivot loop itself is the hot kernel, with one entry, ``pivot_batch``: the
compiled extension built from ``_simplex.c`` is preferred, with the
vectorized numpy ``_simplex_py`` selected at import when it is absent (or
forced via CONESCORE_PURE=1).  Both run the same operations in the same
order, so their tableaux, and every result, are bit-identical.

Only ``kernel_name`` is public.  The solvers are internal: their callers in
the package pass finite float arrays of matching shapes, which the solvers
neither coerce nor check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .linalg import DEFAULT_TOL, Tolerances

if os.environ.get("CONESCORE_PURE"):
    from ._simplex_py import pivot_batch

    _KERNEL = "python"
else:
    try:
        from ._simplex import pivot_batch  # type: ignore[no-redef]

        _KERNEL = "compiled"
    except ImportError:  # pragma: no cover - build environment dependent
        from ._simplex_py import pivot_batch  # type: ignore[no-redef]

        _KERNEL = "python"

__all__ = ["kernel_name"]

# pivot epsilons are fixed; user tolerances only affect the feasibility verdict
_PIVOT_EPS = 1e-11
# tableau cells per stack of LPs handed to pivot_batch (4 MiB of float64)
_BATCH_CELLS = 1 << 19


def kernel_name() -> str:
    """Which pivot kernel is active: 'compiled' or 'python'."""
    return _KERNEL


@dataclass(frozen=True)
class FeasibilityResult:
    """The verdict of one phase-1 LP and, when feasible, its basic solution.

    Feasible means the phase-1 l1 residual, sum |lam @ M - target|, reached
    feas_tol; that residual is the one certificate, and witness is the lam
    attaining it (None when infeasible).
    """

    feasible: bool
    witness: np.ndarray | None


def phase1(A: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Phase-1 simplex for A x = b, x >= 0.

    Returns (feasible, x).  Feasible iff the artificial objective, the l1
    residual sum |A x - b|, reaches feas_tol; x is the basic solution
    (meaningful only when feasible).  Any p, q >= 0 goes through the same
    tableau: with no rows or no columns no column can enter, so the verdict
    is the l1 norm of b.  Raises ResourceCapError when the pivot loop hits
    its iteration cap.
    """
    feasible, x = _solve(*_tableaux(A, b[None]), pivot_loop, tol.feas_tol)
    return bool(feasible[0]), x[0]


def pivot_loop(T: np.ndarray, basis: np.ndarray, eps: float, max_iter: int) -> int:
    """pivot_batch on a stack of one tableau; its status as an int.

    phase1 pivots through this name because perfbench/tracer.py wraps
    ``lp.pivot_loop`` as its ``simplex`` layer, and counts pivots by calling
    it with max_iter=1 until it returns 0.
    """
    return pivot_batch(T, basis, eps, max_iter)[0]


def _tableaux(A: np.ndarray, B: np.ndarray, keep: np.ndarray | None = None):
    """The phase-1 tableaux of A x = b, x >= 0, one per row b of B, as one
    k x (p+1) x (q+p+1) stack, and their k x p starting bases.

    With keep, tableau s holds column j of A only where keep[s, j]; the
    others are zero columns, which never enter the basis.  Rows with b < 0
    are negated, the artificial identity and the cost row (minus the column
    sums) are filled in, and the artificials form the starting basis.
    """
    (k, p), q = B.shape, A.shape[1]
    T = np.zeros((k, p + 1, q + p + 1))
    np.copyto(T[:, :p, :q], A, where=True if keep is None else keep[:, None, :])
    T[:, :p, -1] = B
    rows, flip = T[:, :p], B < 0
    rows[flip] = -rows[flip]  # the artificial columns get the identity next
    T[:, :p, q:-1] = np.eye(p)
    T[:, p, :q] = -rows[..., :q].sum(axis=1)
    T[:, p, -1] = -rows[..., -1].sum(axis=1)
    return T, np.tile(q + np.arange(p, dtype=np.int64), (k, 1))


def _solve(T: np.ndarray, basis: np.ndarray, kernel, bound):
    """Pivot a stack of tableaux of _tableaux in place with kernel
    (pivot_batch, or pivot_loop on a stack of one); (feasible, x), with x
    the basic solution of each and feasible whether its l1 residual reaches
    bound.  Raises ResourceCapError when any tableau hits the iteration cap,
    50 (p + q) + 1000 pivots.
    """
    k, p = basis.shape
    q = T.shape[2] - 1 - p
    max_iter = 50 * (p + q) + 1000
    # Bland's rule cannot cycle in exact arithmetic, but rounding can make it
    if np.any(kernel(T, basis, _PIVOT_EPS, max_iter)):
        raise ResourceCapError(f"simplex did not terminate within {max_iter} pivots")
    x = np.zeros((k, q + 1))
    np.put_along_axis(x, np.minimum(basis, q), T[:, :p, -1], axis=1)
    return -T[:, p, -1] <= bound, x[:, :q]


def _phase1_stack(G: np.ndarray, X: np.ndarray, bound: np.ndarray,
                  keep: np.ndarray | None = None):
    """phase1 for lam @ G = x, lam >= 0, for each row x of X, the LP of row
    s combining only the rows j of G with keep[s, j] (all rows without
    keep), and feasible iff its l1 residual reaches bound[s].

    The LPs are pivoted as stacks of at most _BATCH_CELLS tableau cells,
    one pivot_batch call each.  Returns (feasible, lam) with lam the
    k x m basic solutions.  Raises ResourceCapError when any LP hits
    phase1's iteration cap.
    """
    (m, n), k = G.shape, X.shape[0]
    feasible, lam = np.empty(k, bool), np.empty((k, m))
    step = max(1, _BATCH_CELLS // ((n + 1) * (m + n + 1)))
    for lo in range(0, k, step):
        s = slice(lo, lo + step)
        T, basis = _tableaux(G.T, X[s], None if keep is None else keep[s])
        feasible[s], lam[s] = _solve(T, basis, pivot_batch, bound[s])
    return feasible, lam


def solve_feasibility(M: np.ndarray, target: np.ndarray,
                      tol: Tolerances = DEFAULT_TOL) -> FeasibilityResult:
    """Decide whether some row vector lam >= 0 has lam @ M = target, with a
    witness when it does.

    M is an m x n array and target a vector of length n.  Deterministic
    (fixed Bland pivot rule).
    """
    feasible, lam = phase1(M.T, target, tol)
    return FeasibilityResult(feasible, lam if feasible else None)
