"""Pure-Python/numpy Bland pivot loop — fallback for the compiled kernel.

Must stay arithmetically identical to ``_simplex.c`` (same operation order,
no fused multiply-add) so results do not depend on which kernel is loaded.
"""

from __future__ import annotations

import numpy as np


def pivot_loop(T: np.ndarray, basis: np.ndarray, eps: float, max_iter: int) -> int:
    """Run Bland-rule pivots on tableau T in place until optimal.

    T is (p+1) x (q+1): p constraint rows, one reduced-cost row, rhs in the
    last column.  Returns 0 if optimal, 1 if the iteration cap was hit.
    A column with negative reduced cost but no entry above eps is skipped:
    the phase-1 objective is bounded below, so that signal is numerical noise.
    """
    p = T.shape[0] - 1
    q = T.shape[1] - 1
    for _ in range(max_iter):
        col = -1
        row = -1
        best = 0.0
        for j in np.nonzero(T[p, :q] < -eps)[0]:
            for i in range(p):
                if T[i, j] > eps:
                    ratio = T[i, q] / T[i, j]
                    if row < 0 or ratio < best or (ratio == best and basis[i] < basis[row]):
                        row = i
                        best = ratio
            if row >= 0:
                col = int(j)
                break
        if col < 0:
            return 0
        T[row, :] = T[row, :] / T[row, col]
        for i in range(p + 1):
            if i == row:
                continue
            factor = T[i, col]
            if factor != 0.0:
                T[i, :] = T[i, :] - factor * T[row, :]
                T[i, col] = 0.0
        basis[row] = col
    return 1
