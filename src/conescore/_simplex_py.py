"""Vectorized numpy Bland pivot loop — fallback for the compiled kernel.

Each pivot is a few whole-array operations, and each one does, cell by cell,
what ``_simplex.c`` does in its loops: the same divisions, one multiply then
one subtract per updated cell (no fused multiply-add), and the same rows
left untouched.  Both kernels therefore give bit-identical tableaux, bases
and statuses, so results do not depend on which kernel is loaded.
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
    cost, cons, rhs = T[p, :q], T[:p], T[:p, q]
    for _ in range(max_iter):
        # entering: the smallest negative-cost column with an entry above eps
        for col in (cost < -eps).nonzero()[0]:
            c = cons[:, col]
            rows = (c > eps).nonzero()[0]
            if rows.size:
                break
        else:
            return 0
        # leaving: min ratio, ties by smallest basis label; like the C loop's
        # running minimum, keep a NaN first ratio and skip later NaNs
        row = rows[0]
        if rows.size > 1:
            ratios = rhs[rows] / c[rows]
            if ratios[0] == ratios[0]:
                tied = rows[ratios == np.fmin.reduce(ratios)]
                row = tied[basis[tied].argmin()]
        r = T[row]
        np.divide(r, r[col], out=r)
        # rows whose factor is 0.0 stay untouched, which keeps signed zeros
        f = T[:, col]
        nz = f != 0.0
        nz[row] = False
        np.subtract(T, np.multiply.outer(f, r), out=T, where=nz[:, None])
        f[nz] = 0.0
        basis[row] = col
    return 1
