"""Vectorized numpy Bland pivot loop — fallback for the compiled kernel.

Each pivot is a few whole-array operations, and each one does, cell by cell,
what ``_simplex.c`` does in its loops: the same divisions, one multiply then
one subtract per updated cell (no fused multiply-add), and the same rows
left untouched.  Both kernels therefore give bit-identical tableaux, bases
and statuses, so results do not depend on which kernel is loaded.
"""

from __future__ import annotations

import numpy as np


def _loop(T: np.ndarray, basis: np.ndarray, eps: float, max_iter: int) -> int:
    """Run Bland-rule pivots on one tableau T in place until optimal:
    pivot_batch's path for a stack of one.

    T is (p+1) x (q+1): p constraint rows, one reduced-cost row, rhs in the
    last column.  Returns 0 if optimal, 1 if the iteration cap was hit.
    A column with negative reduced cost but no entry above eps is skipped:
    the phase-1 objective is bounded below, so that signal is numerical noise.
    """
    p, q = T.shape[0] - 1, T.shape[1] - 1
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


def pivot_batch(T: np.ndarray, basis: np.ndarray, eps: float, max_iter: int) -> list[int]:
    """Run Bland-rule pivots on every tableau of the stack T, in place, at
    once, until each is optimal.

    T is k x (p+1) x (q+1) and basis k x p.  Each step pivots every tableau
    that is not yet optimal, by Bland's rule and _loop's per-cell
    operations, so each slice ends bit-identical to _loop on it alone.
    The unfinished tableaux are kept at the front of T, so each step works
    on one contiguous view; the order is restored once at the end.  A stack
    of one goes through _loop, which is faster on one tableau.  Returns the
    k statuses: 0 optimal, 1 iteration cap hit.
    """
    k, p, q = T.shape[0], T.shape[1] - 1, T.shape[2] - 1
    if k < 2:
        return [_loop(T[0], basis[0], eps, max_iter)] if k else []
    status = np.ones(k, dtype=np.int64)
    order = np.arange(k)  # the input position of each slice of T
    fr = np.empty_like(T)  # f * r of each pivot, and a copy of T to reorder it
    n = k
    a = np.arange(k)
    for _ in range(max_iter):
        S, B = T[:n], basis[:n]
        # entering: per tableau, the smallest negative-cost column with an
        # entry above eps (fmax skips NaN, as the comparison does)
        top = np.fmax.reduce(S[:, :p, :q], axis=1, initial=-np.inf)
        ok = (S[:, p, :q] < -eps) & (top > eps)
        has = ok.any(axis=1)
        if not has.all():
            # the finished tableaux move behind the unfinished ones (take
            # with mode="clip" writes straight to out, with no buffer)
            live = np.argsort(~has, kind="stable")
            S[...] = np.take(S, live, axis=0, out=fr[:n], mode="clip")
            B[...], order[:n] = B[live], order[live]
            n = int(has.sum())
            status[order[n:has.size]] = 0
            if not n:
                break
            S, B, ok, a = T[:n], basis[:n], ok[live[:n]], a[:n]
        col = ok.argmax(axis=1)
        # leaving: min ratio over the rows with an entry above eps, ties by
        # smallest basis label (q is above every label); a NaN first ratio
        # wins and later NaNs lose
        c = S[a, :p, col]
        rows = c > eps
        ratios = np.divide(S[:, :p, q], c, out=np.full(c.shape, np.nan), where=rows)
        best = np.fmin.reduce(ratios, axis=1)
        row = np.where(rows & (ratios == best[:, None]), B, q).argmin(axis=1)
        first = rows.argmax(axis=1)
        nan = np.isnan(ratios[a, first])
        if nan.any():
            row[nan] = first[nan]
        r = S[a, row]
        r /= r[a, col][:, None]
        S[a, row] = r
        # rows whose factor is 0.0 stay untouched, which keeps signed zeros
        f = S[a, :, col]
        nz = f != 0.0
        nz[a, row] = False
        np.multiply(f[:, :, None], r[:, None, :], out=fr[:n])
        np.subtract(S, fr[:n], out=S, where=nz[:, :, None])
        S[a, :, col] = np.where(nz, 0.0, f)
        B[a, row] = col
    if np.any(order != np.arange(k)):
        fr[...] = T
        T[order] = fr
        basis[order] = basis.copy()
    return status.tolist()
