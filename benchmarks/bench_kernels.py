#!/usr/bin/env python3
"""Benchmark the compiled simplex pivot kernel against the pure-Python one.

Times end-to-end feasibility solves (the package hot path) with each kernel
swapped into conescore.lp, over batches of random problems of growing size,
and checks that both kernels give identical verdicts and witnesses.  Without
the compiled extension only the pure-Python kernel is timed.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from conescore import FeasibilityProblem, lp
from conescore import _simplex_py

try:
    from conescore import _simplex
except ImportError:
    _simplex = None


def batch(rng, m, n, count):
    problems = []
    for _ in range(count):
        M = rng.standard_normal((m, n))
        # half feasible targets (inside the cone), half arbitrary
        if rng.random() < 0.5:
            c = rng.random(m) @ M
        else:
            c = rng.standard_normal(n)
        problems.append(FeasibilityProblem(M=M, target=c))
    return problems


def run(kernel, problems):
    saved = lp.pivot_loop
    lp.pivot_loop = kernel
    try:
        t0 = time.perf_counter()
        results = [lp.solve_feasibility(p) for p in problems]
        return time.perf_counter() - t0, results
    finally:
        lp.pivot_loop = saved


def timed(kernel, problems, repeats):
    """Best time over repeats, and the results of one run."""
    best = min(run(kernel, problems)[0] for _ in range(repeats))
    return best, run(kernel, problems)[1]


def same_results(a, b):
    """Identical verdicts and bit-identical witnesses (None when infeasible)."""
    return all(
        x.feasible == y.feasible and np.array_equal(x.witness, y.witness)
        for x, y in zip(a, b)
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    rng = np.random.default_rng(12345)
    if _simplex is None:
        print("compiled kernel not available; timing the pure-Python kernel alone")
        print(f"{'size (m x n)':>14} {'count':>6} {'python':>10}")
    else:
        print(f"{'size (m x n)':>14} {'count':>6} {'compiled':>10} {'python':>10} {'speedup':>8}")
    for m, n, count in [(5, 3, 400), (10, 6, 300), (20, 12, 200), (40, 25, 100), (80, 50, 40)]:
        problems = batch(rng, m, n, count)
        tp, tp_res = timed(_simplex_py.pivot_loop, problems, args.repeats)
        if _simplex is None:
            print(f"{f'{m} x {n}':>14} {count:>6} {tp:>9.4f}s")
            continue
        tc, tc_res = timed(_simplex.pivot_loop, problems, args.repeats)
        if not same_results(tc_res, tp_res):
            raise SystemExit(f"kernels disagree at {m} x {n}")
        print(f"{f'{m} x {n}':>14} {count:>6} {tc:>9.4f}s {tp:>9.4f}s {tp / tc:>7.2f}x")


if __name__ == "__main__":
    main()
