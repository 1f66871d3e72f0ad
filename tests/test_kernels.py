"""Parity of the pivot kernels with each other and with the scalar loop.

The vectorized ``_simplex_py.pivot_loop`` and ``pivot_batch`` are checked
byte for byte against ``scalar_pivot_loop`` below (slice by slice, for a
stack), which needs no C compiler.  For the compiled kernel, when none is
installed, the extension is built from source into a
temporary directory with the same ``setup.py build_ext`` users run, so the
compiled-vs-pure checks run wherever a C compiler exists.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from conescore import _simplex_py

ROOT = Path(__file__).resolve().parents[1]
EPS = 1e-11


def scalar_pivot_loop(T, basis, eps, max_iter):
    """Bland's rule one cell at a time, in ``_simplex.c``'s operation order:
    the reference the vectorized kernel must match byte for byte."""
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


def scalar_pivot_batch(T, basis, eps, max_iter):
    """``scalar_pivot_loop`` on each tableau of a stack, one after another."""
    return [scalar_pivot_loop(T[s], basis[s], eps, max_iter) for s in range(T.shape[0])]


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    try:
        from conescore import _simplex

        return _simplex
    except ImportError:
        pass
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build conescore._simplex")
    out = tmp_path_factory.mktemp("kernel")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out)],
        cwd=ROOT, capture_output=True, text=True,
    )
    built = list((out / "conescore").glob("_simplex*" + sysconfig.get_config_var("EXT_SUFFIX")))
    assert build.returncode == 0 and built, build.stdout + build.stderr
    spec = importlib.util.spec_from_file_location("conescore._simplex", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tableau(A, b):
    """The phase-1 tableau ``lp.phase1`` builds for A x = b, b >= 0."""
    p, q = A.shape
    T = np.zeros((p + 1, q + p + 1))
    T[:p, :q] = A
    T[:p, q:q + p] = np.eye(p)
    T[:p, -1] = b
    T[p, :q] = -A.sum(axis=0)
    T[p, -1] = -b.sum()
    basis = (q + np.arange(p)).astype(np.int64)
    return T, basis


def random_tableau(rng, p, q):
    return tableau(rng.standard_normal((p, q)), np.abs(rng.standard_normal(p)))


def tie_heavy_tableau(rng, p, q):
    # small integers: many equal ratios, so Bland's basis-label tie break decides
    return tableau(rng.integers(-2, 3, (p, q)).astype(float),
                   rng.integers(0, 3, p).astype(float))


def signed_zero_tableau(rng, p, q):
    # an all-zero column and -0.0 entries: rows with a zero factor must be
    # left untouched, or -0.0 turns into 0.0
    A = rng.integers(-1, 2, (p, q)).astype(float)
    A[:, rng.integers(q)] = 0.0
    T, basis = tableau(A, rng.integers(0, 2, p).astype(float))
    T[(T == 0.0) & (rng.random(T.shape) < 0.5)] = -0.0
    return T, basis


TABLEAUX = {"gaussian": random_tableau, "tie-heavy": tie_heavy_tableau,
            "signed-zeros": signed_zero_tableau}


def pivoted(kernel, T, basis, max_iter):
    """(tableau bytes, basis, status) after running kernel on copies."""
    T, basis = T.copy(), basis.copy()
    status = kernel(T, basis, EPS, max_iter)
    return T.tobytes(), basis.tolist(), status


def stack(make, rng, k, p, q):
    """k tableaux of one shape from make, as a stack and a basis array."""
    tableaux, bases = zip(*(make(rng, p, q) for _ in range(k)))
    return np.stack(tableaux), np.stack(bases)


def random_stack(rng, make, max_k=7):
    return stack(make, rng, int(rng.integers(1, max_k)), int(rng.integers(1, 9)),
                 int(rng.integers(1, 12)))


def batched(kernel, T, basis, max_iter):
    """(stack bytes, basis, statuses) after running kernel on copies."""
    T, basis = T.copy(), basis.copy()
    status = kernel(T, basis, EPS, max_iter)
    return T.tobytes(), basis.tolist(), list(status)


@pytest.mark.parametrize("max_iter", [1, 2, 3, 5000])
@pytest.mark.parametrize("make", list(TABLEAUX.values()), ids=list(TABLEAUX))
def test_batch_kernel_matches_scalar_loop(rng, make, max_iter):
    for _ in range(40):
        T, basis = random_stack(rng, make)
        assert (batched(_simplex_py.pivot_batch, T, basis, max_iter)
                == batched(scalar_pivot_batch, T, basis, max_iter))


@pytest.mark.parametrize("max_iter", [1, 2, 3, 5000])
@pytest.mark.parametrize("make", list(TABLEAUX.values()), ids=list(TABLEAUX))
def test_batch_kernel_matches_scalar_loop_on_one_tableau(rng, make, max_iter):
    # the pure kernel pivots a stack of one with pivot_loop's own loop
    for _ in range(40):
        T, basis = random_stack(rng, make, max_k=2)
        assert (batched(_simplex_py.pivot_batch, T, basis, max_iter)
                == batched(scalar_pivot_batch, T, basis, max_iter))


def test_batch_kernel_matches_scalar_loop_on_non_finite_entries(rng):
    for trial in range(150):
        # a third of the stacks hold one tableau
        T, basis = random_stack(rng, tie_heavy_tableau, 2 if trial % 3 == 0 else 7)
        u = rng.random(T.shape)
        T[u < 0.05] = np.nan
        T[u > 0.95] = np.inf
        T[(u > 0.90) & (u < 0.92)] = -np.inf
        with np.errstate(all="ignore"):
            for max_iter in (1, 3, 200):
                assert (batched(_simplex_py.pivot_batch, T, basis, max_iter)
                        == batched(scalar_pivot_batch, T, basis, max_iter))


def pivot_counts(T, basis):
    """How many pivots each tableau of a stack takes to finish."""
    counts = []
    for s in range(T.shape[0]):
        Ts, bs, steps = T[s].copy(), basis[s].copy(), 0
        while scalar_pivot_loop(Ts, bs, EPS, 1):
            steps += 1
        counts.append(steps)
    return counts


def test_batch_tableaux_finish_at_different_pivots(rng):
    # finished tableaux leave the working stack while the others go on; an
    # optimal tableau (no column can enter) finishes before the first pivot
    for _ in range(30):
        T, basis = stack(random_tableau, rng, 6, 5, 8)
        T[2, -1, :-1] = np.abs(T[2, -1, :-1])
        counts = pivot_counts(T, basis)
        assert counts[2] == 0 and len(set(counts)) > 2
        for max_iter in (1, max(counts) - 1, max(counts), 5000):
            got = batched(_simplex_py.pivot_batch, T, basis, max_iter)
            assert got == batched(scalar_pivot_batch, T, basis, max_iter)
            assert got[2] == [int(c >= max_iter) for c in counts]


@pytest.mark.parametrize("max_iter", [1, 2, 3, 5000])
@pytest.mark.parametrize("make", list(TABLEAUX.values()), ids=list(TABLEAUX))
def test_vectorized_kernel_matches_scalar_loop(rng, make, max_iter):
    for _ in range(60):
        T, basis = make(rng, int(rng.integers(1, 10)), int(rng.integers(1, 12)))
        assert (pivoted(_simplex_py.pivot_loop, T, basis, max_iter)
                == pivoted(scalar_pivot_loop, T, basis, max_iter))


def test_vectorized_kernel_matches_scalar_loop_on_non_finite_entries(rng):
    # NaN and inf take the scalar loop's paths too: a NaN first ratio wins,
    # later NaN ratios lose, and eliminated rows get an exact 0.0 pivot column
    for _ in range(200):
        T, basis = tie_heavy_tableau(rng, int(rng.integers(1, 8)), int(rng.integers(1, 10)))
        u = rng.random(T.shape)
        T[u < 0.05] = np.nan
        T[u > 0.95] = np.inf
        T[(u > 0.90) & (u < 0.92)] = -np.inf
        with np.errstate(all="ignore"):
            for max_iter in (1, 3, 200):
                assert (pivoted(_simplex_py.pivot_loop, T, basis, max_iter)
                        == pivoted(scalar_pivot_loop, T, basis, max_iter))


@pytest.mark.parametrize("make", list(TABLEAUX.values()), ids=list(TABLEAUX))
def test_one_pivot_per_call_ends_on_the_same_tableau(rng, make):
    # a pivot counter drives the kernel with max_iter=1 until it returns 0;
    # Bland's rule keeps no state outside T and basis, so that is one call
    for _ in range(30):
        T, basis = make(rng, int(rng.integers(1, 10)), int(rng.integers(1, 12)))
        Ts, bs = T.copy(), basis.copy()
        steps = 0
        while _simplex_py.pivot_loop(Ts, bs, EPS, 1):
            steps += 1
            assert steps < 5000
        assert (Ts.tobytes(), bs.tolist(), 0) == pivoted(_simplex_py.pivot_loop, T, basis, 5000)


def test_kernels_bit_identical(rng, compiled):
    for make in TABLEAUX.values():
        for _ in range(30):
            T, basis = make(rng, int(rng.integers(1, 10)), int(rng.integers(1, 12)))
            got = pivoted(compiled.pivot_loop, T, basis, 5000)
            assert got == pivoted(_simplex_py.pivot_loop, T, basis, 5000)
            assert got[2] == 0


def test_batch_kernels_bit_identical(rng, compiled):
    for make in TABLEAUX.values():
        for _ in range(20):
            T, basis = random_stack(rng, make)
            for max_iter in (1, 3, 5000):
                got = batched(compiled.pivot_batch, T, basis, max_iter)
                assert got == batched(_simplex_py.pivot_batch, T, basis, max_iter)


def test_compiled_batch_matches_compiled_loop_on_non_finite_entries(rng, compiled):
    # the compiled batch runs the compiled loop on each slice, NaN bits and
    # all; the two kernels' NaNs may differ in sign, so they are compared
    # against each other on finite tableaux only
    def looped(T, basis, eps, max_iter):
        return [compiled.pivot_loop(T[s], basis[s], eps, max_iter) for s in range(T.shape[0])]

    for _ in range(60):
        T, basis = random_stack(rng, tie_heavy_tableau)
        u = rng.random(T.shape)
        T[u < 0.05] = np.nan
        T[u > 0.95] = np.inf
        for max_iter in (1, 3, 200):
            assert (batched(compiled.pivot_batch, T, basis, max_iter)
                    == batched(looped, T, basis, max_iter))


CYCLING = json.loads((Path(__file__).resolve().parent / "cycling_tableaux.json").read_text())


@pytest.mark.parametrize("case", CYCLING["cases"],
                         ids=lambda c: f"seed{c['seed']}-{c['instance']}-x{c['scale']:g}")
def test_cycling_tableaux_pivot_alike_in_every_entry(case, compiled):
    # zero-combination LPs of rank_lineality_pool cones on which Bland's rule
    # cycles on a degenerate vertex until the pivot cap: every entry of both
    # kernels must still end on the same bits, and the status recorded
    # shows whether the cap is still reached
    T = np.array(case["tableau"])
    basis = np.array(case["basis"], dtype=np.int64)
    n = case["max_iter"]
    want = pivoted(_simplex_py.pivot_loop, T, basis, n)
    assert pivoted(compiled.pivot_loop, T, basis, n) == want
    for kernel in (_simplex_py.pivot_batch, compiled.pivot_batch):
        got = batched(kernel, T[None], basis[None], n)
        assert (got[0], got[1][0], got[2][0]) == want
    assert want[2] == case["status"]


def degenerate_tableaux(rng):
    """The tableaux ``lp.phase1`` builds for an LP with no constraint rows
    (one cost row, an empty basis) or no columns (artificials only), plus
    the first with an arbitrary cost row: no row can leave, so none pivots."""
    for q in range(4):
        T, basis = tableau(np.zeros((0, q)), np.zeros(0))
        yield T, basis
        T = T.copy()
        T[0, :q] = rng.standard_normal(q)
        yield T, basis
    for p in range(1, 5):
        yield tableau(np.zeros((p, 0)), np.abs(rng.standard_normal(p)))


@pytest.mark.parametrize("kernel", ["scalar", "vectorized", "compiled"])
def test_no_rows_or_no_columns_stop_at_once(request, rng, kernel):
    loop = {"scalar": scalar_pivot_loop, "vectorized": _simplex_py.pivot_loop}.get(kernel)
    if loop is None:
        loop = request.getfixturevalue("compiled").pivot_loop
    for T, basis in degenerate_tableaux(rng):
        assert pivoted(loop, T, basis, 5000) == (T.tobytes(), basis.tolist(), 0)


@pytest.mark.parametrize("kernel", ["scalar", "vectorized", "compiled"])
def test_batch_of_no_rows_or_no_columns_stops_at_once(request, rng, kernel):
    loop = {"scalar": scalar_pivot_batch, "vectorized": _simplex_py.pivot_batch}.get(kernel)
    if loop is None:
        loop = request.getfixturevalue("compiled").pivot_batch
    for T, basis in degenerate_tableaux(rng):
        for k in (0, 1, 3):
            Ts, bs = np.repeat(T[None], k, axis=0), np.repeat(basis[None], k, axis=0)
            assert batched(loop, Ts, bs, 5000) == (Ts.tobytes(), bs.tolist(), [0] * k)


def test_iteration_cap_stops_both_kernels_alike(rng, compiled):
    T, basis = random_tableau(rng, 6, 8)
    states = []
    for kernel in (compiled.pivot_loop, _simplex_py.pivot_loop):
        Tk, bk = T.copy(), basis.copy()
        assert kernel(Tk, bk, 1e-11, 1) == 1
        # the capped tableau is not optimal yet: one more call pivots again
        assert kernel(Tk.copy(), bk.copy(), 1e-11, 1) == 1
        states.append((Tk, bk))
    (T1, b1), (T2, b2) = states
    assert np.array_equal(b1, b2)
    assert np.array_equal(T1, T2)


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("make", [
    lambda T, b: (T, b.astype(np.int32)),
    lambda T, b: (T.astype(np.float32), b),
    lambda T, b: (np.asfortranarray(T), b),
    lambda T, b: (_read_only(T), b),
    lambda T, b: (T, b[:-1]),
], ids=["int32-basis", "float32-T", "fortran-T", "read-only-T", "short-basis"])
def test_bad_buffers_raise(compiled, make):
    T, basis = random_tableau(np.random.default_rng(0), 4, 5)
    T, basis = make(T, basis)
    with pytest.raises((TypeError, ValueError)):
        compiled.pivot_loop(T, basis, 1e-11, 100)


@pytest.mark.parametrize("make", [
    lambda T, b: (T, b.astype(np.int32)),
    lambda T, b: (T.astype(np.float32), b),
    lambda T, b: (np.asfortranarray(T), b),
    lambda T, b: (_read_only(T), b),
    lambda T, b: (T, _read_only(b)),
    lambda T, b: (T, b[:, :-1]),
    lambda T, b: (T, b[:-1]),
    lambda T, b: (T, b[:, ::2]),
    lambda T, b: (T[0], b[0]),
    lambda T, b: (T, b[0]),
    lambda T, b: (T[:, :0], b[:, :0]),
], ids=["int32-basis", "float32-T", "fortran-T", "read-only-T", "read-only-basis",
        "short-basis-rows", "short-basis-stack", "strided-basis", "2-D-T", "1-D-basis",
        "no-cost-row"])
def test_bad_batch_buffers_raise(compiled, make):
    T, basis = stack(random_tableau, np.random.default_rng(0), 3, 4, 5)
    T, basis = make(T, basis)
    with pytest.raises((TypeError, ValueError)):
        compiled.pivot_batch(T, basis, 1e-11, 100)


def test_solver_results_match_kernels(rng, monkeypatch, compiled):
    from conescore import lp

    for _ in range(15):
        M = rng.standard_normal((6, 4))
        c = rng.standard_normal(4)
        monkeypatch.setattr(lp, "pivot_loop", compiled.pivot_loop)
        a = lp.solve_feasibility(M, c)
        monkeypatch.setattr(lp, "pivot_loop", _simplex_py.pivot_loop)
        b = lp.solve_feasibility(M, c)
        assert a.feasible == b.feasible
        if a.feasible:
            assert np.array_equal(a.witness, b.witness)


def test_batched_solver_results_match_kernels(rng, monkeypatch, compiled):
    from conescore import lp

    for _ in range(15):
        G, X = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
        keep = rng.random((5, 6)) < 0.7
        results = []
        for kernel in (compiled.pivot_batch, _simplex_py.pivot_batch):
            monkeypatch.setattr(lp, "pivot_batch", kernel)
            feasible, lam = lp._phase1_stack(G, X, np.full(5, 1e-8), keep)
            results.append((feasible.tolist(), lam.tobytes()))
        assert results[0] == results[1]
