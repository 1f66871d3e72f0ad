"""Parity between the compiled and pure-Python pivot kernels.

When no compiled kernel is installed, the extension is built from source into
a temporary directory with the same ``setup.py build_ext`` users run, so the
parity checks run wherever a C compiler exists.
"""

import importlib.util
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


def random_tableau(rng, p, q):
    A = rng.standard_normal((p, q))
    b = np.abs(rng.standard_normal(p))
    T = np.zeros((p + 1, q + p + 1))
    T[:p, :q] = A
    T[:p, q:q + p] = np.eye(p)
    T[:p, -1] = b
    T[p, :q] = -A.sum(axis=0)
    T[p, -1] = -b.sum()
    basis = (q + np.arange(p)).astype(np.int64)
    return T, basis


def test_kernels_bit_identical(rng, compiled):
    for _ in range(30):
        p = int(rng.integers(1, 10))
        q = int(rng.integers(1, 12))
        T, basis = random_tableau(rng, p, q)
        T1, b1 = T.copy(), basis.copy()
        T2, b2 = T.copy(), basis.copy()
        s1 = compiled.pivot_loop(T1, b1, 1e-11, 5000)
        s2 = _simplex_py.pivot_loop(T2, b2, 1e-11, 5000)
        assert s1 == s2 == 0
        assert np.array_equal(b1, b2)
        assert np.array_equal(T1, T2)


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


def test_solver_results_match_kernels(rng, monkeypatch, compiled):
    from conescore import FeasibilityProblem, lp

    for _ in range(15):
        M = rng.standard_normal((6, 4))
        c = rng.standard_normal(4)
        prob = FeasibilityProblem(M=M, target=c)
        monkeypatch.setattr(lp, "pivot_loop", compiled.pivot_loop)
        a = lp.solve_feasibility(prob)
        monkeypatch.setattr(lp, "pivot_loop", _simplex_py.pivot_loop)
        b = lp.solve_feasibility(prob)
        assert a.feasible == b.feasible
        if a.feasible:
            assert np.array_equal(a.witness, b.witness)
