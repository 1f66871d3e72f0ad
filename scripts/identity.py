#!/usr/bin/env python3
"""Byte-identity check of the conescore CLI between two source trees.

    python scripts/identity.py --against REV [--tree REV] [--every K]

Exports the tree at REV and the tree under test (``--tree``, by default the
working tree with its uncommitted and untracked files) with ``git archive``,
builds the compiled kernel in each with ``setup.py build_ext --inplace``,
and runs one fixed corpus through ``conescore.cli.main`` in each tree with
each kernel (the python kernel only when the compiled one does not build
in both trees).  The corpus is every fixture x command x objective x
restriction x tolerance set, the fixtures scaled to max|x| from 1e-300 to
1.7e308, the four ``perfbench`` pools at seeds 5 and 11, and ``design``
and ``verify`` on grid samples of ORACLE_SIZES rows, all with
``--reproducible``; ``--every K`` keeps every K-th case.  A case that runs
longer than CASE_SECONDS (some inputs never finish, some of them inside
native code that no signal interrupts) is stopped by killing its worker
and recorded as a timeout.

Per case it compares the output file's bytes, the exit code and stderr
between the trees, for each kernel.  Stderr is the CLI's own text plus the
distinct "Category: message" of the warnings the case raised, without the
file and line they came from, which move whenever code does.  It also counts
the LPs each pool solves and their pivots, per op: an LP per tableau of
every stack handed to ``lp.pivot_batch``, and in revisions whose
``lp.pivot_loop`` is a kernel entry of its own, not ``lp``'s adapter over
``pivot_batch``, one per call of it too.  The kernel calls whose results
are compared are the program's own; the pivots are counted by a second pass
over copies of each pool case's tableaux, one pivot per kernel call.  The
last lines give the number of timeouts and the summary; the exit status is
1 when any case differs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import queue
import subprocess
import sys
import tempfile
import threading
import warnings
from collections import Counter
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (5, 11)
CASE_SECONDS = 10.0
SCALES = (1e-300, 1e-150, 1e-12, 1e-6, 1e6, 1e12, 1e155, 1e300, 8e307, 1.7e308)
LOOSE = ("--tol-rank", "1e-7", "--tol-feas", "1e-6", "--tol-cone", "1e-6")
RANKS = [("rank", "--kind", kind) for kind in ("csr", "cgr", "cr", "all")]
DESIGNS = [("design", "--objective", o, "--restriction", r)
           for o in ("improvement", "optimality", "both") for r in ("res-cs", "res-lm", "res-l")]
COMMANDS = [("decompose",), *RANKS, *DESIGNS, ("verify",)]
ORACLE_SIZES = (1023, 1025, 2100)


def label(argv) -> str:
    return " ".join(a for a in argv if not a.startswith("--"))


def corpus() -> list[tuple[str, dict, list[str]]]:
    """(name, problem document, argv after --in/--out) for every case."""
    cases = []
    for path in sorted((ROOT / "src" / "conescore" / "fixtures").glob("*.json")):
        doc = json.loads(path.read_text())
        for argv in COMMANDS:
            for tol in ((), LOOSE):
                name = f"{path.stem}:{label(argv)}{':loose' if tol else ''}"
                cases.append((name, doc, [*argv, *tol, "--reproducible"]))
        for s in SCALES:
            scaled = dict(doc)
            for key in ("generators", "metrics_samples"):
                if key in doc:
                    x = np.asarray(doc[key], dtype=float)
                    scaled[key] = (x / np.max(np.abs(x)) * s).tolist()
            for argv in (("decompose",), *RANKS, DESIGNS[-2], ("verify",)):
                cases.append((f"{path.stem}@{s:g}:{label(argv)}", scaled,
                              [*argv, "--reproducible"]))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for seed in SEEDS:
        for w in WORKLOADS.values():
            for i, inst in enumerate(w.make_pool(seed, w.pool_size)):
                cases.append((f"{w.name}@{seed}#{i}", inst.doc, list(inst.argv)))
    # the oracles past one column tile of 1024 rows: half-integer grid
    # samples near a chain in R^3, so few pairs break improvement, under a
    # designed score, a mixed-sign A and one row (about half of all pairs in
    # the score's >= order)
    rng = np.random.default_rng(0)
    for n in ORACLE_SIZES:
        F = rng.integers(0, n // 4, size=(n, 1)) / 2 + rng.integers(0, 2, size=(n, 3)) / 2
        doc = {"schema_version": 1, "metrics_samples": F.tolist()}
        cases.append((f"grid{n}:{label(DESIGNS[-2])}", doc, [*DESIGNS[-2], "--reproducible"]))
        cases.append((f"grid{n}:verify", {**doc, "design": {"A": [[1, -1, 0], [0, 1, 1]]}},
                      ["verify", "--reproducible"]))
    cases.append((f"grid{n}:verify:one-row", {**doc, "design": {"A": [[1, 1, 1]]}},
                  ["verify", "--reproducible"]))
    return cases


def run_corpus(cases_path: str, start: int) -> None:
    """Worker: run the cases from number start on in this interpreter, one
    JSON line each."""
    import conescore
    from conescore import cli, lp

    counts = Counter()
    pool_case = [False]

    def count(kernel):
        def counted(T, basis, eps, max_iter):
            counts["lps"] += T.shape[0] if T.ndim == 3 else 1
            if pool_case[0]:
                # on copies, one pivot per call: a slice's status is 1 when
                # that call pivoted it
                Tc, bc = T.copy(), basis.copy()
                for _ in range(max_iter):
                    status = np.asarray(kernel(Tc, bc, eps, 1))
                    counts["pivots"] += int(status.sum())
                    if not status.any():
                        break
            return kernel(T, basis, eps, max_iter)
        return counted

    if hasattr(lp, "pivot_batch"):
        lp.pivot_batch = count(lp.pivot_batch)
    # an adapter defined in lp reaches the kernel through pivot_batch, which
    # counts its LP already
    loop = getattr(lp, "pivot_loop", None)
    if loop is not None and loop.__module__ != lp.__name__:
        lp.pivot_loop = count(loop)
    print(json.dumps({"kernel": conescore.kernel_name(), "package": conescore.__file__}),
          flush=True)
    # beside the cases, so a worker killed on a timeout leaves nothing behind
    work = Path(tempfile.mkdtemp(dir=Path(cases_path).parent))
    for name, doc, argv in json.loads(Path(cases_path).read_text())[start:]:
        inp, out = work / "problem.json", work / "out.json"
        inp.write_text(json.dumps(doc))
        out.unlink(missing_ok=True)
        counts.clear()
        pool_case[0] = "#" in name
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = cli.main([argv[0], "--in", str(inp), "--out", str(out), *argv[1:]])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback the CLI let escape
                code = None
                err.write(f"escaped {type(exc).__name__}: {exc}\n")
        raised = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
        print(json.dumps({
            "name": name, "code": code, "stderr": err.getvalue() + "".join(
                line + "\n" for line in raised),
            "sha256": hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None,
            "lps": counts["lps"], "pivots": counts["pivots"],
        }), flush=True)


def git(*args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def export(rev: str | None, dest: Path) -> str:
    """Write the tree of rev (None: the working tree) into dest; its id."""
    if rev is None:
        # stage everything into a scratch index, leaving the real one alone
        index = dest.with_suffix(".index")
        env = {**os.environ, "GIT_INDEX_FILE": str(index)}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        tree = git("write-tree", env=env)
        index.unlink()
    else:
        tree = git("rev-parse", f"{rev}^{{tree}}")
    dest.mkdir()
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=dest,
                   capture_output=True)
    return tree


def _forward(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put("")


def run_tree(tree: Path, kernel: str, cases: list, cases_path: Path) -> dict:
    """Every case's row from workers running in tree with kernel.  A case
    with no row after CASE_SECONDS gets code "timeout"; its worker is killed
    and a new one goes on from the next case."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("CONESCORE_PURE", None)
    if kernel == "python":
        env["CONESCORE_PURE"] = "1"
    rows: dict = {}
    while len(rows) < len(cases):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--run-corpus", str(cases_path),
               "--start", str(len(rows))]
        with tempfile.TemporaryFile("w+") as err, subprocess.Popen(
                cmd, env=env, cwd=tree, stdout=subprocess.PIPE, stderr=err, text=True) as proc:
            lines: queue.Queue = queue.Queue()
            threading.Thread(target=_forward, args=(proc.stdout, lines), daemon=True).start()
            head = json.loads(lines.get(timeout=60.0))
            if head["kernel"] != kernel or not head["package"].startswith(str(tree)):
                proc.kill()
                raise SystemExit(f"{tree} ran the {head['kernel']} kernel from {head['package']}")
            while len(rows) < len(cases):
                name = cases[len(rows)][0]
                try:
                    line = lines.get(timeout=CASE_SECONDS)
                except queue.Empty:
                    proc.kill()
                    rows[name] = {"name": name, "code": "timeout", "stderr": "", "sha256": None,
                                  "lps": 0, "pivots": 0}
                    break
                if not line:
                    err.seek(0)
                    raise SystemExit(f"corpus run failed in {tree} ({kernel}):\n{err.read()}")
                rows[name] = json.loads(line)
    return rows


def pool_counts(rows: dict) -> dict:
    """LPs and pivots per op of each perfbench pool."""
    per = {}
    for name, row in rows.items():
        if "#" in name:
            pool = name.split("#")[0]
            n, lps, piv = per.get(pool, (0, 0, 0))
            per[pool] = (n + 1, lps + row["lps"], piv + row["pivots"])
    return {pool: {"ops": n, "lps_per_op": round(lps / n, 3), "pivots_per_op": round(piv / n, 3)}
            for pool, (n, lps, piv) in per.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", help="git revision to compare with")
    ap.add_argument("--tree", help="git revision under test (default: the working tree)")
    ap.add_argument("--every", type=int, default=1, help="keep every K-th case")
    ap.add_argument("--run-corpus", help=argparse.SUPPRESS)
    ap.add_argument("--start", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_corpus:
        run_corpus(args.run_corpus, args.start)
        return 0
    if not args.against:
        ap.error("--against is required")

    cases = corpus()[::args.every]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cases_path = tmp / "cases.json"
        cases_path.write_text(json.dumps(cases))
        trees = {"against": tmp / "against", "tree": tmp / "tree"}
        ids = {side: export(rev, trees[side])
               for side, rev in (("against", args.against), ("tree", args.tree))}
        kernels = ["python", "compiled"]
        if not all(
                list((t / "src" / "conescore").glob("_simplex*.so")) for t in trees.values()):
            print("compiled kernel did not build in both trees; running the python kernel only")
            kernels.remove("compiled")
        results, diffs = {}, Counter()
        for kernel in kernels:
            sides = {side: run_tree(path, kernel, cases, cases_path)
                     for side, path in trees.items()}
            results[kernel] = sides
            for name, _, _ in cases:
                a, b = sides["against"][name], sides["tree"][name]
                for key, what in (("sha256", "bytes"), ("code", "exit"), ("stderr", "stderr")):
                    if a[key] != b[key]:
                        diffs[what] += 1
                        print(f"{kernel} {name}: {what} differ "
                              f"({a[key]!r:.80} -> {b[key]!r:.80})")
        for kernel, sides in results.items():
            print(json.dumps({"kernel": kernel, **{side: pool_counts(rows)
                                                   for side, rows in sides.items()}}))
    runs = timeouts = 0
    for kernel, sides in results.items():
        for side, rows in sides.items():
            runs += len(rows)
            for name, row in rows.items():
                if row["code"] == "timeout":
                    timeouts += 1
                    print(f"{kernel} {side} {name}: timeout")
    print(f"timeouts: {timeouts} of {runs} case runs")
    print(f"identity: {len(cases)} cases x {len(results)} kernels, tree {ids['tree'][:12]} "
          f"against {ids['against'][:12]}: {diffs['bytes']} bytes, {diffs['exit']} exit code, "
          f"{diffs['stderr']} stderr differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
