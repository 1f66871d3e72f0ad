#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the conescore CLI.

    python3 perfbench/run.py --workload rank-all|design-both|verify-reject|all
        --seed N --seconds S --trace 0|1

``--workload rank-lineality`` runs cones with a lineality space, on a few of
which the phase-1 simplex cycles; it is not part of ``all`` and reports
``correct: false`` on the seeds that hit that defect.

One closed-loop client in one process calls ``conescore.cli.main(argv)``
in-process on problem files generated from ``--seed`` (see workloads.py), for
``--seconds`` seconds, and checks every output against the answer its
instance was built with.  An op fails on a wrong exit code, an escaped
exception or a failed output check; failures are counted, never fatal.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op
three times: untraced, under the timing tracer and under the pivot-counting
tracer (see tracer.py), and reports per-layer metrics per op.  Every traced
op is also the tracer-completeness check: both traced outputs must be
byte-identical to the untraced one, LP solves must equal phase-1 calls and
kernel calls must not exceed them.

``--workload all`` runs each workload in its own process and prints all of
their metrics.  A finished run prints each metric with its unit, then a line
stamping the environment, then one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The package is imported from
``src/`` next to this directory, so no install is needed; without it the
script exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("rank-all", "design-both", "verify-reject")
# runnable by name, never timed: it reproduces a known LP defect (workloads.py)
DEFECT_WORKLOADS = ("rank-lineality",)
SETUP_SAMPLES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, *DEFECT_WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_conescore():
    """Import the package and its CLI, which must come from src/."""
    pkg = importlib.import_module("conescore")
    importlib.import_module("conescore.cli")
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise RuntimeError(f"conescore imported from {pkg.__file__}, not from {SRC}")
    return pkg


def environment(pkg) -> dict:
    return {
        "kernel": pkg.kernel_name(),
        "CONESCORE_PURE": os.environ.get("CONESCORE_PURE"),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    try:
        # the ceiling keeps git from looking for a repository above the checkout
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:  # no git program
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_op(cli, inst, in_path: Path, out_path: Path) -> tuple[int | None, str | None]:
    """One CLI call: (exit code, traceback of an escaped exception)."""
    argv = [inst.argv[0], "--in", str(in_path), "--out", str(out_path), *inst.argv[1:]]
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:  # the op fails; the run goes on
        return None, traceback.format_exc()


class Session:
    """A workload's generated problem files and the package that runs them."""

    def __init__(self, workload_name: str, seed: int):
        self.pkg = import_conescore()
        from workloads import WORKLOADS  # imported late so set-up time includes numpy's import

        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.pool = self.workload.make_pool(seed, self.workload.pool_size)
        self.dir = WORK / f"{workload_name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        for i, inst in enumerate(self.pool):
            path = self.dir / f"in-{i}.json"
            path.write_bytes(inst.problem_bytes())
            self.inputs.append(path)
        self.out_path = self.dir / "out.json"
        # warm up on the mid-sized instance
        by_size = sorted(range(len(self.pool)), key=lambda i: self.inputs[i].stat().st_size)
        self.call(by_size[len(by_size) // 2])

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for path in self.inputs:
            h.update(path.read_bytes())
        return h.hexdigest()

    def call(self, idx: int) -> tuple[float, int | None, str | None, bytes | None]:
        """Run instance idx once: (seconds, exit code, traceback, output bytes)."""
        self.out_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code, tb = run_op(self.pkg.cli, self.pool[idx], self.inputs[idx], self.out_path)
        dt = time.perf_counter() - t0
        out = self.out_path.read_bytes() if self.out_path.exists() else None
        return dt, code, tb, out

    def order(self):
        """Pool indices, each pass over the pool in a fresh seeded order."""
        rng = random.Random(self.seed)
        indices = list(range(len(self.pool)))
        while True:
            rng.shuffle(indices)
            yield from indices

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


class Checker:
    """Checks each output against its instance's known answer.  A repeated
    instance must reproduce the bytes of its first, fully checked output."""

    def __init__(self, session: Session):
        self.session = session
        self.first: dict[int, tuple[int | None, bytes | None, str | None]] = {}
        self.failures: list[str] = []

    def __call__(self, idx: int, code, tb, out: bytes | None) -> bool:
        if tb is not None:
            return self.fail(idx, "exception escaped cli.main\n" + tb)
        if idx in self.first:
            seen_code, seen, error = self.first[idx]
            if (code, out) != (seen_code, seen):
                return self.fail(idx, "exit code or output differs from the instance's first run")
        else:
            doc = None
            if out is not None:
                try:
                    doc = json.loads(out)
                except ValueError as exc:
                    return self.fail(idx, f"unreadable output: {exc}")
            try:
                error = self.session.workload.check(self.session.pool[idx], code, doc)
            except (KeyError, TypeError, IndexError) as exc:
                error = f"malformed output: {exc!r}"
            self.first[idx] = (code, out, error)
        return self.fail(idx, error) if error else True

    def fail(self, idx: int, reason: str) -> bool:
        self.failures.append(f"{self.session.workload.name} instance {idx}: {reason}")
        return False


def measure_setup(args, digest: str) -> tuple[float, list[str]]:
    """Median set-up time over fresh interpreters (import, inputs, warm-up).
    Each must write the same problem files as this process."""
    samples, errors = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, child_digest = proc.stdout.split()[-2:]
        samples.append(float(seconds))
        if child_digest != digest:
            errors.append(f"{args.workload}: seed {args.seed} wrote other inputs "
                          "in another process")
    return statistics.median(samples), errors


def run_plain(session: Session, seconds: float) -> tuple[dict, int, int, list[str]]:
    check = Checker(session)
    order = session.order()
    latencies = []
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        idx = next(order)
        dt, code, tb, out = session.call(idx)
        attempted += 1
        latencies.append(dt)
        failed += not check(idx, code, tb, out)
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    metrics = {
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[-1]
                           if len(latencies) > 1 else 1e3 * latencies[0], "ms"),
        "ops_per_s": ((attempted - failed) / wall, "1/s"),
    }
    return metrics, attempted, failed, check.failures


def run_traced(session: Session, seconds: float) -> tuple[dict, int, int, list[str]]:
    from tracer import Tracer, layer_metrics

    check = Checker(session)
    timing, counting = Tracer(), Tracer(count_pivots=True)
    order = session.order()
    attempted = failed = out_bytes = 0
    wall = {None: 0.0, timing: 0.0}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted == 0:
        idx = next(order)
        # alternate which of the untraced and timed passes runs first
        passes = [None, timing] if attempted % 2 == 0 else [timing, None]
        runs = {}
        for tracer in passes + [counting]:
            if tracer is not None:
                tracer.install(session.pkg)
            try:
                runs[tracer] = session.call(idx)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        dt, code, tb, out = runs[None]
        ok = check(idx, code, tb, out)
        out_bytes += len(out or b"")
        for tracer in (None, timing):
            wall[tracer] += runs[tracer][0]
        for tracer in (timing, counting):
            _, _, t_tb, t_out = runs[tracer]
            error = tracer.completeness_error()
            if t_tb is not None:
                error = "exception escaped under the tracer\n" + t_tb
            elif t_out != out:
                error = "traced output differs from the untraced output"
            if error and ok:
                ok = check.fail(idx, f"tracer check: {error}")
        attempted += 1
        failed += not ok
    metrics = layer_metrics(timing, counting, attempted, out_bytes, wall[timing], wall[None])
    return metrics, attempted, failed, check.failures


def run_workload(args) -> int:
    session = Session(args.workload, args.seed)
    try:
        errors = []
        if args.trace:
            metrics, attempted, failed, failures = run_traced(session, args.seconds)
        else:
            setup_s, errors = measure_setup(args, session.input_digest())
            metrics, attempted, failed, failures = run_plain(session, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        env = environment(session.pkg)
    finally:
        session.close()

    for line in errors + failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    if not args.trace:
        print(f"{args.workload} failed_ratio {failed / attempted:.6g} -")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not (errors or failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, all metrics printed together."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=max(180.0, 4 * args.seconds),
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def use_src() -> bool:
    """Put src/ first on the import path; False when there is no package."""
    if not (SRC / "conescore" / "__init__.py").is_file():
        print(f"error: no conescore package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_src():
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        t0 = time.perf_counter()
        session = Session(args.workload, args.seed)
        elapsed = time.perf_counter() - t0
        digest = session.input_digest()
        session.close()
        print(elapsed, digest)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
