"""Per-layer tracer that times conescore from outside the package.

``Tracer.install`` replaces every public function of each conescore module
with a timing wrapper, under every name the package binds it to (``cone``,
``ranks``, ``verify``, ``design`` and ``cli`` import ``solve_feasibility``,
``is_in_cone``, ``pareto_front`` and the rank functions by name, so each of
those aliases is rebound too).  ``uninstall`` puts the originals back.  The
pivot kernel is reached through ``lp.pivot_loop`` and stands for the
``simplex`` layer.

A layer's self time is the time spent in its functions minus the time of the
traced calls they make; ``cli.load_problem`` is reported on its own and kept
out of ``cli``'s self time.  With ``count_pivots`` the kernel is driven one pivot
per call (``max_iter=1``); Bland's rule keeps no state outside the tableau and
basis, so results stay bit-identical, but the timings of such a pass are
meaningless and the caller discards them.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYER_MODULES = ("linalg", "lp", "cone", "ranks", "design", "verify", "cli")

# functions whose enclosing span scopes an LP count
LP_CONTEXTS = {
    "decompose": "cone.decompose.lp_solves",
    "cone_subset_rank": "ranks.csr.lp_solves",
    "cone_generating_rank": "ranks.cgr.lp_solves",
    "cone_rank": "ranks.cr.lp_solves",
    "enclosing_simplex": "ranks.enclosing_simplex.lp_solves",
}

# (layer, function) pairs whose inclusive ("ms") or self ("self") time is reported
TIMED = {
    ("design", "pareto_front"): "ms",
    ("verify", "check_improvement"): "ms",
    ("verify", "check_optimality"): "self",
    ("verify", "check_restriction"): "ms",
    ("cli", "load_problem"): "ms",
}

# functions reported on their own and kept out of their layer's self time
# (cli.self_ms is payload building and JSON writing, not the input read)
SPLIT = {("cli", "load_problem")}

BYTES_PER_CELL = 2 * 8  # one float64 read and one written per tableau cell


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """Counts and self times of one pass over the package's layers."""

    def __init__(self, count_pivots: bool = False):
        self.count_pivots = count_pivots
        self.counts: Counter = Counter()
        self.times: Counter = Counter()  # seconds
        self._stack: list[list] = []  # [start, child seconds] per open span
        self._active: Counter = Counter()  # open spans per function name
        self._saved: list[tuple[object, str, object]] = []
        self._mark: Counter = Counter()

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        self._mark = self.counts.copy()
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        wrappers = {}
        for layer in LAYER_MODULES:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        kernel = sys.modules[f"{package.__name__}.lp"].pivot_loop
        wrappers[id(kernel)] = (kernel, self._wrap_kernel(kernel))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._active[name] += 1
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, layer: str, name: str) -> None:
        start, child = self._stack.pop()
        dur = time.perf_counter() - start
        if self._stack:
            self._stack[-1][1] += dur
        self._active[name] -= 1
        if (layer, name) not in SPLIT:
            self.times[f"{layer}.self"] += dur - child
        kind = TIMED.get((layer, name))
        if kind is not None:
            self.times[f"{layer}.{name}.ms"] += dur - child if kind == "self" else dur

    def _wrap(self, layer: str, name: str, fn):
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)

        def traced(*args, **kwargs):
            self.counts[f"{layer}.{name}.calls"] += 1
            if before is not None:
                before(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, name)
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_kernel(self, kernel):
        def traced(T, basis, eps, max_iter):
            self.counts["simplex.calls"] += 1
            self._enter("pivot_loop")
            try:
                if not self.count_pivots:
                    return kernel(T, basis, eps, max_iter)
                pivots, status = 0, 1
                while pivots < max_iter:
                    status = kernel(T, basis, eps, 1)
                    if status == 0:
                        break
                    pivots += 1
                self.counts["simplex.pivots"] += pivots
                self.counts["simplex.pivot_cells"] += pivots * T.size
                return status
            finally:
                self._exit("simplex", "pivot_loop")

        return traced

    # -- hooks that count what a layer did, from its arguments or result ---

    def _after_solve_feasibility(self, result) -> None:
        self.counts["lp.feasible"] += bool(result.feasible)
        for name, key in LP_CONTEXTS.items():
            if self._active[name]:
                self.counts[key] += 1

    def _before_is_in_cone(self, x, W, *args, **kwargs) -> None:
        if self._active["csr_pointed"]:
            self.counts["ranks.csr_pointed.row_tests"] += 1

    def _before_csr_pointed(self, W, *args, **kwargs) -> None:
        self.counts["ranks.csr_pointed.rows"] += W.m

    def _before_csr_subspace(self, W, *args, **kwargs) -> None:
        # each enumerated subset costs one numeric_rank; the first call is t
        if W.m:
            self.counts["ranks.csr_subspace.subsets"] -= 1

    def _before_numeric_rank(self, M, *args, **kwargs) -> None:
        self._count_svd(M)
        if self._active["csr_subspace"]:
            self.counts["ranks.csr_subspace.subsets"] += 1

    def _before_orthonormal_basis(self, V, *args, **kwargs) -> None:
        self._count_svd(V)

    def _count_svd(self, M) -> None:
        if np.size(M) > 0:
            self.counts["linalg.svd_calls"] += 1

    def _after_check_improvement(self, report) -> None:
        self.counts["verify.violations"] += len(report.violations)

    def _after_check_optimality(self, report) -> None:
        self.counts["verify.violations"] += len(report.violations)
        self.counts["verify.flagged_points"] += len(report.violations)

    def _after_check_restriction(self, report) -> None:
        self.counts["verify.violations"] += len(report.violations)

    # -- checks -------------------------------------------------------------

    def completeness_error(self) -> str | None:
        """Why the counts since ``install`` show a call that bypassed the
        tracer, if they do."""
        solves, phase1, kernel = (
            self.counts[key] - self._mark[key]
            for key in ("lp.solve_feasibility.calls", "lp.phase1.calls", "simplex.calls"))
        if solves != phase1:
            return f"lp.solves {solves} != phase1 calls {phase1}"
        if kernel > phase1:
            return f"simplex.calls {kernel} > phase1 calls {phase1}"
        if self._stack:
            return "unbalanced spans"
        return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(timing: Tracer, counting: Tracer, ops: int, out_bytes: int,
                  traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from a timing pass and a pivot-counting pass over
    the same ``ops`` operations."""
    c, t = timing.counts, timing.times
    p = counting.counts

    def per_op(value: float) -> float:
        return value / ops

    def ms(key: str) -> float:
        return per_op(1e3 * t[key])

    return {
        "simplex.calls": (per_op(c["simplex.calls"]), "count"),
        "simplex.pivots": (per_op(p["simplex.pivots"]), "count"),
        "simplex.self_ms": (ms("simplex.self"), "ms"),
        "simplex.cells_per_pivot": (_ratio(p["simplex.pivot_cells"], p["simplex.pivots"]),
                                    "cells"),
        "simplex.computed_bytes": (per_op(BYTES_PER_CELL * p["simplex.pivot_cells"]), "B"),
        "lp.solves": (per_op(c["lp.solve_feasibility.calls"]), "count"),
        "lp.self_ms": (ms("lp.self"), "ms"),
        "lp.feasible_ratio": (_ratio(c["lp.feasible"], c["lp.solve_feasibility.calls"]),
                              "ratio"),
        "cone.is_in_cone.calls": (per_op(c["cone.is_in_cone.calls"]), "count"),
        "cone.is_pointed.calls": (per_op(c["cone.is_pointed.calls"]), "count"),
        "cone.decompose.calls": (per_op(c["cone.decompose.calls"]), "count"),
        "cone.decompose.lp_solves": (per_op(c["cone.decompose.lp_solves"]), "count"),
        "cone.self_ms": (ms("cone.self"), "ms"),
        "ranks.csr.lp_solves": (per_op(c["ranks.csr.lp_solves"]), "count"),
        "ranks.cgr.lp_solves": (per_op(c["ranks.cgr.lp_solves"]), "count"),
        "ranks.cr.lp_solves": (per_op(c["ranks.cr.lp_solves"]), "count"),
        "ranks.csr_pointed.calls": (per_op(c["ranks.csr_pointed.calls"]), "count"),
        "ranks.csr_pointed.lps_per_row": (
            _ratio(c["ranks.csr_pointed.row_tests"], c["ranks.csr_pointed.rows"]), "ratio"),
        "ranks.csr_subspace.subsets": (per_op(c["ranks.csr_subspace.subsets"]), "count"),
        "ranks.enclosing_simplex.lp_solves": (
            per_op(c["ranks.enclosing_simplex.lp_solves"]), "count"),
        "ranks.self_ms": (ms("ranks.self"), "ms"),
        "linalg.svd_calls": (per_op(c["linalg.svd_calls"]), "count"),
        "linalg.self_ms": (ms("linalg.self"), "ms"),
        "design.self_ms": (ms("design.self"), "ms"),
        "design.pareto_front.calls": (per_op(c["design.pareto_front.calls"]), "count"),
        "design.pareto_front.ms": (ms("design.pareto_front.ms"), "ms"),
        "verify.check_improvement.ms": (ms("verify.check_improvement.ms"), "ms"),
        "verify.check_optimality.ms": (ms("verify.check_optimality.ms"), "ms"),
        "verify.check_restriction.ms": (ms("verify.check_restriction.ms"), "ms"),
        "verify.violations": (per_op(c["verify.violations"]), "count"),
        "verify.flagged_points": (per_op(c["verify.flagged_points"]), "count"),
        "cli.load_problem.ms": (ms("cli.load_problem.ms"), "ms"),
        "cli.self_ms": (ms("cli.self"), "ms"),
        "cli.out_bytes": (per_op(out_bytes), "B"),
        "trace.overhead_ratio": (_ratio(traced_s, untraced_s), "ratio"),
    }
