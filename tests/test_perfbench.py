"""The benchmark's traced runs, end to end.

``perfbench/tracer.py`` times the package from outside: it wraps each
module-level function whose name has no leading underscore and checks that
every ``lp.phase1`` call came through ``lp.solve_feasibility``.  Renaming a
helper or changing what it returns can break ``--trace 1`` without breaking
any other test, so a short traced run of each workload is part of the suite.
``rank-lineality`` is not timed, but its cones are the ones whose
decomposition solves a batch of membership LPs, so it is traced here too.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.skipif(not RUN.is_file(), reason="needs a source checkout")
@pytest.mark.parametrize("workload", ["rank-all", "design-both", "verify-reject", "rank-lineality"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0, proc.stderr


@pytest.mark.skipif(not RUN.is_file(), reason="needs a source checkout")
@pytest.mark.parametrize("seed, index", [(2041, 45), (2055, 35)])
def test_rank_lineality_cone_gets_its_ranks(tmp_path, monkeypatch, seed, index):
    # decompose's zero-combination LP on these cones' unscaled rows cycled
    # until the pivot cap (exit 3); on the rows scaled by powers of two it
    # ends, and the ranks are the ones the cone was built with
    from conescore.cli import main

    spec = importlib.util.spec_from_file_location("workloads", RUN.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    inst = workloads.rank_lineality_pool(seed, 60)[index]
    in_path, out_path = tmp_path / "problem.json", tmp_path / "result.json"
    in_path.write_bytes(inst.problem_bytes())
    code = main([*inst.argv, "--in", str(in_path), "--out", str(out_path)])
    out = json.loads(out_path.read_text()) if out_path.exists() else None
    assert workloads.check_rank(inst, code, out) is None
