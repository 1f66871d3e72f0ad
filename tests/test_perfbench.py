"""The benchmark's traced runs, end to end.

``perfbench/tracer.py`` times the package from outside: it wraps each
module-level function whose name has no leading underscore and checks that
every ``lp.phase1`` call came through ``lp.solve_feasibility``.  Renaming a
helper or changing what it returns can break ``--trace 1`` without breaking
any other test, so a short traced run of each workload is part of the suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.skipif(not RUN.is_file(), reason="needs a source checkout")
@pytest.mark.parametrize("workload", ["rank-all", "design-both", "verify-reject"])
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
