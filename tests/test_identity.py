"""The byte-identity harness, tree against itself.

``scripts/identity.py`` compares CLI outputs between two trees; run on one
commit against itself, on a spread slice of its corpus, it must find no
difference.  A rename in the package, the fixtures or the perfbench pools
that the harness relies on breaks this test.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "identity.py"


def _has_commit() -> bool:
    if shutil.which("git") is None:
        return False
    proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          capture_output=True)
    return proc.returncode == 0


@pytest.mark.skipif(not SCRIPT.is_file() or not _has_commit(), reason="needs a git checkout")
def test_tree_against_itself_has_no_differences():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--against", "HEAD", "--tree", "HEAD", "--every", "50"],
        capture_output=True, text=True, timeout=600,
    )
    summary = proc.stdout.strip().splitlines()[-1]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.match(r"identity: [1-9]\d* cases x [12] kernels", summary), summary
    assert summary.endswith(": 0 bytes, 0 exit code, 0 stderr differences")
