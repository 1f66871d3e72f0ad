import ast
import re
from pathlib import Path

import numpy as np
import pytest

from conescore.linalg import numeric_rank

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.skipif(not README.is_file(), reason="needs a source checkout")
def test_quickstart_states_what_it_computes():
    # run the block like a REPL session: every bare expression's value is
    # kept, in order, for comparison with the comment beside it
    ns, shown = {}, []
    for stmt in ast.parse(quickstart_block()).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), ns)

    pointed, csr, cgr, cr, (k, A), passed = shown
    assert pointed is False
    assert (csr, cgr, cr) == (3, 3, 3)
    assert cr == numeric_rank(ns["W"].generators) + 1
    assert k == 1
    np.testing.assert_array_equal(A, [[0.0, 1.0]])
    assert passed is True

    # dec.ell == 1, the line through (2, 1), pointed remnant along (-1, 2)
    dec = ns["dec"]
    assert dec.ell == 1
    np.testing.assert_allclose(np.abs(dec.lineality_basis[:, 0]),
                               np.array([2.0, 1.0]) / np.sqrt(5.0), atol=1e-12)
    along = np.array([-1.0, 2.0]) / np.sqrt(5.0)
    for row in dec.pointed_generators.generators:
        np.testing.assert_allclose(row / np.linalg.norm(row), along, atol=1e-12)
