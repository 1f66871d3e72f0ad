import json

import numpy as np
import pytest

from conescore import GeneratorSet, Tolerances
from conescore.cone import ConeDecomposition, _membership_bound
from conescore.fixtures import fixture_path
from conescore.linalg import project_complement
from conescore.lp import phase1, solve_feasibility

TOL = Tolerances()


def load_fixture(name):
    with open(fixture_path(name)) as fh:
        return json.load(fh)


def fixture_generators(name):
    return GeneratorSet.from_rows(load_fixture(name)["generators"])


def plane_with_a_missed_line():
    """A cone in R^3 with lineality space span(e1, e2), and a decompose that
    finds only span(e1), so its pointed part holds the line through e2."""
    W = GeneratorSet.from_rows([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]])
    Z = np.array([[1.0], [0.0], [0.0]])

    def missing_a_line(W, tol=TOL):
        G = W.generators
        return ConeDecomposition(Z, GeneratorSet(G[:2]),
                                 GeneratorSet(project_complement(G[2:], Z)), (0, 1), (2, 3, 4))

    return W, missing_a_line


def scalar_member(x, G, tol=TOL):
    """The scalar membership reference: one ``phase1`` on the rows of G for
    the point x, at ``_membership_bound``'s target x / scale and bound.
    Returns (inside, lam), lam the LP's basic solution.  ``cone._members``
    must match it row by row, bit for bit."""
    scale, bound = _membership_bound(x, tol)
    return phase1(G.T, x / scale, Tolerances(tol.rank_tol, bound, tol.cone_tol))


def zero_combination(M):
    """solve_feasibility for a convex combination of the rows of M that is
    zero: a column of ones adds the row sum(lam) = 1."""
    return solve_feasibility(np.c_[M, np.ones(len(M))], np.append(np.zeros(M.shape[1]), 1.0))


def random_pointed_rows(rng, m, n, margin=0.3):
    """Rows strictly inside a halfspace around a random axis -> pointed cone."""
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    rows = []
    while len(rows) < m:
        v = rng.standard_normal(n)
        rows.append(v + (margin + abs(v @ u)) * u)
    return np.array(rows)


def random_cone_rows(rng, m, n, mode):
    """mode 0: pointed, 1: non-pointed (mirrored row), 2: unconstrained."""
    if mode == 0:
        return random_pointed_rows(rng, m, n)
    G = rng.standard_normal((m, n))
    if mode == 1:
        G = np.vstack([G, -G[0]])
    return G


def random_rotation(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def linf_grid(d, step):
    axis = np.arange(-1.0, 1.0 + step / 2, step)
    return np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)


def l1_ball_samples(rng, d, n_boundary):
    verts = np.vstack([np.eye(d), -np.eye(d)])
    weights = rng.dirichlet(np.ones(d), size=n_boundary)
    signs = rng.choice([-1.0, 1.0], size=(n_boundary, d))
    return np.vstack([verts, signs * weights])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
