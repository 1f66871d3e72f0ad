"""The three cone ranks of a generator matrix, with witness generator sets.

- RankKind.CSR, the subset rank: fewest rows of W that regenerate K_W exactly
- RankKind.CGR, the generating rank: fewest vectors anywhere that regenerate
  K_W exactly
- RankKind.CR, the cone rank: fewest vectors whose cone merely encloses K_W

cone_ranks computes any subset of them in one pipeline: one decomposition, one
extreme-ray elimination shared by CSR and CGR (one batch of membership LPs,
pivoted as one stack of tableaux, on a pointed part certified by the
zero-combination LP of is_pointed), and a separating hyperplane + enclosing
simplex for CR.  The simplex witness is simplicial, so one linear solve, not
one LP per generator, certifies that it encloses K_W.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import cone
from .cone import GeneratorSet, _members, _membership_bound, decompose
from .errors import InputError, NotPointedError, ResourceCapError, VerificationError
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _pow2_rows,
    _unit_rows,
    numeric_rank,
    orthonormal_basis,
)
from .lp import SeparatingHyperplane, find_strict_separator

__all__ = ["RankKind", "RankResult", "cone_ranks"]

DEFAULT_MAX_LINEALITY_DIM = 6
_MAX_SUBSETS = 2_000_000


class RankKind(Enum):
    CSR = "csr"
    CGR = "cgr"
    CR = "cr"


@dataclass(frozen=True)
class RankResult:
    """The generator set attaining a rank; the rank value is its size.

    subset_indices names the rows of W used by their input positions, in
    increasing order (subset ranks only).
    """

    kind: RankKind
    witness: GeneratorSet
    subset_indices: tuple[int, ...] | None

    @property
    def value(self) -> int:
        return self.witness.m

    @property
    def relation(self) -> str:
        """How cone(witness) relates to K_W: "encloses" for CR (only K_W
        subset-of cone(witness) is guaranteed), "equal" for CSR and CGR."""
        return "encloses" if self.kind is RankKind.CR else "equal"


def _extreme_rows(W: GeneratorSet, tol: Tolerances) -> list[int]:
    """Indices of the rows of a pointed W that are extreme rays of K_W.

    Of several rows on one extreme ray the last is kept, as a scan dropping
    each redundant row in turn keeps it.  Rows equal up to a power-of-two
    factor lie on one ray exactly, so only the last of them is tested, in
    one batch of membership LPs (_members) against all the other tested
    rows: a row is extreme iff it is not in their cone, unless another
    tested row lies on its ray.  Two redundant rows share a ray when the
    witness of one uses the other alone; each group of such rows keeps its
    last row iff that row is not in the cone of the tested rows outside the
    group, one more small batch.  So the scan solves one LP per tested row
    and one per group.

    Dropping every redundant row at once is sound only in a pointed cone,
    which the caller establishes with the zero-combination LP of
    ``is_pointed`` (cone_ranks: through decompose, or by one more call).
    """
    G = W.generators
    m = W.m
    Gs, _ = _pow2_rows(G)
    # the last of the rows whose scaled bits are equal
    last_of = {g.tobytes(): i for i, g in enumerate(Gs)}
    rows = np.array(sorted(last_of.values()), dtype=int)
    if rows.size < 2:
        return rows.tolist()
    tested = np.zeros(m, bool)
    tested[rows] = True
    inside, uses = _members(G[rows], Gs, tol, tested & (rows[:, None] != np.arange(m)))
    redundant = ~tested
    redundant[rows] = inside
    group = np.arange(m)
    for s in np.nonzero(inside & (uses.sum(axis=1) == 1))[0]:
        j = uses[s].argmax()
        if redundant[j]:
            group[group == group[rows[s]]] = group[j]
    shared = np.nonzero(np.bincount(group[rows]) > 1)[0]
    if shared.size:
        last = np.array([rows[group[rows] == g][-1] for g in shared])
        on_ray, _ = _members(G[last], Gs, tol, tested & (group != shared[:, None]))
        redundant[last[~on_ray]] = False
    return np.nonzero(~redundant)[0].tolist()


def csr_subspace(
    W: GeneratorSet,
    tol: Tolerances = DEFAULT_TOL,
    max_lineality_dim: int = DEFAULT_MAX_LINEALITY_DIM,
) -> tuple[int, ...]:
    """The rows of W, by position, of a smallest subset that positively
    spans span(W), for a cone(W) that is the linear subspace span(W).

    Enumerates subsets of size t+1 .. 2t (t = rank), smallest first then
    lexicographic, accepting the first full-rank subset U whose negated sum
    lies back in cone(U) — exactly the subsets that positively span span(W).
    Raises ResourceCapError when t exceeds max_lineality_dim or when the
    search has tried _MAX_SUBSETS subsets without an answer.
    """
    if W.m == 0:
        return ()
    G = W.generators
    t = numeric_rank(G, tol)
    if t > max_lineality_dim:
        raise ResourceCapError("lineality dimension too large")
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(W.m), size) for size in range(t + 1, min(2 * t, W.m) + 1)
    )
    for tried, subset in enumerate(subsets):
        if tried == _MAX_SUBSETS:
            raise ResourceCapError("lineality dimension too large")
        U = G[list(subset)]
        if numeric_rank(U, tol) == t and _members(-U.sum(axis=0, keepdims=True), U, tol)[0][0]:
            return subset
    raise InputError("generators do not positively span their span")


def enclosing_simplex(
    U: np.ndarray, hyperplane: SeparatingHyperplane, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Vertices of a regular simplex on the hyperplane containing all of U.

    U is a nonempty 2-D array of points that lie on the hyperplane, which is
    the caller's to establish.  With r = dim of the hyperplane's ambient
    span, returns r vertices of a regular (r-1)-simplex with incenter at the
    mean of U and inradius max-distance * (1 + cone_tol), which contains
    every point of U (at r = 1, the mean of U, the one point of the
    hyperplane).  No LP is solved and nothing is checked here: the caller
    certifies the witness it lifts from them.
    """
    B = hyperplane.ambient_basis
    w = hyperplane.normal
    r = B.shape[1]
    ubar = U.mean(axis=0)
    R = float(np.max(np.linalg.norm(U - ubar, axis=1), initial=0.0))
    rho = R * (1.0 + tol.cone_tol) if R > tol.rank_tol else 1.0

    # in-hyperplane directions: span(B) with the normal projected out
    w_unit = w / np.linalg.norm(w)
    H = orthonormal_basis(B.T - np.outer(B.T @ w_unit, w_unit), tol)  # n x (r-1)
    # regular simplex with r vertices in R^{r-1}, centroid 0, circumradius
    # sqrt((r-1)/r), inradius = circumradius/(r-1)
    E = np.eye(r) - np.full((r, r), 1.0 / r)
    S = orthonormal_basis(E, tol)  # r x (r-1)
    Q = E @ S
    scale = rho * math.sqrt(r * (r - 1))
    return ubar + (scale * Q) @ H.T


def _simplicial_members(G: np.ndarray, B: np.ndarray, verts: np.ndarray,
                        tol: Tolerances) -> np.ndarray:
    """Which rows of G lie in the cone over the rows of verts @ B.T.

    verts holds r linearly independent rows in the coefficient space of the
    orthonormal columns B, so the cone is simplicial and one linear solve
    gives every generator's coefficients.  Negative coefficients are clipped
    and a row is accepted when its l1 residual, relative to its scale, is
    within is_in_cone's own bound: a row accepted here has a nonnegative
    combination that the LP would accept too.  Each row is solved scaled by
    _pow2_rows and its residual scaled back, so rows near the float maximum
    cannot overflow and other rows get the residual of the unscaled solve.
    """
    Gs, e = _pow2_rows(G)
    lam = np.maximum(np.linalg.solve(verts.T, (Gs @ B).T).T, 0.0)
    resid = np.ldexp(np.abs(lam @ (verts @ B.T) - Gs).sum(axis=1), e)
    scale, bound = _membership_bound(G, tol)
    return resid / scale <= bound


def _enclosing_rows(W: GeneratorSet, tol: Tolerances) -> np.ndarray:
    """rank(W) vectors whose cone encloses a pointed K_W.

    Works in the r-dimensional coefficient space of span(W): strictly
    separate the unit generators from the origin, scale them onto the
    hyperplane, enclose them in a regular simplex, and lift the vertices back.  The r vertices
    lie on a hyperplane that misses the origin, so they are linearly
    independent and one linear solve certifies that the lifted witness
    contains every generator.  At numeric rank 1 the witness is the first
    row, certified the same way.  Pointedness is the caller's to establish.
    """
    G = W.generators
    if len(G) == 0:
        return G
    r = numeric_rank(G, tol)
    if r == 1:
        # the first row is the witness; its unit direction is the basis
        U, norm = _unit_rows(G[:1])
        B, verts = U.T, norm[:, None]
    else:
        Un, _ = _unit_rows(G)
        B = orthonormal_basis(Un, tol)  # n x r
        C = Un @ B  # m x r, unit rows, full-dimensional pointed cone
        hp = find_strict_separator(C, tol)
        bi = C @ hp.normal  # all >= 1
        pts = (hp.offset / bi)[:, None] * C
        verts = enclosing_simplex(pts, hp, tol)
    if not np.all(_simplicial_members(G, B, verts, tol)):
        raise VerificationError("enclosing witness does not contain a generator")
    return G[:1] if r == 1 else verts @ B.T


def cone_ranks(
    W: GeneratorSet,
    tol: Tolerances = DEFAULT_TOL,
    max_lineality_dim: int = DEFAULT_MAX_LINEALITY_DIM,
    kinds: tuple[RankKind, ...] = tuple(RankKind),
) -> dict[RankKind, RankResult]:
    """The requested ranks of K_W, from one decomposition.

    The decomposition decides which rows count as zero (max|w| <= cone_tol;
    they are in neither of its parts, so all three ranks ignore them).  One
    extreme-ray elimination of the pointed part, its membership LPs solved
    as one stacked batch (_extreme_rows keeps the last row of each extreme
    ray shared by several rows), serves both CSR (those rows mapped back to
    W, plus a positively spanning subset of the lineal rows) and CGR (an
    (ell+1)-vector frame of the lineality space, the basis plus its negated
    sum, followed by those rows); CR is the frame plus an enclosing simplex
    of the pointed part.  The elimination needs a pointed part, which the
    zero-combination LP of ``is_pointed`` decides: at ell > 0 one more such
    LP on the projected rows, which raises NotPointedError when it finds a
    line the decomposition missed.
    """
    dec = decompose(W, tol)
    P, outside = dec.pointed_generators, dec.outside_rows
    lineal, inside = dec.lineal_generators, dec.inside_rows
    zs = dec.lineality_basis.T
    frame = np.vstack([-zs.sum(axis=0, keepdims=True), zs]) if dec.ell else zs

    def framed(kind: RankKind, rows: np.ndarray) -> RankResult:
        return RankResult(kind, GeneratorSet(np.vstack([frame, rows])), None)

    ranks = {}
    if RankKind.CSR in kinds:
        sub = csr_subspace(lineal, tol, max_lineality_dim)
    if RankKind.CSR in kinds or RankKind.CGR in kinds:
        # at ell = 0 the rows of P are the nonzero rows of W bit for bit (the
        # projection onto a d x 0 basis subtracts exact zeros), so decompose's
        # own zero-combination LP has already found P pointed
        if dec.ell and P.m and not cone.is_pointed(P, tol):
            raise NotPointedError(
                "generators: the pointed part holds a line the decomposition missed")
        extreme = _extreme_rows(P, tol)
    if RankKind.CSR in kinds:
        chosen = sorted([inside[i] for i in sub] + [outside[i] for i in extreme])
        witness = GeneratorSet(W.generators[chosen])
        ranks[RankKind.CSR] = RankResult(RankKind.CSR, witness, tuple(chosen))
    if RankKind.CGR in kinds:
        ranks[RankKind.CGR] = framed(RankKind.CGR, P.generators[extreme])
    if RankKind.CR in kinds:
        ranks[RankKind.CR] = framed(RankKind.CR, _enclosing_rows(P, tol))
    return ranks
