"""The three cone ranks of a generator matrix, with witness generator sets.

- cone_subset_rank: fewest rows of W that regenerate K_W exactly
- cone_generating_rank: fewest vectors anywhere that regenerate K_W exactly
- cone_rank: fewest vectors whose cone merely encloses K_W

All three come from one pipeline, cone_ranks: one decomposition, one
extreme-ray elimination shared by CSR and CGR, and a separating hyperplane +
enclosing simplex for CR.  The simplex witness is simplicial, so one linear
solve, not one LP per generator, certifies that it encloses K_W.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cone import GeneratorSet, _in_cone, _membership_bound, decompose
from .errors import InputError, ResourceCapError, VerificationError
from .linalg import DEFAULT_TOL, Tolerances, _unit_rows, numeric_rank, orthonormal_basis
from .lp import SeparatingHyperplane, find_strict_separator

__all__ = [
    "RankKind",
    "RankResult",
    "cone_subset_rank",
    "cone_generating_rank",
    "cone_rank",
    "cone_ranks",
]

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

    Scans the rows once, dropping each row that is a nonnegative combination
    of the rows still kept.  Dropping a redundant row leaves the cone
    unchanged, so a row found extreme stays extreme and one membership test
    per row suffices (the count is independent of scan order, the fixed order
    just pins the witness).  Pointedness is the caller's to establish.
    """
    G = W.generators
    idx = list(range(W.m))
    for i in range(W.m):
        others = [j for j in idx if j != i]
        if others and _in_cone(G[i], G[others], tol):
            idx.remove(i)
    return idx


def csr_subspace(
    W: GeneratorSet,
    tol: Tolerances = DEFAULT_TOL,
    max_lineality_dim: int = DEFAULT_MAX_LINEALITY_DIM,
) -> RankResult:
    """Subset rank when cone(W) is the linear subspace span(W).

    Enumerates subsets of size t+1 .. 2t (t = rank), smallest first then
    lexicographic, accepting the first full-rank subset U whose negated sum
    lies back in cone(U) — exactly the subsets that positively span span(W).
    Raises ResourceCapError when t exceeds max_lineality_dim or when the
    search has tried _MAX_SUBSETS subsets without an answer.
    """
    if W.m == 0:
        return RankResult(RankKind.CSR, W, ())
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
        if numeric_rank(U, tol) == t and _in_cone(-U.sum(axis=0), U, tol):
            return RankResult(RankKind.CSR, GeneratorSet(U), subset)
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
    combination that the LP would accept too.
    """
    lam = np.maximum(np.linalg.solve(verts.T, (G @ B).T).T, 0.0)
    resid = np.abs(lam @ (verts @ B.T) - G).sum(axis=1)
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

    The decomposition alone decides pointedness and which rows count as zero
    (max|w| <= cone_tol; they are in neither of its parts, so all three ranks
    ignore them).  One extreme-ray elimination of the pointed part serves both
    CSR (those rows mapped back to W, plus a positively spanning subset of
    the lineal rows) and CGR (an (ell+1)-vector frame of the lineality space,
    the basis plus its negated sum, followed by those rows); CR is the frame
    plus an enclosing simplex of the pointed part.
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
        extreme = _extreme_rows(P, tol)
    if RankKind.CSR in kinds:
        chosen = sorted([inside[i] for i in sub.subset_indices] + [outside[i] for i in extreme])
        witness = GeneratorSet(W.generators[chosen])
        ranks[RankKind.CSR] = RankResult(RankKind.CSR, witness, tuple(chosen))
    if RankKind.CGR in kinds:
        ranks[RankKind.CGR] = framed(RankKind.CGR, P.generators[extreme])
    if RankKind.CR in kinds:
        ranks[RankKind.CR] = framed(RankKind.CR, _enclosing_rows(P, tol))
    return ranks


def cone_subset_rank(
    W: GeneratorSet,
    tol: Tolerances = DEFAULT_TOL,
    max_lineality_dim: int = DEFAULT_MAX_LINEALITY_DIM,
) -> RankResult:
    """Subset rank of an arbitrary cone: lineal part + pointed remnant."""
    return cone_ranks(W, tol, max_lineality_dim, (RankKind.CSR,))[RankKind.CSR]


def cone_generating_rank(W: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> RankResult:
    """Fewest generators (from anywhere) regenerating K_W exactly.

    Pointed cones: identical to the subset rank (extreme rays are forced).
    Non-pointed: an (ell+1)-vector frame for the lineality space plus the
    extreme rays of the projected pointed part.
    """
    return cone_ranks(W, tol, kinds=(RankKind.CGR,))[RankKind.CGR]


def cone_rank(W: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> RankResult:
    """Fewest vectors whose cone encloses K_W: r if pointed, r+1 otherwise."""
    return cone_ranks(W, tol, kinds=(RankKind.CR,))[RankKind.CR]
