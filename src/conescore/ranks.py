"""The three cone ranks of a generator matrix, with witness generator sets.

- cone_subset_rank: fewest rows of W that regenerate K_W exactly
- cone_generating_rank: fewest vectors anywhere that regenerate K_W exactly
- cone_rank: fewest vectors whose cone merely encloses K_W

Each cone is decomposed once (callers may pass the decomposition in).
Pointed cones are handled by single-pass extreme-ray elimination and a
separating hyperplane + enclosing simplex; non-pointed cones add an
(ell+1)-vector frame of the lineality space to the pointed part's witness.
A pointed cone (ell = 0) is ranked on W itself, not on the decomposition's
pointed_generators, which omit rows with max|w| <= cone_tol.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cone import ConeDecomposition, GeneratorSet, decompose, is_in_cone, is_pointed
from .errors import InputError, NotPointedError, ResourceCapError
from .linalg import DEFAULT_TOL, Tolerances, numeric_rank, orthonormal_basis
from .lp import SeparatingHyperplane, find_strict_separator

__all__ = [
    "RankKind",
    "RankResult",
    "csr_pointed",
    "csr_subspace",
    "cone_subset_rank",
    "cone_generating_rank",
    "cr_pointed",
    "enclosing_simplex",
    "cone_rank",
]

DEFAULT_MAX_LINEALITY_DIM = 6
_MAX_SUBSETS = 2_000_000


class RankKind(Enum):
    CSR = "csr"
    CGR = "cgr"
    CR = "cr"


@dataclass(frozen=True)
class RankResult:
    """A rank value plus the generator set attaining it.

    relation is "equal" when cone(witness) = K_W and "encloses" when only
    K_W subset-of cone(witness) is guaranteed.  subset_indices names the rows
    of W used (subset ranks only).
    """

    kind: RankKind
    value: int
    witness: GeneratorSet
    subset_indices: tuple[int, ...] | None
    relation: str

    def __post_init__(self) -> None:
        assert self.relation in ("equal", "encloses")
        assert self.value == self.witness.m


def csr_pointed(W: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> RankResult:
    """Subset rank of a pointed cone by single-pass elimination.

    Scans the rows once, dropping each row that is a nonnegative combination
    of the rows still kept.  Dropping a redundant row leaves the cone
    unchanged, so a row found extreme stays extreme and one membership test
    per row suffices; the survivors are the extreme rays (the count is
    independent of scan order, the fixed order just pins the witness).
    """
    if not is_pointed(W, tol):
        raise NotPointedError("requires pointed cone")
    G = W.generators
    idx = list(range(W.m))
    for i in range(W.m):
        others = [j for j in idx if j != i]
        if others and is_in_cone(G[i], GeneratorSet.from_rows(G[others], dim=W.dim), tol):
            idx.remove(i)
    return RankResult(
        kind=RankKind.CSR,
        value=len(idx),
        witness=GeneratorSet.from_rows(G[idx], dim=W.dim),
        subset_indices=tuple(idx),
        relation="equal",
    )


def csr_subspace(
    W: GeneratorSet,
    tol: Tolerances = DEFAULT_TOL,
    max_lineality_dim: int = DEFAULT_MAX_LINEALITY_DIM,
) -> RankResult:
    """Subset rank when cone(W) is the linear subspace span(W).

    Enumerates subsets of size t+1 .. 2t (t = rank), smallest first then
    lexicographic, accepting the first full-rank subset U whose negated sum
    lies back in cone(U) — exactly the subsets that positively span span(W).
    """
    if W.m == 0:
        return RankResult(RankKind.CSR, 0, W, (), "equal")
    G = W.generators
    t = numeric_rank(G, tol)
    if t > max_lineality_dim or math.comb(W.m, min(2 * t, W.m)) > _MAX_SUBSETS:
        raise ResourceCapError("lineality dimension too large")
    for size in range(t + 1, 2 * t + 1):
        if size > W.m:
            break
        for subset in itertools.combinations(range(W.m), size):
            U = G[list(subset)]
            if numeric_rank(U, tol) != t:
                continue
            Uset = GeneratorSet.from_rows(U, dim=W.dim)
            if is_in_cone(-U.sum(axis=0), Uset, tol):
                return RankResult(RankKind.CSR, size, Uset, tuple(subset), "equal")
    raise InputError("generators do not positively span their span")


def cone_subset_rank(
    W: GeneratorSet,
    tol: Tolerances = DEFAULT_TOL,
    max_lineality_dim: int = DEFAULT_MAX_LINEALITY_DIM,
    dec: ConeDecomposition | None = None,
) -> RankResult:
    """Subset rank of an arbitrary cone: lineal part + pointed remnant."""
    if dec is None:
        dec = decompose(W, tol)
    if dec.ell == 0:
        return csr_pointed(W, tol)
    sub = csr_subspace(dec.lineal_generators, tol, max_lineality_dim)
    chosen = [dec.inside_rows[i] for i in sub.subset_indices]
    pt = csr_pointed(dec.pointed_generators, tol)
    chosen += [dec.outside_rows[i] for i in pt.subset_indices]
    chosen.sort()
    return RankResult(
        kind=RankKind.CSR,
        value=sub.value + pt.value,
        witness=GeneratorSet.from_rows(W.generators[chosen], dim=W.dim),
        subset_indices=tuple(chosen),
        relation="equal",
    )


def _with_lineality_frame(kind: RankKind, dec: ConeDecomposition, pt: RankResult) -> RankResult:
    """An (ell+1)-vector frame positively spanning the lineality space (the
    basis plus its negated sum), followed by the pointed part's witness."""
    zs = dec.lineality_basis.T
    frame = np.vstack([-zs.sum(axis=0).reshape(1, -1), zs])
    rows = np.vstack([frame, pt.witness.generators]) if pt.value else frame
    return RankResult(
        kind=kind,
        value=(dec.ell + 1) + pt.value,
        witness=GeneratorSet.from_rows(rows, dim=pt.witness.dim),
        subset_indices=None,
        relation=pt.relation,
    )


def cone_generating_rank(
    W: GeneratorSet, tol: Tolerances = DEFAULT_TOL, dec: ConeDecomposition | None = None
) -> RankResult:
    """Fewest generators (from anywhere) regenerating K_W exactly.

    Pointed cones: identical to the subset rank (extreme rays are forced).
    Non-pointed: an (ell+1)-vector frame for the lineality space plus the
    extreme rays of the projected pointed part.
    """
    if dec is None:
        dec = decompose(W, tol)
    if dec.ell == 0:
        base = csr_pointed(W, tol)
        return RankResult(RankKind.CGR, base.value, base.witness, None, "equal")
    return _with_lineality_frame(RankKind.CGR, dec, csr_pointed(dec.pointed_generators, tol))


def enclosing_simplex(
    U, hyperplane: SeparatingHyperplane, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Vertices of a regular simplex on the hyperplane containing all of U.

    With r = dim of the hyperplane's ambient span, returns r vertices of a
    regular (r-1)-simplex with incenter at the mean of U and inradius
    max-distance * (1 + cone_tol), which contains every point of U.  No LP
    is solved here: cr_pointed certifies the lifted witness it returns.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim == 1:
        U = U.reshape(1, -1)
    B = hyperplane.ambient_basis
    w = hyperplane.normal
    b = hyperplane.offset
    r = B.shape[1]
    for u in U:
        if abs(float(w @ u) - b) > tol.cone_tol * (1.0 + abs(b)):
            raise InputError("point not on the hyperplane")
    if r == 1:
        return U[:1].copy()

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


def cr_pointed(W: GeneratorSet, tol: Tolerances = DEFAULT_TOL) -> RankResult:
    """Cone rank of a pointed cone: r vectors enclosing K_W.

    Works in the r-dimensional coefficient space of span(W): strictly separate
    the unit generators from the origin, scale them onto the hyperplane,
    enclose them in a regular simplex, and lift the vertices back.  Every
    generator's membership in the lifted witness is checked by one LP.
    """
    if not is_pointed(W, tol):
        raise NotPointedError("requires pointed cone")
    if W.m == 0:
        return RankResult(RankKind.CR, 0, W, None, "encloses")
    G = W.generators
    r = numeric_rank(G, tol)
    if r == 1:
        witness = GeneratorSet.from_rows(G[:1], dim=W.dim)
        return RankResult(RankKind.CR, 1, witness, None, "encloses")

    norms = np.linalg.norm(G, axis=1)
    Un = G / norms[:, None]
    B = orthonormal_basis(Un, tol)  # n x r
    C = Un @ B  # m x r, unit rows, full-dimensional pointed cone
    Cset = GeneratorSet.from_rows(C, dim=r)
    hp = find_strict_separator(Cset, tol)
    bi = C @ hp.normal  # all >= 1
    pts = (hp.offset / bi)[:, None] * C
    verts = enclosing_simplex(pts, hp, tol)
    witness = GeneratorSet.from_rows(verts @ B.T, dim=W.dim)
    for g in G:
        if not is_in_cone(g, witness, tol):  # pragma: no cover - guarantee
            raise RuntimeError("enclosing witness does not contain a generator")
    return RankResult(RankKind.CR, r, witness, None, "encloses")


def cone_rank(
    W: GeneratorSet, tol: Tolerances = DEFAULT_TOL, dec: ConeDecomposition | None = None
) -> RankResult:
    """Fewest vectors whose cone encloses K_W: r if pointed, r+1 otherwise."""
    if dec is None:
        dec = decompose(W, tol)
    if dec.ell == 0:
        return cr_pointed(W, tol)
    return _with_lineality_frame(RankKind.CR, dec, cr_pointed(dec.pointed_generators, tol))
