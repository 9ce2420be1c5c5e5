"""Salient polyhedral cones in R^d with generator and facet descriptions.

Cones are stored with both descriptions; constructors accept either and
complete the other from the null vectors of every (d-1)-subset of the
given rows, all found by one batched SVD (`_subsets`), which is entirely
adequate at the scales handled here (d <= 6, <= 16 generators).  The
checks that every facet is supported and every generator is extreme are
likewise one stacked rank each, over the rows masked by the tight set.
Facet functionals are normalised so that ell(u) = 1 for the order unit u.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

GEOM_TOL = 1e-9


class ConeConstructionError(ValueError):
    """Degenerate or inconsistent cone data."""


def _supporting_normals(rows: np.ndarray) -> np.ndarray:
    """For every (d-1)-subset of ``rows`` (m x d) of rank d-1, in
    lexicographic order, the unit vector spanning its null space, turned to
    be nonnegative on every row up to GEOM_TOL * max(1, max|rows|); a null
    vector that takes both signs on the rows is dropped."""
    d = rows.shape[1]
    _, sv, vt = np.linalg.svd(rows[_subsets(len(rows), d - 1)], full_matrices=True)
    top = np.maximum(1.0, sv[:, :1]) if d > 1 else 1.0
    n = vt[np.sum(sv > GEOM_TOL * top, axis=1) == d - 1, -1]
    vals = n @ rows.T
    tol = GEOM_TOL * max(1.0, float(np.max(np.abs(rows))))
    side = np.where(vals.min(axis=1) >= -tol, 1.0, np.where(vals.max(axis=1) <= tol, -1.0, 0.0))
    return n[side != 0] * side[side != 0, None]


def _dedupe_rows(rows: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """The rows not within ``tol`` (max-abs) of an earlier row."""
    close = np.abs(rows[:, None] - rows[None]).max(axis=2) <= tol
    return rows[~np.triu(close, 1).any(axis=0)]


def _tight_rank(rows: np.ndarray, tight: np.ndarray) -> np.ndarray:
    """rank(rows[tight[j]]) for each mask row j, as the rank of ``rows``
    with the other rows zeroed."""
    return np.linalg.matrix_rank(rows * tight[:, :, None], tol=1e-10)


class PolyhedralCone:
    """A full-dimensional salient polyhedral cone with interior order unit.

    Attributes:
        dim: ambient dimension d.
        generators: (m, d) array of extreme rays.
        facets: (k, d) array of facet functionals with facets @ u == 1.
        unit: the order unit u (interior point).
    """

    def __init__(self, generators, unit, facets=None):
        g = np.atleast_2d(np.asarray(generators, dtype=float))
        u = np.asarray(unit, dtype=float)
        d = g.shape[1]
        if u.shape != (d,):
            raise ConeConstructionError(f"unit has shape {u.shape}, expected ({d},)")
        if g.shape[0] < d:
            raise ConeConstructionError("need at least d generators for a full-dimensional cone")
        if np.linalg.matrix_rank(g, tol=1e-10) < d:
            raise ConeConstructionError("generators do not span R^d")
        norm_g = g / np.linalg.norm(g, axis=1)[:, None]
        repeated = np.abs(norm_g[:, None] - norm_g[None]).max(axis=2) <= 1e-9
        pairs = np.argwhere(np.triu(repeated, 1))
        if len(pairs):
            i, j = pairs[0]
            raise ConeConstructionError(f"generators {i} and {j} are repeated rays")

        if facets is None:
            f = self._facets_from_generators(g, u)
        else:
            f = np.atleast_2d(np.asarray(facets, dtype=float))
            fu = f @ u
            if np.any(fu <= GEOM_TOL):
                raise ConeConstructionError("unit is not strictly interior (ell(u) <= 0)")
            f = f / fu[:, None]

        self.dim = d
        self.generators = g
        self.facets = f
        self.unit = u
        for a in (self.generators, self.facets, self.unit):
            a.flags.writeable = False
        self._validate()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _facets_from_generators(g: np.ndarray, u: np.ndarray) -> np.ndarray:
        cands = _supporting_normals(g)
        if not len(cands):
            raise ConeConstructionError("no facets found; cone is degenerate")
        cands = _dedupe_rows(cands)
        fu = cands @ u
        if np.any(np.abs(fu) <= GEOM_TOL):
            raise ConeConstructionError("unit lies on the boundary of the cone")
        cands = cands * np.sign(fu)[:, None]
        return cands / (cands @ u)[:, None]

    @classmethod
    def from_generators(cls, generators, unit=None, facets=None) -> "PolyhedralCone":
        g = np.atleast_2d(np.asarray(generators, dtype=float))
        if unit is None:
            rows = g / np.linalg.norm(g, axis=1)[:, None]
            unit = rows.sum(axis=0)
        return cls(g, unit, facets=facets)

    @classmethod
    def from_facets(cls, facets, unit) -> "PolyhedralCone":
        f = np.atleast_2d(np.asarray(facets, dtype=float))
        u = np.asarray(unit, dtype=float)
        d = f.shape[1]
        fu = f @ u
        if np.any(fu <= GEOM_TOL):
            raise ConeConstructionError("unit is not strictly interior to the facet system")
        f = f / fu[:, None]
        rays = _supporting_normals(f)
        if not len(rays):
            raise ConeConstructionError("no extreme rays found; facet system degenerate")
        norms = np.sqrt(np.vecdot(rays, rays))
        rays = rays[norms > GEOM_TOL] / norms[norms > GEOM_TOL, None]
        # keep only extreme rays: tight facets must have rank d-1
        extreme = _tight_rank(f, np.abs(rays @ f.T) <= 1e-8) == d - 1
        return cls(_dedupe_rows(rays[extreme]), u, facets=f)

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        g, f, d = self.generators, self.facets, self.dim
        scale = max(1.0, float(np.max(np.abs(g))))
        vals = g @ f.T  # (m, k)
        if float(vals.min()) < -1e-8 * scale:
            raise ConeConstructionError(
                f"generator violates a facet by {-float(vals.min()):.3e}"
            )
        if np.linalg.matrix_rank(f, tol=1e-10) < d:
            raise ConeConstructionError("cone is not salient (facets do not span)")
        if np.all(vals <= 1e-8 * scale, axis=1).any():
            raise ConeConstructionError("cone is not salient (contains a line)")
        tight = np.abs(vals) <= 1e-7 * scale
        bad = np.flatnonzero(_tight_rank(g, tight.T) < d - 1)
        if len(bad):
            raise ConeConstructionError(f"facet {bad[0]} is not supported by d-1 generators")
        bad = np.flatnonzero(_tight_rank(f, tight) < d - 1)
        if len(bad):
            raise ConeConstructionError(f"generator {bad[0]} is not an extreme ray")

    # -- queries ---------------------------------------------------------------

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    @property
    def n_facets(self) -> int:
        return self.facets.shape[0]

    def facet_values(self, x) -> np.ndarray:
        return self.facets @ np.asarray(x, dtype=float)

    def __repr__(self) -> str:
        return (
            f"PolyhedralCone(dim={self.dim}, generators={self.n_generators}, "
            f"facets={self.n_facets})"
        )


class SimplexCone(PolyhedralCone):
    """Cone with exactly d linearly independent extreme rays."""

    def __init__(self, generators, unit, facets=None):
        super().__init__(generators, unit, facets=facets)
        if self.n_generators != self.dim:
            raise ConeConstructionError("simplex cone must have exactly d generators")


def is_simplex(cone: PolyhedralCone) -> bool:
    """True iff the cone has d linearly independent generators (every
    cone's generators span R^d)."""
    return cone.n_generators == cone.dim


# the rays (+-1, -+1, 1), (+-1, +-1, 1) of the square cone, read-only; the
# two diagonals are rows {0, 1} and {2, 3}: w_0 + w_1 = w_2 + w_3
SQUARE_RAYS = np.array(
    [[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]]
)
SQUARE_RAYS.flags.writeable = False


def square_cone() -> PolyhedralCone:
    """The cone over the square: generators `SQUARE_RAYS`, unit (0, 0, 1).

    Facet order: c - a, c + a, c - b, c + b as functionals of (a, b, c).
    """
    facets = np.array(
        [[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, -1.0, 1.0], [0.0, 1.0, 1.0]]
    )
    return PolyhedralCone(SQUARE_RAYS, np.array([0.0, 0.0, 1.0]), facets=facets)


def rays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equality of two generator sets as sets of rays, counted with
    multiplicity: two rays are equal when their unit vectors agree to
    GEOM_TOL in every coordinate.  From one distance matrix over the unit
    rows of both sets, every ray must lie as near to as many rays of a as
    of b (its own row counts, so a zero row, which is near nothing, fails)."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    if a.shape != b.shape:
        return False
    rows = np.concatenate([a, b])
    rows = rows / np.linalg.norm(rows, axis=1)[:, None]
    near = np.abs(rows[:, None, :] - rows).max(axis=2) <= GEOM_TOL
    in_a = near[:, : len(a)].sum(axis=1)
    return bool(in_a.all() and (in_a == near[:, len(a):].sum(axis=1)).all())


# --------------------------------------------------------------------------
# Sections: the polytope C ∩ (u + H) in orthonormal coordinates on H
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """Bounded affine section of a cone.

    ``normal`` is scaled so <normal, u> = 1; ``basis`` (d x (d-1)) holds an
    orthonormal basis of H = normal^perp; ``vertices`` are the generator
    images in section coordinates (u maps to the origin); the section facet
    system is  1 + facet_rows @ y >= 0.
    """

    cone: PolyhedralCone
    normal: np.ndarray
    basis: np.ndarray
    vertices: np.ndarray
    facet_rows: np.ndarray

    def to_ambient(self, y) -> np.ndarray:
        return self.cone.unit + self.basis @ np.asarray(y, dtype=float)


def _hyperplane_basis(normal: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of normal^perp via Gram-Schmidt."""
    d = len(normal)
    nh = normal / np.linalg.norm(normal)
    basis: list[np.ndarray] = []
    for i in range(d):
        v = np.zeros(d)
        v[i] = 1.0
        v = v - (nh @ v) * nh
        for b in basis:
            v = v - (b @ v) * b
        nv = np.linalg.norm(v)
        if nv > 1e-9:
            basis.append(v / nv)
        if len(basis) == d - 1:
            break
    return np.column_stack(basis)


def section_of(cone: PolyhedralCone, h_normal) -> Section:
    n = np.asarray(h_normal, dtype=float)
    nu = float(n @ cone.unit)
    if abs(nu) <= GEOM_TOL:
        raise ValueError("hyperplane normal is orthogonal to the unit")
    n = n / nu
    gv = cone.generators @ n
    if np.any(gv <= GEOM_TOL):
        raise ValueError(
            "section is unbounded: the hyperplane meets the cone away from 0"
        )
    pts = cone.generators / gv[:, None]
    basis = _hyperplane_basis(n)
    vertices = (pts - cone.unit) @ basis
    facet_rows = cone.facets @ basis
    return Section(
        cone=cone, normal=n, basis=basis, vertices=vertices, facet_rows=facet_rows
    )


def scaled_cone(cone: PolyhedralCone, nu: float, h_normal) -> PolyhedralCone:
    """Shrink the section C ∩ (u + H) by factor nu about u and re-cone."""
    if not (0.0 < nu <= 1.0):
        raise ValueError(f"scaling factor must be in (0, 1], got {nu}")
    sec = section_of(cone, h_normal)
    pts = cone.generators / (cone.generators @ sec.normal)[:, None]
    new_gens = cone.unit + nu * (pts - cone.unit)
    return PolyhedralCone(new_gens, cone.unit)


def is_centrally_symmetric(cone: PolyhedralCone, h_normal) -> bool:
    """True iff the section vertex set is invariant under y -> -y about u."""
    sec = section_of(cone, h_normal)
    v = sec.vertices
    scale = 1.0 + float(np.max(np.abs(v)))
    mirrored = np.abs(v[:, None] + v[None]).max(axis=2) <= GEOM_TOL * scale
    return bool(mirrored.any(axis=1).all())


def _simplex_volumes(pts: np.ndarray) -> np.ndarray:
    """Volumes of a stack of simplices, pts[k] holding d points in R^(d-1)."""
    diffs = pts[:, 1:] - pts[:, :1]
    return np.abs(np.linalg.det(diffs)) / math.factorial(pts.shape[1] - 1)


# d-subsets scored per batch by `best_sandwich_simplex`, which bounds its
# memory; `opsys` decides a commuting stack in closed form only when all the
# d-subsets of its generators fit in one batch, and solves the SDP otherwise
SUBSET_BATCH = 8192


def _subsets(n: int, d: int) -> np.ndarray:
    """All d-subsets of range(n), one per row, in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), d))
    return np.fromiter(flat, dtype=np.intp).reshape(math.comb(n, d), d)


@dataclass(frozen=True)
class MaxVolumeSimplex:
    simplex: SimplexCone
    vertex_indices: tuple[int, ...]
    volume: float
    section_barycenter: np.ndarray
    barycenter: np.ndarray  # ambient point on u + H


def max_volume_inscribed_simplex(cone: PolyhedralCone, h_normal) -> MaxVolumeSimplex:
    """Largest-volume simplex with vertices at section vertices.

    Exhaustive over vertex subsets; a maximum-volume inscribed simplex in a
    polytope can always be chosen with vertices at polytope vertices, so the
    search is exact for the section polytope.
    """
    sec = section_of(cone, h_normal)
    verts = sec.vertices
    subsets = _subsets(len(verts), cone.dim)
    vols = _simplex_volumes(verts[subsets])
    k = int(np.argmax(vols >= vols.max() - 1e-15))  # first maximum up to rounding
    if vols[k] <= GEOM_TOL:
        raise ValueError("section vertices are affinely degenerate")
    pts = verts[subsets[k]]
    bary = pts.mean(axis=0)
    rays = np.array([sec.to_ambient(y) for y in pts])
    simplex = SimplexCone(rays, sec.to_ambient(bary))
    return MaxVolumeSimplex(
        simplex=simplex,
        vertex_indices=tuple(int(i) for i in subsets[k]),
        volume=float(vols[k]),
        section_barycenter=bary,
        barycenter=sec.to_ambient(bary),
    )


def _sandwich_candidates(sec: Section) -> np.ndarray:
    """Candidate simplex vertex pool: section vertices, facet barycenters,
    pairwise midpoints and the centre.  Every pool point is a convex
    combination of section vertices, so every pool simplex lies in C; the
    pool only affects how large a factor the search can certify."""
    verts = sec.vertices
    pool = [verts]
    scale = 1.0 + float(np.max(np.abs(verts)))
    for row in sec.facet_rows:
        tight = verts[np.abs(1.0 + verts @ row) <= 1e-8 * scale]
        if len(tight):
            pool.append(tight.mean(axis=0, keepdims=True))
    pairs = _subsets(len(verts), 2)
    pool += [(verts[pairs[:, 0]] + verts[pairs[:, 1]]) / 2.0, verts.mean(axis=0, keepdims=True)]
    return _dedupe_rows(np.concatenate(pool), tol=1e-9)


def _sandwich_factors(pts: np.ndarray, verts: np.ndarray):
    """nu*(S) and the volume of each simplex S spanned by pts[k].

    With G the inverse of the matrix with rows [p_i, 1], a section point y
    has barycentric coordinates [y, 1] @ G in S.  Scaling a section vertex
    z by nu moves them from c = G[-1] (those of u) to c + nu * z @ G[:-1],
    so facet i of S holds nu*C up to nu = c_i / max_z(-z @ G[:-1, i]).
    nu*(S) is the smallest of these, capped at 1, and 0 when u is not in S
    or S is degenerate.
    """
    vols = _simplex_volumes(pts)
    nus = np.zeros(len(pts))
    ok = vols > GEOM_TOL
    live = pts[ok]
    g = np.linalg.inv(np.concatenate([live, np.ones(live.shape[:2] + (1,))], axis=2))
    c = g[:, -1, :]
    push = np.max(-(verts @ g[:, :-1, :]), axis=1)
    nus[ok] = np.min(c / np.maximum(push, c), axis=1)
    nus = np.clip(nus, 0.0, 1.0)
    # only S = C (a simplex cone) reaches 1; do not let rounding hide it
    nus[nus >= 1.0 - 1e-12] = 1.0
    return nus, vols


def best_sandwich_simplex(
    cone: PolyhedralCone, h_normal
) -> tuple[float, Optional[SimplexCone]]:
    """The pool simplex S ⊆ C admitting the largest factor nu*(S) with
    nu*C ⊆ S (sections about u), and that factor.

    Every d-subset of the candidate pool is scored in closed form by
    _sandwich_factors, in batches that bound the memory; ties in nu* go to
    the larger simplex.  Returns (0.0, None) when no pool simplex contains
    u in its interior.
    """
    sec = section_of(cone, h_normal)
    pool = _sandwich_candidates(sec)
    subsets = _subsets(len(pool), cone.dim)
    batches = np.array_split(subsets, 1 + len(subsets) // SUBSET_BATCH)
    scored = [_sandwich_factors(pool[b], sec.vertices) for b in batches]
    nus, vols = map(np.concatenate, zip(*scored))
    best = float(nus.max())
    if best <= 0.0:
        return 0.0, None
    k = int(np.argmax(np.where(nus >= best - 1e-12, vols, 0.0)))
    rays = np.array([sec.to_ambient(y) for y in pool[subsets[k]]])
    return float(nus[k]), SimplexCone(rays, cone.unit)


def find_sandwich_simplex(
    cone: PolyhedralCone, nu: float, h_normal
) -> Optional[SimplexCone]:
    """A simplex cone S with nu*C ⊆ S ⊆ C (sections about u), or None.

    Returns best_sandwich_simplex's simplex when its factor reaches nu; the
    slack of 1e-9 absorbs rounding only.
    """
    if not (0.0 < nu <= 1.0):
        raise ValueError(f"scaling factor must be in (0, 1], got {nu}")
    best_nu, simplex = best_sandwich_simplex(cone, h_normal)
    return simplex if best_nu >= nu - 1e-9 else None


# --------------------------------------------------------------------------
# JSON cone format: {"d": int, "unit": [...], "generators": [[...]],
#                    "facets": [[...]] (optional)}
# --------------------------------------------------------------------------


def cone_to_json(cone: PolyhedralCone) -> dict:
    return {
        "d": cone.dim,
        "unit": cone.unit.tolist(),
        "generators": cone.generators.tolist(),
        "facets": cone.facets.tolist(),
    }


def cone_from_json(obj: dict) -> PolyhedralCone:
    if not isinstance(obj, dict):
        raise ValueError("cone document must be a JSON object")
    for key in ("d", "unit", "generators"):
        if key not in obj:
            raise ValueError(f"cone document missing field {key!r}")
    d = int(obj["d"])
    if d < 1:
        raise ValueError("d must be at least 1")
    unit = np.asarray(obj["unit"], dtype=float)
    gens = np.asarray(obj["generators"], dtype=float)
    if unit.shape != (d,):
        raise ValueError(f"unit has length {unit.shape}, expected {d}")
    if gens.ndim != 2 or gens.shape[1] != d:
        raise ValueError("generators must be an array of length-d vectors")
    facets = obj.get("facets")
    if facets is not None:
        facets = np.asarray(facets, dtype=float)
        if facets.ndim != 2 or facets.shape[1] != d:
            raise ValueError("facets must be an array of length-d vectors")
    return PolyhedralCone(gens, unit, facets=facets)


def load_cone(path) -> PolyhedralCone:
    with open(path) as fh:
        return cone_from_json(json.load(fh))


def save_cone(cone: PolyhedralCone, path) -> None:
    with open(path, "w") as fh:
        json.dump(cone_to_json(cone), fh, indent=1, sort_keys=True)
