"""Salient polyhedral cones in R^d with generator and facet descriptions.

Cones are stored with both descriptions; constructors accept either and
complete the other from the null vectors of every (d-1)-subset of the
given rows, all found by one batched SVD (`_subsets`), which is entirely
adequate at the scales handled here (d <= 6, <= 16 generators); a
simplex's facets are the rows of inv(G)^T.  Every facet comes from
`cone_facets`, must exceed GEOM_TOL at the order unit u and is scaled so
that ell(u) = 1.  The checks that every facet is supported and every
generator is extreme are one stacked rank each, over the rows masked by
the tight set.  `spanning` is the one test that generators span R^d, for
cones, for the rays of a sandwich simplex and for the certificates of
`certificates`.  The bands (GEOM_TOL,
RANK_TOL, INCIDENCE_TOL, ...) are constants of `tolerances`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, tolerances


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
    n = vt[np.sum(sv > tolerances.GEOM_TOL * top, axis=1) == d - 1, -1]
    vals = n @ rows.T
    tol = tolerances.GEOM_TOL * max(1.0, float(np.max(np.abs(rows))))
    side = np.where(vals.min(axis=1) >= -tol, 1.0, np.where(vals.max(axis=1) <= tol, -1.0, 0.0))
    return n[side != 0] * side[side != 0, None]


def _distinct(rows: np.ndarray, tol: float = tolerances.DUPLICATE_TOL) -> np.ndarray:
    """Mask of the rows not within ``tol`` (max-abs) of an earlier row."""
    close = np.abs(rows[:, None] - rows[None]).max(axis=2) <= tol
    return ~np.triu(close, 1).any(axis=0)


def _dedupe_rows(rows: np.ndarray) -> np.ndarray:
    """The rows not within DUPLICATE_TOL (max-abs) of an earlier row."""
    return rows[_distinct(rows)]


def _tight_rank(rows: np.ndarray, tight: np.ndarray) -> np.ndarray:
    """rank(rows[tight[j]]) for each mask row j, as the rank of ``rows``
    with the other rows zeroed."""
    return np.linalg.matrix_rank(rows * tight[:, :, None], tol=tolerances.RANK_TOL)


def spanning(gens: np.ndarray, d: int) -> np.ndarray:
    """``gens``, after checking that its rows span R^d."""
    if np.linalg.matrix_rank(gens, tol=tolerances.RANK_TOL) < d:
        raise ConeConstructionError("generators do not span R^d")
    return gens


def cone_facets(gens: np.ndarray, unit: np.ndarray, facets=None) -> np.ndarray:
    """The facets of the cone on the rows of ``gens``, scaled so that
    ell(u) = 1: ``facets`` as listed (``gens`` unread); else inv(gens)^T for
    d generators, facet k omitting generator d-1-k as `_supporting_normals`
    orders them; else the deduplicated supporting normals."""
    d = unit.shape[0]
    if facets is not None:
        f = np.atleast_2d(np.asarray(facets, dtype=float))
    elif len(gens) == d:
        f = np.linalg.inv(gens).T[::-1]
    else:
        f = _dedupe_rows(_supporting_normals(gens))
        if not len(f):
            raise ConeConstructionError("no facets found; cone is degenerate")
    fu = f @ unit
    if np.any(fu <= tolerances.GEOM_TOL):
        raise ConeConstructionError("unit is not strictly interior (ell(u) <= 0)")
    return f / fu[:, None]


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
        spanning(g, d)
        norm_g = g / np.linalg.norm(g, axis=1)[:, None]
        repeated = np.abs(norm_g[:, None] - norm_g[None]).max(axis=2) <= tolerances.GEOM_TOL
        pairs = np.argwhere(np.triu(repeated, 1))
        if len(pairs):
            i, j = pairs[0]
            raise ConeConstructionError(f"generators {i} and {j} are repeated rays")


        self.dim = d
        self.generators = g
        self.facets = cone_facets(g, u, facets)
        self.unit = u
        for a in (self.generators, self.facets, self.unit):
            a.flags.writeable = False
        self._validate()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_generators(cls, generators, unit=None, facets=None) -> "PolyhedralCone":
        g = np.atleast_2d(np.asarray(generators, dtype=float))
        if unit is None:
            rows = g / np.linalg.norm(g, axis=1)[:, None]
            unit = rows.sum(axis=0)
        return cls(g, unit, facets=facets)

    @classmethod
    def from_facets(cls, facets, unit) -> "PolyhedralCone":
        u = np.asarray(unit, dtype=float)
        f = cone_facets(None, u, facets)
        d = f.shape[1]
        rays = _supporting_normals(f)
        if not len(rays):
            raise ConeConstructionError("no extreme rays found; facet system degenerate")
        norms = np.sqrt(np.vecdot(rays, rays))
        rays = rays[norms > tolerances.GEOM_TOL] / norms[norms > tolerances.GEOM_TOL, None]
        # keep only extreme rays: tight facets must have rank d-1
        extreme = _tight_rank(f, np.abs(rays @ f.T) <= tolerances.INCIDENCE_TOL) == d - 1
        return cls(_dedupe_rows(rays[extreme]), u, facets=f)

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        g, f, d = self.generators, self.facets, self.dim
        scale = max(1.0, float(np.max(np.abs(g))))
        vals = g @ f.T  # (m, k)
        if float(vals.min()) < -tolerances.INCIDENCE_TOL * scale:
            raise ConeConstructionError(
                f"generator violates a facet by {-float(vals.min()):.3e}"
            )
        if np.linalg.matrix_rank(f, tol=tolerances.RANK_TOL) < d:
            raise ConeConstructionError("cone is not salient (facets do not span)")
        if np.all(vals <= tolerances.INCIDENCE_TOL * scale, axis=1).any():
            raise ConeConstructionError("cone is not salient (contains a line)")
        tight = np.abs(vals) <= tolerances.SUPPORT_TOL * scale
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
    near = np.abs(rows[:, None, :] - rows).max(axis=2) <= tolerances.GEOM_TOL
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
        if nv > tolerances.GEOM_TOL:
            basis.append(v / nv)
        if len(basis) == d - 1:
            break
    return np.column_stack(basis)


def section_frame(unit: np.ndarray, h_normal) -> tuple[np.ndarray, np.ndarray]:
    """The normal of a section about ``unit``, scaled so <normal, u> = 1,
    and the orthonormal basis of its hyperplane.  A normal that is not d
    finite numbers or misses the unit is a ValueError headed "h_normal: "."""
    n = np.asarray(h_normal, dtype=float)
    if n.shape != unit.shape or not np.isfinite(n).all():
        raise ValueError(f"h_normal: expected {len(unit)} finite numbers")
    nu = float(n @ unit)
    if abs(nu) <= tolerances.GEOM_TOL:
        raise ValueError("h_normal: hyperplane normal is orthogonal to the unit")
    n = n / nu
    return n, _hyperplane_basis(n)


def section_rows(gens: np.ndarray, unit: np.ndarray, facets: np.ndarray, normal, basis):
    """The vertices and facet rows of the `Section` of the cone with
    generator rows ``gens``, ``unit`` and facet rows ``facets``, in the
    `section_frame` (``normal``, ``basis``).  A normal that gives an
    unbounded section is a ValueError headed "h_normal: "."""
    gv = gens @ normal
    if np.any(gv <= tolerances.GEOM_TOL):
        raise ValueError(
            "h_normal: section is unbounded: the hyperplane meets the cone away from 0"
        )
    vertices = (gens / gv[:, None] - unit) @ basis
    return vertices, facets @ basis


def section_of(cone: PolyhedralCone, h_normal) -> Section:
    frame = section_frame(cone.unit, h_normal)
    return Section(cone, *frame, *section_rows(cone.generators, cone.unit, cone.facets, *frame))


def is_centrally_symmetric(sec: Section) -> bool:
    """True iff the section vertex set is invariant under y -> -y about u."""
    v = sec.vertices
    scale = 1.0 + float(np.max(np.abs(v)))
    mirrored = np.abs(v[:, None] + v[None]).max(axis=2) <= tolerances.GEOM_TOL * scale
    return bool(mirrored.any(axis=1).all())


def _simplex_volumes(pts: np.ndarray) -> np.ndarray:
    """Volumes of a stack of simplices, pts[k] holding d points in R^(d-1)."""
    diffs = pts[:, 1:] - pts[:, :1]
    return np.abs(np.linalg.det(diffs)) / math.factorial(pts.shape[1] - 1)


# d-subsets scored per batch by `best_sandwich_simplex`, which bounds its
# memory; `opsys` decides a commuting stack in closed form only when all the
# d-subsets of its generators fit in one batch, and solves the SDP otherwise
SUBSET_BATCH = 8192


@functools.lru_cache(maxsize=128)
def _subsets(n: int, d: int) -> np.ndarray:
    """All d-subsets of range(n), one per row, in lexicographic order;
    built once per (n, d) and read-only, since every caller shares it."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), d))
    table = np.fromiter(flat, dtype=np.intp).reshape(math.comb(n, d), d)
    table.flags.writeable = False
    return table


def _sandwich_candidates(sec: Section) -> tuple[np.ndarray, np.ndarray]:
    """Candidate simplex vertex pool: section vertices, facet barycenters,
    pairwise midpoints and the centre, with duplicates to GEOM_TOL dropped;
    and beside it the mixing rows, one per pool point p: p is the convex
    combination mix[p] @ sec.vertices, mix[p] >= 0 summing to 1.  So every
    pool simplex lies in C, and the pool only affects how large a factor
    the search can certify."""
    verts = sec.vertices
    eye = np.eye(len(verts))
    pool, mix = [verts], [eye]
    scale = 1.0 + float(np.max(np.abs(verts)))
    for row in sec.facet_rows:
        tight = np.abs(1.0 + verts @ row) <= tolerances.INCIDENCE_TOL * scale
        if tight.any():
            pool.append(verts[tight].mean(axis=0, keepdims=True))
            mix.append(tight[None] / tight.sum())
    pairs = _subsets(len(verts), 2)
    pool += [(verts[pairs[:, 0]] + verts[pairs[:, 1]]) / 2.0, verts.mean(axis=0, keepdims=True)]
    mix += [(eye[pairs[:, 0]] + eye[pairs[:, 1]]) / 2.0, np.full((1, len(verts)), 1.0 / len(verts))]
    pool = np.concatenate(pool)
    keep = _distinct(pool, tol=tolerances.GEOM_TOL)
    return pool[keep], np.concatenate(mix)[keep]


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
    ok = vols > tolerances.GEOM_TOL
    live = pts[ok]
    g = np.linalg.inv(np.concatenate([live, np.ones(live.shape[:2] + (1,))], axis=2))
    c = g[:, -1, :]
    # max_z(-z @ G[:-1]) as an exact fold over the vertices: numpy's
    # reduction over the short middle axis is several times slower
    push = -np.minimum.reduce(list(np.swapaxes(verts @ g[:, :-1, :], 0, 1)))
    nus[ok] = np.min(c / np.maximum(push, c), axis=1)
    nus = np.clip(nus, 0.0, 1.0)
    # only S = C (a simplex cone) reaches 1; do not let rounding hide it
    nus[nus >= 1.0 - tolerances.NU_TIE_TOL] = 1.0
    return nus, vols


def best_sandwich_simplex(sec: Section) -> tuple[float, Optional[np.ndarray], Optional[np.ndarray]]:
    """The pool simplex S ⊆ C admitting the largest factor nu*(S) with
    nu*C ⊆ S on the section ``sec`` about u: that factor, the (d, d) rays
    of S (read-only), and the nonnegative (d, m) combination L of the
    cone's generators G with the rays equal to L @ G up to rounding.

    Every d-subset of the candidate pool is scored in closed form by
    _sandwich_factors, in batches that bound the memory; ties in nu* go to
    the larger simplex.  A ray of S is the ambient point of a pool point,
    sum_j mix_j g_j / (g_j . n) for its mixing row (`_sandwich_candidates`)
    and the section normal n, so L is the mixing rows over G @ n.  The
    rays are checked before they are returned: they span R^d (`spanning`)
    and u is strictly inside S (`cone_facets`, in closed form), else a
    ConeConstructionError.  Returns (0.0, None, None) when no pool simplex
    contains u in its interior.
    """
    cone = sec.cone
    pool, mix = _sandwich_candidates(sec)
    subsets = _subsets(len(pool), cone.dim)
    batches = np.array_split(subsets, 1 + len(subsets) // SUBSET_BATCH)
    scored = [_sandwich_factors(pool[b], sec.vertices) for b in batches]
    nus, vols = map(np.concatenate, zip(*scored))
    best = float(nus.max())
    if best <= 0.0:
        return 0.0, None, None
    k = int(np.argmax(np.where(nus >= best - tolerances.NU_TIE_TOL, vols, 0.0)))
    rays = np.array([sec.to_ambient(y) for y in pool[subsets[k]]])
    cone_facets(spanning(rays, cone.dim), cone.unit)
    rays.flags.writeable = False
    combination = mix[subsets[k]] / (cone.generators @ sec.normal)
    return float(nus[k]), rays, combination


def find_sandwich_simplex(
    cone: PolyhedralCone, nu: float, h_normal
) -> Optional[SimplexCone]:
    """A simplex cone S with nu*C ⊆ S ⊆ C (sections about u), or None.

    Returns the simplex cone on best_sandwich_simplex's rays when its
    factor reaches nu; the slack of GEOM_TOL absorbs rounding only.
    """
    if not (0.0 < nu <= 1.0):
        raise ValueError(f"scaling factor must be in (0, 1], got {nu}")
    best_nu, rays, _ = best_sandwich_simplex(section_of(cone, h_normal))
    if rays is None or best_nu < nu - tolerances.GEOM_TOL:
        return None
    return SimplexCone(rays, cone.unit)


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


def cone_arrays(obj) -> tuple[np.ndarray, np.ndarray]:
    """The finite (m, d) generators and length-d unit of a cone document."""
    if not isinstance(obj, dict):
        raise ValueError("cone document must be a JSON object")
    for key in ("d", "unit", "generators"):
        if key not in obj:
            raise ValueError(f"cone document missing field {key!r}")
    d = linalg.int_from_json(obj, "d")
    if d < 1:
        raise ValueError("d must be at least 1")
    unit = linalg.finite_from_json(obj["unit"], "unit")
    gens = linalg.finite_from_json(obj["generators"], "generators")
    if unit.shape != (d,):
        raise ValueError(f"unit has length {unit.shape}, expected {d}")
    if gens.ndim != 2 or gens.shape[1] != d:
        raise ValueError("generators must be an array of length-d vectors")
    return gens, unit


def cone_from_json(obj: dict) -> PolyhedralCone:
    """The cone of a document; listed ``facets``, kept in their order, must
    be all the facets of the cone the generators span (`rays_equal`)."""
    gens, unit = cone_arrays(obj)
    cone = PolyhedralCone(gens, unit)
    if obj.get("facets") is None:
        return cone
    facets = linalg.finite_from_json(obj["facets"], "facets")
    if not rays_equal(facets, cone.facets):
        raise ValueError("facets: not all the facets of the cone the generators span")
    return PolyhedralCone(gens, unit, facets=facets)
