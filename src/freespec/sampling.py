"""Seeded random instance generators for the property and acceptance suites."""

from __future__ import annotations

import warnings

import numpy as np

from . import linalg
from .cones import PolyhedralCone, SimplexCone
from .pencil import LinearPencil, MatrixTuple


def random_simplex_cone(rng: np.random.Generator, d: int) -> SimplexCone:
    """Random well-conditioned simplex cone with the default interior unit."""
    while True:
        g = np.eye(d) + 0.35 * rng.standard_normal((d, d))
        if abs(np.linalg.det(g)) > 0.2:
            try:
                rows = g / np.linalg.norm(g, axis=1)[:, None]
                return SimplexCone(g, rows.sum(axis=0))
            except ValueError:
                continue


def simplex_weights(cone: PolyhedralCone) -> np.ndarray:
    """Coefficients theta > 0 with u = sum_k theta_k c_k for a simplex cone."""
    theta = np.linalg.solve(cone.generators.T, cone.unit)
    if np.any(theta <= 0):
        raise ValueError("unit is not an interior combination of the generators")
    return theta


def random_target_for_simplex(
    rng: np.random.Generator, cone: PolyhedralCone, t: int
) -> LinearPencil:
    """Random unit-normalised pencil whose spectrahedron contains the simplex.

    Assigns an arbitrary PSD value Q_k to each generator and extends
    linearly; scalar inclusion holds by construction since every cone point
    is a nonnegative combination of the generators.
    """
    d = cone.dim
    theta = simplex_weights(cone)
    qs = [linalg.random_psd(rng, t).mat + 0.05 * np.eye(t) for _ in range(d)]
    total = sum(th * q for th, q in zip(theta, qs))
    ti = linalg.inv_sqrt_pd(total)
    qhat = [ti @ q @ ti for q in qs]
    lam = np.linalg.inv(cone.generators.T)  # column i: barycentric coords of e_i
    mats = []
    for i in range(d):
        mats.append(sum(lam[k, i] * qhat[k] for k in range(d)))
    return LinearPencil(mats, cone.unit)


def random_min_member(rng: np.random.Generator, cone: PolyhedralCone, s: int) -> MatrixTuple:
    """Random smallest-system member sum_k c_k (x) P_k with PSD weights."""
    entries = [np.zeros((s, s), dtype=np.complex128) for _ in range(cone.dim)]
    for g in cone.generators:
        p = linalg.random_psd(rng, s).mat
        for i in range(cone.dim):
            entries[i] += g[i] * p
    return MatrixTuple(entries)


def random_commuting_target(
    rng: np.random.Generator, cone: PolyhedralCone, t: int
) -> LinearPencil:
    """Random diagonal pencil whose level-1 cone contains the given cone.

    Each diagonal slot carries a random conic combination of the cone's
    facet functionals, renormalised at the unit.
    """
    k = cone.n_facets
    rows = []
    for _ in range(t):
        w = rng.random(k) + 1e-3
        ell = w @ cone.facets
        rows.append(ell / float(ell @ cone.unit))
    mats = [np.diag([rows[j][i] for j in range(t)]) for i in range(cone.dim)]
    with warnings.catch_warnings():
        # with t < d the diagonal matrices are necessarily dependent; the
        # target spectrahedron is still a valid inclusion target
        warnings.simplefilter("ignore")
        return LinearPencil(mats, cone.unit)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))
