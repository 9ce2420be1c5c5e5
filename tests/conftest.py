"""Fixtures and data builders shared by the test modules."""

import itertools
import json

import numpy as np
import pytest

from freespec import certificates, cones, linalg, opsys, pencil, sdp


def point_tuple(x) -> pencil.MatrixTuple:
    """Embed a scalar point of R^d as a level-1 tuple."""
    return pencil.MatrixTuple(np.asarray(x, dtype=float)[:, None, None])


def unit_tuple(u, s: int) -> pencil.MatrixTuple:
    """The tuple u (x) I_s."""
    return pencil.MatrixTuple(np.asarray(u, dtype=float)[:, None, None] * np.eye(s))


def scaled_cone(cone: cones.PolyhedralCone, nu: float, h_normal) -> cones.PolyhedralCone:
    """Shrink the section C ∩ (u + H) by factor nu about u and re-cone."""
    if not (0.0 < nu <= 1.0):
        raise ValueError(f"scaling factor must be in (0, 1], got {nu}")
    sec = cones.section_of(cone, h_normal)
    pts = cone.generators / (cone.generators @ sec.normal)[:, None]
    return cones.PolyhedralCone(cone.unit + nu * (pts - cone.unit), cone.unit)


def _save(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def save_cone(cone: cones.PolyhedralCone, path) -> None:
    _save(cones.cone_to_json(cone), path)


def save_pencil(p: pencil.LinearPencil, path) -> None:
    _save(pencil.pencil_to_json(p), path)


def save_tuple(a: pencil.MatrixTuple, path) -> None:
    _save(pencil.tuple_to_json(a), path)


@pytest.fixture()
def solve_calls(monkeypatch):
    """Count calls of sdp.solve, which the oracles reach as a module attribute."""
    calls = []
    real = sdp.solve

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sdp, "solve", counting)
    return calls


@pytest.fixture()
def hermitian_calls(monkeypatch):
    """Count constructions of linalg.HermitianMatrix: the arguments given."""
    calls = []
    real = linalg.HermitianMatrix.__init__

    def counting(self, entries):
        calls.append(entries)
        real(self, entries)

    monkeypatch.setattr(linalg.HermitianMatrix, "__init__", counting)
    return calls


@pytest.fixture()
def verify_constructions(monkeypatch):
    """The class names of the PolyhedralCone, LinearPencil and MatrixTuple
    constructions made inside certificates.verify_certificate."""
    built, inside = [], []
    for cls in (cones.PolyhedralCone, pencil.LinearPencil, pencil.MatrixTuple):
        def counting(self, *args, real=cls.__init__, name=cls.__name__, **kwargs):
            if inside:
                built.append(name)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    real_verify = certificates.verify_certificate

    def verifying(doc):
        inside.append(doc)
        try:
            return real_verify(doc)
        finally:
            inside.pop()

    monkeypatch.setattr(certificates, "verify_certificate", verifying)
    return built


@pytest.fixture()
def exact_margin_start():
    """A check that the margin SDP of (gens, stack, h) has exactly Hermitian
    stacks and an exactly feasible start with C - A*(y0) >= I; it returns
    the rescale rows of the split."""

    def check(gens, stack, h):
        rows, _, _, kernel, p0 = opsys._affine_split(gens, stack, h)
        problem, (x, y) = opsys._margin_problem(p0, kernel)
        a, c = np.array(problem.a), np.array(problem.c)
        for t in (a, c):
            assert np.array_equal(t, np.conj(np.swapaxes(t, -1, -2)))
        residual = np.einsum("kiab,kba->i", a, x).real - problem.b
        assert np.max(np.abs(residual)) <= 1e-14
        slack = c - np.einsum("i,kiab->kab", y, a)
        assert np.linalg.eigvalsh(slack).min() >= 1.0 - 1e-12
        return rows

    return check


@pytest.fixture()
def octahedron_without_a_facet():
    """The document of the cone over the octahedron in d = 4 (rays
    (+-e_i, 1), unit e_4) listing 7 of its 8 facets: the one dropped,
    (-1, -1, -1, 1), cuts off (0.6, 0.6, 0.6, 1).  Each vertex lies on 4
    facets, so every listed facet is still supported and every generator
    extreme."""
    rays = np.hstack([np.kron(np.eye(3), [[1.0], [-1.0]]), np.ones((6, 1))])
    signs = list(itertools.product([-1.0, 1.0], repeat=3))[1:]
    return {"d": 4, "unit": [0.0, 0.0, 0.0, 1.0], "generators": rays.tolist(),
            "facets": [[*s, 1.0] for s in signs]}


@pytest.fixture()
def forged_sandwich(octahedron_without_a_facet):
    """A sandwich with nu = 0.1 over `octahedron_without_a_facet` by the
    simplex through (0.6, 0.6, 0.6, 1) and the points -0.9 e_i + e_4: it
    holds for the listed facets, but the simplex leaves the cone."""
    simplex = [[0.6, 0.6, 0.6, 1.0], [-0.9, 0.0, 0.0, 1.0], [0.0, -0.9, 0.0, 1.0],
               [0.0, 0.0, -0.9, 1.0]]
    return {"schema_version": 1, "kind": "scaling_sandwich", "cone": octahedron_without_a_facet,
            "nu": 0.1, "h_normal": [0.0, 0.0, 0.0, 1.0], "simplex_generators": simplex}
