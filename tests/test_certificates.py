"""The producers' answers against `freespec verify`'s acceptance tests.

Each producer runs the acceptance test of its certificate kind before it
answers, on the arrays it emits; a JSON round trip restores those arrays,
so every definitive answer passes `verify_certificate` with the residual
the producer saw.
"""

import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from freespec import certificates, cones, linalg, sampling
from freespec.containment import RelaxationStatus, relaxation
from freespec.linalg import HermitianMatrix
from freespec.opsys import MinMembershipStatus, min_membership
from freespec.pencil import LinearPencil, MatrixTuple, diagonal_pencil, pencil_from_json


def _round_trip(doc):
    return certificates.verify_certificate(json.loads(json.dumps(doc)))


def _regular_polygon(k, rotation=0.3):
    ang = rotation + 2 * math.pi * np.arange(k) / k
    gens = np.column_stack([np.cos(ang), np.sin(ang), np.ones(k)])
    return cones.PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.0, 1.0]))


def _facet_target(cone, rows, factor):
    """factor * diag(F[rows, i]), unital at the cone's unit over factor: the
    relaxation from the cone's diagonal pencil is feasible by construction."""
    f = cone.facets[rows] / (cone.facets[rows] @ cone.unit)[:, None]
    return LinearPencil([factor * np.diag(col) for col in f.T], cone.unit / factor)


@pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
def test_choi_path_infeasible_answers_pass_verify():
    # conjugated sources take the Choi SDP, whose Farkas matrices for these
    # targets at 1e6 can have a gap that cancels to <= 0: relaxation must
    # then answer Unknown, never an Infeasible that verify rejects
    definitive = 0
    for k in (5, 6):
        cone = _regular_polygon(k)
        rng = np.random.default_rng(k)
        src = diagonal_pencil(cone)
        for a, b in itertools.combinations(range(k), 2):
            u = sampling.random_unitary(rng, src.r)
            rotated = LinearPencil([u.conj().T @ m.mat @ u for m in src.matrices], src.unit)
            for e in (0, 3, 6):
                tgt = _facet_target(cone, [a, b], 10.0**e)
                res = relaxation(rotated, tgt)
                if res.status is RelaxationStatus.INFEASIBLE:
                    doc = certificates.relaxation_infeasible_cert(rotated, tgt, res.farkas)
                    check = _round_trip(doc)
                    assert check.ok, f"{k}-gon rows {a},{b} at 1e{e}"
                    assert check.details["gap"] == res.farkas.gap
                    assert check.details["lambda_max"] == res.farkas.lambda_max
                if res.status is RelaxationStatus.FEASIBLE:
                    doc = certificates.relaxation_feasible_cert(rotated, tgt, res.certificate)
                    check = _round_trip(doc)
                    assert check.ok and check.residual == res.certificate.residual
                    definitive += 1
    assert definitive > 0


@pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
def test_cancelled_farkas_gap_is_rejected():
    # a Choi-SDP answer for the 5-gon facet target rows (1, 3) at 1e6, which
    # is feasible by construction: the Farkas matrices have size ~1e9 and
    # their gap sum_i <Y_i, N_i> = 1 is 6e-17 of sum_i |Y_i| |N_i|
    path = pathlib.Path(__file__).parent / "data" / "cancelled_relaxation_farkas.json"
    doc = json.loads(path.read_text())
    check = certificates.verify_certificate(doc)
    assert not check.ok
    y = np.array([linalg.matrix_from_json(m).mat for m in doc["y_matrices"]])
    n = pencil_from_json(doc["tgt"]).stack
    size = np.linalg.norm(y, axis=(1, 2)) @ np.linalg.norm(n, axis=(1, 2))
    assert 0 < check.details["gap"] < certificates.FARKAS_GAP_LIMIT * size


def _rescaled(a, factor):
    return MatrixTuple(tuple(HermitianMatrix(factor * e.mat) for e in a.entries))


def test_min_membership_certificates_pass_verify_at_every_scale():
    rng = np.random.default_rng(0)
    shapes = [sampling.random_simplex_cone(rng, 3), cones.square_cone(), _regular_polygon(5)]
    seen = set()
    for cone in shapes:
        member = sampling.random_min_member(rng, cone, 2)
        query = MatrixTuple(tuple(linalg.random_hermitian(rng, 2) for _ in range(cone.dim)))
        for base, e in itertools.product((member, query), range(-12, 13, 2)):
            a = _rescaled(base, 10.0**e)
            res = min_membership(cone, a)
            seen.add(res.status)
            if res.status is MinMembershipStatus.MEMBER:
                check = _round_trip(certificates.min_member_cert(cone, a, res.certificate))
                assert check.ok, f"{cone} at 1e{e}"
                assert check.residual == res.certificate.residual
            elif res.status is MinMembershipStatus.NOT_MEMBER:
                check = _round_trip(certificates.separator_cert(cone, a, res.separator))
                assert check.ok, f"{cone} at 1e{e}"
                assert check.details["margin"] == res.separator.margin
    assert {MinMembershipStatus.MEMBER, MinMembershipStatus.NOT_MEMBER} <= seen


def test_essential_boundary_functional_passes_verify():
    from freespec.opsys import EssentialBoundaryStatus, essential_boundary_square, pauli_witness

    comps = pauli_witness(0.7).components
    res = essential_boundary_square(comps)
    assert res.status is EssentialBoundaryStatus.IN_ESSENTIAL_BOUNDARY
    check = _round_trip(certificates.essential_boundary_cert(comps, res.functional, 1e-6))
    assert check.ok and check.details["margin"] == res.functional.margin


def test_apply_kraus_matches_the_sum():
    rng = np.random.default_rng(3)
    kraus = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    x = np.array([linalg.random_hermitian(rng, 4).mat for _ in range(2)])
    want = [sum(v.conj().T @ xi @ v for v in kraus) for xi in x]
    assert np.allclose(certificates.apply_kraus(kraus, x), want, atol=1e-12)


class TestValidateOnce:
    """The arrays a check accepted travel on as they are: deciding, building
    the certificate and verifying it construct no HermitianMatrix."""

    def test_min_membership_round_trip(self, hermitian_calls):
        from freespec.linalg import SIGMA_X, SIGMA_Z

        rng = np.random.default_rng(5)
        cases = []
        for cone in (cones.square_cone(), _regular_polygon(5)):
            cases.append((cone, sampling.random_min_member(rng, cone, 2), MinMembershipStatus.MEMBER))
            cases.append((cone, MatrixTuple.of(SIGMA_Z, SIGMA_X, -np.eye(2)),
                          MinMembershipStatus.NOT_MEMBER))
        hermitian_calls.clear()
        for cone, a, status in cases:
            res = min_membership(cone, a)
            assert res.status is status
            if status is MinMembershipStatus.MEMBER:
                doc = certificates.min_member_cert(cone, a, res.certificate)
            else:
                doc = certificates.separator_cert(cone, a, res.separator)
            assert certificates.verify_certificate(doc).ok
        assert hermitian_calls == []

    @pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
    def test_inclusion_round_trip(self, hermitian_calls):
        from freespec.containment import check_inclusion
        from freespec.pencil import elliptic_cone_pencil

        rng = np.random.default_rng(6)
        pentagon = _regular_polygon(5)
        cases = [
            (pentagon, sampling.random_commuting_target(rng, pentagon, 3), RelaxationStatus.FEASIBLE),
            (pentagon, elliptic_cone_pencil(1.0), RelaxationStatus.INFEASIBLE),
            (cones.square_cone(), elliptic_cone_pencil(0.6), RelaxationStatus.INFEASIBLE),
        ]
        hermitian_calls.clear()
        for src, tgt, status in cases:
            rel = check_inclusion(src, tgt).relaxation
            assert rel.status is status
            if status is RelaxationStatus.FEASIBLE:
                doc = certificates.relaxation_feasible_cert(diagonal_pencil(src), tgt, rel.certificate)
            else:
                doc = certificates.relaxation_infeasible_cert(diagonal_pencil(src), tgt, rel.farkas)
            assert certificates.verify_certificate(doc).ok
        assert hermitian_calls == []

    def test_results_are_read_only_arrays(self):
        from freespec.linalg import SIGMA_X, SIGMA_Z

        rng = np.random.default_rng(7)
        square = cones.square_cone()
        member = min_membership(square, sampling.random_min_member(rng, square, 2))
        outside = min_membership(square, MatrixTuple.of(SIGMA_Z, SIGMA_X, -np.eye(2)))
        for arr in (member.certificate.weights, outside.separator.matrices):
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable
