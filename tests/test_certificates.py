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
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from freespec import certificates, cones, linalg, sampling, tolerances
from freespec.containment import RelaxationStatus, relaxation
from freespec.linalg import HermitianMatrix
from freespec.opsys import MinMembershipStatus, min_membership
from freespec.pencil import LinearPencil, MatrixTuple, diagonal_pencil, pencil_from_json

from conftest import unit_tuple


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
    assert 0 < check.details["gap"] < tolerances.FARKAS_GAP_LIMIT * check.details["size"]
    y = np.array([linalg.matrix_from_json(m) for m in doc["y_matrices"]])
    n = pencil_from_json(doc["tgt"]).stack
    size = np.linalg.norm(y, axis=(1, 2)) @ np.linalg.norm(n, axis=(1, 2))
    assert check.details["size"] == pytest.approx(size, rel=1e-12)


def test_member_over_a_non_extreme_generator_is_checked_on_the_listed_generators():
    # the unit (0, 0, 1) lies inside the square cone: a member document may
    # list it as a fifth generator, and A = e_3 (x) I is sum_k c_k (x) P_k
    # with P_5 = I and the other weights zero
    square = cones.square_cone()
    gens = np.vstack([square.generators, square.unit])
    weights = np.zeros((5, 2, 2))
    weights[4] = np.eye(2)
    doc = certificates.min_member_cert(square, unit_tuple(square.unit, 2),
                                       SimpleNamespace(weights=weights))
    doc["cone"]["generators"] = gens.tolist()
    check = _round_trip(doc)
    assert check.ok and check.residual == 0.0
    # the same A from P_1 = P_2 = -I/2 and P_5 = 2I: c_1 + c_2 = 2 e_3, so
    # the identity holds exactly, but two weights are not PSD
    weights[:2], weights[4] = -np.eye(2) / 2, 2 * np.eye(2)
    doc["weights"] = linalg.matrix_to_json(weights)
    check = _round_trip(doc)
    assert not check.ok and check.residual == 0.5


def test_relaxation_with_a_drifted_unit_is_checked_as_stated():
    # the square's diagonal pencil into itself, Kraus operator I: with the
    # target's unit off by 1e-10 the identity still holds as written, and
    # verify reports the drift instead of renormalising the target
    src = diagonal_pencil(cones.square_cone())
    res = relaxation(src, src)
    assert res.status is RelaxationStatus.FEASIBLE
    doc = json.loads(json.dumps(certificates.relaxation_feasible_cert(src, src, res.certificate)))
    doc["tgt"]["unit"][2] += 1e-10
    check = certificates.verify_certificate(doc)
    as_written = certificates.check_relaxation_feasible(
        src.stack, src.stack, res.certificate.choi, res.certificate.kraus)
    assert check.ok and check.residual == as_written.residual
    assert check.details["unit_drift"]["src"] <= 1e-15
    assert check.details["unit_drift"]["tgt"] == pytest.approx(1e-10, rel=1e-3)


def test_a_non_finite_entry_is_rejected_by_name():
    src = diagonal_pencil(cones.square_cone())
    res = relaxation(src, src)
    doc = json.loads(json.dumps(certificates.relaxation_feasible_cert(src, src, res.certificate)))
    doc["tgt"]["matrices"][0][0][1][0] = float("inf")
    with pytest.raises(ValueError, match=r"tgt: entry \(0,1\): not finite"):
        certificates.verify_certificate(doc)


def test_an_overflowing_source_entry_is_rejected():
    # an entry of 1e308 in the source: (M + M*)/2 must not overflow to inf
    # or NaN, so the document is judged on the matrix it states, whose Kraus
    # image misses the target by about 1e308, with no RuntimeWarning
    src = diagonal_pencil(cones.square_cone())
    res = relaxation(src, src)
    doc = json.loads(json.dumps(certificates.relaxation_feasible_cert(src, src, res.certificate)))
    assert certificates.verify_certificate(doc).ok
    doc["src"]["matrices"][0][0][0] = [1e308, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = certificates.verify_certificate(doc)
    assert not check.ok and check.residual >= 1e307


def _with_nan(a, index):
    """A copy of ``a`` with NaN at ``index``."""
    a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    a[index] = np.nan
    return a


def _nan_cases():
    """For each check_<kind>: the check, its arguments on a certificate
    that passes, and which argument gets a NaN at which index so that it
    reaches a term of the residual."""
    from freespec.containment import scaling_bound
    from freespec.opsys import essential_boundary_square, pauli_witness
    from freespec.pencil import elliptic_cone_pencil

    eye2 = np.eye(2)
    square = diagonal_pencil(cones.square_cone())
    feasible = relaxation(square, square).certificate
    elliptic = elliptic_cone_pencil(0.7)
    farkas = relaxation(square, elliptic).farkas
    comps = np.array(pauli_witness(0.7).components)
    functional = essential_boundary_square(comps).functional
    cone = cones.square_cone()
    sandwich = scaling_bound(cone, [0.0, 0.0, 1.0])
    sandwich_args = (cone.generators, cone.unit, sandwich.certified_nu, np.array([0.0, 0.0, 1.0]),
                     sandwich.certificate)
    return {
        "member": (certificates.check_min_member,
                   (np.eye(2), np.array([eye2, eye2]), np.array([eye2, eye2])), (1, (1, 0, 0))),
        "separator": (certificates.check_separator,
                      (np.eye(2), np.ones(2), -np.array([eye2, eye2]), np.array([eye2, eye2])),
                      (0, (0, 0))),
        "relaxation-feasible": (certificates.check_relaxation_feasible,
                                (square.stack, square.stack, feasible.choi, feasible.kraus),
                                (0, (0, 0, 0))),
        "relaxation-infeasible": (certificates.check_relaxation_infeasible,
                                  (square.stack, elliptic.stack, farkas.y_matrices),
                                  (0, (0, 0, 0))),
        "essential-boundary": (certificates.check_essential_boundary,
                               (comps, functional.matrices, 1e-6), (0, (0, 0, 0))),
        "sandwich": (certificates.check_scaling_sandwich, sandwich_args, (2, ())),
    }


@pytest.mark.parametrize(
    "kind", ["member", "separator", "relaxation-feasible", "relaxation-infeasible",
             "essential-boundary", "sandwich"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_term_makes_the_residual_nan(kind):
    # Python's max keeps the first of two values that do not compare, so it
    # dropped a NaN term anywhere but first; the residual keeps it now, and
    # a NaN residual is never accepted
    check, args, (arg, index) = _nan_cases()[kind]
    assert check(*args).ok
    args = list(args)
    args[arg] = _with_nan(args[arg], index)
    result = check(*args)
    assert not result.ok and math.isnan(result.residual)


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


def _square_sandwich():
    from freespec.containment import scaling_bound

    cone = cones.square_cone()
    rep = scaling_bound(cone, [0.0, 0.0, 1.0])
    return certificates.sandwich_cert(cone, rep.certified_nu, [0.0, 0.0, 1.0], rep.certificate)


@pytest.mark.parametrize(
    "field,value",
    [
        ("nu", float("nan")),
        ("nu", float("inf")),
        ("nu", 0.0),
        ("nu", -0.25),
        ("nu", 1.5),
        ("h_normal", [0.0, float("nan"), 1.0]),
        ("h_normal", [0.0, 0.0, float("inf")]),
        ("h_normal", [0.0, 1.0]),
        ("h_normal", [2.0, 0.0, 1.0]),
        ("h_normal", [1.0, 0.0, 0.0]),
    ],
)
def test_sandwich_with_a_bad_nu_or_normal_is_rejected(field, value):
    # nu = 0 is a sandwich of nothing, and a NaN nu or normal would drop out
    # of every comparison of the check: each is an input error, not VALID;
    # so is a normal whose section is unbounded or that misses the unit
    doc = _square_sandwich()
    assert _round_trip(doc).ok
    doc[field] = value
    with pytest.raises(ValueError, match=f"^{field}: "):
        _round_trip(doc)


def test_a_sandwich_is_checked_on_the_cone_its_generators_span(forged_sandwich):
    # trusted, the facet list missing (-1, -1, -1, 1) would hold the
    # simplex, which leaves the cone at (0.6, 0.6, 0.6, 1), and the forged
    # sandwich would pass with residual 0; the listed facets are not read
    doc = forged_sandwich
    check = _round_trip(doc)
    assert not check.ok
    assert check.residual == pytest.approx(0.8, abs=1e-12)
    del doc["cone"]["facets"]
    assert _round_trip(doc) == check


def test_a_singular_simplex_is_an_input_error():
    doc = _square_sandwich()
    g = np.array(doc["simplex_generators"])
    doc["simplex_generators"][2] = (g[0] + g[1]).tolist()
    with pytest.raises(ValueError, match="^simplex_generators: generators do not span") as exc:
        _round_trip(doc)
    assert not isinstance(exc.value, np.linalg.LinAlgError)


@pytest.mark.parametrize(
    "path,value,want",
    [
        (("cone", "unit"), [2.0, 0.0, 1.0], "cone: unit is not strictly interior"),
        (("cone", "unit"), [1.0, 0.0, 1.0], "cone: unit is not strictly interior"),
        (("simplex_generators",), [[1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [0.5, 0.0, 1.0]],
         "simplex_generators: unit is not strictly interior"),
        (("simplex_generators",), [[1.0, -1.0, 1.0], [1.0, 1.0, 1.0]],
         r"simplex_generators: expected 3 generators of length 3, got \(2, 3\)"),
        (("simplex_generators",), [[1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 0.0, 1.0],
                                   [0.0, 0.0, 1.0]],
         r"simplex_generators: expected 3 generators of length 3, got \(4, 3\)"),
    ],
    ids=["unit-outside-the-cone", "unit-on-the-cone-boundary", "unit-outside-the-simplex",
         "two-simplex-generators", "four-simplex-generators"],
)
def test_a_forged_sandwich_names_its_field(path, value, want):
    # the sandwich statement needs the unit strictly inside C and S and a
    # simplex of d spanning generators (a singular one: the test above);
    # each is checked on the arrays and named, never a LinAlgError
    doc = _square_sandwich()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ValueError, match=f"^{want}") as exc:
        _round_trip(doc)
    assert not isinstance(exc.value, np.linalg.LinAlgError)


def test_a_sandwich_over_a_non_extreme_generator_is_checked_on_the_listed_generators():
    # the square's sandwich over its rays, 2 times ray 0 and the unit: the
    # cone they span is the square's, so the sandwich holds as it does
    # over the four rays alone
    doc = _square_sandwich()
    plain = _round_trip(doc)
    gens = doc["cone"]["generators"]
    doc["cone"]["generators"] = gens + [[2 * x for x in gens[0]], [0.0, 0.0, 1.0]]
    assert plain.ok and _round_trip(doc) == plain


def test_a_sandwich_verify_builds_one_section_frame(monkeypatch):
    # the normal and its Gram-Schmidt basis serve the sections of both C
    # and S; the residual keeps the bits of one section per side
    doc = _square_sandwich()
    want = _round_trip(doc)
    calls = []
    basis = cones._hyperplane_basis
    monkeypatch.setattr(cones, "_hyperplane_basis", lambda n: calls.append(n) or basis(n))
    got = _round_trip(doc)
    assert len(calls) == 1
    assert got.ok and got == want


def test_apply_kraus_matches_the_sum():
    rng = np.random.default_rng(3)
    kraus = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    x = np.array([linalg.random_hermitian(rng, 4) for _ in range(2)])
    want = [sum(v.conj().T @ xi @ v for v in kraus) for xi in x]
    assert np.allclose(certificates.apply_kraus(kraus, x), want, atol=1e-12)


class TestValidateOnce:
    """The arrays a check accepted travel on as they are: deciding, building
    the certificate and verifying it construct no HermitianMatrix, and
    verifying constructs no cone, pencil or tuple."""

    def test_min_membership_round_trip(self, hermitian_calls, verify_constructions):
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
        assert verify_constructions == []

    @pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
    def test_inclusion_round_trip(self, hermitian_calls, verify_constructions):
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
        assert verify_constructions == []

    def test_scaling_round_trip(self, verify_constructions):
        from freespec.containment import scaling_bound

        shapes = [cones.square_cone(), _regular_polygon(5), _regular_polygon(6),
                  sampling.random_simplex_cone(np.random.default_rng(8), 3)]
        for cone in shapes:
            rep = scaling_bound(cone, cone.unit)
            doc = certificates.sandwich_cert(cone, rep.certified_nu, cone.unit, rep.certificate)
            assert _round_trip(doc).ok
        assert verify_constructions == []

    def test_results_are_read_only_arrays(self):
        from freespec.linalg import SIGMA_X, SIGMA_Z

        rng = np.random.default_rng(7)
        square = cones.square_cone()
        member = min_membership(square, sampling.random_min_member(rng, square, 2))
        outside = min_membership(square, MatrixTuple.of(SIGMA_Z, SIGMA_X, -np.eye(2)))
        for arr in (member.certificate.weights, outside.separator.matrices):
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable
