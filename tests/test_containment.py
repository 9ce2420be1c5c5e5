"""Inclusion pipeline: scalar test, relaxation, witnesses, scaling, demo."""

import itertools
import math

import numpy as np
import pytest

from freespec import certificates, cones, containment, linalg, pencil, sampling, sdp, tolerances
from freespec.containment import (
    RelaxationStatus,
    ball_pencil,
    check_inclusion,
    entangled_example,
    free_witness_square,
    partial_transpose,
    relaxation,
    scalar_inclusion,
    scaled_max_in_min,
    scaling_bound,
    square_type_witness,
)
from freespec.cones import PolyhedralCone, find_sandwich_simplex, is_simplex, square_cone
from freespec.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from freespec.opsys import MinMembershipStatus, max_membership
from freespec.pencil import (
    Classification,
    LinearPencil,
    MatrixTuple,
    circular_cone_pencil,
    diagonal_pencil,
    elliptic_cone_pencil,
    evaluate,
    membership,
)

from conftest import unit_tuple


def min_eigenvalue(a) -> float:
    return float(linalg.eigh(a)[0][0])


def sz_sx_i():
    return MatrixTuple.of(SIGMA_Z, SIGMA_X, np.eye(2))


class TestScalarInclusion:
    def test_square_in_elliptic(self):
        res = scalar_inclusion(square_cone(), elliptic_cone_pencil(math.pi / 4))
        assert res.holds
        assert np.max(np.abs(res.margins)) < 1e-12  # all four vertices touch

    def test_square_not_in_circle(self):
        res = scalar_inclusion(square_cone(), circular_cone_pencil())
        assert not res.holds
        assert res.witness_margin == pytest.approx(1 - math.sqrt(2), abs=1e-9)
        # the violating ray is a square vertex
        assert any(
            np.allclose(res.witness_ray, g) for g in square_cone().generators
        )

    def test_self_description(self):
        sq = square_cone()
        res = scalar_inclusion(sq, diagonal_pencil(sq))
        assert res.holds
        assert np.max(np.abs(res.margins)) < 1e-12

    def test_matches_per_generator_loop(self):
        # reference: one eigendecomposition per generator, first minimum wins
        rng = np.random.default_rng(63)
        for k in (4, 6, 8):
            cone = _regular_polygon(k)
            for tgt in (elliptic_cone_pencil(0.7), _random_target(rng, cone, 3, spread=0.5)):
                ref = [
                    min_eigenvalue(sum(g[i] * tgt.matrices[i].mat for i in range(3)))
                    for g in cone.generators
                ]
                res = scalar_inclusion(cone, tgt)
                assert np.allclose(res.margins, ref, rtol=0, atol=1e-12)
                assert res.holds is (min(ref) >= -1e-8)
                if not res.holds:
                    assert res.witness_ray == pytest.approx(cone.generators[np.argmin(ref)])


class TestRelaxation:
    def test_identity_map(self):
        dp = diagonal_pencil(square_cone())
        res = relaxation(dp, dp)
        assert res.status is RelaxationStatus.FEASIBLE
        assert res.certificate.residual < 1e-6

    def test_identity_choi_is_feasible_point(self):
        # oracle: the rank-one vectorised identity solves the constraint set
        p = elliptic_cone_pencil(0.8)
        r = p.r
        w = np.eye(r).reshape(-1)
        choi = np.outer(w, w.conj())
        for i in range(p.d):
            phi = np.zeros((r, r), dtype=complex)
            for k in range(r):
                for l in range(r):
                    blk = choi[k * r : (k + 1) * r, l * r : (l + 1) * r]
                    phi += p.matrices[i].mat[k, l] * blk
            assert np.allclose(phi, p.matrices[i].mat)

    def test_simplex_targets_feasible(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            cone = sampling.random_simplex_cone(rng, int(rng.integers(2, 5)))
            tgt = sampling.random_target_for_simplex(rng, cone, int(rng.integers(2, 5)))
            assert scalar_inclusion(cone, tgt).holds
            res = relaxation(diagonal_pencil(cone), tgt)
            assert res.status is RelaxationStatus.FEASIBLE
            assert res.certificate.residual < 1e-6

    def test_square_to_elliptic_infeasible(self):
        res = relaxation(diagonal_pencil(square_cone()), elliptic_cone_pencil(math.pi / 4))
        assert res.status is RelaxationStatus.INFEASIBLE
        fk = res.farkas
        assert fk.gap == pytest.approx(1.0, abs=1e-9)
        assert fk.lambda_max <= 1e-7

    def test_kraus_lift_preserves_membership(self):
        # soundness chain: apply the recovered Kraus form to source members
        rng = np.random.default_rng(62)
        cone = sampling.random_simplex_cone(rng, 3)
        tgt = sampling.random_target_for_simplex(rng, cone, 3)
        src = diagonal_pencil(cone)
        res = relaxation(src, tgt)
        assert res.status is RelaxationStatus.FEASIBLE
        kraus = res.certificate.kraus
        for _ in range(50):
            a = sampling.random_min_member(rng, cone, 2)
            src_eval = evaluate(src, a)
            lifted = sum(
                np.kron(v, np.eye(2)).conj().T @ src_eval @ np.kron(v, np.eye(2))
                for v in kraus
            )
            direct = evaluate(tgt, a)
            assert np.max(np.abs(lifted - direct)) < 1e-7 * (1 + np.max(np.abs(direct)))
            res_m = membership(tgt, a, tol=1e-9)
            scale = 1 + max(np.linalg.norm(e.mat) for e in a.entries)
            assert res_m.margin >= -1e-8 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            relaxation(circular_cone_pencil(), ball_pencil())


def _target_from_values(cone, values):
    """Pencil whose value at generator k is a positive multiple of values[k],
    normalised at the unit (sum_k theta_k values[k] must be PD)."""
    theta = sampling.simplex_weights(cone)
    ti = linalg.inv_sqrt_pd(linalg.hermitian(sum(th * q for th, q in zip(theta, values))))
    qhat = [ti @ q @ ti for q in values]
    lam = np.linalg.inv(cone.generators.T)
    mats = [sum(lam[k, i] * qhat[k] for k in range(cone.dim)) for i in range(cone.dim)]
    return LinearPencil(mats, cone.unit)


def _indefinite_target(rng, cone, t):
    theta = sampling.simplex_weights(cone)
    hs = [linalg.random_hermitian(rng, t) for _ in range(cone.dim)]
    total = sum(th * h for th, h in zip(theta, hs))
    shift = (1.0 + np.linalg.norm(total, 2)) / theta.sum()
    return _target_from_values(cone, [h + shift * np.eye(t) for h in hs])


def _relaxation_certificate_ok(src, tgt, res):
    if res.status is RelaxationStatus.FEASIBLE:
        doc = certificates.relaxation_feasible_cert(src, tgt, res.certificate)
    else:
        doc = certificates.relaxation_infeasible_cert(src, tgt, res.farkas)
    return certificates.verify_certificate(doc).ok


class TestSimplexRelaxation:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_agrees_with_sdp(self, d):
        rng = np.random.default_rng(70 + d)
        definitive = (RelaxationStatus.FEASIBLE, RelaxationStatus.INFEASIBLE)
        infeasible = 0
        for t in range(2, 7):
            cone = sampling.random_simplex_cone(rng, d)
            src = diagonal_pencil(cone)
            included = sampling.random_target_for_simplex(rng, cone, t)
            for tgt in (included, _indefinite_target(rng, cone, t)):
                fast = relaxation(src, tgt)
                ref = containment._sdp_relaxation(src.stack, tgt.stack)
                assert fast.status in definitive
                assert _relaxation_certificate_ok(src, tgt, fast)
                if ref.status in definitive:
                    assert fast.status is ref.status, f"t={t}"
                    assert _relaxation_certificate_ok(src, tgt, ref)
                if tgt is included:
                    assert fast.status is RelaxationStatus.FEASIBLE
                infeasible += fast.status is RelaxationStatus.INFEASIBLE
        assert infeasible > 0

    def test_clear_instances_skip_the_sdp(self, solve_calls):
        rng = np.random.default_rng(75)
        cone = sampling.random_simplex_cone(rng, 3)
        src = diagonal_pencil(cone)
        tgt = sampling.random_target_for_simplex(rng, cone, 3)
        assert relaxation(src, tgt).status is RelaxationStatus.FEASIBLE
        assert check_inclusion(cone, tgt).relaxation.status is RelaxationStatus.FEASIBLE
        values = [linalg.random_psd(rng, 3) + np.eye(3) for _ in range(3)]
        values[1] = np.diag([-0.05, 1.0, 1.0])
        bad = _target_from_values(cone, values)
        res = relaxation(src, bad)
        assert res.status is RelaxationStatus.INFEASIBLE
        assert res.farkas.gap == pytest.approx(1.0, abs=1e-9)
        assert _relaxation_certificate_ok(src, bad, res)
        assert solve_calls == []

    def test_singular_value_is_decided_in_closed_form(self, solve_calls):
        rng = np.random.default_rng(76)
        cone = sampling.random_simplex_cone(rng, 3)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        values = [np.outer(w, w.conj())] + [linalg.random_psd(rng, 2) for _ in range(2)]
        src, tgt = diagonal_pencil(cone), _target_from_values(cone, values)
        res = relaxation(src, tgt)
        assert solve_calls == []
        assert res.status is RelaxationStatus.FEASIBLE
        assert _relaxation_certificate_ok(src, tgt, res)
        assert res.status is containment._sdp_relaxation(src.stack, tgt.stack).status

    def test_non_simplex_source_uses_the_sdp(self, solve_calls):
        res = relaxation(diagonal_pencil(square_cone()), elliptic_cone_pencil(math.pi / 4))
        assert res.status is RelaxationStatus.INFEASIBLE
        assert len(solve_calls) == 1


@pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
class TestRankDeficientDiagonalSource:
    """Facets F of rank 2 < d = 3: no weights reach a target slot outside
    the range of F^T, and that part alone refutes it."""

    @staticmethod
    def _pencil(third):
        mats = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.diag(third)]
        return LinearPencil(mats, np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("third, want", [
        ([0.5, 0.5], RelaxationStatus.FEASIBLE),
        ([0.2, 0.5], RelaxationStatus.INFEASIBLE),
    ], ids=["itself", "unreachable"])
    def test_against_the_source(self, third, want):
        src, tgt = self._pencil([0.5, 0.5]), self._pencil(third)
        res = relaxation(src, tgt)
        assert res.status is want
        assert _relaxation_certificate_ok(src, tgt, res)
        assert containment._sdp_relaxation(src.stack, tgt.stack).status is want
        if want is RelaxationStatus.INFEASIBLE:
            assert res.farkas.gap == pytest.approx(1.0, abs=1e-12)


def _regular_polygon(k, rotation=0.3):
    ang = rotation + 2 * math.pi * np.arange(k) / k
    gens = np.column_stack([np.cos(ang), np.sin(ang), np.ones(k)])
    return PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.0, 1.0]))


def _conjugated(p, u):
    return LinearPencil([u.conj().T @ m.mat @ u for m in p.matrices], p.unit)


def _rescaled_pencil(p, factor):
    """factor * N with the unit divided by factor, so it stays normalised."""
    return LinearPencil([factor * m.mat for m in p.matrices], p.unit / factor)


def _random_target(rng, cone, t, spread):
    """u/|u|^2 (x) I plus random Hermitian matrices with sum_i u_i H_i = 0: a
    target that contains the cone or not, depending on the spread."""
    w = cone.unit / float(cone.unit @ cone.unit)
    hs = np.array([linalg.random_hermitian(rng, t, spread) for _ in range(cone.dim)])
    hs -= np.multiply.outer(w, np.tensordot(cone.unit, hs, axes=1))
    return LinearPencil(list(np.multiply.outer(w, np.eye(t)) + hs), cone.unit)


def _diagonal_targets(rng, cone):
    """(t, target) pairs: included, commuting, commuting conjugated by a
    random unitary, elliptic or indefinite, and random Hermitian targets,
    every third one rescaled by a power of ten; t runs over 2..6."""
    out = []
    for j in range(8):
        t = 2 + j % 5
        kind = j % 4
        if kind == 0:
            if is_simplex(cone):
                tgt = sampling.random_target_for_simplex(rng, cone, t)
            else:
                tgt = sampling.random_commuting_target(rng, cone, t)
        elif kind == 1:
            tgt = sampling.random_commuting_target(rng, cone, t)
            if j % 8 == 5:
                tgt = _conjugated(tgt, sampling.random_unitary(rng, t))
        elif kind == 2:
            if is_simplex(cone):
                tgt = _indefinite_target(rng, cone, t)
            else:
                tgt = elliptic_cone_pencil(float(rng.uniform(0.2, 1.3)))
        else:
            tgt = _random_target(rng, cone, t, spread=0.4 if j < 4 else 0.05)
        if j % 3 == 2:
            tgt = _rescaled_pencil(tgt, 10.0 ** int(rng.integers(-3, 4)))
        out.append(tgt)
    return out


def _diagonal_sources():
    rng = np.random.default_rng(80)
    simplices = [sampling.random_simplex_cone(rng, d) for d in (2, 3, 4)]
    polygons = [_regular_polygon(k) for k in range(4, 9)]
    return simplices + polygons


# commuting targets with t < d have dependent matrices, which pencils report
@pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
class TestDiagonalRelaxation:
    """A diagonal source is decided as smallest-system membership of the
    target over the facet cone; the Choi SDP is the reference."""

    @pytest.mark.parametrize("index", range(8))
    def test_agrees_with_choi(self, index):
        cone = _diagonal_sources()[index]
        rng = np.random.default_rng(90 + index)
        src = diagonal_pencil(cone)
        definitive = (RelaxationStatus.FEASIBLE, RelaxationStatus.INFEASIBLE)
        statuses = set()
        for tgt in _diagonal_targets(rng, cone):
            res = relaxation(src, tgt)
            ref = containment._sdp_relaxation(src.stack, tgt.stack)
            assert res.status in definitive, res.message
            assert _relaxation_certificate_ok(src, tgt, res)
            if ref.status in definitive:
                assert res.status is ref.status, f"t={tgt.r}"
            statuses.add(res.status)
        assert statuses == set(definitive)

    @pytest.mark.parametrize("index", [1, 4, 7])
    def test_unitary_conjugated_source_agrees(self, index):
        # U* M U is not diagonal, so it takes the Choi path
        cone = _diagonal_sources()[index]
        rng = np.random.default_rng(100 + index)
        src = diagonal_pencil(cone)
        for tgt in _diagonal_targets(rng, cone)[:4]:
            rotated = _conjugated(src, sampling.random_unitary(rng, src.r))
            assert containment._diagonal_facets(rotated) is None
            res = relaxation(rotated, tgt)
            assert res.status is relaxation(src, tgt).status
            assert _relaxation_certificate_ok(rotated, tgt, res)

    def test_feasible_weights_are_checked_once_as_a_choi_matrix(self, monkeypatch, solve_calls):
        # on every path of a diagonal source a Feasible answer is checked by
        # check_relaxation_feasible alone, the check of its document
        def forbidden(*args):
            raise AssertionError("check_min_member run on a relaxation")

        monkeypatch.setattr(certificates, "check_min_member", forbidden)
        rng = np.random.default_rng(140)
        simplex = sampling.random_simplex_cone(rng, 3)
        octagon = _regular_polygon(8)
        cases = (
            (simplex, sampling.random_target_for_simplex(rng, simplex, 3), 0),
            (octagon, sampling.random_commuting_target(rng, octagon, 3), 0),
            (octagon, _random_target(rng, octagon, 3, spread=0.2), 1),
        )
        for cone, tgt, solves in cases:
            src = diagonal_pencil(cone)
            before = len(solve_calls)
            res = relaxation(src, tgt)
            assert res.status is RelaxationStatus.FEASIBLE
            assert len(solve_calls) - before == solves
            assert _relaxation_certificate_ok(src, tgt, res)

    def test_no_choi_block_on_a_diagonal_source(self, monkeypatch):
        from freespec import _kernels

        shapes = []
        real = _kernels.eigh_kernel

        def recording(a):
            shapes.append(a.shape)
            return real(a)

        def forbidden(*args):
            raise AssertionError("Choi problem built for a diagonal source")

        monkeypatch.setattr(_kernels, "eigh_kernel", recording)
        monkeypatch.setattr(containment, "_choi_problem", forbidden)
        rng = np.random.default_rng(81)
        octagon = _regular_polygon(8)
        src = diagonal_pencil(octagon)
        feasible = sampling.random_commuting_target(rng, octagon, 6)
        infeasible = _random_target(rng, octagon, 6, spread=2.0)
        for tgt, status in ((feasible, RelaxationStatus.FEASIBLE),
                            (infeasible, RelaxationStatus.INFEASIBLE)):
            shapes.clear()
            assert relaxation(src, tgt).status is status
            assert shapes
            assert max(shape[-1] for shape in shapes) <= 6


def _inclusion_instances(rng, n):
    """(cone, target) pairs shaped like the `inclusion` benchmark: simplex
    cones with included targets, 4-8-gons with commuting targets, and the
    square and 5-6-gons with elliptic targets; t runs over 2..6."""
    out = []
    for i in range(n):
        family, j = i % 3, i // 3
        t = 2 + j % 5
        if family == 0:
            cone = sampling.random_simplex_cone(rng, 2 + (j // 5) % 3)
            tgt = sampling.random_target_for_simplex(rng, cone, t)
        elif family == 1:
            cone = _regular_polygon(4 + (j // 5) % 5, rng.uniform(0, 2 * math.pi))
            tgt = sampling.random_commuting_target(rng, cone, t)
        else:
            k = 4 + j % 3
            cone = square_cone() if k == 4 else _regular_polygon(k, rng.uniform(0, 2 * math.pi))
            tgt = elliptic_cone_pencil(rng.uniform(0.2, math.pi / 2 - 0.2))
        out.append((cone, tgt))
    return out


def _relaxation_status(src, tgt):
    """The relaxation status of check_inclusion, its certificate verified."""
    verdict = check_inclusion(src, tgt)
    rel = verdict.relaxation
    assert rel.status is not RelaxationStatus.UNKNOWN, rel.message
    assert _relaxation_certificate_ok(diagonal_pencil(src), tgt, rel)
    return rel.status


@pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
class TestInclusionSymmetries:
    """The relaxation status is invariant under unitary conjugation of the
    target and under reordering of the source generators."""

    def test_conjugated_target(self):
        rng = np.random.default_rng(330)
        seen = set()
        for src, tgt in _inclusion_instances(rng, 90):
            rotated = _conjugated(tgt, sampling.random_unitary(rng, tgt.r))
            want = _relaxation_status(src, tgt)
            assert _relaxation_status(src, rotated) is want
            seen.add(want)
        assert seen == {RelaxationStatus.FEASIBLE, RelaxationStatus.INFEASIBLE}

    def test_reordered_source_generators(self):
        rng = np.random.default_rng(331)
        for src, tgt in _inclusion_instances(rng, 90):
            gens = src.generators[rng.permutation(src.n_generators)]
            reordered = PolyhedralCone.from_generators(gens, unit=src.unit)
            assert _relaxation_status(reordered, tgt) is _relaxation_status(src, tgt)


def _cube():
    gens = np.array([[x, y, z, 1.0] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    return PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.0, 0.0, 1.0]))


class TestMarginStartOnDiagonalSources:
    """The margin SDP of a diagonal-source relaxation, over the source's
    facet rows F with h = the source's unit (F u = 1, so never rescaled),
    starts exactly feasible and strictly interior."""

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8, "cube"])
    def test_start_is_exact_and_interior(self, k, exact_margin_start):
        cone = _cube() if k == "cube" else _regular_polygon(k)
        rng = np.random.default_rng(440 + cone.n_facets)
        src = diagonal_pencil(cone)
        facets = containment._diagonal_facets(src)
        targets = [_random_target(rng, cone, t, spread) for t in (2, 3) for spread in (0.05, 2.0)]
        if cone.dim == 3:
            targets += [elliptic_cone_pencil(0.4), elliptic_cone_pencil(1.2)]
        for tgt in targets:
            rows = exact_margin_start(facets, tgt.stack, src.unit)
            assert np.all(rows == 1.0)
            res = relaxation(src, tgt)
            assert res.status is not RelaxationStatus.UNKNOWN, res.message
            assert _relaxation_certificate_ok(src, tgt, res)


def _facet_target(cone, rows):
    """The diagonal pencil of the chosen facet rows, unital at the cone's unit."""
    f = cone.facets[rows] / (cone.facets[rows] @ cone.unit)[:, None]
    return LinearPencil([np.diag(col) for col in f.T], cone.unit)


@pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
class TestCommutingRelaxation:
    """A commuting target over a diagonal k-gon source is decided per joint
    eigenvector with no SDP; the Choi SDP is the reference."""

    @pytest.mark.parametrize("k", [4, 6, 7])
    def test_agrees_with_choi_and_skips_the_sdp(self, k, solve_calls):
        rng = np.random.default_rng(120 + k)
        cone = _regular_polygon(k)
        src = diagonal_pencil(cone)
        definitive = (RelaxationStatus.FEASIBLE, RelaxationStatus.INFEASIBLE)
        rotated = _regular_polygon(k, 0.3 + math.pi / k)
        cases = (
            (sampling.random_commuting_target(rng, cone, 3), RelaxationStatus.FEASIBLE),
            # facet rows lie on rays of the facet cone: zero weights
            (_facet_target(cone, [0, 2]), RelaxationStatus.FEASIBLE),
            # built for the polygon rotated by half a step
            (sampling.random_commuting_target(rng, rotated, 3), None),
            (_facet_target(rotated, [0, 1, 2]), RelaxationStatus.INFEASIBLE),
        )
        statuses = set()
        for base, want in cases:
            for u in (None, sampling.random_unitary(rng, base.r)):
                for e in (-6, 0, 6):
                    tgt = base if u is None else _conjugated(base, u)
                    tgt = _rescaled_pencil(tgt, 10.0**e)
                    before = len(solve_calls)
                    res = relaxation(src, tgt)
                    assert len(solve_calls) == before, f"scale 1e{e}"
                    assert res.status in definitive
                    assert want is None or res.status is want, f"scale 1e{e}"
                    assert _relaxation_certificate_ok(src, tgt, res)
                    # at 1e6 the Choi SDP can answer Unknown on a boundary
                    # target: its Farkas witness fails the checker
                    ref = containment._sdp_relaxation(src.stack, tgt.stack)
                    if ref.status in definitive:
                        assert _relaxation_certificate_ok(src, tgt, ref)
                        assert res.status is ref.status, f"scale 1e{e}"
                    statuses.add(res.status)
        assert statuses == set(definitive)

    def test_off_diagonal_perturbation_reaches_the_sdp(self, solve_calls):
        # an infeasible target: a feasible one with PSD min-norm weights
        # needs no SDP
        rng = np.random.default_rng(130)
        cone = _regular_polygon(5)
        rotated = _regular_polygon(5, 0.3 + math.pi / 5)
        tgt = _conjugated(_facet_target(rotated, [0, 1, 2]), sampling.random_unitary(rng, 3))
        # the unit is e_3, so bumping N_1 and N_2 keeps the pencil unital
        bumps = [1e-4 * linalg.random_hermitian(rng, 3) for _ in range(2)] + [0.0]
        bumped = LinearPencil([m.mat + b for m, b in zip(tgt.matrices, bumps)], tgt.unit)
        src = diagonal_pencil(cone)
        res = relaxation(src, bumped)
        assert len(solve_calls) == 1
        assert res.status is RelaxationStatus.INFEASIBLE
        assert _relaxation_certificate_ok(src, bumped, res)
        assert res.status is containment._sdp_relaxation(src.stack, bumped.stack).status


@pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
class TestChoiScaleInvariance:
    """The Choi-matrix relaxation of a non-diagonal source gives the verdict
    of scale 1 for targets rescaled from 1e-8 to 1e8, and every
    certificate verifies."""

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_verdict_is_scale_invariant(self, k):
        rng = np.random.default_rng(140 + k)
        cone = _regular_polygon(k)
        src = diagonal_pencil(cone)
        rotated = _conjugated(src, sampling.random_unitary(rng, src.r))
        assert containment._diagonal_facets(rotated) is None
        targets = [sampling.random_commuting_target(rng, cone, t) for t in (2, 3)]
        targets.append(elliptic_cone_pencil(0.7))
        for base in targets:
            want = relaxation(rotated, base).status
            assert want is not RelaxationStatus.UNKNOWN
            for e in range(-8, 9, 2):
                tgt = _rescaled_pencil(base, 10.0**e)
                res = relaxation(rotated, tgt)
                assert res.status is want, f"t={tgt.r} scale 1e{e}: {res.message}"
                assert _relaxation_certificate_ok(rotated, tgt, res), f"scale 1e{e}"


@pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
class TestChoiBoundaryTargets:
    """A facet target on the boundary of the feasible set: the Choi SDP
    takes the same steps at every scale of the target and answers
    Feasible with J scaled by it.  The solve amplifies the rounding of
    10^e N near the boundary, to about 1e-9 of |J|."""

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_the_solve_is_scale_invariant(self, k):
        rng = np.random.default_rng(150 + k)
        cone = _regular_polygon(k)
        src = _conjugated(diagonal_pencil(cone), sampling.random_unitary(rng, k)).stack
        tgt = _facet_target(cone, [0, 2]).stack
        ref = sdp.solve(containment._choi_problem(src, tgt))
        assert ref.status is sdp.SdpStatus.FEASIBLE
        for e in range(-8, 9):
            out = sdp.solve(containment._choi_problem(src, 10.0**e * tgt))
            assert out.status is ref.status and out.iterations == ref.iterations, f"scale 1e{e}"
            gap = np.linalg.norm(out.primal[0] / 10.0**e - ref.primal[0])
            assert gap <= 1e-8 * np.linalg.norm(ref.primal[0]), f"scale 1e{e}"


@pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
class TestDependentChoiSource:
    """A non-diagonal source with a repeated matrix: a target that breaks
    the repetition is Infeasible in closed form, one that keeps it is
    decided on the independent matrices, and both certificates verify."""

    def test_repeated_matrix(self, solve_calls):
        rng = np.random.default_rng(160)
        base = _conjugated(diagonal_pencil(square_cone()), sampling.random_unitary(rng, 4))
        src = LinearPencil([*base.stack, base.stack[2]], np.r_[base.unit, 0.0])
        tgt = sampling.random_commuting_target(rng, square_cone(), 2)
        unit = np.r_[tgt.unit, 0.0]
        kept = LinearPencil([*tgt.stack, tgt.stack[2]], unit)
        res = relaxation(src, kept)
        assert res.status is relaxation(base, tgt).status is RelaxationStatus.FEASIBLE
        assert _relaxation_certificate_ok(src, kept, res)
        assert len(solve_calls) == 2

        broken = LinearPencil([*tgt.stack, tgt.stack[2] + 0.1 * SIGMA_Z], unit)
        res = relaxation(src, broken)
        assert res.status is RelaxationStatus.INFEASIBLE
        assert res.farkas.gap == pytest.approx(1.0, abs=1e-12)
        assert _relaxation_certificate_ok(src, broken, res)
        assert len(solve_calls) == 2


class TestFreeWitness:
    def test_margins(self):
        for alpha, expect in (
            (math.pi / 4, 1 - math.sqrt(2)),
            (math.pi / 6, 1 - 0.5 - math.sqrt(3) / 2),
            (math.pi / 3, 1 - math.sqrt(3) / 2 - 0.5),
        ):
            fw = free_witness_square(alpha)
            assert fw.target_margin == pytest.approx(expect, abs=1e-9)
            assert fw.source_margin == pytest.approx(0.0, abs=1e-12)

    def test_commuting_eigenvalue_oracle(self):
        # the two Kronecker terms commute; eigenvalues are 1 +- sin +- cos
        alpha = 0.9
        ev = evaluate(elliptic_cone_pencil(alpha), sz_sx_i())
        got = np.sort(linalg.eigh(ev)[0])
        s, c = math.sin(alpha), math.cos(alpha)
        want = np.sort([1 + s + c, 1 + s - c, 1 - s + c, 1 - s - c])
        assert np.max(np.abs(got - want)) < 1e-12


SKEWED_QUAD = np.array(
    [[2.0, -0.5, 1.0], [-1.0, 1.5, 1.0], [1.2, 1.0, 1.0], [-0.8, -1.0, 1.0]]
)


def _skewed_quad(order=range(4)):
    return PolyhedralCone.from_generators(
        SKEWED_QUAD[list(order)], unit=np.array([0.2, 0.3, 1.0])
    )


def _random_quadrilateral(rng):
    """A convex quadrilateral cone: four points on an ellipse with angular
    gaps in (0.3, pi - 0.2), lifted to height 1, each ray scaled at random,
    in random order, with a random interior unit."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, 4))
        gaps = np.diff(np.append(ang, ang[0] + 2.0 * math.pi))
        if gaps.min() > 0.3 and gaps.max() < math.pi - 0.2:
            break
    pts = np.column_stack([np.cos(ang), np.sin(ang)]) @ rng.normal(size=(2, 2))
    gens = np.column_stack([pts + rng.normal(size=2), np.ones(4)])
    gens = (gens * rng.uniform(0.3, 3.0, 4)[:, None])[rng.permutation(4)]
    return PolyhedralCone(gens, rng.uniform(0.2, 1.0, 4) @ gens)


class TestSquareTypeWitness:
    def test_square_gets_canonical_tuple(self):
        w, _ = square_type_witness(square_cone())
        assert np.array_equal(w.entries[0].mat, SIGMA_Z)
        assert np.array_equal(w.entries[1].mat, SIGMA_X)

    def test_skewed_quadrilateral(self):
        quad = _skewed_quad()
        w, _ = square_type_witness(quad)
        assert max_membership(quad, w).classification is Classification.BOUNDARY
        from freespec.opsys import min_membership

        assert min_membership(quad, w).status is MinMembershipStatus.NOT_MEMBER

    def test_triangle_has_none(self):
        tri = PolyhedralCone.from_generators(
            np.array([[1.0, 0.0, 1.0], [-1.0, -1.0, 1.0], [0.0, 1.0, 1.0]]),
            unit=np.array([0.0, 0.0, 1.0]),
        )
        assert square_type_witness(tri) is None

    def test_random_quadrilaterals(self):
        from freespec.opsys import min_membership

        rng = np.random.default_rng(19)
        for _ in range(12):
            quad = _random_quadrilateral(rng)
            g = quad.generators / np.linalg.norm(quad.generators, axis=1)[:, None]
            images = containment._quad_map_from_square(quad) @ cones.SQUARE_RAYS.T
            # each square ray lands on a positive multiple of a distinct source ray
            images /= np.linalg.norm(images, axis=0)
            match = np.argmax(g @ images, axis=0)
            assert sorted(match) == [0, 1, 2, 3]
            assert np.max(np.abs(g[match] - images.T)) < 1e-12
            w, _ = square_type_witness(quad)
            assert max_membership(quad, w).classification is Classification.BOUNDARY
            assert min_membership(quad, w).status is MinMembershipStatus.NOT_MEMBER

    def test_generator_order_does_not_change_the_witness(self):
        targets = [elliptic_cone_pencil(a) for a in (0.4, math.pi / 4, 1.2)]
        want = None
        for order in itertools.permutations(range(4)):
            quad = _skewed_quad(order)
            w, _ = square_type_witness(quad)
            got = (
                [membership(t, w).margin for t in targets],
                [check_inclusion(quad, t).free_witness is not None for t in targets],
            )
            if want is None:
                want = got
            assert np.max(np.abs(np.subtract(got[0], want[0]))) < 1e-12, order
            assert got[1] == want[1], order

    @pytest.mark.parametrize("source", [square_cone, _skewed_quad], ids=["square", "skewed"])
    def test_source_margin_from_its_one_check(self, monkeypatch, source):
        # check_inclusion evaluates the witness in the source's largest
        # system once, and reports that margin bit for bit
        src = source()
        calls = []
        real = containment.max_membership

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(containment, "max_membership", counting)
        w = check_inclusion(src, elliptic_cone_pencil(math.pi / 4)).free_witness
        assert w is not None
        assert len(calls) == 1
        assert w.source_margin == real(src, w.tuple).margin

    def test_quadrilateral_witness_is_the_per_entry_sum(self):
        # B_i = sum_j L_ij A_j, the bits of one Python sum per entry over
        # the square's witness as a checked tuple
        base = sz_sx_i().stack
        rng = np.random.default_rng(52)
        quads = [_skewed_quad()] + [_random_quadrilateral(rng) for _ in range(20)]
        for quad in quads:
            l = containment._quad_map_from_square(quad)
            want = MatrixTuple([sum(c * m for c, m in zip(row, base)) for row in l])
            w, _ = square_type_witness(quad)
            assert w.stack.tobytes() == want.stack.tobytes()
        w, _ = square_type_witness(square_cone())
        assert w.stack.tobytes() == base.tobytes()

    def test_builds_no_cone(self, monkeypatch):
        sources = [square_cone(), _skewed_quad(), TestPentagonNonTightness._pentagon()]

        def forbidden(*args, **kwargs):
            raise AssertionError("square_type_witness built a cone")

        monkeypatch.setattr(PolyhedralCone, "__init__", forbidden)
        found = [square_type_witness(src) is not None for src in sources]
        assert found == [True, True, False]


class TestCheckInclusion:
    def test_simplex_holds_feasible(self):
        rng = np.random.default_rng(63)
        cone = sampling.random_simplex_cone(rng, 3)
        tgt = sampling.random_target_for_simplex(rng, cone, 2)
        v = check_inclusion(cone, tgt)
        assert v.scalar.holds
        assert v.relaxation.status is RelaxationStatus.FEASIBLE
        assert v.free_witness is None

    def test_square_elliptic_gap(self):
        v = check_inclusion(square_cone(), elliptic_cone_pencil(math.pi / 3))
        assert v.scalar.holds
        assert v.relaxation.status is RelaxationStatus.INFEASIBLE
        assert v.free_witness is not None
        assert v.free_witness.target_margin == pytest.approx(
            1 - math.sin(math.pi / 3) - math.cos(math.pi / 3), abs=1e-9
        )

    def test_square_self_feasible(self):
        sq = square_cone()
        v = check_inclusion(sq, diagonal_pencil(sq))
        assert v.relaxation.status is RelaxationStatus.FEASIBLE
        assert v.free_witness is None

    def test_hkm_consistency(self):
        # whenever a free witness exists the relaxation is never feasible
        for alpha in (0.4, math.pi / 4, 1.2):
            v = check_inclusion(square_cone(), elliptic_cone_pencil(alpha))
            if v.free_witness is not None:
                assert v.relaxation.status is not RelaxationStatus.FEASIBLE


class TestCheckInclusionBuildsNoObjects:
    """`check_inclusion` decides a cone source on its facets: like
    `scaling_bound` (`TestScalingBoundBuildsNoObjects`), it constructs no
    cone, simplex cone or pencil, and at most one tuple, the level-2
    candidate, which only a square or quadrilateral source reaches."""

    @pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
    def test_sources_against_elliptic_and_commuting_targets(self, monkeypatch):
        rng = np.random.default_rng(43)
        simplex = sampling.random_simplex_cone(rng, 3)
        octagon = _regular_polygon(8)
        cases = [
            (simplex, elliptic_cone_pencil(0.7), False),
            (octagon, sampling.random_commuting_target(rng, octagon, 3), False),
            (square_cone(), elliptic_cone_pencil(math.pi / 4), True),
            (_skewed_quad(), elliptic_cone_pencil(math.pi / 4), True),
            (TestPentagonNonTightness._pentagon(), elliptic_cone_pencil(1.0), False),
            (_regular_polygon(6), elliptic_cone_pencil(1.0), False),
        ]
        built = []
        for cls in (PolyhedralCone, cones.SimplexCone, LinearPencil, MatrixTuple):
            def counting(self, *args, real=cls.__init__, name=cls.__name__, **kwargs):
                built.append(name)
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        statuses = []
        for src, tgt, witness in cases:
            built.clear()
            v = check_inclusion(src, tgt)
            statuses.append(v.relaxation.status)
            assert (v.free_witness is not None) is witness
            assert built == ["MatrixTuple"] * witness
        # the pentagon and the hexagon are refuted, so the witness search ran
        assert statuses[1:] == [RelaxationStatus.FEASIBLE] + [RelaxationStatus.INFEASIBLE] * 4


@pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
def test_check_inclusion_decides_as_the_diagonal_pencil_bitwise():
    # check_inclusion decides on the cone's facets; relaxation reads them
    # back from the pencil, whose stack, the one its certificate refers to,
    # is the array the core builds: the answers agree bit for bit
    rng = np.random.default_rng(44)
    statuses = set()
    for src, tgt in _inclusion_instances(rng, 45):
        diag = diagonal_pencil(src)
        assert diag.stack.tobytes() == pencil._diagonal_stack(src.facets).tobytes()
        want = relaxation(diag, tgt)
        got = check_inclusion(src, tgt).relaxation
        statuses.add(got.status)
        assert (got.status, got.message) == (want.status, want.message)
        if got.status is RelaxationStatus.FEASIBLE:
            assert got.certificate.choi.tobytes() == want.certificate.choi.tobytes()
            assert [v.tobytes() for v in got.certificate.kraus] == [
                v.tobytes() for v in want.certificate.kraus]
            assert got.certificate.residual == want.certificate.residual
        if got.status is RelaxationStatus.INFEASIBLE:
            assert got.farkas.y_matrices.tobytes() == want.farkas.y_matrices.tobytes()
            assert (got.farkas.gap, got.farkas.lambda_max) == (
                want.farkas.gap, want.farkas.lambda_max)
    assert statuses == {RelaxationStatus.FEASIBLE, RelaxationStatus.INFEASIBLE}


class TestPentagonNonTightness:
    """A non-simplex source beyond the square family also shows the gap."""

    @staticmethod
    def _pentagon():
        pts = [
            [math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5), 1.0]
            for k in range(5)
        ]
        return PolyhedralCone.from_generators(
            np.array(pts), unit=np.array([0.0, 0.0, 1.0])
        )

    def test_scalar_holds_relaxation_fails(self):
        pent = self._pentagon()
        tgt = elliptic_cone_pencil(1.0)
        si = scalar_inclusion(pent, tgt)
        assert si.holds
        assert float(si.margins.min()) > 0.1  # strictly inside at level 1
        rel = relaxation(diagonal_pencil(pent), tgt)
        assert rel.status is RelaxationStatus.INFEASIBLE
        fk = rel.farkas
        big = sum(
            np.kron(diagonal_pencil(pent).stack[i].T, fk.y_matrices[i])
            for i in range(3)
        )
        assert np.linalg.eigvalsh(big).max() <= 1e-7
        assert fk.gap == pytest.approx(1.0, abs=1e-9)

    def test_separation_chain_on_gap_tuples(self):
        from freespec.opsys import effros_winkler_separation, min_membership

        pent = self._pentagon()
        rng = np.random.default_rng(71)
        found = 0
        for _ in range(100):
            a = containment.random_max_tuple(pent, 2, rng)
            res = min_membership(pent, a)
            if res.status is not MinMembershipStatus.NOT_MEMBER:
                continue
            found += 1
            q = effros_winkler_separation(res.separator, pent.unit)
            assert membership(q, a).margin < -1e-9
            for _ in range(25):
                member = sampling.random_min_member(rng, pent, 2)
                scale = 1 + max(np.linalg.norm(e.mat) for e in member.entries)
                assert membership(q, member).margin >= -1e-8 * scale
            if found >= 3:
                break
        assert found >= 3


class TestScaledMaxInMin:
    def test_half_scale_member(self):
        res = scaled_max_in_min(square_cone(), 0.5, sz_sx_i())
        assert res.status is MinMembershipStatus.MEMBER

    def test_closed_form_decomposition_oracle(self):
        # explicit weights for (sz/2, sx/2, I): P3 = I/4 + (sz+sx)/8 etc.
        sz, sx, eye = SIGMA_Z, SIGMA_X, np.eye(2)
        p = [
            eye / 4 + (sz - sx) / 8,
            eye / 4 - (sz - sx) / 8,
            eye / 4 + (sz + sx) / 8,
            eye / 4 - (sz + sx) / 8,
        ]
        gens = square_cone().generators
        recon = [sum(gens[k, i] * p[k] for k in range(4)) for i in range(3)]
        assert np.allclose(recon[0], sz / 2)
        assert np.allclose(recon[1], sx / 2)
        assert np.allclose(recon[2], eye)
        for pk in p:
            w = np.linalg.eigvalsh(pk)
            assert w.min() == pytest.approx(0.25 - math.sqrt(2) / 8, abs=1e-12)
            assert w.min() > 0

    def test_full_scale_not_member(self):
        res = scaled_max_in_min(square_cone(), 1.0, sz_sx_i())
        assert res.status is MinMembershipStatus.NOT_MEMBER

    def test_unit_tuple_member_any_scale(self):
        sq = square_cone()
        for nu in (0.1, 0.5, 1.0):
            res = scaled_max_in_min(sq, nu, unit_tuple(sq.unit, 2))
            assert res.status is MinMembershipStatus.MEMBER

    def test_rejects_outside_tuple(self):
        bad = MatrixTuple.of(3 * SIGMA_Z, np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError, match="outside"):
            scaled_max_in_min(square_cone(), 0.5, bad)

    def test_monotone_in_nu(self):
        rng = np.random.default_rng(65)
        sq = square_cone()
        for _ in range(10):
            a = containment.random_max_tuple(sq, 2, rng)
            res_stat = {}
            for nu in (0.9, 0.7, 0.5, 0.3):
                res_stat[nu] = scaled_max_in_min(sq, nu, a).status
            seen_member = False
            for nu in (0.9, 0.7, 0.5, 0.3):
                if res_stat[nu] is MinMembershipStatus.MEMBER:
                    seen_member = True
                elif seen_member:
                    pytest.fail("membership lost as nu decreased")

    def test_symmetric_scaling_sample(self):
        rng = np.random.default_rng(66)
        sq = square_cone()
        for _ in range(10):
            a = containment.random_max_tuple(sq, 2, rng)
            res = scaled_max_in_min(sq, 0.5, a)
            assert res.status is MinMembershipStatus.MEMBER


def _random_max_tuple_per_facet(cone, s, rng):
    """Reference for `containment.random_max_tuple`: one eigensolve per facet."""
    d = cone.dim
    head = [linalg.random_hermitian(rng, s) for _ in range(d - 1)]
    t_req = 0.0
    for k in range(cone.n_facets):
        f = sum(cone.facets[k, i] * head[i] for i in range(d - 1))
        t_req = max(t_req, -min_eigenvalue(f) / cone.facets[k, -1])
    t = t_req + 0.05 * float(rng.random())
    return MatrixTuple(head + [t * np.eye(s)])


class TestRandomMaxTuple:
    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8, "cube"])
    def test_matches_the_per_facet_loop(self, k):
        if k == "cube":  # three head coordinates, summed in order
            gens = [[x, y, z, 1.0] for x in (-1, 1) for y in (-1, 0.5) for z in (-1, 2)]
            cone = PolyhedralCone.from_generators(np.array(gens), unit=np.eye(4)[3])
        else:
            cone = TestScalingBound._polygon(k, rotation=0.1 * k)
        for s in (2, 3):
            got_rng, want_rng = np.random.default_rng(s), np.random.default_rng(s)
            for _ in range(10):
                got = containment.random_max_tuple(cone, s, got_rng)
                want = _random_max_tuple_per_facet(cone, s, want_rng)
                assert np.array_equal(got.stack, want.stack)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestMaxStacks:
    """The (count, d, s, s) draws of `_sampling_verification`."""

    @pytest.mark.parametrize("k", [4, 5, 6, "cube"])
    def test_equal_random_max_tuple_bitwise(self, k):
        if k == "cube":
            gens = [[x, y, z, 1.0] for x in (-1, 1) for y in (-1, 0.5) for z in (-1, 2)]
            cone = PolyhedralCone.from_generators(np.array(gens), unit=np.eye(4)[3])
        else:
            cone = TestScalingBound._polygon(k, rotation=0.1 * k)
        for s in (2, 3):
            got_rng, want_rng = np.random.default_rng(s), np.random.default_rng(s)
            got = containment._max_stacks(cone, s, got_rng, 10)
            want = [containment.random_max_tuple(cone, s, want_rng).stack for _ in range(10)]
            assert np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestScalingBound:
    def test_square(self):
        rep = scaling_bound(square_cone(), [0, 0, 1])
        assert rep.nu_general == pytest.approx(0.25)
        assert rep.nu_symmetric == pytest.approx(0.5)
        assert rep.certified_nu >= 1.0 / 3.0 - 1e-9
        assert rep.certificate is not None

    def test_triangle_simplex(self):
        tri = PolyhedralCone.from_generators(
            np.array([[1.0, 0.0, 1.0], [-1.0, -1.0, 1.0], [0.0, 1.0, 1.0]]),
            unit=np.array([0.0, 0.0, 1.0]),
        )
        rep = scaling_bound(tri, [0, 0, 1])
        assert rep.certified_nu == pytest.approx(1.0)
        assert rep.nu_symmetric is None

    def test_sampling_verification(self):
        rep = scaling_bound(square_cone(), [0, 0, 1], verify_samples=5, seed=7)
        assert rep.sampling["nu_symmetric"]["members"] == 5
        assert rep.sampling["nu_general"]["members"] == 5

    @staticmethod
    def _polygon(k, rotation=0.0):
        ang = rotation + 2.0 * math.pi * np.arange(k) / k
        gens = np.column_stack([np.cos(ang), np.sin(ang), np.ones(k)])
        return PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize(
        "k, nu", [(4, 1.0 / 3.0), (5, (math.sqrt(5.0) - 1.0) / 4.0), (6, 0.5)]
    )
    def test_exact_factor(self, k, nu):
        # the best pool factor exactly, not a bisection's lower estimate
        cone = square_cone() if k == 4 else self._polygon(k)
        rep = scaling_bound(cone, [0, 0, 1])
        assert rep.certified_nu == pytest.approx(nu, abs=1e-12)

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_certificate_and_optimality(self, k):
        rotation = float(np.random.default_rng(100 + k).uniform(0.0, 2.0 * math.pi))
        cone = self._polygon(k, rotation)
        normal = cone.facets.mean(axis=0)
        rep = scaling_bound(cone, normal)
        doc = certificates.sandwich_cert(cone, rep.certified_nu, normal, rep.certificate)
        check = certificates.verify_certificate(doc)
        assert check.ok and check.residual <= 1e-12
        nu = rep.certified_nu
        assert find_sandwich_simplex(cone, nu, normal) is not None
        assert find_sandwich_simplex(cone, min(1.0, nu + 1e-6), normal) is None

    @pytest.mark.parametrize(
        "normal", [[0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0], [[0.0, 0.0, 1.0]]]
    )
    def test_a_normal_of_other_than_d_finite_numbers_is_an_input_error(self, normal):
        with pytest.raises(ValueError, match="^h_normal: expected 3 finite numbers$"):
            scaling_bound(square_cone(), normal)

    @pytest.mark.parametrize("normal", [[1.0, 0.0, 0.0], [2.0, 0.0, 1.0]])
    def test_a_normal_with_no_bounded_section_names_h_normal(self, normal):
        with pytest.raises(ValueError, match="^h_normal: "):
            scaling_bound(square_cone(), normal)

    def test_negative_samples_rejected_before_the_search(self, monkeypatch):
        monkeypatch.setattr(containment, "best_sandwich_simplex", _no_search)
        with pytest.raises(ValueError, match="samples must be nonnegative, got -3"):
            scaling_bound(square_cone(), [0, 0, 1], verify_samples=-3)

    def test_sampling_unit_checked_before_the_search(self, monkeypatch):
        cone = PolyhedralCone(cones.SQUARE_RAYS, np.array([0.0, 0.1, 1.0]))
        assert scaling_bound(cone, cone.facets.mean(axis=0)).certificate is not None
        monkeypatch.setattr(containment, "best_sandwich_simplex", _no_search)
        with pytest.raises(ValueError, match="^level-2 sampling requires the unit to be e_d$"):
            scaling_bound(cone, cone.facets.mean(axis=0), verify_samples=2)


class TestScalingBoundBuildsNoObjects:
    """`scaling_bound` works on arrays from the section to the sampled
    stacks: like `verify` (`TestValidateOnce`), it constructs no cone,
    simplex cone, pencil or tuple."""

    def test_polygons_with_samples(self, monkeypatch):
        rng = np.random.default_rng(41)
        shapes = [TestScalingBound._polygon(k, float(rng.uniform(0.0, 2.0 * math.pi)))
                  for k in (4, 5, 6)]
        built = []
        for cls in (PolyhedralCone, cones.SimplexCone, LinearPencil, MatrixTuple):
            def counting(self, *args, real=cls.__init__, name=cls.__name__, **kwargs):
                built.append(name)
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        fallbacks = []
        decide = containment._min_membership

        def fallback(cone, stack):
            fallbacks.append(cone.n_generators)
            return decide(cone, stack)

        monkeypatch.setattr(containment, "_min_membership", fallback)
        for cone in shapes:
            rep = scaling_bound(cone, cone.facets.mean(axis=0), verify_samples=2)
            assert rep.certificate is not None
            assert all(v["members"] == 2 for v in rep.sampling.values())
        assert built == []
        # the square's samples at nu_symmetric = 1/2 > nu* = 1/3 fall back
        assert 4 in fallbacks


def _no_search(sec):
    raise AssertionError("the sandwich search ran")


def _triangle():
    # rays of unequal height above the section, so L is not the mixing alone
    return PolyhedralCone.from_generators(
        np.array([[2.0, 0.0, 2.0], [-1.0, -1.0, 1.0], [0.0, 3.0, 3.0]]),
        unit=np.array([0.0, 0.0, 1.0]),
    )


def _uneven_pentagon():
    cone = _regular_polygon(5)
    rays = cone.generators * np.arange(1.0, 6.0)[:, None]
    return PolyhedralCone.from_generators(rays, unit=cone.unit)


class TestSandwichSampling:
    """The stacked decision of `_sampling_verification` through the
    sandwich simplex, against one `scaled_max_in_min` per sample over the
    same draws."""

    SAMPLES = 12
    SEED = 29
    H = [0.0, 0.0, 1.0]

    @pytest.mark.parametrize(
        "make, nu, falls_back",
        [
            (square_cone, 0.25, False),
            (square_cone, 0.5, True),  # above the square's nu* = 1/3
            (_uneven_pentagon, 0.25, False),
            (lambda: _regular_polygon(6), 0.25, False),
            (lambda: _regular_polygon(6), 0.5, False),  # nu* = 1/2 up to rounding
            (_triangle, 0.25, False),
        ],
        ids=["square-1/4", "square-1/2", "pentagon-1/4", "hexagon-1/4", "hexagon-1/2",
             "simplex-1/4"],
    )
    def test_matches_per_sample_decisions(self, monkeypatch, make, nu, falls_back):
        cone = make()
        _, simplex, combination = cones.best_sandwich_simplex(cones.section_of(cone, self.H))
        assert np.all(combination >= 0.0)
        rays = combination @ cone.generators
        assert np.max(np.abs(rays - simplex)) <= tolerances.GEOM_TOL

        rng = np.random.default_rng(self.SEED)
        want = sum(
            scaled_max_in_min(cone, nu, containment.random_max_tuple(cone, 2, rng)).status
            is MinMembershipStatus.MEMBER
            for _ in range(self.SAMPLES)
        )

        # checks made outside the fallback are the closed-form ones
        closed, fallback, in_fallback = [], [], [False]
        check_min_member = certificates.check_min_member
        per_sample = containment._min_membership

        def check(gens, stack, weights):
            res = check_min_member(gens, stack, weights)
            if not in_fallback[0]:
                closed.append(res.ok)
            return res

        def decide(cone, stack):
            in_fallback[0] = True
            res = per_sample(cone, stack)
            in_fallback[0] = False
            fallback.append(res.status is MinMembershipStatus.MEMBER)
            return res

        monkeypatch.setattr(certificates, "check_min_member", check)
        monkeypatch.setattr(containment, "_min_membership", decide)
        got = containment._sampling_verification(
            cone, combination, (nu, None), self.SAMPLES, self.SEED
        )["nu_general"]
        assert got == {"nu": nu, "samples": self.SAMPLES, "members": want}
        assert len(closed) == self.SAMPLES
        assert len(fallback) == closed.count(False)
        assert want == closed.count(True) + fallback.count(True)
        assert bool(fallback) is falls_back

    @pytest.mark.parametrize("make", [square_cone, _uneven_pentagon, _triangle])
    def test_mixing_rows_are_convex(self, make):
        sec = cones.section_of(make(), self.H)
        pool, mix = cones._sandwich_candidates(sec)
        assert mix.shape == (len(pool), len(sec.vertices))
        assert np.all(mix >= 0.0)
        assert np.max(np.abs(mix.sum(axis=1) - 1.0)) <= 1e-15
        assert np.max(np.abs(mix @ sec.vertices - pool)) <= tolerances.GEOM_TOL

    def test_no_simplex_decides_every_sample_per_tuple(self):
        sq, rng = square_cone(), np.random.default_rng(self.SEED)
        want = sum(
            scaled_max_in_min(sq, 0.25, containment.random_max_tuple(sq, 2, rng)).status
            is MinMembershipStatus.MEMBER
            for _ in range(3)
        )
        got = containment._sampling_verification(sq, None, (0.25, None), 3, self.SEED)
        assert got["nu_general"]["members"] == want == 3

    def test_outside_draw_is_rejected(self, monkeypatch):
        outside = MatrixTuple.of(3 * SIGMA_Z, np.zeros((2, 2)), np.eye(2))
        monkeypatch.setattr(
            containment, "_max_stacks", lambda cone, s, rng, count: np.array([outside.stack] * count)
        )
        with pytest.raises(ValueError, match="outside the largest system"):
            containment._sampling_verification(square_cone(), None, (0.25, None), 2, 0)


class TestEntangledExample:
    def test_identity_exact(self):
        rep = entangled_example()
        assert rep.identity_residual == 0.0

    def test_blocks_are_paulis(self):
        rep = entangled_example()
        assert np.array_equal(rep.blocks[0], SIGMA_Z)
        assert np.array_equal(rep.blocks[1], SIGMA_X)
        assert np.array_equal(rep.blocks[2], SIGMA_Y)
        assert np.array_equal(rep.blocks[3], np.eye(2))

    def test_partial_transpose_eigenvalue(self):
        rep = entangled_example()
        assert rep.pt_min_eig == pytest.approx(-1.0, abs=1e-12)
        assert rep.pt_min_eig_normalized == pytest.approx(-0.5, abs=1e-12)
        assert rep.entangled
        assert "not a minimal-system realization" in rep.conclusion

    def test_tuple_inside_ball_pencil(self):
        tup = MatrixTuple.of(SIGMA_Z, SIGMA_X, SIGMA_Y, np.eye(2))
        res = membership(ball_pencil(), tup)
        assert res.classification is not Classification.OUTSIDE

    def test_partial_transpose_reference(self):
        # oracle: explicit index permutation on a numbered 4x4 matrix
        m = np.arange(16, dtype=float).reshape(4, 4)
        m = (m + m.T) / 2
        got = partial_transpose(m, (2, 2), subsystem=1)
        want = np.zeros((4, 4))
        for i1 in range(2):
            for j1 in range(2):
                for i2 in range(2):
                    for j2 in range(2):
                        want[2 * i1 + i2, 2 * j1 + j2] = m[2 * i1 + j2, 2 * j1 + i2]
        assert np.allclose(got, want)

    def test_separable_state_stays_psd(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            p = linalg.random_psd(rng, 2)
            q = linalg.random_psd(rng, 2)
            sep = np.kron(p, q) + np.kron(q, p)
            assert min_eigenvalue(partial_transpose(sep)) >= -1e-10
