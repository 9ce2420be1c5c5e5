"""Operator-system oracles: membership, witnesses, separation, thresholds."""

import dataclasses
import math

import numpy as np
import pytest

from freespec import certificates, cones, linalg, opsys, sampling, sdp
from freespec.linalg import SIGMA_X, SIGMA_Z, HermitianMatrix
from freespec.opsys import (
    EssentialBoundaryStatus,
    MinMembershipStatus,
    common_eigenvector_residual,
    compression_obstruction_demo,
    effros_winkler_separation,
    essential_boundary_square,
    lambda1_block,
    lambda2_products,
    max_membership,
    min_membership,
    pauli_witness,
)
from freespec.pencil import Classification, MatrixTuple, elliptic_cone_pencil, membership


def sz_sx_i():
    return MatrixTuple.of(SIGMA_Z, SIGMA_X, np.eye(2))


class TestMaxMembership:
    def test_pauli_pair_boundary(self):
        res = max_membership(cones.square_cone(), sz_sx_i())
        assert res.classification is Classification.BOUNDARY
        assert res.margin == pytest.approx(0.0, abs=1e-12)

    def test_doubled_outside(self):
        res = max_membership(
            cones.square_cone(), MatrixTuple.of(2 * SIGMA_Z.mat, np.zeros((2, 2)), np.eye(2))
        )
        assert res.classification is Classification.OUTSIDE
        assert res.margin == pytest.approx(-1.0, abs=1e-12)
        assert res.worst_facet in (0, 1)  # the c -+ a facets

    def test_unit_tuple_inside(self):
        sq = cones.square_cone()
        for s in (1, 2, 3):
            res = max_membership(sq, MatrixTuple.unit_tuple(sq.unit, s))
            assert res.classification is Classification.INSIDE
            assert res.margin == pytest.approx(1.0, abs=1e-12)


class TestMinMembership:
    def test_orthant_psd_tuple(self):
        orth = cones.PolyhedralCone.from_generators(np.eye(3), unit=np.ones(3))
        a = MatrixTuple.of([[2, 1], [1, 1]], np.eye(2), [[1, 0], [0, 0.5]])
        res = min_membership(orth, a)
        assert res.status is MinMembershipStatus.MEMBER
        assert res.certificate.residual < 1e-6

    def test_pauli_witness_member(self):
        sq = cones.square_cone()
        res = min_membership(sq, pauli_witness(math.pi / 4).tuple)
        assert res.status is MinMembershipStatus.MEMBER
        assert res.certificate.residual < 1e-6
        for w in res.certificate.weights:
            assert linalg.min_eigenvalue(w) >= -1e-7

    def test_pauli_pair_not_member(self):
        sq = cones.square_cone()
        res = min_membership(sq, sz_sx_i())
        assert res.status is MinMembershipStatus.NOT_MEMBER
        sep = res.separator
        assert sep.evaluate(sz_sx_i()) < -1e-7
        assert sep.margin > 0

    def test_separator_soundness_on_members(self):
        sq = cones.square_cone()
        sep = min_membership(sq, sz_sx_i()).separator
        rng = np.random.default_rng(51)
        for _ in range(200):
            member = sampling.random_min_member(rng, sq, 2)
            assert sep.evaluate(member) >= -1e-9

    def test_min_implies_max(self):
        rng = np.random.default_rng(52)
        octahedron = cones.PolyhedralCone.from_generators(
            np.array(
                [
                    [1.0, 0, 0, 1], [-1.0, 0, 0, 1],
                    [0, 1.0, 0, 1], [0, -1.0, 0, 1],
                    [0, 0, 1.0, 1], [0, 0, -1.0, 1],
                ]
            ),
            unit=np.array([0.0, 0.0, 0.0, 1.0]),
        )
        for cone in (cones.square_cone(), octahedron):
            for s in (2, 3):
                for _ in range(25):
                    member = sampling.random_min_member(rng, cone, s)
                    res = max_membership(cone, member, tol=1e-9)
                    assert res.margin >= -1e-9 * (1 + max(e.norm() for e in member.entries))


class TestSimplexCollapse:
    def test_min_equals_max_on_simplex(self):
        rng = np.random.default_rng(53)
        checked = 0
        attempts = 0
        while checked < 500 and attempts < 2000:
            attempts += 1
            cone = sampling.random_simplex_cone(rng, int(rng.integers(2, 5)))
            if attempts % 2:
                a = sampling.random_min_member(rng, cone, 2)
            else:
                a = MatrixTuple(tuple(linalg.random_hermitian(rng, 2) for _ in range(cone.dim)))
            mx = max_membership(cone, a)
            if abs(mx.margin) < 1e-6:
                continue  # skip the tolerance band around the boundary
            mn = min_membership(cone, a)
            assert mn.status in (MinMembershipStatus.MEMBER, MinMembershipStatus.NOT_MEMBER)
            agrees = (mn.status is MinMembershipStatus.MEMBER) == (
                mx.classification is not Classification.OUTSIDE
            )
            assert agrees, f"disagreement at margin {mx.margin}"
            checked += 1
        assert checked == 500


def _rescaled(a, factor):
    return MatrixTuple(tuple(HermitianMatrix(factor * e.mat) for e in a.entries))


def _certificate_ok(cone, a, res):
    if res.status is MinMembershipStatus.MEMBER:
        doc = certificates.min_member_cert(cone, a, res.certificate)
    else:
        doc = certificates.separator_cert(cone, a, res.separator)
    return certificates.verify_certificate(doc).ok


class TestSimplexClosedForm:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("s", [2, 3])
    def test_agrees_with_sdp(self, d, s):
        rng = np.random.default_rng(100 * d + s)
        definitive = (MinMembershipStatus.MEMBER, MinMembershipStatus.NOT_MEMBER)
        for _ in range(2):
            cone = sampling.random_simplex_cone(rng, d)
            member = sampling.random_min_member(rng, cone, s)
            query = MatrixTuple(tuple(linalg.random_hermitian(rng, s) for _ in range(d)))
            for base in (member, query):
                for k in range(-6, 7):
                    a = _rescaled(base, 10.0**k)
                    fast = min_membership(cone, a)
                    ref = opsys._sdp_min_membership(cone, a)
                    assert fast.status in definitive
                    assert _certificate_ok(cone, a, fast)
                    if ref.status in definitive:
                        assert fast.status is ref.status, f"scale 1e{k}"
                        assert _certificate_ok(cone, a, ref)
                    if base is member:
                        assert fast.status is MinMembershipStatus.MEMBER

    def test_clear_instances_skip_the_sdp(self, solve_calls):
        rng = np.random.default_rng(55)
        cone = sampling.random_simplex_cone(rng, 3)
        member = sampling.random_min_member(rng, cone, 2)
        assert min_membership(cone, member).status is MinMembershipStatus.MEMBER
        outside = _rescaled(member, -1.0)
        res = min_membership(cone, outside)
        assert res.status is MinMembershipStatus.NOT_MEMBER
        assert res.separator.evaluate(outside) == pytest.approx(-1.0, abs=1e-6)
        assert _certificate_ok(cone, outside, res)
        assert solve_calls == []

    def test_zero_eigenvalue_reaches_the_sdp(self, solve_calls):
        rng = np.random.default_rng(56)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rank_one = sampling.random_simplex_cone(rng, 3)
        weights = [np.outer(w, w.conj())] + [linalg.random_psd(rng, 2).mat for _ in range(2)]
        cases = [
            # orthant: the weights are the entries, so lambda_min is exactly 0
            (
                cones.PolyhedralCone.from_generators(np.eye(3), unit=np.ones(3)),
                MatrixTuple.of(np.diag([1.0, 0.0]), np.eye(2), np.eye(2)),
            ),
            (
                rank_one,
                MatrixTuple(
                    tuple(
                        HermitianMatrix(sum(g[i] * p for g, p in zip(rank_one.generators, weights)))
                        for i in range(3)
                    )
                ),
            ),
        ]
        for cone, a in cases:
            before = len(solve_calls)
            res = min_membership(cone, a)
            assert len(solve_calls) == before + 1
            assert res.status is opsys._sdp_min_membership(cone, a).status

    def test_non_simplex_uses_the_sdp(self, solve_calls):
        res = min_membership(cones.square_cone(), pauli_witness(math.pi / 4).tuple)
        assert res.status is MinMembershipStatus.MEMBER
        assert len(solve_calls) == 1


class TestWeightProjection:
    def test_perturbed_solver_weights_are_projected(self, monkeypatch):
        # solver weights 2e-6 off the affine set: a reconstruction error of
        # 2e-6, over the 1e-6 limit, unless the weights are projected back
        sq = cones.square_cone()
        a = sampling.random_min_member(np.random.default_rng(58), sq, 2)
        real = sdp.solve

        def perturbed(*args, **kwargs):
            out = real(*args, **kwargs)
            shifted = (HermitianMatrix(out.primal[0].mat + 2e-6 * np.eye(2)),)
            return dataclasses.replace(out, primal=shifted + out.primal[1:])

        monkeypatch.setattr(sdp, "solve", perturbed)
        res = min_membership(sq, a)
        assert res.status is MinMembershipStatus.MEMBER
        assert res.certificate.residual < 1e-9
        assert _certificate_ok(sq, a, res)

    def test_projection_lands_on_the_affine_set(self):
        rng = np.random.default_rng(57)
        sq = cones.square_cone()
        a = sampling.random_min_member(rng, sq, 3)
        stack = np.array([e.mat for e in a.entries])
        p = np.array([linalg.random_psd(rng, 3).mat for _ in range(sq.n_generators)])
        q = opsys._project_weights(np.linalg.pinv(sq.generators.T), sq.generators, stack, p)
        recon = np.tensordot(sq.generators.T, q, axes=1)
        assert np.max(np.abs(recon - stack)) < 1e-12
        # projecting again changes nothing
        q2 = opsys._project_weights(np.linalg.pinv(sq.generators.T), sq.generators, stack, q)
        assert np.max(np.abs(q2 - q)) < 1e-12


class TestPauliWitness:
    def test_alpha_quarter_formula(self):
        w = pauli_witness(math.pi / 4)
        expected = (np.eye(2) - (math.sqrt(2) / 2) * SIGMA_Z.mat + (math.sqrt(2) / 2) * SIGMA_X.mat) / 2
        assert np.allclose(w.components[0].mat, expected)

    def test_pair_sums_identity(self):
        for alpha in (0.2, 0.9, 1.3):
            w = pauli_witness(alpha)
            a1, a2, a3, a4 = (c.mat for c in w.components)
            assert np.allclose(a1 + a2, np.eye(2), atol=1e-14)
            assert np.allclose(a3 + a4, np.eye(2), atol=1e-14)

    def test_orthogonal_projections(self):
        w = pauli_witness(0.7)
        a1, a2, a3, a4 = (c.mat for c in w.components)
        assert np.max(np.abs(a1 @ a2)) < 1e-14
        assert np.max(np.abs(a3 @ a4)) < 1e-14

    def test_idempotent_trace_one(self):
        for alpha in np.linspace(0.1, 1.4, 7):
            for c in pauli_witness(alpha).components:
                assert np.max(np.abs(c.mat @ c.mat - c.mat)) < 1e-9
                assert np.trace(c.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_range(self):
        with pytest.raises(ValueError):
            pauli_witness(0.0)


class TestEssentialBoundary:
    def test_pauli_components_accepted(self):
        res = essential_boundary_square(pauli_witness(math.pi / 3).components)
        assert res.status is EssentialBoundaryStatus.IN_ESSENTIAL_BOUNDARY
        assert res.functional.margin >= 1e-6 - 1e-7

    def test_overlapping_images_rejected(self):
        res = essential_boundary_square([np.eye(2), np.eye(2), 0.5 * np.eye(2), 1.5 * np.eye(2)])
        assert res.status is EssentialBoundaryStatus.NO

    def test_zero_inputs_error(self):
        with pytest.raises(ValueError, match="nonzero"):
            essential_boundary_square([np.zeros((2, 2))] * 4)

    def test_functional_kills_element(self):
        # phi vanishes on the witness: sum_k tr(A_k * (M3 +- D/S)) = 0
        w = pauli_witness(1.1)
        res = essential_boundary_square(w.components)
        phi_val = res.functional.evaluate(w.tuple)
        assert phi_val == pytest.approx(0.0, abs=1e-6)


class TestCircularMinMembership:
    def test_level1_matches_cone(self):
        from freespec.opsys import circular_min_membership

        for pt, cls in (
            ((0.6, 0.8, 1.0), Classification.BOUNDARY),
            ((0.0, 0.0, 1.0), Classification.INSIDE),
            ((1.0, 1.0, 1.0), Classification.OUTSIDE),
        ):
            res = circular_min_membership(MatrixTuple.from_vector(pt))
            assert res.classification is cls

    def test_level2_pauli_pair_outside(self):
        # brute oracle: the commuting Kronecker terms give eigenvalues
        # 1 + (+-1 +- 1), so the minimum is -1
        from freespec.opsys import circular_min_membership

        res = circular_min_membership(sz_sx_i())
        assert res.classification is Classification.OUTSIDE
        assert res.margin == pytest.approx(-1.0, abs=1e-9)


class TestEffrosWinkler:
    def test_fixed_point_on_normalized_pencil(self):
        p = elliptic_cone_pencil(0.6)
        phi = opsys.SeparationFunctional(
            matrices=tuple(HermitianMatrix(np.conj(m.mat)) for m in p.matrices),
            margin=1.0,
        )
        q = effros_winkler_separation(phi, p.unit)
        for a, b in zip(q.matrices, phi.matrices):
            assert np.max(np.abs(a.mat - b.mat)) < 1e-12

    def test_separates_query_and_contains_members(self):
        sq = cones.square_cone()
        res = min_membership(sq, sz_sx_i())
        q = effros_winkler_separation(res.separator, sq.unit)
        drift = np.max(
            np.abs(sum(u * m.mat for u, m in zip(q.unit, q.matrices)) - np.eye(q.r))
        )
        assert drift <= 1e-10
        assert membership(q, sz_sx_i()).margin < -1e-7
        rng = np.random.default_rng(54)
        for s in (1, 2):
            for _ in range(100):
                member = sampling.random_min_member(rng, sq, s)
                res_m = membership(q, member, tol=1e-9)
                scale = 1 + max(e.norm() for e in member.entries)
                assert res_m.margin >= -1e-8 * scale

    def test_singular_unit_matrix_rejected(self):
        phi = opsys.SeparationFunctional(
            matrices=(SIGMA_Z, SIGMA_X, HermitianMatrix(np.diag([1.0, 0.0]))),
            margin=0.0,
        )
        with pytest.raises(ValueError, match="positive"):
            effros_winkler_separation(phi, np.array([0.0, 0.0, 1.0]))


class TestLambda1:
    def test_zero_pair(self):
        z = np.zeros((2, 2))
        assert lambda1_block(z, z) == pytest.approx(0.0, abs=1e-12)

    def test_zero_sigma_z(self):
        assert lambda1_block(np.zeros((2, 2)), SIGMA_Z) == pytest.approx(1.0)

    def test_sigma_pair(self):
        assert lambda1_block(SIGMA_X, SIGMA_Z) == pytest.approx(2.0)

    def test_block_matrix_oracle(self):
        # independent oracle: bisection on lam with eigencheck of the
        # 2s x 2s block matrix [[M + lam I, N], [N, I]]
        rng = np.random.default_rng(55)
        for _ in range(10):
            m = linalg.random_hermitian(rng, 3)
            n = linalg.random_hermitian(rng, 3)

            def block_psd(lam):
                top = np.hstack([m.mat + lam * np.eye(3), n.mat])
                bot = np.hstack([n.mat, np.eye(3)])
                return linalg.min_eigenvalue(HermitianMatrix(np.vstack([top, bot]))) >= -1e-12

            lo, hi = -50.0, 50.0
            for _ in range(60):
                mid = (lo + hi) / 2
                if block_psd(mid):
                    hi = mid
                else:
                    lo = mid
            assert lambda1_block(m, n) == pytest.approx(hi, abs=1e-6)


def random_unit_vectors(rng, s, count):
    v = rng.standard_normal((count, s)) + 1j * rng.standard_normal((count, s))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestLambda2:
    def test_zero_sigma_z(self):
        res = lambda2_products(np.zeros((2, 2)), SIGMA_Z)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        # attained at an eigenvector of sigma_z
        _, rn = common_eigenvector_residual(np.zeros((2, 2)), SIGMA_Z, res.argmax)
        assert rn < 1e-4

    def test_sigma_pair_five_fourths(self):
        res = lambda2_products(SIGMA_X, SIGMA_Z)
        assert res.value == pytest.approx(1.25, abs=1e-9)
        assert res.upper - res.value <= 1e-9

    def test_grid_oracle_agreement(self):
        # the quartic evaluated directly at the returned argmax matches
        res = lambda2_products(SIGMA_X, SIGMA_Z)
        v = res.argmax
        qn = float(np.real(v.conj() @ SIGMA_Z.mat @ v))
        qm = float(np.real(v.conj() @ SIGMA_X.mat @ v))
        assert qn * qn - qm == pytest.approx(res.value, abs=1e-12)

    def test_inequality_thousand_pairs(self):
        rng = np.random.default_rng(56)
        near_equal = 0
        for k in range(1000):
            if k % 10 == 0:
                # commuting pair: equality case with a common eigenvector
                u = sampling.random_unitary(rng, 2)
                m = HermitianMatrix(u @ np.diag(rng.standard_normal(2)) @ u.conj().T)
                n = HermitianMatrix(u @ np.diag(rng.standard_normal(2)) @ u.conj().T)
            else:
                m = linalg.random_hermitian(rng, 2)
                n = linalg.random_hermitian(rng, 2)
            lam1 = lambda1_block(m, n)
            res = lambda2_products(m, n)
            assert res.value <= lam1 + 1e-9
            if abs(res.value - lam1) < 1e-6:
                near_equal += 1
                rm, rn = common_eigenvector_residual(m, n, res.argmax)
                assert rm < 1e-4 and rn < 1e-4
        assert near_equal >= 50  # the commuting subsample must show up

    def test_inequality_3x3_certified_bracket(self):
        rng = np.random.default_rng(57)
        for k in range(1000):
            if k % 10 == 0:
                u = sampling.random_unitary(rng, 3)
                m = HermitianMatrix(u @ np.diag(rng.standard_normal(3)) @ u.conj().T)
                n = HermitianMatrix(u @ np.diag(rng.standard_normal(3)) @ u.conj().T)
            else:
                m = linalg.random_hermitian(rng, 3)
                n = linalg.random_hermitian(rng, 3)
            res = lambda2_products(m, n)
            lam1 = lambda1_block(m, n)
            assert 0.0 <= res.upper - res.value <= 1e-9 * max(1.0, abs(res.value))
            assert res.value <= lam1 + 1e-9
            if abs(res.value - lam1) < 1e-6:
                rm, rn = common_eigenvector_residual(m, n, res.argmax)
                assert rm < 1e-4 and rn < 1e-4

    @pytest.mark.parametrize("s", [2, 3, 5, 8])
    def test_value_attained_and_bracket_tight(self, s):
        rng = np.random.default_rng(58 + s)
        for _ in range(50):
            m = linalg.random_hermitian(rng, s)
            n = linalg.random_hermitian(rng, s)
            res = lambda2_products(m, n)
            assert np.linalg.norm(res.argmax) == pytest.approx(1.0, abs=1e-12)
            assert res.value == opsys._quartic(m.mat, n.mat, res.argmax)
            assert 0.0 <= res.upper - res.value <= 1e-9 * max(1.0, abs(res.value))

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_upper_dominates_random_vectors(self, s):
        rng = np.random.default_rng(59 + s)
        for _ in range(5):
            m = linalg.random_hermitian(rng, s)
            n = linalg.random_hermitian(rng, s)
            v = random_unit_vectors(rng, s, 10_000)
            qn = np.einsum("ki,ij,kj->k", v.conj(), n.mat, v).real
            qm = np.einsum("ki,ij,kj->k", v.conj(), m.mat, v).real
            assert (qn * qn - qm).max() <= lambda2_products(m, n).upper

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_unitary_invariance(self, s):
        rng = np.random.default_rng(60 + s)
        for _ in range(20):
            m = linalg.random_hermitian(rng, s)
            n = linalg.random_hermitian(rng, s)
            u = sampling.random_unitary(rng, s)
            res = lambda2_products(m, n)
            conj = lambda2_products(u.conj().T @ m.mat @ u, u.conj().T @ n.mat @ u)
            scale = 1e-9 * max(1.0, abs(res.value))
            assert conj.value == pytest.approx(res.value, abs=scale)
            assert conj.upper == pytest.approx(res.upper, abs=scale)

    @pytest.mark.parametrize("c", [1e-4, 1.0, 1e4])
    def test_scaling_covariance(self, c):
        # (v*(cN)v)^2 - v*(c^2 M)v = c^2 ((v*Nv)^2 - v*Mv)
        rng = np.random.default_rng(61)
        for s in (2, 3, 5):
            m = linalg.random_hermitian(rng, s)
            n = linalg.random_hermitian(rng, s)
            res = lambda2_products(m, n)
            scaled = lambda2_products(c * c * m.mat, c * n.mat)
            tol = 1e-9 * c * c * max(1.0, abs(res.value))
            assert scaled.value == pytest.approx(c * c * res.value, abs=tol)
            assert scaled.upper == pytest.approx(c * c * res.upper, abs=tol)

    def test_single_point_interval_is_exact(self):
        rng = np.random.default_rng(62)
        res = lambda2_products([[0.5]], [[-2.0]])
        assert res.value == res.upper == 3.5
        for s in (2, 3, 5):
            m = linalg.random_hermitian(rng, s)
            res = lambda2_products(m, 0.7 * np.eye(s))
            assert res.upper == res.value
            # N = alpha*I: the maximum is alpha^2 - lambda_min(M)
            assert res.value == pytest.approx(0.49 - linalg.eigvalsh(m)[0], abs=1e-12)


class TestCompressionDemo:
    def test_r1_dimension_count(self):
        rep = compression_obstruction_demo(1, (math.pi / 4,), trials=100)
        assert rep.required_orthogonal_columns == 2
        assert rep.space_dimension == 1
        assert rep.dimension_obstruction

    def test_r2_obstruction(self):
        rep = compression_obstruction_demo(2, (math.pi / 6, math.pi / 3), trials=100)
        assert rep.required_orthogonal_columns == 4
        assert rep.dimension_obstruction

    def test_monte_carlo_never_orthogonal(self):
        rep = compression_obstruction_demo(
            2, (math.pi / 6, math.pi / 3), trials=10_000, seed=3
        )
        assert rep.min_max_residual >= 1e-3
        assert rep.obstruction_confirmed

    def test_validation(self):
        with pytest.raises(ValueError):
            compression_obstruction_demo(2, (0.5, 0.5))
        with pytest.raises(ValueError):
            compression_obstruction_demo(2, (0.5,))
