"""Operator-system oracles: membership, witnesses, separation, thresholds."""

import math
import warnings

import numpy as np
import pytest

from freespec import _kernels, certificates, cones, containment, linalg, opsys, sampling, sdp, tolerances
from freespec.linalg import SIGMA_X, SIGMA_Z, HermitianMatrix
from freespec.opsys import (
    EssentialBoundaryStatus,
    MinMembershipStatus,
    common_eigenvector_residual,
    effros_winkler_separation,
    essential_boundary_square,
    lambda1_block,
    lambda2_products,
    max_membership,
    min_membership,
    pauli_witness,
)
from freespec.pencil import (
    Classification,
    MatrixTuple,
    diagonal_pencil,
    elliptic_cone_pencil,
    membership,
)

from conftest import unit_tuple


def min_eigenvalue(a) -> float:
    return float(linalg.eigh(a)[0][0])


def sz_sx_i():
    return MatrixTuple.of(SIGMA_Z, SIGMA_X, np.eye(2))


class TestMaxMembership:
    def test_pauli_pair_boundary(self):
        res = max_membership(cones.square_cone(), sz_sx_i())
        assert res.classification is Classification.BOUNDARY
        assert res.margin == pytest.approx(0.0, abs=1e-12)

    def test_doubled_outside(self):
        res = max_membership(
            cones.square_cone(), MatrixTuple.of(2 * SIGMA_Z, np.zeros((2, 2)), np.eye(2))
        )
        assert res.classification is Classification.OUTSIDE
        assert res.margin == pytest.approx(-1.0, abs=1e-12)
        assert res.worst_facet in (0, 1)  # the c -+ a facets

    def test_unit_tuple_inside(self):
        sq = cones.square_cone()
        for s in (1, 2, 3):
            res = max_membership(sq, unit_tuple(sq.unit, s))
            assert res.classification is Classification.INSIDE
            assert res.margin == pytest.approx(1.0, abs=1e-12)

    def test_matches_per_facet_loop(self):
        # reference: one eigendecomposition per facet, first minimum wins
        rng = np.random.default_rng(59)
        for cone in (cones.square_cone(), sampling.random_simplex_cone(rng, 4)):
            for s in (1, 2, 3):
                a = MatrixTuple(tuple(linalg.random_hermitian(rng, s) for _ in range(cone.dim)))
                ref = [
                    min_eigenvalue(sum(f[i] * a.entries[i].mat for i in range(cone.dim)))
                    for f in cone.facets
                ]
                res = max_membership(cone, a)
                assert res.margin == pytest.approx(min(ref), abs=1e-12)
                assert res.worst_facet == int(np.argmin(ref))


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
            assert min_eigenvalue(w) >= -1e-7

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
                    assert res.margin >= -1e-9 * (1 + max(np.linalg.norm(e.mat) for e in member.entries))


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


def _reference_status(cone, a):
    """The verdict of the feasibility SDP sum_k c_k[i] P_k = A_i, one row
    per coordinate i and Hermitian basis element, solved with a zero
    objective: a reference independent of the margin decision."""
    stack = np.array([e.mat for e in a.entries])
    s, m = stack.shape[-1], cone.n_generators
    basis = linalg.hermitian_basis(s)
    coeffs = np.multiply.outer(cone.generators, basis).reshape(m, -1, s, s)
    rhs = np.einsum("aij,dji->da", basis, stack).real.ravel()
    outcome = sdp.solve(sdp.SdpProblem(coeffs, rhs))
    return {
        sdp.SdpStatus.FEASIBLE: MinMembershipStatus.MEMBER,
        sdp.SdpStatus.INFEASIBLE: MinMembershipStatus.NOT_MEMBER,
    }.get(outcome.status, MinMembershipStatus.UNKNOWN)


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
                ref = _reference_status(cone, base)
                for k in range(-6, 7):
                    a = _rescaled(base, 10.0**k)
                    fast = min_membership(cone, a)
                    assert fast.status in definitive
                    assert _certificate_ok(cone, a, fast)
                    if ref in definitive:
                        assert fast.status is ref, f"scale 1e{k}"
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

    def test_zero_eigenvalue_is_decided_in_closed_form(self, solve_calls):
        rng = np.random.default_rng(56)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rank_one = sampling.random_simplex_cone(rng, 3)
        weights = [np.outer(w, w.conj())] + [linalg.random_psd(rng, 2) for _ in range(2)]
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
                        linalg.hermitian(sum(g[i] * p for g, p in zip(rank_one.generators, weights)))
                        for i in range(3)
                    )
                ),
            ),
        ]
        for cone, a in cases:
            res = min_membership(cone, a)
            assert res.status is MinMembershipStatus.MEMBER
            assert _certificate_ok(cone, a, res)
        assert solve_calls == []

    def test_non_simplex_uses_the_sdp(self, solve_calls):
        sq = cones.square_cone()
        # the min-norm weights of the Pauli witness are PSD: no SDP
        witness = pauli_witness(math.pi / 4).tuple
        assert min_membership(sq, witness).status is MinMembershipStatus.MEMBER
        assert solve_calls == []
        res = min_membership(sq, sz_sx_i())
        assert res.status is MinMembershipStatus.NOT_MEMBER
        assert _certificate_ok(sq, sz_sx_i(), res)
        assert len(solve_calls) == 1


class TestNoPhaseOne:
    def test_membership_and_diagonal_relaxations_skip_phase_one(self, monkeypatch):
        # the margin SDP brings its own start: the embedding of a
        # feasibility problem is never built
        def forbidden(*args):
            raise AssertionError("feasibility embedding reached")

        monkeypatch.setattr(sdp, "_embedding", forbidden)
        rng = np.random.default_rng(59)
        sq = cones.square_cone()
        for cone in (sq, _polygon(6), sampling.random_simplex_cone(rng, 3)):
            for a in (sampling.random_min_member(rng, cone, 3), sz_sx_i()):
                for k in (-6, 0, 6):
                    res = min_membership(cone, _rescaled(a, 10.0**k))
                    assert res.status is not MinMembershipStatus.UNKNOWN, res.message
        statuses = {
            containment.relaxation(diagonal_pencil(src), elliptic_cone_pencil(alpha)).status
            for src in (sq, _polygon(5)) for alpha in (0.4, math.pi / 4)
        }
        assert statuses == {containment.RelaxationStatus.INFEASIBLE}


def _polygon(k, rotation=0.3):
    ang = rotation + 2 * math.pi * np.arange(k) / k
    gens = np.column_stack([np.cos(ang), np.sin(ang), np.ones(k)])
    return cones.PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.0, 1.0]))


def _cube():
    gens = np.array([[x, y, z, 1.0] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    return cones.PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.0, 0.0, 1.0]))


def _commuting_tuple(ell, u=None):
    """A_i = U* diag(ell[:, i]) U: joint eigenvalue vectors ell_j, the rows."""
    u = np.eye(len(ell)) if u is None else u
    return MatrixTuple.of(*(u.conj().T @ np.diag(col) @ u for col in ell.T))


def _inside_rows(rng, cone, s):
    return rng.random((s, cone.n_generators)) @ cone.generators


def _outside_rows(rng, cone, s):
    """Rows of a polygon rotated by half a step: its vertices lie outside."""
    k = cone.n_generators
    rows = _inside_rows(rng, cone, s)
    rows[0] = _polygon(k, 0.3 + math.pi / k).generators[int(rng.integers(k))]
    return rows


class TestCommutingStacks:
    """Commuting tuples over non-simplex cones are decided per joint
    eigenvector, in closed form; the SDP is the reference."""

    @pytest.mark.parametrize("k", [4, 5, 8])
    def test_agrees_with_sdp(self, k, solve_calls):
        rng = np.random.default_rng(200 + k)
        cone = _polygon(k)
        definitive = (MinMembershipStatus.MEMBER, MinMembershipStatus.NOT_MEMBER)
        s = 2 + k % 2
        for rows, want in ((_inside_rows(rng, cone, s), MinMembershipStatus.MEMBER),
                           (_outside_rows(rng, cone, s), MinMembershipStatus.NOT_MEMBER)):
            for u in (None, sampling.random_unitary(rng, s)):
                base = _commuting_tuple(rows, u)
                ref = _reference_status(cone, base)
                if ref in definitive:
                    assert ref is want
                for e in range(-6, 7):
                    a = _rescaled(base, 10.0**e)
                    before = len(solve_calls)
                    fast = min_membership(cone, a)
                    assert len(solve_calls) == before, f"scale 1e{e}"
                    assert fast.status is want, f"scale 1e{e}"
                    assert _certificate_ok(cone, a, fast)

    def test_cube_cone_with_singular_subsets(self, solve_calls):
        # four cube vertices on a face are linearly dependent: those
        # 4-subsets are skipped, and the rest still decide every point
        rng = np.random.default_rng(210)
        cube = _cube()
        statuses = set()
        for _ in range(12):
            rows = rng.standard_normal((3, 4)) * 0.6
            rows[:, -1] = 1.0
            a = _commuting_tuple(rows, sampling.random_unitary(rng, 3))
            fast = min_membership(cube, a)
            assert _certificate_ok(cube, a, fast)
            inside = bool(np.all(np.abs(rows[:, :3]) <= 1.0))
            assert (fast.status is MinMembershipStatus.MEMBER) == inside
            statuses.add(fast.status)
        assert solve_calls == []
        assert len(statuses) == 2

    def test_too_many_subsets_skip_the_closed_form(self, monkeypatch):
        # C(40, 3) = 9880 d-subsets, over SUBSET_BATCH: the margin decides,
        # by the SDP unless the min-norm weights are PSD
        def forbidden(*args):
            raise AssertionError("commuting closed form tried")

        monkeypatch.setattr(opsys, "_commuting_weights", forbidden)
        rng = np.random.default_rng(214)
        cone = _polygon(40)
        assert math.comb(40, 3) > cones.SUBSET_BATCH
        for rows, want in ((_inside_rows(rng, cone, 3), MinMembershipStatus.MEMBER),
                           (_outside_rows(rng, cone, 3), MinMembershipStatus.NOT_MEMBER)):
            a = _commuting_tuple(rows, sampling.random_unitary(rng, 3))
            res = min_membership(cone, a)
            assert res.status is want
            assert _certificate_ok(cone, a, res)

    def test_clear_instances_skip_the_sdp(self, solve_calls):
        rng = np.random.default_rng(211)
        sq = cones.square_cone()
        member = _commuting_tuple(_inside_rows(rng, sq, 3), sampling.random_unitary(rng, 3))
        assert min_membership(sq, member).status is MinMembershipStatus.MEMBER
        outside = _rescaled(member, -1.0)
        res = min_membership(sq, outside)
        assert res.status is MinMembershipStatus.NOT_MEMBER
        assert res.separator.evaluate(outside) == pytest.approx(-1.0, abs=1e-6)
        assert _certificate_ok(sq, outside, res)
        # one point on a ray of the cone: a zero weight, still no SDP
        ray = _commuting_tuple(np.vstack([sq.generators[:1], _inside_rows(rng, sq, 1)]))
        assert min_membership(sq, ray).status is MinMembershipStatus.MEMBER
        assert solve_calls == []

    def test_off_diagonal_perturbation_reaches_the_sdp(self, solve_calls):
        # an outside tuple: a member with PSD min-norm weights needs no SDP
        rng = np.random.default_rng(212)
        cone = _polygon(6)
        a = _commuting_tuple(_outside_rows(rng, cone, 3), sampling.random_unitary(rng, 3))
        bumped = MatrixTuple(
            tuple(linalg.hermitian(e.mat + 1e-4 * linalg.random_hermitian(rng, 3))
                  for e in a.entries)
        )
        res = min_membership(cone, bumped)
        assert len(solve_calls) == 1
        assert res.status is MinMembershipStatus.NOT_MEMBER
        assert res.status is _reference_status(cone, bumped)
        assert _certificate_ok(cone, bumped, res)

    def test_joint_eigenbasis(self):
        rng = np.random.default_rng(213)
        rows = rng.standard_normal((4, 3))
        u = sampling.random_unitary(rng, 4)
        stack = np.array([e.mat for e in _commuting_tuple(rows, u).entries])
        basis, ell, off = linalg.joint_eigenbasis(stack)
        assert off < 1e-12
        order = np.lexsort(ell.T)
        assert np.allclose(ell[order], rows[np.lexsort(rows.T)], atol=1e-12)
        assert np.allclose(basis.conj().T @ basis, np.eye(4), atol=1e-12)
        # sigma_z and sigma_x share no eigenbasis
        assert linalg.joint_eigenbasis(np.array([SIGMA_Z, SIGMA_X]))[2] > 0.1


class TestMemberWeights:
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_weights_reconstruct_the_tuple(self, scale, solve_calls):
        # simplex, commuting and margin-SDP weights alike satisfy
        # sum_k c_k P_k = A to rounding
        rng = np.random.default_rng(58)
        sq = cones.square_cone()
        cases = [(sampling.random_simplex_cone(rng, 3), 2), (sq, 2), (sq, 3), (_polygon(7), 3)]
        for cone, s in cases:
            a = _rescaled(sampling.random_min_member(rng, cone, s), scale)
            res = min_membership(cone, a)
            assert res.status is MinMembershipStatus.MEMBER
            recon = np.tensordot(cone.generators.T, res.certificate.weights, axes=1)
            stack = np.array([e.mat for e in a.entries])
            assert np.max(np.abs(recon - stack)) <= 1e-13 * np.max(np.abs(stack))
        assert solve_calls, "no instance reached the margin SDP"


class TestScaleInvariance:
    """Verdicts of `min_membership` are invariant under positive scaling of
    the tuple, from 1e-8 to 1e8, and every certificate verifies."""

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("s", [2, 3])
    def test_verdict_is_scale_invariant(self, k, s):
        rng = np.random.default_rng(300 + 10 * k + s)
        cone = cones.square_cone() if k == 4 else _polygon(k, 0.0)
        bases = [sampling.random_min_member(rng, cone, s) for _ in range(2)]
        bases += [containment.random_max_tuple(cone, s, rng) for _ in range(2)]
        for base in bases:
            want = min_membership(cone, base).status
            assert want is not MinMembershipStatus.UNKNOWN
            for e in range(-8, 9):
                a = _rescaled(base, 10.0**e)
                res = min_membership(cone, a)
                assert res.status is want, f"scale 1e{e}: {res.message}"
                assert _certificate_ok(cone, a, res), f"scale 1e{e}"


def _membership_instances(rng, n):
    """(cone, query) pairs shaped like the `membership` benchmark: simplex,
    square and 5-8-gon cones, s = 2 and 3, members and random queries, one
    query in five rescaled by 10^U(-6, 6)."""
    out = []
    for i in range(n):
        shape, s, member = i % 3, 2 + (i // 3) % 2, (i // 6) % 2 == 0
        if shape == 0:
            cone = sampling.random_simplex_cone(rng, 2 + (i // 12) % 3)
        elif shape == 1:
            cone = cones.square_cone()
        else:
            cone = _polygon(5 + (i // 12) % 4, rng.uniform(0, 2 * math.pi))
        if member:
            a = sampling.random_min_member(rng, cone, s)
        elif shape == 0:
            a = MatrixTuple(tuple(linalg.random_hermitian(rng, s) for _ in range(cone.dim)))
        else:
            a = containment.random_max_tuple(cone, s, rng)
        if i % 5 == 4:
            a = _rescaled(a, 10.0 ** rng.uniform(-6.0, 6.0))
        out.append((cone, a))
    return out


class TestConjugationInvariance:
    def test_verdict_is_invariant_under_unitary_conjugation(self):
        # U* A_i U is in the smallest system exactly when A is
        rng = np.random.default_rng(320)
        seen = set()
        for cone, a in _membership_instances(rng, 120):
            u = sampling.random_unitary(rng, a.level)
            rotated = MatrixTuple(u.conj().T @ a.stack @ u)
            want = min_membership(cone, a)
            got = min_membership(cone, rotated)
            assert want.status is not MinMembershipStatus.UNKNOWN, want.message
            assert got.status is want.status, got.message
            assert _certificate_ok(cone, a, want) and _certificate_ok(cone, rotated, got)
            seen.add(want.status)
        assert seen == {MinMembershipStatus.MEMBER, MinMembershipStatus.NOT_MEMBER}


def _scaled_and_reordered(cone, rng):
    """The cone with its generators permuted and scaled by positive factors."""
    k = cone.n_generators
    gens = cone.generators[rng.permutation(k)] * rng.uniform(0.2, 5.0, k)[:, None]
    return cones.PolyhedralCone.from_generators(gens, unit=cone.unit)


class TestMarginStart:
    """The margin SDP starts exactly feasible and strictly interior; a cone
    whose G h is not constant is decided on rescaled rows."""

    CONES = {"square": cones.square_cone, "cube": _cube}
    CONES.update({f"{k}-gon": (lambda k=k: _polygon(k)) for k in range(5, 9)})

    @pytest.mark.parametrize("name", sorted(CONES))
    def test_start_is_exact_and_interior(self, name, exact_margin_start):
        cone = self.CONES[name]()
        rng = np.random.default_rng(400 + cone.n_generators)
        for s in (2, 3):
            for a in (sampling.random_min_member(rng, cone, s),
                      containment.random_max_tuple(cone, s, rng)):
                stack = np.array([e.mat for e in a.entries])
                rows = exact_margin_start(cone.generators, stack, cone.facets.sum(axis=0))
                assert np.all(rows == 1.0)  # G h is constant: the rows as given

    def test_inexact_start_is_rejected(self):
        rng = np.random.default_rng(405)
        cone = _polygon(6)
        stack = np.array([e.mat for e in containment.random_max_tuple(cone, 2, rng).entries])
        split = opsys._affine_split(cone.generators, stack, cone.facets.sum(axis=0))
        kernel, p0 = split[3:]
        problem, (x, y) = opsys._margin_problem(p0, kernel)
        with pytest.raises(ValueError, match="not feasible"):
            sdp.solve(problem, start=(1.01 * x, y))
        with pytest.raises(ValueError, match="not feasible"):
            sdp.solve(problem, start=(x, y + np.r_[2.0, np.zeros(len(y) - 1)]))

    @pytest.mark.parametrize("k", [5, 6, 8])
    def test_scaled_and_reordered_generators(self, k, exact_margin_start, solve_calls):
        rng = np.random.default_rng(410 + k)
        base = _polygon(k)
        cone = _scaled_and_reordered(base, rng)
        for s in (2, 3):
            for a in (sampling.random_min_member(rng, base, s),
                      containment.random_max_tuple(base, s, rng)):
                stack = np.array([e.mat for e in a.entries])
                rows = exact_margin_start(cone.generators, stack, cone.facets.sum(axis=0))
                assert np.ptp(rows) > 0  # the rescale branch
                res = min_membership(cone, a)
                assert res.status is min_membership(base, a).status
                assert res.status is not MinMembershipStatus.UNKNOWN, res.message
                assert _certificate_ok(cone, a, res)
        assert solve_calls, "no instance reached the margin SDP"

    def test_dump_is_the_problem_solved(self, tmp_path, solve_calls):
        rng = np.random.default_rng(420)
        cone = _scaled_and_reordered(_polygon(7), rng)
        for _ in range(10):
            a = containment.random_max_tuple(_polygon(7), 3, rng)
            min_membership(cone, a)
            if solve_calls:
                break
        assert len(solve_calls) == 1
        problem = opsys.margin_sdp(cone.generators, a.stack, cone.facets.sum(axis=0))
        sdp.dump_problem(problem, tmp_path / "dump.sdpa")
        sdp.dump_problem(solve_calls[0][0], tmp_path / "solved.sdpa")
        assert (tmp_path / "dump.sdpa").read_bytes() == (tmp_path / "solved.sdpa").read_bytes()


class TestMarginNewtonSteps:
    def test_mean_steps_per_margin_solve(self, monkeypatch):
        # the step count is deterministic
        steps = []
        real = sdp.solve

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            steps.append(out.iterations)
            return out

        monkeypatch.setattr(sdp, "solve", recording)
        rng = np.random.default_rng(430)
        for cone in (cones.square_cone(), _polygon(5), _polygon(6), _polygon(7), _polygon(8)):
            for s in (2, 3):
                for _ in range(3):
                    min_membership(cone, sampling.random_min_member(rng, cone, s))
                    min_membership(cone, containment.random_max_tuple(cone, s, rng))
            for alpha in (0.4, 0.8, 1.2):
                containment.relaxation(diagonal_pencil(cone), elliptic_cone_pencil(alpha))
        assert len(steps) >= 30
        assert np.mean(steps) <= 3.0, np.mean(steps)


class TestPauliWitness:
    def test_alpha_quarter_formula(self):
        w = pauli_witness(math.pi / 4)
        expected = (np.eye(2) - (math.sqrt(2) / 2) * SIGMA_Z + (math.sqrt(2) / 2) * SIGMA_X) / 2
        assert np.allclose(w.components[0], expected)

    def test_pair_sums_identity(self):
        for alpha in (0.2, 0.9, 1.3):
            w = pauli_witness(alpha)
            a1, a2, a3, a4 = w.components
            assert np.allclose(a1 + a2, np.eye(2), atol=1e-14)
            assert np.allclose(a3 + a4, np.eye(2), atol=1e-14)

    def test_orthogonal_projections(self):
        w = pauli_witness(0.7)
        a1, a2, a3, a4 = w.components
        assert np.max(np.abs(a1 @ a2)) < 1e-14
        assert np.max(np.abs(a3 @ a4)) < 1e-14

    def test_idempotent_trace_one(self):
        for alpha in np.linspace(0.1, 1.4, 7):
            for c in pauli_witness(alpha).components:
                assert np.max(np.abs(c @ c - c)) < 1e-9
                assert np.trace(c).real == pytest.approx(1.0, abs=1e-12)

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

    def test_verdict_is_scale_invariant(self):
        # rank-one Pauli components are in the essential boundary, random
        # full-rank PSD components are not; every scale gives the verdict
        # of scale 1 and every functional verifies
        rng = np.random.default_rng(61)
        cases = [pauli_witness(a).components for a in np.linspace(0.1, 1.4, 8)]
        cases += [[linalg.random_psd(rng, s) for _ in range(4)] for s in (2, 3)]
        for comps in cases:
            want = essential_boundary_square(comps).status
            assert want is not EssentialBoundaryStatus.UNKNOWN
            for e in range(-8, 9, 2):
                scaled = [linalg.hermitian(10.0**e * c) for c in comps]
                res = essential_boundary_square(scaled)
                assert res.status is want, f"scale 1e{e}: {res.message}"
                if res.status is EssentialBoundaryStatus.IN_ESSENTIAL_BOUNDARY:
                    doc = certificates.essential_boundary_cert(scaled, res.functional, 1e-6)
                    assert certificates.verify_certificate(doc).ok, f"scale 1e{e}"

    def test_functional_kills_element(self):
        # phi vanishes on the witness: sum_k tr(A_k * (M3 +- D/S)) = 0
        w = pauli_witness(1.1)
        res = essential_boundary_square(w.components)
        phi_val = res.functional.evaluate(w.tuple)
        assert phi_val == pytest.approx(0.0, abs=1e-6)


class TestEffrosWinkler:
    def test_fixed_point_on_normalized_pencil(self):
        p = elliptic_cone_pencil(0.6)
        phi = opsys.SeparationFunctional(
            matrices=tuple(linalg.hermitian(np.conj(m.mat)) for m in p.matrices),
            margin=1.0,
        )
        q = effros_winkler_separation(phi, p.unit)
        for a, b in zip(q.matrices, phi.matrices):
            assert np.max(np.abs(a.mat - b)) < 1e-12

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
                scale = 1 + max(np.linalg.norm(e.mat) for e in member.entries)
                assert res_m.margin >= -1e-8 * scale

    def test_singular_unit_matrix_rejected(self):
        phi = opsys.SeparationFunctional(
            matrices=(SIGMA_Z, SIGMA_X, linalg.hermitian(np.diag([1.0, 0.0]))),
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
                top = np.hstack([m + lam * np.eye(3), n])
                bot = np.hstack([n, np.eye(3)])
                return min_eigenvalue(linalg.hermitian(np.vstack([top, bot]))) >= -1e-12

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
        qn = float(np.real(v.conj() @ SIGMA_Z @ v))
        qm = float(np.real(v.conj() @ SIGMA_X @ v))
        assert qn * qn - qm == pytest.approx(res.value, abs=1e-12)

    def test_inequality_thousand_pairs(self):
        rng = np.random.default_rng(56)
        near_equal = 0
        for k in range(1000):
            if k % 10 == 0:
                # commuting pair: equality case with a common eigenvector
                u = sampling.random_unitary(rng, 2)
                m = linalg.hermitian(u @ np.diag(rng.standard_normal(2)) @ u.conj().T)
                n = linalg.hermitian(u @ np.diag(rng.standard_normal(2)) @ u.conj().T)
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
                m = linalg.hermitian(u @ np.diag(rng.standard_normal(3)) @ u.conj().T)
                n = linalg.hermitian(u @ np.diag(rng.standard_normal(3)) @ u.conj().T)
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
            assert res.value == opsys._quartic(m, n, res.argmax)
            assert 0.0 <= res.upper - res.value <= 1e-9 * max(1.0, abs(res.value))

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_upper_dominates_random_vectors(self, s):
        rng = np.random.default_rng(59 + s)
        for _ in range(5):
            m = linalg.random_hermitian(rng, s)
            n = linalg.random_hermitian(rng, s)
            v = random_unit_vectors(rng, s, 10_000)
            qn = np.einsum("ki,ij,kj->k", v.conj(), n, v).real
            qm = np.einsum("ki,ij,kj->k", v.conj(), m, v).real
            assert (qn * qn - qm).max() <= lambda2_products(m, n).upper

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_unitary_invariance(self, s):
        rng = np.random.default_rng(60 + s)
        for _ in range(20):
            m = linalg.random_hermitian(rng, s)
            n = linalg.random_hermitian(rng, s)
            u = sampling.random_unitary(rng, s)
            res = lambda2_products(m, n)
            conj = lambda2_products(u.conj().T @ m @ u, u.conj().T @ n @ u)
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
            scaled = lambda2_products(c * c * m, c * n)
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
            assert res.value == pytest.approx(0.49 - linalg.eigh(m)[0][0], abs=1e-12)


def _reference_lambda2(m, n) -> opsys.Lambda2Result:
    """`lambda2_products` with its bracket kept in arrays: the chord bounds
    of all intervals at once, np.clip, boolean masks, argmax and four
    concatenations per round.  The float bookkeeping must reproduce it bit
    for bit."""
    mmat, nmat = linalg.hermitian(m), linalg.hermitian(n)

    def top_vector(t):
        return _kernels.eigh_kernel(2.0 * t * nmat - mmat)[1][:, -1]

    def chord_bounds(a, b, ga, gb):
        slope = (gb - ga) / (b - a)
        t = np.clip(slope / 2.0, a, b)
        return ga + slope * (t - a) - t * t

    n_eigs = np.linalg.eigvalsh(nmat)
    lo, hi = float(n_eigs[0]), float(n_eigs[-1])
    if lo == hi:
        v = top_vector(lo)
        value = opsys._quartic(mmat, nmat, v)
        return opsys.Lambda2Result(value=value, upper=value, argmax=v)
    scale = max(abs(lo), abs(hi)) ** 2 + float(np.linalg.norm(mmat))
    margin = 12.0 * len(mmat) * np.finfo(float).eps * scale
    tol = max(tolerances.LAMBDA2_REL_TOL * scale, margin)
    t = np.array([lo, hi])
    gt = _kernels.quartic_grid_scan(mmat, nmat, t)
    ft = gt - t * t
    lower, best_t = float(ft.max()), float(t[ft.argmax()])
    a, b, ga, gb = t[:1], t[1:], gt[:1], gt[1:]
    for _ in range(opsys._LAMBDA2_MAX_ROUNDS):
        bounds = chord_bounds(a, b, ga, gb)
        top = max(float(bounds.max()), lower)
        if top - lower <= tol:
            break
        live = bounds > lower
        a, b, ga, gb = a[live], b[live], ga[live], gb[live]
        mid = (a + b) / 2.0
        gm = _kernels.quartic_grid_scan(mmat, nmat, mid)
        fm = gm - mid * mid
        k = int(fm.argmax())
        if fm[k] > lower:
            lower, best_t = float(fm[k]), float(mid[k])
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        ga, gb = np.concatenate([ga, gm]), np.concatenate([gm, gb])
    v = top_vector(best_t)
    value = opsys._quartic(mmat, nmat, v)
    for _ in range(opsys._LAMBDA2_MAX_ROUNDS):
        w = top_vector(float(np.real(v.conj() @ nmat @ v)))
        q = opsys._quartic(mmat, nmat, w)
        if q <= value:
            break
        v, value = w, q
    return opsys.Lambda2Result(value=value, upper=top + margin, argmax=v)


def _threshold_pairs(s, rng):
    """Random pairs at three scales, commuting pairs and N = alpha*I."""
    pairs = [(c * c * linalg.random_hermitian(rng, s), c * linalg.random_hermitian(rng, s))
             for c in (1e-3, 1.0, 1.0, 1.0, 1e3) for _ in range(4)]
    for _ in range(5):
        u = sampling.random_unitary(rng, s)
        m, n = (u @ np.diag(rng.standard_normal(s)) @ u.conj().T for _ in range(2))
        pairs.append((m, n))
    pairs.append((linalg.random_hermitian(rng, s), 0.7 * np.eye(s)))
    return pairs


class TestLambda2Bookkeeping:
    @pytest.mark.parametrize("s", range(1, 9))
    def test_float_bracket_equals_the_array_bracket_bitwise(self, monkeypatch, s):
        # same midpoints in the same batches, so every eigvalsh keeps its
        # bits, and value, upper and argmax keep theirs
        grids, scan = [], _kernels.quartic_grid_scan

        def recording(m, n, t):
            grids.append(np.array(t))
            return scan(m, n, t)

        monkeypatch.setattr(_kernels, "quartic_grid_scan", recording)
        rng = np.random.default_rng(70 + s)
        pairs = _threshold_pairs(s, rng)
        if s == 2:
            pairs.append((SIGMA_X, SIGMA_Z))
        for m, n in pairs:
            grids.clear()
            got = lambda2_products(m, n)
            got_grids = list(grids)
            grids.clear()
            want = _reference_lambda2(m, n)
            assert len(got_grids) == len(grids)
            for g, w in zip(got_grids, grids):
                assert g.tobytes() == w.tobytes()
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            assert np.float64(got.upper).tobytes() == np.float64(want.upper).tobytes()
            assert got.argmax.tobytes() == want.argmax.tobytes()


class TestThresholdInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)],
                             ids=["nan", "inf", "-inf", "inf-imaginary"])
    @pytest.mark.parametrize("which", ["M", "N"])
    @pytest.mark.parametrize("threshold", [lambda1_block, lambda2_products],
                             ids=["lambda1", "lambda2"])
    def test_a_non_finite_entry_is_named_before_any_eigensolve(
        self, monkeypatch, threshold, which, bad
    ):
        # lambda1 returned 0.0 on such an input and lambda2 raised numpy's
        # "argmax of an empty sequence"; an inf also warned in linalg
        def forbidden(*args):
            raise AssertionError("eigensolve on a non-finite input")

        monkeypatch.setattr(_kernels, "eigh_kernel", forbidden)
        monkeypatch.setattr(_kernels, "quartic_grid_scan", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        broken = np.array(SIGMA_Z)
        broken[0, 1] = broken[1, 0] = bad
        m, n = (broken, SIGMA_X) if which == "M" else (SIGMA_X, broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{which}: expected finite entries"):
                threshold(m, n)

    @pytest.mark.parametrize("e", [300, 500])
    def test_a_large_pair_gives_the_scaled_bits(self, e):
        # lam(c^2 M, c N) = c^2 lam(M, N); past 2^256 the pair is divided
        # by a power of two, so no square overflows and the bits are exact
        rng = np.random.default_rng(61)
        c = 2.0**e
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (2, 3, 4):
                m, n = linalg.random_hermitian(rng, s), linalg.random_hermitian(rng, s)
                assert lambda1_block(c * c * m, c * n) == c * c * lambda1_block(m, n)
                big, small = lambda2_products(c * c * m, c * n), lambda2_products(m, n)
                assert (big.value, big.upper) == (c * c * small.value, c * c * small.upper)
                assert big.argmax.tobytes() == small.argmax.tobytes()

    def test_scaled_pauli_pairs_stay_finite_or_raise(self):
        # lambda1(c sx, c sz) = c^2 + c was 1.414e160 at c = 1e160, and
        # lambda2(1e200 sx, 1e100 sz) had upper = inf, both with warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = lambda2_products(1e200 * SIGMA_X, 1e100 * SIGMA_Z)
            assert r.value == pytest.approx(1.25e200, rel=1e-12)
            assert r.value <= r.upper <= r.value * (1 + 1e-9)
            assert lambda1_block(1e150 * SIGMA_X, 1e150 * SIGMA_Z) == pytest.approx(1e300, rel=1e-12)
            for threshold in (lambda1_block, lambda2_products):
                with pytest.raises(ValueError, match="beyond the float range"):
                    threshold(1e160 * SIGMA_X, 1e160 * SIGMA_Z)
