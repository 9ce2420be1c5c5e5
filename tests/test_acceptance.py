"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the runtime budgets are
asserted as part of each criterion.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from freespec import cones, containment, linalg, opsys, sampling, sdp
from freespec.containment import (
    RelaxationStatus,
    check_inclusion,
    entangled_example,
    random_max_tuple,
    relaxation,
    scaled_max_in_min,
    scaling_bound,
)
from freespec.cones import find_sandwich_simplex, section_of, square_cone
from freespec.linalg import SIGMA_X, SIGMA_Z
from freespec.opsys import (
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
    evaluate,
    membership,
)


@contextlib.contextmanager
def criterion(name: str, budget_s: float):
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - t0
        print(f"[acceptance] {name}: {status} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{name}: runtime {elapsed:.1f}s exceeds {budget_s}s"


def trace_inner(a, b) -> float:
    """<A, B> = Re tr(B* A)."""
    return float(np.real(np.trace(b.conj().T @ a)))


def sz_sx_i():
    return MatrixTuple.of(SIGMA_Z, SIGMA_X, np.eye(2))


def test_criterion_1_simplex_tightness():
    with criterion("1 simplex tightness", 60):
        rng = np.random.default_rng(101)
        for k in range(100):
            d = int(rng.integers(2, 5))
            cone = sampling.random_simplex_cone(rng, d)
            t = int(rng.integers(2, 5))
            tgt = sampling.random_target_for_simplex(rng, cone, t)
            assert containment.scalar_inclusion(cone, tgt).holds
            res = relaxation(diagonal_pencil(cone), tgt)
            assert res.status is RelaxationStatus.FEASIBLE, f"instance {k}"
            assert res.certificate.residual < 1e-6


def test_criterion_2_square_non_tightness():
    with criterion("2 square non-tightness", 5):
        expected = {
            math.pi / 6: -0.36603,
            math.pi / 4: -0.41421,
            math.pi / 3: -0.36603,
        }
        for alpha, approx_val in expected.items():
            verdict = check_inclusion(square_cone(), elliptic_cone_pencil(alpha))
            assert verdict.scalar.holds
            assert verdict.relaxation.status is RelaxationStatus.INFEASIBLE
            fk = verdict.relaxation.farkas
            assert fk.gap > 0 and fk.lambda_max <= 1e-7 * fk.gap  # verified Farkas
            margin = float(linalg.eigh(
                evaluate(elliptic_cone_pencil(alpha), sz_sx_i())
            )[0][0])
            exact = 1 - math.sin(alpha) - math.cos(alpha)
            assert abs(margin - exact) <= 1e-9
            assert margin == pytest.approx(approx_val, abs=5e-6)


def test_criterion_3_min_max_gap_square():
    with criterion("3 smallest/largest gap on the square", 5):
        sq = square_cone()
        res = min_membership(sq, sz_sx_i())
        assert res.status is MinMembershipStatus.NOT_MEMBER
        sep = res.separator
        assert sep.evaluate(sz_sx_i()) < -1e-7
        rng = np.random.default_rng(103)
        for _ in range(200):
            member = sampling.random_min_member(rng, sq, 2)
            assert sep.evaluate(member) >= -1e-9
        assert max_membership(sq, sz_sx_i()).classification is Classification.BOUNDARY


def test_criterion_4_pauli_witness_membership():
    with criterion("4 rank-one witness family", 30):
        sq = square_cone()
        for alpha in np.linspace(0.05, math.pi / 2 - 0.05, 20):
            w = pauli_witness(float(alpha))
            res = min_membership(sq, w.tuple)
            assert res.status is MinMembershipStatus.MEMBER
            assert res.certificate.residual < 1e-6
            eb = essential_boundary_square(w.components)
            assert eb.status is opsys.EssentialBoundaryStatus.IN_ESSENTIAL_BOUNDARY
            assert eb.functional.margin >= 1e-6 - 1e-7


def test_criterion_5_positivity_thresholds():
    with criterion("5 positivity-threshold pair", 30):
        lam1 = lambda1_block(SIGMA_X, SIGMA_Z)
        assert lam1 == pytest.approx(2.0, abs=1e-12)
        res = lambda2_products(SIGMA_X, SIGMA_Z)
        assert abs(res.value - 1.25) <= 1e-6

        rng = np.random.default_rng(105)
        near_equal = 0
        for k in range(1000):
            if k % 10 == 0:
                u = sampling.random_unitary(rng, 2)
                m = linalg.hermitian(u @ np.diag(rng.standard_normal(2)) @ u.conj().T)
                n = linalg.hermitian(u @ np.diag(rng.standard_normal(2)) @ u.conj().T)
            else:
                m = linalg.random_hermitian(rng, 2)
                n = linalg.random_hermitian(rng, 2)
            l1 = lambda1_block(m, n)
            l2 = lambda2_products(m, n)
            assert l2.value <= l1 + 1e-9
            if abs(l1 - l2.value) < 1e-6:
                near_equal += 1
                rm, rn = common_eigenvector_residual(m, n, l2.argmax)
                assert rm < 1e-4 and rn < 1e-4
        assert near_equal >= 50


def test_criterion_6_scaling_bounds():
    with criterion("6 scaled inclusion at nu = 1/2 and 1/3", 120):
        sq = square_cone()
        rng = np.random.default_rng(106)
        for _ in range(100):
            a = random_max_tuple(sq, 2, rng)
            res = scaled_max_in_min(sq, 0.5, a)
            assert res.status is MinMembershipStatus.MEMBER
            assert res.certificate.residual < 1e-6
        assert (
            scaled_max_in_min(sq, 1.0, sz_sx_i()).status
            is MinMembershipStatus.NOT_MEMBER
        )
        simplex = find_sandwich_simplex(sq, 1.0 / 3.0, [0, 0, 1])
        assert simplex is not None
        sec_c = section_of(sq, [0, 0, 1])
        sec_s = section_of(simplex, [0, 0, 1])
        for v in sec_s.vertices:
            assert np.min(1.0 + sec_c.facet_rows @ v) >= -1e-9
        for v in sec_c.vertices / 3.0:
            assert np.min(1.0 + sec_s.facet_rows @ v) >= -1e-9
        rep = scaling_bound(sq, [0, 0, 1])
        assert rep.certified_nu >= 1.0 / 3.0 - 1e-9


def test_criterion_7_commuting_targets():
    with criterion("7 commuting targets are tight", 60):
        rng = np.random.default_rng(107)
        sq = square_cone()
        src = diagonal_pencil(sq)
        targets = [sampling.random_commuting_target(rng, sq, int(rng.integers(2, 5)))
                   for _ in range(50)]
        # the regular octagon of inradius 2 about the square, and the square itself
        r = 2.0 / math.cos(math.pi / 8)
        octagon = [[r * math.cos(t), r * math.sin(t), 1.0]
                   for t in math.pi / 8 * np.arange(1, 16, 2)]
        targets += [diagonal_pencil(cones.PolyhedralCone(octagon, [0.0, 0.0, 1.0])), src]
        for k, tgt in enumerate(targets):
            assert containment.scalar_inclusion(sq, tgt).holds
            res = relaxation(src, tgt)
            assert res.status is RelaxationStatus.FEASIBLE, f"instance {k}"


def test_criterion_8_entangled_example():
    with criterion("8 entangled block matrix", 1):
        rep = entangled_example()
        assert rep.identity_residual == 0.0
        assert rep.pt_min_eig_normalized == pytest.approx(-0.5, abs=1e-12)
        assert rep.entangled
        assert "not a minimal-system realization" in rep.conclusion


def test_criterion_9_separating_pencils():
    with criterion("9 separating-pencil construction", 120):
        sq = square_cone()
        rng = np.random.default_rng(109)
        base = sz_sx_i()
        built = 0
        while built < 50:
            u = sampling.random_unitary(rng, 2)
            gamma = 0.9 + 0.1 * rng.random()
            cand = MatrixTuple.of(
                gamma * (u.conj().T @ SIGMA_Z @ u),
                gamma * (u.conj().T @ SIGMA_X @ u),
                np.eye(2),
            )
            res = min_membership(sq, cand)
            if res.status is not MinMembershipStatus.NOT_MEMBER:
                continue
            built += 1
            q = effros_winkler_separation(res.separator, sq.unit)
            drift = np.max(
                np.abs(sum(ui * m.mat for ui, m in zip(q.unit, q.matrices)) - np.eye(q.r))
            )
            assert drift <= 1e-10
            assert membership(q, cand).margin < -1e-7
            for s in (1, 2):
                for _ in range(100):
                    member = sampling.random_min_member(rng, sq, s)
                    scale = 1 + max(np.linalg.norm(e.mat) for e in member.entries)
                    assert membership(q, member).margin >= -1e-8 * scale


def test_criterion_10_sdp_self_test():
    with criterion("10 SDP solver self-test", 60):
        rng = np.random.default_rng(110)
        for k in range(100):
            kind = k % 3
            nb = int(rng.integers(1, 3))
            blocks = [int(rng.integers(2, 9))] * nb  # one size for the instance's blocks
            dim = sum(n * n for n in blocks)
            m = int(rng.integers(2, min(60, dim)))
            amats = [
                [linalg.random_hermitian(rng, n) for n in blocks] for _ in range(m)
            ]
            if kind == 0:  # feasible by construction
                x0 = [linalg.random_psd(rng, n) for n in blocks]
                rhs = [sum(trace_inner(x0[b], amats[i][b]) for b in range(nb)) for i in range(m)]
                p = sdp.SdpProblem(np.swapaxes(amats, 0, 1), rhs)
                out = sdp.solve(p)
                assert out.status is sdp.SdpStatus.FEASIBLE, f"instance {k}: {out.message}"
                rep = sdp.verify(out, p)
                assert rep.ok and rep.max_residual < 1e-6
            elif kind == 1:  # infeasible with planted Farkas certificate
                y = rng.standard_normal(m)
                y[-1] = 1.0
                s0 = [linalg.random_psd(rng, n) + 0.1 * np.eye(n) for n in blocks]
                for b in range(nb):
                    acc = sum(y[i] * amats[i][b] for i in range(m - 1))
                    amats[m - 1][b] = linalg.hermitian(-(s0[b] + acc))
                bvec = rng.standard_normal(m)
                bvec[-1] = 1.0 - bvec[: m - 1] @ y[: m - 1]
                p = sdp.SdpProblem(np.swapaxes(amats, 0, 1), bvec)
                out = sdp.solve(p)
                assert out.status is sdp.SdpStatus.INFEASIBLE, f"instance {k}: {out.message}"
                assert sdp.verify(out, p).ok
            else:  # optimization with known complementary optimum
                xs, ss = [], []
                for n in blocks:
                    w, u = np.linalg.eigh(linalg.random_hermitian(rng, n))
                    kk = max(1, n // 2)
                    xs.append(
                        linalg.hermitian(
                            (u[:, :kk] * np.abs(rng.standard_normal(kk)))
                            @ u[:, :kk].conj().T
                        )
                    )
                    if kk < n:
                        ss.append(
                            linalg.hermitian(
                                (u[:, kk:] * np.abs(rng.standard_normal(n - kk)))
                                @ u[:, kk:].conj().T
                            )
                        )
                    else:
                        ss.append(linalg.hermitian(np.zeros((n, n))))
                y0 = rng.standard_normal(m)
                rhs = [sum(trace_inner(xs[b], amats[i][b]) for b in range(nb)) for i in range(m)]
                cobj = tuple(
                    linalg.hermitian(
                        sum(y0[i] * amats[i][b] for i in range(m)) + ss[b]
                    )
                    for b in range(nb)
                )
                p = sdp.SdpProblem(np.swapaxes(amats, 0, 1), rhs, cobj)
                out = sdp.solve(p)
                assert out.status is sdp.SdpStatus.OPTIMAL, f"instance {k}: {out.message}"
                expected = sum(trace_inner(xs[b], cobj[b]) for b in range(nb))
                assert out.objective_value == pytest.approx(
                    expected, abs=1e-5 * (1 + abs(expected))
                )
                rep = sdp.verify(out, p)
                assert rep.ok and rep.max_residual < 1e-6
