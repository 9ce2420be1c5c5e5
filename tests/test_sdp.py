"""SDP solver: examples, verification, embedding, dump/restore."""

import numpy as np
import pytest

from freespec import linalg, sdp
from freespec.linalg import SIGMA_X, SIGMA_Z, HermitianMatrix


def feasibility(blocks, constraints):
    return sdp.SdpProblem.make(blocks, constraints)


class TestSolveExamples:
    def test_minimize_spectral_bound(self):
        # min t s.t. t*I - sigma_x >= 0, in standard primal form via
        # X = t*I - sigma_x: optimum t = lambda_max(sigma_x) = 1
        p = sdp.SdpProblem.make(
            [2],
            [
                (([[1, 0], [0, -1]],), 0.0),     # X00 = X11
                (([[0, 1], [1, 0]],), -2.0),     # 2 Re X01 = -2
                (([[0, 1j], [-1j, 0]],), 0.0),   # 2 Im X01 = 0
            ],
            objective=([[1, 0], [0, 0]],),
        )
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.OPTIMAL
        assert out.objective_value == pytest.approx(1.0, abs=1e-7)

    def test_infeasible_expectation(self):
        p = feasibility([2], [((np.eye(2),), 1.0), ((SIGMA_Z,), 2.0)])
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.INFEASIBLE
        assert out.dual_certificate is not None
        assert sdp.verify(out, p).ok

    def test_feasible_expectation(self):
        p = feasibility([2], [((np.eye(2),), 1.0), ((SIGMA_Z,), 0.0)])
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.FEASIBLE
        x = out.primal[0]
        assert np.trace(x).real == pytest.approx(1.0, abs=1e-7)
        assert abs(np.trace(SIGMA_Z.mat @ x)) < 1e-7
        # the maximally mixed point is among valid answers
        assert linalg.min_eigenvalue(out.primal[0]) > -1e-9


class TestVerify:
    def test_exact_primal_zero_residual(self):
        p = feasibility([2], [((np.eye(2),), 1.0)])
        out = sdp.SdpOutcome(
            status=sdp.SdpStatus.FEASIBLE, primal=(HermitianMatrix(np.eye(2) / 2),)
        )
        rep = sdp.verify(out, p)
        assert rep.ok
        assert rep.max_residual == pytest.approx(0.0, abs=1e-15)

    def test_infeasible_certificate_validates(self):
        p = feasibility([2], [((np.eye(2),), 1.0), ((SIGMA_Z,), 2.0)])
        out = sdp.solve(p)
        rep = sdp.verify(out, p)
        assert rep.ok
        assert rep.farkas_gap > 0
        assert rep.farkas_lambda_max <= 1e-7 * rep.farkas_gap

    def test_tampered_primal_flagged(self):
        p = feasibility([2], [(([[1, 0], [0, 0]],), 0.9)])
        bad = HermitianMatrix(np.diag([0.9, -0.1]))
        out = sdp.SdpOutcome(status=sdp.SdpStatus.FEASIBLE, primal=(bad,))
        rep = sdp.verify(out, p)
        assert not rep.ok
        assert rep.psd_margin == pytest.approx(-0.1, abs=1e-12)

    def test_primal_block_by_block(self):
        # a block missing is flagged; real blocks are read as Hermitian
        p = sdp.SdpProblem.make([2, 3], [((np.eye(2), None), 1.0)])
        half = np.eye(2, dtype=complex) / 2
        missing = sdp.SdpOutcome(status=sdp.SdpStatus.FEASIBLE, primal=(half,))
        assert not sdp.verify(missing, p).ok
        real = sdp.SdpOutcome(status=sdp.SdpStatus.FEASIBLE, primal=(half.real, np.eye(3)))
        assert sdp.verify(real, p).ok


class TestRoundTripInvariant:
    def test_random_feasible_outcomes_verify(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            blocks = [int(rng.integers(2, 6))]
            n = blocks[0]
            m = int(rng.integers(1, min(8, n * n)))
            amats = [linalg.random_hermitian(rng, n) for _ in range(m)]
            x0 = linalg.random_psd(rng, n)
            cons = [((a,), linalg.trace_inner(x0, a)) for a in amats]
            p = feasibility(blocks, cons)
            out = sdp.solve(p)
            assert out.status is sdp.SdpStatus.FEASIBLE
            rep = sdp.verify(out, p)
            assert rep.ok
            assert rep.max_residual < 1e-6


class TestDualityGap:
    def test_optimal_gap_small(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n, m = 4, 5
            amats = [linalg.random_hermitian(rng, n) for _ in range(m)]
            # primal-dual pair with complementary optimum
            w, u = np.linalg.eigh(linalg.random_hermitian(rng, n).mat)
            x0 = HermitianMatrix((u[:, :2] * np.abs(rng.standard_normal(2))) @ u[:, :2].conj().T)
            s0 = HermitianMatrix((u[:, 2:] * np.abs(rng.standard_normal(2))) @ u[:, 2:].conj().T)
            y0 = rng.standard_normal(m)
            c = HermitianMatrix(sum(yi * a.mat for yi, a in zip(y0, amats)) + s0.mat)
            cons = [((a,), linalg.trace_inner(x0, a)) for a in amats]
            p = sdp.SdpProblem.make([n], cons, objective=(c,))
            out = sdp.solve(p)
            assert out.status is sdp.SdpStatus.OPTIMAL
            expected = linalg.trace_inner(x0, c)
            assert out.objective_value == pytest.approx(expected, abs=1e-6 * (1 + abs(expected)))
            # primal-dual duality gap at the returned multipliers
            dual_obj = float(out.y @ p.b)
            assert abs(out.objective_value - dual_obj) < 1e-6 * (1 + abs(out.objective_value))


class TestComplexEmbedding:
    def test_real_doubling_preserves_objective(self):
        # solving the explicitly doubled real problem gives exactly twice
        # the complex objective value (inner products double)
        rng = np.random.default_rng(14)
        for trial in range(10):
            n, m = 3, 4
            amats = [linalg.random_hermitian(rng, n) for _ in range(m)]
            x0 = linalg.random_psd(rng, n)
            s0 = linalg.random_psd(rng, n)
            y0 = rng.standard_normal(m)
            c = HermitianMatrix(sum(yi * a.mat for yi, a in zip(y0, amats)) + s0.mat)
            cons = [((a,), linalg.trace_inner(x0, a)) for a in amats]
            p = sdp.SdpProblem.make([n], cons, objective=(c,))
            out = sdp.solve(p)
            assert out.status is sdp.SdpStatus.OPTIMAL

            def emb(h):
                return np.block(
                    [[h.mat.real, -h.mat.imag], [h.mat.imag, h.mat.real]]
                )

            cons2 = [((emb(a),), 2.0 * linalg.trace_inner(x0, a)) for a in amats]
            p2 = sdp.SdpProblem.make([2 * n], cons2, objective=(emb(c),))
            out2 = sdp.solve(p2)
            assert out2.status is sdp.SdpStatus.OPTIMAL
            assert out2.objective_value / 2.0 == pytest.approx(
                out.objective_value, abs=1e-6 * (1 + abs(out.objective_value))
            )


class TestNativeHermitianBlocks:
    """The core works on each Hermitian block at its own size: no
    eigendecomposition is larger than the largest block.  Blocks of equal
    size are decomposed as one stack, so the size is the last axis."""

    @pytest.fixture()
    def eigh_shapes(self, monkeypatch):
        from freespec import _kernels

        shapes = []
        real = _kernels.eigh_kernel

        def recording(a):
            shapes.append(a.shape)
            return real(a)

        monkeypatch.setattr(_kernels, "eigh_kernel", recording)
        return shapes

    def test_complex_single_block(self, eigh_shapes):
        rng = np.random.default_rng(16)
        n = 3
        amats = [linalg.random_hermitian(rng, n) for _ in range(4)]
        assert any(np.abs(a.mat.imag).max() > 0.1 for a in amats)
        x0 = linalg.random_psd(rng, n)
        p = feasibility([n], [((a,), linalg.trace_inner(x0, a)) for a in amats])
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.FEASIBLE
        assert eigh_shapes
        assert max(shape[-1] for shape in eigh_shapes) <= n

    def test_min_membership_on_square(self, eigh_shapes, solve_calls):
        from freespec import cones, opsys, sampling

        rng = np.random.default_rng(17)
        query = sampling.random_min_member(rng, cones.square_cone(), 3)
        res = opsys.min_membership(cones.square_cone(), query)
        assert res.status is opsys.MinMembershipStatus.MEMBER
        assert len(solve_calls) == 1
        assert max(shape[-1] for shape in eigh_shapes) <= 3


class TestInconsistentConstraints:
    def test_conflicting_dependent_rows_infeasible_with_certificate(self):
        # duplicated row with different rhs: linear inconsistency doubles as
        # a Farkas certificate
        p = feasibility([2], [((np.eye(2),), 1.0), ((np.eye(2),), 2.0)])
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.INFEASIBLE
        assert sdp.verify(out, p).ok

    def test_consistent_dependent_rows_ok(self):
        p = feasibility(
            [2],
            [((np.eye(2),), 1.0), ((2 * np.eye(2),), 2.0), ((SIGMA_Z,), 0.0)],
        )
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.FEASIBLE


class TestMultiBlock:
    def test_blocks_with_gaps(self):
        # second block unconstrained; coefficient None marks a zero block
        p = sdp.SdpProblem.make(
            [2, 3],
            [((np.eye(2), None), 1.0), ((SIGMA_X, None), 1.0)],
        )
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.FEASIBLE
        assert sdp.verify(out, p).ok


class TestStartOnSeveralSizes:
    """An objective problem on blocks (2, 3, 2), so two size groups, from
    an exactly feasible, strictly interior start: X0 and S0 = C - A*(y0)
    positive definite with b = A(X0)."""

    BLOCKS = (2, 3, 2)

    @staticmethod
    def _problem():
        rng = np.random.default_rng(41)
        blocks = TestStartOnSeveralSizes.BLOCKS
        x0 = [linalg.random_psd(rng, n).mat + np.eye(n) for n in blocks]
        s0 = [linalg.random_psd(rng, n).mat + np.eye(n) for n in blocks]
        y0 = rng.standard_normal(6)
        rows = [[linalg.random_hermitian(rng, n).mat for n in blocks] for _ in y0]
        cons = [
            (tuple(row), sum(np.vdot(a, x).real for a, x in zip(row, x0))) for row in rows
        ]
        c = tuple(s + sum(yi * row[k] for yi, row in zip(y0, rows)) for k, s in enumerate(s0))
        return sdp.SdpProblem.make(blocks, cons, objective=c), (x0, y0)

    @staticmethod
    def _embedded(p):
        """The same problem on one block, block diagonal."""
        def diag(mats):
            out = np.zeros((sum(p.blocks),) * 2, dtype=complex)
            at = np.cumsum((0,) + p.blocks)
            for k, mat in enumerate(mats):
                out[at[k]:at[k + 1], at[k]:at[k + 1]] = mat
            return out

        cons = [((diag([ak[i] for ak in p.a]),), bi) for i, bi in enumerate(p.b)]
        return sdp.SdpProblem.make([sum(p.blocks)], cons, objective=(diag(p.c),))

    def test_optimal_from_the_start(self):
        p, start = self._problem()
        assert len(p.groups) == 2
        out = sdp.solve(p, start=start)
        assert out.status is sdp.SdpStatus.OPTIMAL
        assert sdp.verify(out, p).ok

        free = sdp.solve(p)
        assert free.status is sdp.SdpStatus.OPTIMAL
        assert out.objective_value == pytest.approx(free.objective_value, rel=1e-6)

        one = sdp.solve(self._embedded(p))
        assert one.status is sdp.SdpStatus.OPTIMAL
        assert out.objective_value == pytest.approx(one.objective_value, rel=1e-6)


class TestDumpRestore:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        amats = [linalg.random_hermitian(rng, 3) for _ in range(3)]
        obj = linalg.random_hermitian(rng, 2)
        p = sdp.SdpProblem.make(
            [3, 2],
            [((a, None), float(rng.standard_normal())) for a in amats],
            objective=(None, obj),
        )
        path = tmp_path / "problem.sdpa"
        sdp.dump_problem(p, path)
        q = sdp.load_problem(path)
        assert q.blocks == p.blocks
        assert np.array_equal(q.b, p.b)
        assert np.array_equal(q.a[0], p.a[0])
        assert not q.a[1].any()
        assert np.array_equal(q.c[1], p.c[1])
        assert not q.c[0].any()

    def test_feasibility_dump_no_objective(self, tmp_path):
        p = feasibility([2], [((np.eye(2),), 1.0)])
        path = tmp_path / "feas.sdpa"
        sdp.dump_problem(p, path)
        q = sdp.load_problem(path)
        assert q.c is None


class TestValidation:
    def test_block_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            sdp.SdpProblem.make([3], [((np.eye(2),), 1.0)])

    def test_positive_blocks(self):
        with pytest.raises(ValueError, match="positive"):
            sdp.SdpProblem.make([0], [])

    def test_non_hermitian_coefficient(self):
        with pytest.raises(ValueError, match="Hermitian"):
            sdp.SdpProblem.make([2], [(([[1, 1], [0, 1]],), 1.0)])


class TestCheck:
    def test_first_answer_stops_the_solve(self):
        # min X00 + X11 subject to X01 + X10 = 2: the check answers at its
        # third iterate, after two completed iterations
        p = sdp.SdpProblem.make([2], [((SIGMA_X,), 2.0)], objective=(np.eye(2),))
        seen = []

        def check(x, y):
            seen.append((len(x), y.shape))
            return "third" if len(seen) == 3 else None

        out = sdp.solve(p, check=check)
        assert out.status is sdp.SdpStatus.STOPPED
        assert out.answer == "third"
        assert out.iterations == 2
        assert seen == [(1, (1,))] * 3


class TestFailureExits:
    E00 = np.diag([1.0, 0.0])
    E11 = np.diag([0.0, 1.0])

    @pytest.mark.filterwarnings("error")
    def test_unbounded_objective_is_a_numerical_failure(self):
        # minimise -X00 subject to X11 = 1: the iterates run off to infinity,
        # and the solve ends on its finiteness test without an overflow warning
        p = sdp.SdpProblem.make([2], [((self.E11,), 1.0)], objective=(-self.E00,))
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.NUMERICAL_FAILURE
        assert out.message == "iterates diverged"

    def test_infeasible_objective_problem_runs_out_of_iterations(self):
        # minimise tr X subject to X00 = -1: no PSD point, no divergence
        p = sdp.SdpProblem.make([2], [((self.E00,), -1.0)], objective=(np.eye(2),))
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.NUMERICAL_FAILURE
        assert out.message == "max iterations reached"
        assert out.iterations == sdp.MAX_ITER
