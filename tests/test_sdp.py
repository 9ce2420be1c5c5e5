"""SDP solver: examples, verification, embedding, dump/restore."""

import re

import numpy as np
import pytest

from conftest import planted_optimum
from freespec import linalg, sdp
from freespec.linalg import SIGMA_X, SIGMA_Z


def trace_inner(a, b) -> float:
    """<A, B> = Re tr(B* A)."""
    return float(np.real(np.trace(b.conj().T @ a)))


class TestSolveExamples:
    def test_minimize_spectral_bound(self):
        # min t s.t. t*I - sigma_x >= 0, in standard primal form via
        # X = t*I - sigma_x: optimum t = lambda_max(sigma_x) = 1, from the
        # start X = 2 I - sigma_x, y = (1/2, 0, 0) with C - A*(y) = I / 2
        rows = [
            [[1, 0], [0, -1]],     # X00 = X11
            [[0, 1], [1, 0]],      # 2 Re X01 = -2
            [[0, 1j], [-1j, 0]],   # 2 Im X01 = 0
        ]
        p = sdp.SdpProblem([rows], [0.0, -2.0, 0.0], [[[1, 0], [0, 0]]])
        out = sdp.solve(p, start=([2 * np.eye(2) - SIGMA_X], [0.5, 0.0, 0.0]))
        assert out.status is sdp.SdpStatus.OPTIMAL
        assert out.objective_value == pytest.approx(1.0, abs=1e-7)

    def test_infeasible_expectation(self):
        p = sdp.SdpProblem([[np.eye(2), SIGMA_Z]], [1.0, 2.0])
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.INFEASIBLE
        assert out.dual_certificate is not None
        assert sdp.verify(out, p).ok

    def test_feasible_expectation(self):
        p = sdp.SdpProblem([[np.eye(2), SIGMA_Z]], [1.0, 0.0])
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.FEASIBLE
        x = out.primal[0]
        assert np.trace(x).real == pytest.approx(1.0, abs=1e-7)
        assert abs(np.trace(SIGMA_Z @ x)) < 1e-7
        # the maximally mixed point is among valid answers
        assert linalg.eigh(out.primal[0])[0][0] > -1e-9


class TestVerify:
    def test_exact_primal_zero_residual(self):
        p = sdp.SdpProblem([[np.eye(2)]], [1.0])
        out = sdp.SdpOutcome(
            status=sdp.SdpStatus.FEASIBLE, primal=(linalg.hermitian(np.eye(2) / 2),)
        )
        rep = sdp.verify(out, p)
        assert rep.ok
        assert rep.max_residual == pytest.approx(0.0, abs=1e-15)

    def test_infeasible_certificate_validates(self):
        p = sdp.SdpProblem([[np.eye(2), SIGMA_Z]], [1.0, 2.0])
        out = sdp.solve(p)
        rep = sdp.verify(out, p)
        assert rep.ok
        assert rep.farkas_gap > 0
        assert rep.farkas_lambda_max <= 1e-7 * rep.farkas_gap

    def test_tampered_primal_flagged(self):
        p = sdp.SdpProblem([[[[1, 0], [0, 0]]]], [0.9])
        bad = linalg.hermitian(np.diag([0.9, -0.1]))
        out = sdp.SdpOutcome(status=sdp.SdpStatus.FEASIBLE, primal=(bad,))
        rep = sdp.verify(out, p)
        assert not rep.ok
        assert rep.psd_margin == pytest.approx(-0.1, abs=1e-12)

    def test_primal_block_of_the_wrong_size(self):
        p = sdp.SdpProblem([[np.eye(2)]], [1.0])
        out = sdp.SdpOutcome(status=sdp.SdpStatus.FEASIBLE, primal=(np.eye(3),))
        rep = sdp.verify(out, p)
        assert not rep.ok and rep.max_residual == np.inf
        assert rep.notes == "primal blocks misshapen"

    def test_primal_block_by_block(self):
        # a block missing is flagged; real blocks are read as Hermitian
        p = sdp.SdpProblem([[np.eye(2)], [np.zeros((2, 2))]], [1.0])
        half = np.eye(2, dtype=complex) / 2
        missing = sdp.SdpOutcome(status=sdp.SdpStatus.FEASIBLE, primal=(half,))
        assert not sdp.verify(missing, p).ok
        real = sdp.SdpOutcome(status=sdp.SdpStatus.FEASIBLE, primal=(half.real, np.eye(2)))
        assert sdp.verify(real, p).ok


class TestRoundTripInvariant:
    def test_random_feasible_outcomes_verify(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, min(8, n * n)))
            # a trace row puts I in the span of the rows
            amats = [linalg.random_hermitian(rng, n) for _ in range(m)] + [np.eye(n)]
            x0 = linalg.random_psd(rng, n)
            p = sdp.SdpProblem([amats], [trace_inner(x0, a) for a in amats])
            out = sdp.solve(p)
            assert out.status is sdp.SdpStatus.FEASIBLE
            rep = sdp.verify(out, p)
            assert rep.ok
            assert rep.max_residual < 1e-6


class TestDualityGap:
    def test_optimal_gap_small(self):
        # a primal-dual pair with complementary optimum, from a planted start
        rng = np.random.default_rng(13)
        for _ in range(10):
            p, expected, start = planted_optimum(rng, 4, 1, 5)
            out = sdp.solve(p, start=start)
            assert out.status is sdp.SdpStatus.OPTIMAL
            assert out.objective_value == pytest.approx(expected, abs=1e-6 * (1 + abs(expected)))
            # primal-dual duality gap at the returned multipliers
            dual_obj = float(out.y @ p.b)
            assert abs(out.objective_value - dual_obj) < 1e-6 * (1 + abs(out.objective_value))


class TestComplexEmbedding:
    def test_real_doubling_preserves_objective(self):
        # solving the explicitly doubled real problem gives exactly twice
        # the complex objective value (inner products double), from the
        # doubled start
        rng = np.random.default_rng(14)

        def emb(h):
            return np.block([[h.real, -h.imag], [h.imag, h.real]])

        for trial in range(10):
            p, _, (x, y) = planted_optimum(rng, 3, 1, 4)
            out = sdp.solve(p, start=(x, y))
            assert out.status is sdp.SdpStatus.OPTIMAL

            p2 = sdp.SdpProblem([[emb(a) for a in p.a[0]]], 2.0 * p.b, [emb(p.cg[0])])
            out2 = sdp.solve(p2, start=([emb(x[0])], y))
            assert out2.status is sdp.SdpStatus.OPTIMAL
            assert out2.objective_value / 2.0 == pytest.approx(
                out.objective_value, abs=1e-6 * (1 + abs(out.objective_value))
            )


class TestNativeHermitianBlocks:
    """The core works on each Hermitian block at its own size: no
    eigendecomposition or eigenvalue solve is larger than the largest
    block.  Blocks of equal size are decomposed as one stack, so the size
    is the last axis."""

    @pytest.fixture()
    def eigh_shapes(self, monkeypatch):
        from freespec import _kernels

        shapes = []
        for owner, name in ((_kernels, "eigh_kernel"), (np.linalg, "eigvalsh")):
            def recording(a, real=getattr(owner, name)):
                shapes.append(a.shape)
                return real(a)

            monkeypatch.setattr(owner, name, recording)
        return shapes

    def test_complex_single_block(self, eigh_shapes):
        rng = np.random.default_rng(16)
        n = 3
        amats = [linalg.random_hermitian(rng, n) for _ in range(4)] + [np.eye(n)]
        assert any(np.abs(a.imag).max() > 0.1 for a in amats)
        x0 = linalg.random_psd(rng, n)
        p = sdp.SdpProblem([amats], [trace_inner(x0, a) for a in amats])
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


class TestMultiBlock:
    def test_blocks_with_gaps(self):
        # each row touches one block, the other's coefficients are zero;
        # the first block's point is on the boundary, (I + sigma_x) / 2
        z = np.zeros((2, 2))
        p = sdp.SdpProblem([[np.eye(2), SIGMA_X, z], [z, z, np.eye(2)]], [1.0, 1.0, 2.0])
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.FEASIBLE
        assert sdp.verify(out, p).ok

    def test_blocks_are_read_from_the_coefficients(self):
        # k and n come from the shape of the coefficients; blocks is derived
        # and cannot be set
        p = sdp.SdpProblem(np.zeros((3, 1, 2, 2)), [0.0])
        assert p.blocks == (2, 2, 2)
        with pytest.raises(AttributeError):
            p.blocks = (3,)


class TestStartOnSeveralSizes:
    """An objective problem on three blocks of size 2 from an exactly
    feasible, strictly interior start (X0 and S0 = C - A*(y0) positive
    definite with b = A(X0)), against the same problem as one block of
    size 6 from the same start."""

    BLOCKS = (2, 2, 2)

    @staticmethod
    def _problem():
        rng = np.random.default_rng(41)
        blocks = TestStartOnSeveralSizes.BLOCKS
        x0 = [linalg.random_psd(rng, n) + np.eye(n) for n in blocks]
        s0 = [linalg.random_psd(rng, n) + np.eye(n) for n in blocks]
        y0 = rng.standard_normal(6)
        rows = [[linalg.random_hermitian(rng, n) for n in blocks] for _ in y0]
        b = [sum(np.vdot(a, x).real for a, x in zip(row, x0)) for row in rows]
        c = [s + sum(yi * row[k] for yi, row in zip(y0, rows)) for k, s in enumerate(s0)]
        return sdp.SdpProblem(np.swapaxes(rows, 0, 1), b, c), (x0, y0)

    @staticmethod
    def _diag(mats):
        """Square matrices as one block diagonal matrix."""
        at = np.cumsum([0] + [len(mat) for mat in mats])
        out = np.zeros((at[-1],) * 2, dtype=complex)
        for k, mat in enumerate(mats):
            out[at[k]:at[k + 1], at[k]:at[k + 1]] = mat
        return out

    def test_optimal_from_the_start(self):
        p, start = self._problem()
        out = sdp.solve(p, start=start)
        assert out.status is sdp.SdpStatus.OPTIMAL
        assert sdp.verify(out, p).ok

        rows = [self._diag([ak[i] for ak in p.a]) for i in range(len(p.b))]
        one = sdp.SdpProblem([rows], p.b, [self._diag(p.c)])
        one = sdp.solve(one, start=([self._diag(start[0])], start[1]))
        assert one.status is sdp.SdpStatus.OPTIMAL
        assert out.objective_value == pytest.approx(one.objective_value, rel=1e-6)


class TestDumpRestore:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        amats = [linalg.random_hermitian(rng, 3) for _ in range(3)]
        obj = linalg.random_hermitian(rng, 3)
        rhs = [float(rng.standard_normal()) for _ in amats]
        p = sdp.SdpProblem([amats, np.zeros((3, 3, 3))], rhs, [np.zeros((3, 3)), obj])
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
        p = sdp.SdpProblem([[np.eye(2)]], [1.0])
        path = tmp_path / "feas.sdpa"
        sdp.dump_problem(p, path)
        q = sdp.load_problem(path)
        assert q.c is None


class TestValidation:
    def test_block_dim_mismatch(self):
        # a 2 x 2 coefficient against a 3 x 3 objective, and a block that
        # is not square
        want = r"^objective: shape \(1, 3, 3\), expected \(1, 2, 2\)$"
        with pytest.raises(ValueError, match=want):
            sdp.SdpProblem([[np.eye(2)]], [1.0], [np.eye(3)])
        want = r"^coefficients and right-hand sides: shapes \(1, 1, 2, 3\) and \(1,\), expected"
        with pytest.raises(ValueError, match=want):
            sdp.SdpProblem(np.zeros((1, 1, 2, 3)), [1.0])

    def test_positive_blocks(self):
        # blocks of size 0, no block, and no row (which `solve` could not
        # take and a dump could not restore)
        want = r"^coefficients and right-hand sides: shapes \({}\) and \({}\), expected .* positive"
        with pytest.raises(ValueError, match=want.format("1, 0, 0, 0", "0,")):
            sdp.SdpProblem(np.zeros((1, 0, 0, 0)), [])
        with pytest.raises(ValueError, match=want.format("0, 1, 2, 2", "1,")):
            sdp.SdpProblem(np.zeros((0, 1, 2, 2)), [1.0])
        with pytest.raises(ValueError, match=want.format("1, 0, 2, 2", "0,")):
            sdp.SdpProblem(np.zeros((1, 0, 2, 2)), [], np.eye(2)[None])
        with pytest.raises(ValueError, match=want.format("1, 0, 2, 2", "0,")):
            sdp.SdpProblem.make([2], [])

    def test_not_four_dimensional(self):
        # k and n are read from the shape of the coefficients, so one stack
        # without its block axis is rejected, not read as k = 1
        want = (r"^coefficients and right-hand sides: shapes \(1, 2, 2\) and \(1,\), "
                r"expected \(k, m, n, n\) with k, m, n positive and \(m,\)$")
        with pytest.raises(ValueError, match=want):
            sdp.SdpProblem([np.eye(2)], [1.0])

    def test_rows_and_right_hand_sides(self):
        # two rows, one right-hand side
        want = r"^coefficients and right-hand sides: shapes \(1, 2, 2, 2\) and \(1,\), expected"
        with pytest.raises(ValueError, match=want):
            sdp.SdpProblem([[np.eye(2), SIGMA_Z]], [1.0])

    def test_non_hermitian_coefficient(self):
        with pytest.raises(ValueError, match="Hermitian"):
            sdp.SdpProblem([[[[1, 1], [0, 1]]]], [1.0])

    def test_blocks_of_different_sizes(self, tmp_path):
        # a dump's header is the one place where block sizes are stated, so
        # its reader is the one that rejects sizes 2 and 3 and names them
        path = tmp_path / "mixed.sdpa"
        path.write_text("1\n2\n2 3\n1.0\n1 1 1 1 1.0 0.0\n1 2 1 1 1.0 0.0\n")
        with pytest.raises(ValueError, match=r"sizes \(2, 3\)"):
            sdp.load_problem(path)


    @pytest.mark.parametrize(
        "entry",
        ["1 0 1 1 1.0 0.0", "1 2 1 1 1.0 0.0", "1 1 3 1 1.0 0.0", "1 1 1 0 1.0 0.0",
         "2 1 1 1 1.0 0.0", "-1 1 1 1 1.0 0.0", "1 1 1 1 1.0", "1 1 1 1 1.0 0.0 0.0"],
        ids=["block-zero", "block-past", "row-past", "column-zero", "matno-past",
             "matno-negative", "five-fields", "seven-fields"],
    )
    def test_dump_entry_out_of_range(self, tmp_path, entry):
        # an index 0 would wrap to the last block or entry and one past the
        # end would end in an IndexError; each names its line, counted in
        # the file with the comment line
        path = tmp_path / "bad.sdpa"
        path.write_text(f"* comment\n1\n1\n2\n1.0\n{entry}\n")
        want = ("line 6: expected 'matno block i j re im' with matno in 0..1, block in 1..1 "
                "and i, j in 1..2")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            sdp.load_problem(path)

    @pytest.mark.parametrize(
        "entry", ["1 1 1.5 1 1.0 0.0", "1 1 1 1 x 0.0", "1 1 1 1 1.0 nan0"],
        ids=["index-not-integer", "value-not-number", "imaginary-not-number"],
    )
    def test_dump_entry_unreadable(self, tmp_path, entry):
        # an entry that does not read as four integers and two floats is
        # named by its line like one out of range
        path = tmp_path / "bad.sdpa"
        path.write_text(f"* comment\n1\n1\n2\n1.0\n{entry}\n")
        want = ("line 6: expected 'matno block i j re im' with matno in 0..1, block in 1..1 "
                "and i, j in 1..2")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            sdp.load_problem(path)

    @pytest.mark.parametrize(
        "text, want",
        [
            ("", "missing header line 1 of 4"),
            ("* only a comment\n1\n1\n", "missing header line 3 of 4"),
            ("1.5\n1\n2\n1.0\n", "line 1: expected m, one integer >= 1"),
            ("-1\n1\n2\n1.0\n", "line 1: expected m, one integer >= 1"),
            ("0\n1\n2\n1.0\n", "line 1: expected m, one integer >= 1"),
            ("1\n1 1\n2\n1.0\n", "line 2: expected the block count, one integer >= 1"),
            ("1\n0\n2\n1.0\n", "line 2: expected the block count, one integer >= 1"),
            ("1\n2\n2\n1.0\n", "line 3: expected the block sizes, 2 positive integers"),
            ("1\n1\n0\n1.0\n", "line 3: expected the block sizes, 1 positive integers"),
            ("1\n1\n2.0\n1.0\n", "line 3: expected the block sizes, 1 positive integers"),
            ("1\n1\n2\n1.0 2.0\n", "line 4: expected the right-hand sides, 1 numbers"),
            ("1\n1\n2\nx\n", "line 4: expected the right-hand sides, 1 numbers"),
        ],
        ids=["empty", "two-lines", "m-not-integer", "m-negative", "m-zero", "count-two-tokens",
             "count-zero", "sizes-too-few", "size-zero", "size-not-integer",
             "rhs-too-many", "rhs-not-number"],
    )
    def test_dump_header_errors(self, tmp_path, text, want):
        # a header line that does not read, or is missing, is named
        path = tmp_path / "bad.sdpa"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            sdp.load_problem(path)


class TestMake:
    def test_rows_give_the_arrays_of_the_constructor(self):
        # the row-list builder reads None as a zero block
        rows = [([np.eye(2), None], 1.0), ([SIGMA_X, SIGMA_Z], 0.5)]
        p = sdp.SdpProblem.make([2, 2], rows, [None, np.eye(2)])
        z = np.zeros((2, 2))
        q = sdp.SdpProblem([[np.eye(2), SIGMA_X], [z, SIGMA_Z]], [1.0, 0.5], [z, np.eye(2)])
        assert p.blocks == q.blocks == (2, 2)
        for x, y in [(p.a, q.a), (p.b, q.b), (p.cg, q.cg)]:
            assert np.array_equal(x, y)

    @pytest.mark.parametrize(
        "blocks, coeffs, want",
        [([2, 3], [np.eye(2), np.eye(3)], r"^expected blocks of one size, got sizes \(2, 3\)$"),
         ([0], [np.zeros((0, 0))], r"^expected blocks of one size, got sizes \(0,\)$"),
         ([2], [np.eye(2), np.eye(2)], r"^constraint 0: shape \(2, 2, 2\), expected \(1, 2, 2\)$"),
         ([3], [np.eye(2)], r"^constraint 0: shape \(1, 2, 2\), expected \(1, 3, 3\)$")],
        ids=["sizes-differ", "size-zero", "too-many-blocks", "block-too-small"],
    )
    def test_rejects_rows_that_do_not_fit(self, blocks, coeffs, want):
        with pytest.raises(ValueError, match=want):
            sdp.SdpProblem.make(blocks, [(coeffs, 1.0)])


class TestFloored:
    def test_a_row_with_a_non_positive_eigenvalue_is_floored(self):
        # ascending eigenvalue rows: a row whose smallest value is not
        # positive is floored at 1e-14 max(1, its largest), in place; a
        # positive row is left as it is
        w = np.array([[-1.0, 2.0, 5.0], [0.0, 0.25, 0.5], [-0.0, 0.0, 0.0], [1e-20, 1.0, 3.0]])
        out = sdp._floored(w)
        assert out is w
        assert np.array_equal(out, [
            [5e-14, 2.0, 5.0], [1e-14, 0.25, 0.5], [1e-14, 1e-14, 1e-14], [1e-20, 1.0, 3.0],
        ])


class TestInverseFactor:
    """The factor of the Schur complement and of `_embedding`'s Gram
    matrix: None when the matrix is not positive definite, which the Schur
    jitter loop and the dependent-rows error read, else a refined solve."""

    def test_none_on_an_indefinite_matrix(self):
        assert sdp._inverse_factor(np.array([[1.0, 2.0], [2.0, 1.0]])) is None

    def test_none_on_the_gram_matrix_of_two_equal_rows(self):
        rows = np.array([[1.0, 1.0, 1.0, 1.0]] * 2)
        assert sdp._inverse_factor(rows @ rows.T) is None

    def test_the_refined_solve_matches_numpy(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((16, 16))
        a = b @ b.T + np.eye(16)
        v = rng.standard_normal(16)
        li = sdp._inverse_factor(a)
        np.testing.assert_allclose(sdp._solve(li, a, v), np.linalg.solve(a, v), rtol=0, atol=1e-12)


class TestCheck:
    def test_first_answer_stops_the_solve(self):
        # min X00 + X11 subject to X01 + X10 = 2, from X = 2 I + sigma_x
        # and y = 0: the check answers at its third iterate, after two
        # completed iterations
        p = sdp.SdpProblem([[SIGMA_X]], [2.0], [np.eye(2)])
        seen = []

        def check(x, y):
            seen.append((len(x), y.shape))
            return "third" if len(seen) == 3 else None

        out = sdp.solve(p, check=check, start=([2 * np.eye(2) + SIGMA_X], [0.0]))
        assert out.status is sdp.SdpStatus.STOPPED
        assert out.answer == "third"
        assert out.iterations == 2
        assert seen == [(1, (1,))] * 3


class TestFailureExits:
    def test_a_solve_out_of_iterations_is_a_numerical_failure(self, monkeypatch):
        # the feasible point of the boundary example is not reached in one
        # iteration
        monkeypatch.setattr(sdp, "MAX_ITER", 1)
        p = sdp.SdpProblem([[np.eye(2), SIGMA_X]], [1.0, 1.0])
        out = sdp.solve(p)
        assert out.status is sdp.SdpStatus.NUMERICAL_FAILURE
        assert out.message == "max iterations reached"
        assert out.iterations == 1


class TestOneMode:
    """Every solve starts exactly feasible and strictly interior: an
    objective problem needs its start, and a feasibility problem is
    embedded, which needs independent rows with I in their span."""

    def test_an_objective_problem_needs_a_start(self):
        p = sdp.SdpProblem([[SIGMA_X]], [2.0], [np.eye(2)])
        with pytest.raises(ValueError, match="^a problem with an objective needs a start$"):
            sdp.solve(p)

    def test_a_feasibility_problem_takes_no_start_or_check(self):
        p = sdp.SdpProblem([[np.eye(2)]], [1.0])
        want = "^a start or a check is for a problem with an objective$"
        with pytest.raises(ValueError, match=want):
            sdp.solve(p, start=([np.eye(2) / 2], [0.0]))
        with pytest.raises(ValueError, match=want):
            sdp.solve(p, check=lambda x, y: None)

    @pytest.mark.parametrize("rhs, entries, want", [
        # rows tr X = 1 and 2 tr X = 2
        ("1.0 2.0", ["1 1 1 1 1.0 0.0", "1 1 2 2 1.0 0.0", "2 1 1 1 2.0 0.0", "2 1 2 2 2.0 0.0"],
         "the constraint rows are linearly dependent"),
        # rows X00 = 1 and 2 Re X01 = 0
        ("1.0 0.0", ["1 1 1 1 1.0 0.0", "2 1 1 2 1.0 0.0"],
         r"the span of the constraint rows holds no identity \(off by 1.00e\+00\)"),
    ], ids=["dependent", "no-identity"])
    def test_a_loaded_feasibility_dump_the_embedding_rejects(self, tmp_path, rhs, entries, want):
        path = tmp_path / "feas.sdpa"
        path.write_text("\n".join(["2", "1", "2", rhs] + entries) + "\n")
        p = sdp.load_problem(path)
        assert p.c is None
        with pytest.raises(ValueError, match=f"^{want}$"):
            sdp.solve(p)
