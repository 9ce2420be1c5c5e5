"""Hermitian kernel operations: construction, eigh, the eigenvalue callers
of eigh_kernel and the JSON matrix literals."""

import json
import math

import numpy as np
import pytest

from freespec import _kernels, certificates, linalg, opsys, pencil
from freespec.linalg import SIGMA_X, SIGMA_Z, HermitianMatrix, eigh


def min_eigenvalue(a) -> float:
    return float(eigh(a)[0][0])


class TestHermitianMatrix:
    def test_symmetrized_exactly(self):
        a = np.array([[1.0, 0.3 + 1e-13j], [0.3, 2.0]])
        h = HermitianMatrix(a)
        assert np.array_equal(h.mat, h.mat.conj().T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix([[0, 1], [0, 0]])

    @pytest.mark.parametrize("x", [1e160, 1.5e308])
    def test_rejects_an_asymmetry_past_the_overflow_of_the_norm(self, x):
        # ||A||_F overflows from about 1.3e154 and A - A* from about 9e307;
        # neither may make the tolerance inf, which accepted A as zero
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix([[0, x], [-x, 0]])

    def test_a_huge_entry_changes_no_other_bit(self):
        # A + A* overflows at (0, 0) only: (A + A*)/2 is finite there, and
        # every other entry keeps the bits of the plain formula
        a = np.array([[1.5e308, 3e-310 + 1j], [3e-310 - 1j, -0.0]])
        small = a.copy()
        small[0, 0] = 1.0
        h, ref = linalg.hermitian(a), linalg.hermitian(small)
        assert h[0, 0] == 1.5e308
        rest = ([0, 1, 1], [1, 0, 1])
        assert h[rest].tobytes() == ref[rest].tobytes()

    def test_error_names_the_first_failing_matrix_and_its_asymmetry(self):
        # matrix 0 fails (tolerance ~2.4e-12); matrix 1 drifts by 1e-3 but
        # passes its tolerance of ~1e-2, so the error must not quote it
        stack = [[[0, 1], [1 + 1e-9, 0]], [[1e10, 1], [1.001, 0]]]
        with pytest.raises(ValueError) as exc:
            linalg.hermitian(stack, 3, "entries")
        assert str(exc.value) == "entries: matrix 0 is not Hermitian (asymmetry 1.000e-09)"
        linalg.hermitian(stack[1:], 3)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.zeros((2, 3)))

    def test_immutable(self):
        h = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            h.mat[0, 0] = 5.0


class TestEigh:
    def test_sigma_z_diagonal(self):
        w, _ = eigh(SIGMA_Z)
        assert np.allclose(w, [-1.0, 1.0])

    def test_identity(self):
        w, _ = eigh(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_sigma_x_characteristic(self):
        # oracle: roots of the characteristic polynomial lambda^2 - 1
        w, _ = eigh(SIGMA_X)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for n in range(2, 17):
            a = linalg.random_hermitian(rng, n)
            w, u = eigh(a)
            scale = 1 + np.linalg.norm(a)
            assert np.max(np.abs((u * w) @ u.conj().T - a)) <= 1e-9 * scale
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-9

    def test_ascending_order(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w, _ = eigh(linalg.random_hermitian(rng, 6))
            assert np.all(np.diff(w) >= -1e-14)

    def test_phase_normalization(self):
        rng = np.random.default_rng(2)
        inputs = [linalg.random_hermitian(rng, 5) for _ in range(20)]
        # eigenvectors of the sigma_x block have exactly zero leading entries
        inputs.append(np.block([[np.diag([1.0, 2.0]), np.zeros((2, 2))],
                                [np.zeros((2, 2)), SIGMA_X]]))
        for a in inputs:
            _, v = eigh(a)
            for j in range(v.shape[1]):
                col = v[:, j]
                k = np.argmax(np.abs(col) > 1e-10 * np.abs(col).max())
                assert col[k].imag == pytest.approx(0.0, abs=1e-12)
                assert col[k].real > 0


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(2)) == pytest.approx(1.0)

    def test_commuting_kron_combination(self):
        # oracle: brute-force 4x4 eigendecomposition; the two Kronecker
        # terms commute so eigenvalues are 1 +- sin +- cos
        a = (
            math.sin(math.pi / 4) * np.kron(SIGMA_Z, SIGMA_Z)
            + math.cos(math.pi / 4) * np.kron(SIGMA_X, SIGMA_X)
            + np.eye(4)
        )
        brute = np.linalg.eigvalsh(a).min()
        assert brute == pytest.approx(1 - math.sqrt(2), abs=1e-12)
        assert min_eigenvalue(a) == pytest.approx(1 - math.sqrt(2), abs=1e-9)

    def test_singular_diag(self):
        assert min_eigenvalue(np.diag([2.0, 0.0])) == pytest.approx(0.0, abs=1e-14)

    def test_superadditive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = linalg.random_hermitian(rng, 4)
            b = linalg.random_hermitian(rng, 4)
            lhs = min_eigenvalue(a + b)
            assert lhs >= min_eigenvalue(a) + min_eigenvalue(b) - 1e-9

    def test_eigenvalue_callers_keep_the_bits_of_eigh_kernel(self):
        # the library's eigenvalue-only callers make the LAPACK call of
        # eigh on the checked array, so they keep its bits
        rng = np.random.default_rng(4)
        for n in range(1, 7):
            for _ in range(20):
                m, q = linalg.random_hermitian(rng, n), linalg.random_hermitian(rng, n)
                top = _kernels.eigh_kernel(linalg.hermitian(q @ q - m))[0][-1]
                assert opsys.lambda1_block(m, q) == top

                p = pencil.LinearPencil([SIGMA_Z, SIGMA_X, np.eye(2)], [0.0, 0.0, 1.0])
                a = pencil.MatrixTuple([m, q, np.eye(n)])
                low = _kernels.eigh_kernel(linalg.hermitian(
                    np.kron(SIGMA_Z, m) + np.kron(SIGMA_X, q) + np.kron(np.eye(2), np.eye(n))))[0][0]
                assert pencil.membership(p, a).margin == low

                pd = linalg.random_psd(rng, n) + np.eye(n)
                w, v = _kernels.eigh_kernel(linalg.hermitian(pd))
                u = linalg._normalize_phases(v)
                assert np.array_equal(linalg.inv_sqrt_pd(pd), (u / np.sqrt(w)) @ u.conj().T)


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        a = linalg.random_hermitian(rng, 3)
        doc = linalg.matrix_to_json(a)
        b = linalg.matrix_from_json(doc)
        assert np.array_equal(a, b)

    def test_non_real_diagonal_rejected(self):
        doc = [[[1.0, 0.1], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.matrix_from_json(doc)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            linalg.matrix_from_json([[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])


@pytest.mark.parametrize(
    "value, shape, message",
    [
        ([1.0, 2.0], None, None),
        (0.5, (), None),
        ([0.0, 1.0, 2.0], (3,), None),
        ([1.0, math.nan], None, "x: expected finite numbers"),
        ([0.5], (), "x: expected a finite number"),
        (None, (), "x: expected a finite number"),
        ([1.0, 2.0], (3,), "x: expected 3 finite numbers"),
        ({}, (3,), "x: expected 3 finite numbers"),
        ([1.0, math.inf, 2.0], (3,), "x: expected 3 finite numbers"),
    ],
)
def test_finite_from_json_with_a_shape(value, shape, message):
    if message is None:
        x = linalg.finite_from_json(value, "x", shape)
        assert x.tobytes() == np.asarray(value, dtype=float).tobytes()
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            linalg.finite_from_json(value, "x", shape)


def _old_matrix_to_json(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _old_matrix_from_json(obj):
    a = np.array([[complex(float(e[0]), float(e[1])) for e in row] for row in obj])
    return HermitianMatrix(a)


def _signed_zero_matrix(rng, n):
    """A Hermitian matrix with -0.0 and +0.0 parts, tiny and huge entries."""
    a = linalg.random_hermitian(rng, n) * 10.0 ** rng.integers(-150, 150, (n, n))
    a = np.array((a + a.conj().T) / 2.0)
    a[0, 0] = complex(-0.0, 0.0)
    if n > 1:
        a[0, 1], a[1, 0] = complex(0.0, -0.0), complex(-0.0, 0.0)
        a[1, 1] = 3
    return a


class TestJsonLiteralsVectorised:
    """The array encoders and decoders against the entry-by-entry ones."""

    def test_encoder_bytes_equal_the_comprehension(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 6):
            m = HermitianMatrix(_signed_zero_matrix(rng, n)).mat
            new = json.dumps(linalg.matrix_to_json(m))
            assert new == json.dumps(_old_matrix_to_json(m))
        assert "-0.0" in new

    def test_kraus_encoder_bytes_equal_the_comprehension(self):
        rng = np.random.default_rng(12)
        kraus = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        kraus[0, 0, 0] = complex(-0.0, -0.0)
        kraus[1, 2, 1] = complex(0.0, -0.0)
        old = [[[[float(x.real), float(x.imag)] for x in row] for row in v] for v in kraus]
        for given in (tuple(kraus), ()):
            want = old if len(given) else []
            assert json.dumps(linalg.matrix_to_json(given)) == json.dumps(want)
        assert "-0.0" in json.dumps(old)

    def test_decoders_equal_the_entry_parse_bitwise(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 4):
            doc = _old_matrix_to_json(_signed_zero_matrix(rng, n))
            got = linalg.matrix_from_json(doc)
            want = _old_matrix_from_json(doc).mat
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        kraus = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        kraus[0, 1, 2] = complex(-0.0, -0.0)
        doc = linalg.matrix_to_json(tuple(kraus))
        got = certificates._kraus_from_json(doc)
        assert len(got) == 3
        for g, k in zip(got, kraus):
            assert g.dtype == np.complex128 and g.tobytes() == k.tobytes()
        assert certificates._kraus_from_json([]) == ()

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], r"row 1: expected 2 entries"),
            ([[[1.0, 0.0], [0.0]], [[0.0, 0.0], [1.0, 0.0]]], r"entry \(0,1\): expected \[re, im\]"),
            ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.5]]],
             r"entry \(1,1\): not Hermitian \(non-real diagonal\)"),
            ([[[1.0, 0.0, 2.0]]], r"entry \(0,0\): expected \[re, im\]"),
            ([], r"non-empty array of rows"),
        ],
    )
    def test_malformed_literals_keep_their_messages(self, doc, message):
        with pytest.raises(ValueError, match=message):
            linalg.matrix_from_json(doc)

    def test_non_finite_entries_are_named(self):
        # JSON admits Infinity and NaN, and an infinite asymmetry passes the
        # relative Hermitian test, so the parse itself rejects them
        doc = [[[1.0, 0.0], [float("inf"), 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        for parse in (linalg.matrix_from_json, lambda m: linalg.stack_from_json([m])):
            with pytest.raises(ValueError, match=r"entry \(0,1\): not finite"):
                parse(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [[[[1.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]]]],  # two shapes
            [[[[1.0, 0.0, 2.0]]]],  # a triple, not [re, im]
            [[[1.0, 0.0]]],  # one matrix, not a list of them
        ],
    )
    def test_malformed_kraus_lists_raise(self, doc):
        with pytest.raises(ValueError, match="kraus"):
            certificates._kraus_from_json(doc)
