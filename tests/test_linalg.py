"""Hermitian kernel operations: construction, eigh, psd tests, kron, inner."""

import json
import math

import numpy as np
import pytest

from freespec import certificates, linalg
from freespec.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HermitianMatrix,
    eigh,
    is_psd,
    kron,
    min_eigenvalue,
    trace_inner,
)


class TestHermitianMatrix:
    def test_symmetrized_exactly(self):
        a = np.array([[1.0, 0.3 + 1e-13j], [0.3, 2.0]])
        h = HermitianMatrix(a)
        assert np.array_equal(h.mat, h.mat.conj().T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix([[0, 1], [0, 0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.zeros((2, 3)))

    def test_immutable(self):
        h = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            h.mat[0, 0] = 5.0


class TestEigh:
    def test_sigma_z_diagonal(self):
        dec = eigh(SIGMA_Z)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_identity(self):
        dec = eigh(HermitianMatrix.identity(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])

    def test_sigma_x_characteristic(self):
        # oracle: roots of the characteristic polynomial lambda^2 - 1
        dec = eigh(SIGMA_X)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for n in range(2, 17):
            a = linalg.random_hermitian(rng, n)
            dec = eigh(a)
            scale = 1 + a.norm()
            assert np.max(np.abs(dec.reconstruct() - a.mat)) <= 1e-9 * scale
            u = dec.eigenvectors
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-9

    def test_ascending_order(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = eigh(linalg.random_hermitian(rng, 6)).eigenvalues
            assert np.all(np.diff(w) >= -1e-14)

    def test_phase_normalization(self):
        rng = np.random.default_rng(2)
        inputs = [linalg.random_hermitian(rng, 5) for _ in range(20)]
        # eigenvectors of the sigma_x block have exactly zero leading entries
        inputs.append(np.block([[np.diag([1.0, 2.0]), np.zeros((2, 2))],
                                [np.zeros((2, 2)), SIGMA_X.mat]]))
        for a in inputs:
            v = eigh(a).eigenvectors
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
            math.sin(math.pi / 4) * np.kron(SIGMA_Z.mat, SIGMA_Z.mat)
            + math.cos(math.pi / 4) * np.kron(SIGMA_X.mat, SIGMA_X.mat)
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
            lhs = min_eigenvalue(HermitianMatrix(a.mat + b.mat))
            assert lhs >= min_eigenvalue(a) + min_eigenvalue(b) - 1e-9


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(2), tol=1e-8)

    def test_sigma_z(self):
        assert not is_psd(SIGMA_Z, tol=1e-8)

    def test_zero_tol_zero_matrix(self):
        assert is_psd(np.zeros((2, 2)), tol=0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_psd(np.eye(2), tol=-1.0)


class TestKron:
    def test_sigma_z_squared(self):
        assert np.allclose(kron(SIGMA_Z, SIGMA_Z).mat, np.diag([1, -1, -1, 1]))

    def test_identity_block(self):
        b = linalg.random_hermitian(np.random.default_rng(4), 3)
        k = kron(HermitianMatrix.identity(2), b).mat
        assert np.allclose(k[:3, :3], b.mat)
        assert np.allclose(k[3:, 3:], b.mat)
        assert np.allclose(k[:3, 3:], 0)

    def test_sigma_x_kron_identity(self):
        expected = np.array(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float
        )
        assert np.allclose(kron(SIGMA_X, HermitianMatrix.identity(2)).mat, expected)

    def test_eigenvalue_products(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = linalg.random_hermitian(rng, 3)
            b = linalg.random_hermitian(rng, 2)
            got = np.sort(eigh(kron(a, b)).eigenvalues)
            ea = eigh(a).eigenvalues
            eb = eigh(b).eigenvalues
            want = np.sort(np.outer(ea, eb).ravel())
            assert np.max(np.abs(got - want)) <= 1e-9 * (1 + np.max(np.abs(want)))


class TestTraceInner:
    def test_sigma_z_self(self):
        assert trace_inner(SIGMA_Z, SIGMA_Z) == pytest.approx(2.0)

    def test_orthogonal_paulis(self):
        assert trace_inner(SIGMA_Z, SIGMA_X) == pytest.approx(0.0)
        assert trace_inner(SIGMA_Z, SIGMA_Y) == pytest.approx(0.0)

    def test_against_identity_is_trace(self):
        rng = np.random.default_rng(6)
        a = linalg.random_hermitian(rng, 4)
        assert trace_inner(HermitianMatrix.identity(4), a) == pytest.approx(
            float(np.real(np.trace(a.mat)))
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_inner(SIGMA_Z, HermitianMatrix.identity(3))

    def test_symmetric_bilinear_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = linalg.random_hermitian(rng, 3)
            b = linalg.random_hermitian(rng, 3)
            c = linalg.random_hermitian(rng, 3)
            s, t = rng.standard_normal(2)
            assert trace_inner(a, b) == pytest.approx(trace_inner(b, a), abs=1e-12)
            lhs = trace_inner(HermitianMatrix(s * a.mat + t * b.mat), c)
            assert lhs == pytest.approx(
                s * trace_inner(a, c) + t * trace_inner(b, c), abs=1e-9
            )
            assert trace_inner(a, a) > 0 or a.norm() == 0


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        a = linalg.random_hermitian(rng, 3)
        doc = linalg.matrix_to_json(a)
        b = linalg.matrix_from_json(doc)
        assert np.array_equal(a.mat, b.mat)

    def test_non_real_diagonal_rejected(self):
        doc = [[[1.0, 0.1], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.matrix_from_json(doc)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            linalg.matrix_from_json([[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])


def _old_matrix_to_json(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _old_matrix_from_json(obj):
    a = np.array([[complex(float(e[0]), float(e[1])) for e in row] for row in obj])
    return HermitianMatrix(a)


def _signed_zero_matrix(rng, n):
    """A Hermitian matrix with -0.0 and +0.0 parts, tiny and huge entries."""
    a = linalg.random_hermitian(rng, n).mat * 10.0 ** rng.integers(-150, 150, (n, n))
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
            got = linalg.matrix_from_json(doc).mat
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
