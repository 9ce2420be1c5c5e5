"""Hermitian kernel operations: construction, eigh, psd tests, kron, inner."""

import math

import numpy as np
import pytest

from freespec import linalg
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
