"""Dense complex Hermitian linear algebra kernel.

Everything downstream (pencils, cones, membership oracles, the SDP solver)
works with values from this module.  All operations are pure, inputs are
treated as immutable, and tolerances are relative, scaled by
``1 + ||A||_F`` unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

HERMITIAN_CONSTRUCTION_TOL = 1e-12
PSD_DEFAULT_TOL = 1e-8


class HermitianMatrix:
    """A square complex matrix equal to its conjugate transpose.

    Hermiticity is checked at construction within a relative tolerance of
    1e-12, then enforced exactly by symmetrising ``(A + A*)/2``.  The
    stored array is read-only.
    """

    __slots__ = ("_mat",)

    def __init__(self, entries) -> None:
        a = np.asarray(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        scale = 1.0 + float(np.linalg.norm(a))
        drift = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
        if drift > HERMITIAN_CONSTRUCTION_TOL * scale:
            raise ValueError(f"matrix is not Hermitian (asymmetry {drift:.3e})")
        m = (a + a.conj().T) / 2.0
        m.flags.writeable = False
        self._mat = m

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def mat(self) -> np.ndarray:
        """Read-only ndarray view of the entries."""
        return self._mat

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self._mat.astype(dtype)
        return self._mat

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"

    def norm(self) -> float:
        return float(np.linalg.norm(self._mat))

    @classmethod
    def identity(cls, n: int) -> "HermitianMatrix":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, n: int) -> "HermitianMatrix":
        return cls(np.zeros((n, n)))


def as_hermitian(a) -> HermitianMatrix:
    """Coerce an array-like (or pass through a HermitianMatrix)."""
    if isinstance(a, HermitianMatrix):
        return a
    return HermitianMatrix(a)


SIGMA_X = HermitianMatrix([[0, 1], [1, 0]])
SIGMA_Y = HermitianMatrix([[0, -1j], [1j, 0]])
SIGMA_Z = HermitianMatrix([[1, 0], [0, -1]])


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition A = U diag(w) U* with w sorted ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def _normalize_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is real positive."""
    mags = np.abs(v)
    colmax = mags.max(axis=0)
    thresh = 1e-10 * np.where(colmax > 0, colmax, 1.0)
    first = np.argmax(mags > thresh, axis=0)
    pivot = v[first, np.arange(v.shape[1])]
    size = np.abs(pivot)
    phase = np.where(size > 0, pivot.conjugate() / np.where(size > 0, size, 1.0), 1.0)
    return v * phase


def eigh(a) -> EigenDecomposition:
    """Full spectral decomposition of a Hermitian matrix.

    Ordering is deterministic: eigenvalues ascending, each eigenvector
    phase-normalised so that its first nonzero component is real positive.
    """
    h = as_hermitian(a)
    w, v = _kernels.eigh_kernel(h.mat)
    v = _normalize_phases(v)
    w.flags.writeable = False
    v.flags.writeable = False
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def eigvalsh(a) -> np.ndarray:
    return eigh(a).eigenvalues


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(eigh(a).eigenvalues[0])


def max_eigenvalue(a) -> float:
    return float(eigh(a).eigenvalues[-1])


def is_psd(a, tol: float = PSD_DEFAULT_TOL) -> bool:
    """True iff min eig >= -tol * (1 + ||A||_F)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    h = as_hermitian(a)
    return min_eigenvalue(h) >= -tol * (1.0 + h.norm())


def kron(a, b) -> HermitianMatrix:
    """Kronecker product, A-index major block order."""
    ha, hb = as_hermitian(a), as_hermitian(b)
    return HermitianMatrix(np.kron(ha.mat, hb.mat))


def trace_inner(a, b) -> float:
    """Real inner product <A, B> = tr(B* A) of Hermitian matrices."""
    ha, hb = as_hermitian(a), as_hermitian(b)
    if ha.dim != hb.dim:
        raise ValueError(f"dimension mismatch: {ha.dim} vs {hb.dim}")
    return float(np.real(np.trace(hb.mat.conj().T @ ha.mat)))


def sqrt_psd(a, floor: float = 0.0) -> np.ndarray:
    """Hermitian square root, eigenvalues clipped below at ``floor``."""
    dec = eigh(a)
    w = np.clip(dec.eigenvalues, floor, None)
    u = dec.eigenvectors
    return (u * np.sqrt(w)) @ u.conj().T


def inv_sqrt_pd(a, min_eig: float = 1e-14) -> np.ndarray:
    """Inverse Hermitian square root; requires positive definiteness."""
    dec = eigh(a)
    if dec.eigenvalues[0] <= min_eig:
        raise ValueError(
            f"matrix is not positive definite (min eig {dec.eigenvalues[0]:.3e})"
        )
    u = dec.eigenvectors
    return (u / np.sqrt(dec.eigenvalues)) @ u.conj().T


def hermitian_basis(n: int) -> np.ndarray:
    """Real basis of the n x n Hermitian matrices, as an (n^2, n, n) stack.

    Diagonal units E_jj first, then for each pair j < k the real part unit
    E_jk + E_kj and the imaginary part unit i(E_jk - E_kj).  The traces
    against a Hermitian P are, respectively, P_jj, 2*Re(P_jk), 2*Im(P_jk).
    """
    out = np.zeros((n * n, n, n), dtype=np.complex128)
    diag = np.arange(n)
    out[diag, diag, diag] = 1.0
    j, k = np.triu_indices(n, k=1)
    re = n + 2 * np.arange(len(j))
    out[re, j, k] = out[re, k, j] = 1.0
    out[re + 1, j, k] = 1.0j
    out[re + 1, k, j] = -1.0j
    return out


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> HermitianMatrix:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix(scale * (a + a.conj().T) / 2.0)


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> HermitianMatrix:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix(scale * (a @ a.conj().T) / n)


# -- shared complex-matrix literal format -----------------------------------
#
# A complex matrix is serialised as a row-major array of rows, each entry a
# 2-array [re, im].  This format is used by every JSON file in the repo.


def matrix_to_json(a) -> list:
    m = as_hermitian(a).mat
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(obj) -> HermitianMatrix:
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix literal must be a non-empty array of rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise ValueError(f"row {i}: expected {len(obj)} entries")
        vals = []
        for j, ent in enumerate(row):
            if not (isinstance(ent, list) and len(ent) == 2):
                raise ValueError(f"entry ({i},{j}): expected [re, im]")
            vals.append(complex(float(ent[0]), float(ent[1])))
        rows.append(vals)
    a = np.array(rows, dtype=np.complex128)
    for i in range(a.shape[0]):
        if abs(a[i, i].imag) > HERMITIAN_CONSTRUCTION_TOL * (1.0 + abs(a[i, i])):
            raise ValueError(f"entry ({i},{i}): not Hermitian (non-real diagonal)")
    return HermitianMatrix(a)
