"""Dense complex Hermitian linear algebra kernel.

Everything downstream (pencils, cones, membership oracles, the SDP solver)
works with values from this module.  All operations are pure, inputs are
treated as immutable, and tolerances are relative, scaled by
``1 + ||A||_F`` unless stated otherwise.

One rule makes a value Hermitian, `hermitian`: asymmetry at most 1e-12
relative to 1 + ||A_k||_F for each matrix A_k of a matrix or a stack, then
(A + A*)/2, read-only.  `HermitianMatrix` holds one matrix checked by it;
the tuple and pencil types of `pencil`, `sdp.SdpProblem` and the
certificate parser check their (k, n, n) stacks with it once, and the
library passes the checked arrays on without wrapping them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels

HERMITIAN_CONSTRUCTION_TOL = 1e-12
PSD_DEFAULT_TOL = 1e-8


def hermitian(x, ndim: int = 2, what: Optional[str] = None) -> np.ndarray:
    """The read-only (A + A*)/2 of a Hermitian matrix (``ndim`` 2) or of
    each matrix of a stack (``ndim`` 3), after checking that each A_k has
    asymmetry at most 1e-12 (1 + ||A_k||_F).  A HermitianMatrix passes
    through; ``what`` names the value in the errors."""
    if isinstance(x, HermitianMatrix) and ndim == 2:
        return x.mat
    a = np.asarray(x, dtype=np.complex128)
    head = "" if what is None else f"{what}: "
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{head}expected a square matrix, got shape {a.shape}")
    ah = np.swapaxes(a, -1, -2).conj()
    asym = np.abs(a - ah)
    # 1 + ||A_k||_F >= 1, so only an asymmetry above the bare tolerance can fail
    if asym.max(initial=0.0) > HERMITIAN_CONSTRUCTION_TOL:
        drift = asym.max(axis=(-2, -1))
        if np.any(drift > HERMITIAN_CONSTRUCTION_TOL * (1.0 + np.linalg.norm(a, axis=(-2, -1)))):
            head = head or "matrix is "
            raise ValueError(f"{head}not Hermitian (asymmetry {float(drift.max()):.3e})")
    out = a + ah
    out /= 2.0
    out.flags.writeable = False
    return out


class HermitianMatrix:
    """A square complex matrix equal to its conjugate transpose.

    Hermiticity is checked at construction by `hermitian` (relative
    tolerance 1e-12), then enforced exactly by symmetrising ``(A + A*)/2``.
    The stored array is read-only.
    """

    __slots__ = ("_mat",)

    def __init__(self, entries) -> None:
        self._mat = hermitian(entries)

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
    w, v = _kernels.eigh_kernel(hermitian(a))
    v = _normalize_phases(v)
    w.flags.writeable = False
    v.flags.writeable = False
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def eigvalsh(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix: the LAPACK call of
    `eigh`, without the phase normalisation of its eigenvectors."""
    return _kernels.eigh_kernel(hermitian(a))[0]


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(eigvalsh(a)[0])


def max_eigenvalue(a) -> float:
    return float(eigvalsh(a)[-1])


def is_psd(a, tol: float = PSD_DEFAULT_TOL) -> bool:
    """True iff min eig >= -tol * (1 + ||A||_F)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    h = hermitian(a)
    return min_eigenvalue(h) >= -tol * (1.0 + float(np.linalg.norm(h)))


def kron(a, b) -> HermitianMatrix:
    """Kronecker product, A-index major block order."""
    return HermitianMatrix(np.kron(hermitian(a), hermitian(b)))


def trace_inner(a, b) -> float:
    """Real inner product <A, B> = tr(B* A) of Hermitian matrices."""
    ha, hb = hermitian(a), hermitian(b)
    if len(ha) != len(hb):
        raise ValueError(f"dimension mismatch: {len(ha)} vs {len(hb)}")
    return float(np.real(np.trace(hb.conj().T @ ha)))


def inv_sqrt_pd(a) -> np.ndarray:
    """Inverse Hermitian square root; requires positive definiteness."""
    dec = eigh(a)
    if dec.eigenvalues[0] <= 1e-14:
        raise ValueError(
            f"matrix is not positive definite (min eig {dec.eigenvalues[0]:.3e})"
        )
    u = dec.eigenvectors
    return (u / np.sqrt(dec.eigenvalues)) @ u.conj().T


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 of a matrix or of each matrix of a stack; exactly
    Hermitian, so `hermitian` returns it unchanged."""
    return (a + a.swapaxes(-1, -2).conj()) / 2.0


def diagonal_blocks(j: np.ndarray, r: int, t: int) -> Optional[np.ndarray]:
    """The (..., r, t, t) diagonal blocks of (a stack of) rt x rt matrices
    whose off-diagonal t x t blocks are exactly zero, or None."""
    full = j.reshape(j.shape[:-2] + (r, t, r, t))
    blocks = np.einsum("...kxky->...kxy", full)
    return blocks if np.count_nonzero(full) == np.count_nonzero(blocks) else None


_GOLDEN = (5.0**0.5 - 1.0) / 2.0


def joint_eigenbasis(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvectors U of one fixed combination sum_i mu_i A_i of a (d, s, s)
    Hermitian stack, the pinched values ell[j, i] = u_j* A_i u_j and the
    largest off-diagonal modulus of the U* A_i U.

    The weights mu_i = 1 + frac(i * golden ratio) are fixed and generic, so
    for a commuting stack distinct joint eigenvalue vectors ell_j get
    distinct eigenvalues, U is a joint eigenbasis and the off-diagonal part
    is rounding; no U makes it small for a stack that does not commute.
    """
    mu = [1.0 + (i * _GOLDEN) % 1.0 for i in range(1, len(stack) + 1)]
    _, u = _kernels.eigh_kernel(np.einsum("i,ixy->xy", mu, stack))
    rot = u.conj().T @ stack @ u
    ell = np.diagonal(rot, axis1=1, axis2=2).real.T.copy()
    diag = np.arange(rot.shape[-1])
    rot[:, diag, diag] = 0.0
    return u, ell, float(np.abs(rot).max())


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


def random_psd(rng: np.random.Generator, n: int) -> HermitianMatrix:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix((a @ a.conj().T) / n)


# -- shared complex-matrix literal format -----------------------------------
#
# A complex matrix is serialised as a row-major array of rows, each entry a
# 2-array [re, im].  This format is used by every JSON file in the repo.


def matrix_to_json(a) -> list:
    """The literal of a Hermitian matrix, or the list of literals of each
    matrix of a (k, n, n) stack."""
    m = np.asarray(a, dtype=np.complex128)
    return np.stack([m.real, m.imag], -1).tolist()


def complex_from_pairs(obj, ndim: int):
    """The complex array of a nested list with [re, im] pairs innermost, or
    None when ``obj`` is not an ``ndim``-dimensional array of finite pairs;
    the caller then parses entry by entry, which names the bad entry."""
    try:
        pairs = np.array(obj, dtype=float)
    except (TypeError, ValueError):
        return None
    if pairs.ndim != ndim + 1 or pairs.shape[-1] != 2 or not np.isfinite(pairs).all():
        return None
    return pairs.view(np.complex128)[..., 0]


def _nonreal_diagonal(a: np.ndarray) -> np.ndarray:
    """The diagonal entries of a matrix (or stack) whose imaginary part
    exceeds 1e-12 (1 + |a_ii|)."""
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    return np.abs(diag.imag) > HERMITIAN_CONSTRUCTION_TOL * (1.0 + np.abs(diag))


def matrix_from_json(obj) -> HermitianMatrix:
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix literal must be a non-empty array of rows")
    a = complex_from_pairs(obj, 2)
    if a is None or a.shape[1] != len(obj):
        a = _matrix_from_rows(obj)
    bad = _nonreal_diagonal(a)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"entry ({i},{i}): not Hermitian (non-real diagonal)")
    return HermitianMatrix(a)


def stack_from_json(obj, size: Optional[int] = None) -> np.ndarray:
    """The checked (k, n, n) stack of a list of k matrix literals, parsed in
    one go.  Only when that fails are the literals parsed one by one, which
    names a bad literal as `matrix_from_json` does; literals of a size
    other than ``size`` (by default the first's) are an error."""
    if not isinstance(obj, list):
        raise ValueError("expected a list of matrices")
    a = complex_from_pairs(obj, 3) if obj else np.zeros((0, size or 0, size or 0))
    if a is not None and a.shape[-1] == a.shape[-2] == (size or a.shape[-1]):
        if not _nonreal_diagonal(a).any():
            try:
                return hermitian(a, 3)
            except ValueError:
                pass
    mats = [matrix_from_json(m).mat for m in obj]
    n = size or len(mats[0])
    if any(len(m) != n for m in mats):
        raise ValueError(f"expected {n} x {n} matrices")
    return hermitian(mats, 3)


def _matrix_from_rows(obj) -> np.ndarray:
    """The entry-by-entry parse, which names the first malformed entry."""
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise ValueError(f"row {i}: expected {len(obj)} entries")
        vals = []
        for j, ent in enumerate(row):
            if not (isinstance(ent, list) and len(ent) == 2):
                raise ValueError(f"entry ({i},{j}): expected [re, im]")
            vals.append(complex(float(ent[0]), float(ent[1])))
            if not np.isfinite(vals[-1]):
                raise ValueError(f"entry ({i},{j}): not finite")
        rows.append(vals)
    return np.array(rows, dtype=np.complex128)
