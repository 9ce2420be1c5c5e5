"""Dense complex Hermitian linear algebra on plain read-only ndarrays; every
operation is pure, and tolerances are relative, scaled by ``1 + ||A||_F``
unless stated otherwise.

One rule makes a value Hermitian, `hermitian`: asymmetry at most
`tolerances.HERMITIAN_CONSTRUCTION_TOL` relative to 1 + ||A_k||_F for each
matrix A_k of a matrix or a (k, n, n) stack, then (A + A*)/2, read-only;
an error names the first matrix that fails and its own asymmetry.  The
tuple and pencil types of `pencil`, `sdp.SdpProblem` and the certificate
parser check their stacks with it once, and the library passes the
checked arrays on; the Pauli matrices ``SIGMA_X/Y/Z`` are such arrays
too.  `HermitianMatrix` is only the type of the items of
`pencil.MatrixTuple.entries` and `pencil.LinearPencil.matrices`.  `eigh`
is the one phase-normalised eigendecomposition.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Optional

import numpy as np

from . import _kernels, tolerances

_HALF_MAX = np.finfo(float).max / 2.0


def hermitian(x, ndim: int = 2, what: Optional[str] = None) -> np.ndarray:
    """The read-only (A + A*)/2 of a Hermitian matrix (``ndim`` 2) or of
    each matrix of a stack (``ndim`` 3), after checking that each A_k has
    asymmetry at most HERMITIAN_CONSTRUCTION_TOL (1 + ||A_k||_F); ``what``
    names the value in the errors, which name the first matrix of a stack
    that fails.  Finite entries give finite results, however large."""
    a = np.asarray(x, dtype=np.complex128)
    head = "" if what is None else f"{what}: "
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{head}expected a square matrix, got shape {a.shape}")
    ah = np.swapaxes(a, -1, -2).conj()
    # a sum of two entries overflows only above half the largest double
    big = np.abs(a).max(initial=0.0) > _HALF_MAX
    with np.errstate(over="ignore", invalid="ignore") if big else contextlib.nullcontext():
        asym = np.abs(a - ah)
        out = a + ah
        out /= 2.0
    # 1 + ||A_k||_F >= 1, so only an asymmetry above the bare tolerance can fail
    if asym.max(initial=0.0) > tolerances.HERMITIAN_CONSTRUCTION_TOL:
        drift = asym.max(axis=(-2, -1))
        # in units of c_k = max(1, max|A_k|), where ||A_k||_F cannot overflow
        c = np.abs(a).max(axis=(-2, -1), initial=1.0)
        size = 1.0 / c + np.linalg.norm(a / c[..., None, None], axis=(-2, -1))
        bad = drift / c > tolerances.HERMITIAN_CONSTRUCTION_TOL * size
        if np.any(bad):
            if ndim > 2:
                k = tuple(int(i) for i in np.argwhere(bad)[0])
                head, drift = f"{head}matrix {k[0] if ndim == 3 else k} is ", drift[k]
            raise ValueError(f"{head or 'matrix is '}not Hermitian (asymmetry {float(drift):.3e})")
    if big:
        # halving first where a + a* overflowed changes no other entry
        bad = ~np.isfinite(out)
        out[bad] = a[bad] / 2.0 + ah[bad] / 2.0
    out.flags.writeable = False
    return out


class HermitianMatrix:
    """One matrix checked by `hermitian`, as the read-only array ``mat``."""

    __slots__ = ("_mat",)

    def __init__(self, entries) -> None:
        self._mat = hermitian(entries)

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    def __array__(self, dtype=None, copy=None):
        return self._mat if dtype is None else self._mat.astype(dtype)


SIGMA_X = hermitian([[0, 1], [1, 0]])
SIGMA_Y = hermitian([[0, -1j], [1j, 0]])
SIGMA_Z = hermitian([[1, 0], [0, -1]])


def _normalize_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is real positive."""
    mags = np.abs(v)
    colmax = mags.max(axis=0)
    thresh = 1e-10 * np.where(colmax > 0, colmax, 1.0)  # not a band: fixes the phase convention
    first = np.argmax(mags > thresh, axis=0)
    pivot = v[first, np.arange(v.shape[1])]
    size = np.abs(pivot)
    phase = np.where(size > 0, pivot.conjugate() / np.where(size > 0, size, 1.0), 1.0)
    return v * phase


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenvalues w, ascending, and eigenvectors v of a Hermitian
    matrix, with A = v diag(w) v*; each eigenvector is phase-normalised so
    that its first significant component is real positive."""
    w, v = _kernels.eigh_kernel(hermitian(a))
    v = _normalize_phases(v)
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def inv_sqrt_pd(a) -> np.ndarray:
    """Inverse Hermitian square root; requires positive definiteness."""
    w, u = eigh(a)
    if w[0] <= tolerances.PD_FLOOR:
        raise ValueError(f"matrix is not positive definite (min eig {w[0]:.3e})")
    return (u / np.sqrt(w)) @ u.conj().T


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


@functools.lru_cache(maxsize=32)
def hermitian_basis(n: int) -> np.ndarray:
    """Real basis of the n x n Hermitian matrices, as a read-only (n^2, n, n)
    stack, built once per n on first use.

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
    out.flags.writeable = False
    return out


def dependencies(rows: np.ndarray) -> tuple[list[int], list[np.ndarray]]:
    """The real ``rows`` kept in order while they stay independent (the
    rows scaled to unit norm have no singular value at most RANK_TOL), and
    for each row j dropped the coefficients c, one per row, of
    sum_i c_i rows_i = 0 with c_j = -1."""
    unit = rows / np.maximum(np.linalg.norm(rows, axis=1), np.finfo(float).tiny)[:, None]
    kept, deps = [], []
    for j in range(len(rows)):
        if np.linalg.matrix_rank(unit[kept + [j]], tol=tolerances.RANK_TOL) > len(kept):
            kept.append(j)
            continue
        c = np.zeros(len(rows))
        c[kept] = np.linalg.lstsq(rows[kept].T, rows[j], rcond=None)[0]
        c[j] = -1.0
        deps.append(c)
    return kept, deps


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian(scale * (a + a.conj().T) / 2.0)


def random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    """a a* / n for a complex Gaussian a, made exactly Hermitian: the
    product alone is not, bit for bit."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian((a @ a.conj().T) / n)


# -- shared complex-matrix literal format -----------------------------------
#
# A complex matrix is serialised as a row-major array of rows, each entry a
# 2-array [re, im].  This format is used by every JSON file in the repo.


def int_from_json(obj: dict, key: str) -> int:
    """``int(obj[key])`` of a document's size field, or a ValueError that
    names the field."""
    try:
        return int(obj[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be an integer") from None


def finite_from_json(value, what: Optional[str] = None, shape: Optional[tuple] = None) -> np.ndarray:
    """The float array of a document's numbers, or a ValueError (headed by
    ``what``) when an entry is not a finite number: an object, a list where
    a number belongs, null, NaN or Infinity; with ``shape``, () for one
    number or (n,) for a list of n, also when the array has another shape."""
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        x = np.array(np.nan)
    if not np.isfinite(x).all() or shape not in (None, x.shape):
        want = ("finite numbers" if shape is None else "a finite number" if shape == ()
                else f"{shape[0]} finite numbers")
        raise ValueError(("" if what is None else f"{what}: ") + "expected " + want)
    return x


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
    exceeds HERMITIAN_CONSTRUCTION_TOL (1 + |a_ii|)."""
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    return np.abs(diag.imag) > tolerances.HERMITIAN_CONSTRUCTION_TOL * (1.0 + np.abs(diag))


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix literal must be a non-empty array of rows")
    a = complex_from_pairs(obj, 2)
    if a is None or a.shape[1] != len(obj):
        a = _matrix_from_rows(obj)
    bad = _nonreal_diagonal(a)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"entry ({i},{i}): not Hermitian (non-real diagonal)")
    return hermitian(a)


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
    mats = [matrix_from_json(m) for m in obj]
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
            try:
                x, y = ent if isinstance(ent, list) else None
                vals.append(complex(float(x), float(y)))
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"entry ({i},{j}): expected [re, im]") from None
            if not np.isfinite(vals[-1]):
                raise ValueError(f"entry ({i},{j}): not finite")
        rows.append(vals)
    return np.array(rows, dtype=np.complex128)
