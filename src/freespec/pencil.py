"""Linear matrix pencils, free spectrahedra, and level-s membership.

A pencil is a tuple (M_1, ..., M_d) of Hermitian r x r matrices together
with an order unit u satisfying sum_i u_i M_i = I_r.  Its level-s
spectrahedron consists of the Hermitian tuples A with
sum_i M_i (x) A_i >= 0, where (x) is the Kronecker product.

`MatrixTuple` and `LinearPencil` hold their matrices as one read-only
(d, n, n) ``stack``, built from any array-like (a tuple of HermitianMatrix,
a list of arrays or one array) and checked once by `linalg.hermitian`; the
library reads the stacks only.  ``entries`` and ``matrices`` derive tuples
of HermitianMatrix from them for callers that want one matrix at a time.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .cones import PolyhedralCone
from .linalg import SIGMA_X, SIGMA_Z, HermitianMatrix

UNIT_DRIFT_TOL = 1e-8
BOUNDARY_TOL = 1e-8


def _stack(x, name: str, empty: str) -> np.ndarray:
    """The checked read-only (d, n, n) stack of ``x``; d = 0 raises ``empty``."""
    a = np.asarray(x, dtype=np.complex128)
    if a.shape[:1] == (0,):
        raise ValueError(empty)
    return linalg.hermitian(a, 3, name)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class MatrixTuple:
    """A level-s point: d Hermitian matrices of common size s, held as the
    read-only (d, s, s) ``stack``."""

    stack: np.ndarray

    def __init__(self, entries):
        stack = _stack(entries, "entries", "matrix tuple needs at least one entry")
        object.__setattr__(self, "stack", stack)

    @property
    def entries(self) -> tuple[HermitianMatrix, ...]:
        return tuple(map(HermitianMatrix, self.stack))

    @property
    def d(self) -> int:
        return len(self.stack)

    @property
    def level(self) -> int:
        return self.stack.shape[-1]

    def __repr__(self) -> str:
        return f"MatrixTuple(d={self.d}, s={self.level})"

    @staticmethod
    def of(*entries) -> "MatrixTuple":
        return MatrixTuple(entries)

    @staticmethod
    def from_vector(x) -> "MatrixTuple":
        """Embed a scalar point of R^d as a level-1 tuple."""
        return MatrixTuple(np.asarray(x, dtype=float)[:, None, None])

    @staticmethod
    def unit_tuple(u, s: int) -> "MatrixTuple":
        """The tuple u (x) I_s."""
        return MatrixTuple(np.asarray(u, dtype=float)[:, None, None] * np.eye(s))

    def scaled_by(self, matrix: np.ndarray) -> "MatrixTuple":
        """Apply a linear coordinate change L: entries B_i = sum_j L_ij A_j."""
        l = np.asarray(matrix, dtype=float)
        return MatrixTuple(sum(l[:, j, None, None] * self.stack[j] for j in range(self.d)))


class LinearPencil:
    """d Hermitian r x r matrices with order unit normalisation, held as the
    read-only (d, r, r) ``stack``.

    A unit drift up to 1e-8 is corrected by congruence with T^(-1/2) where
    T = sum_i u_i M_i; larger drift is rejected.  A drift within the
    rounding level of that sum is left alone, so a pencil rebuilt from its
    own matrices (a JSON round trip) is unchanged.  Linear dependence of the
    matrices is reported as a warning (the level-1 cone is then not
    salient), not an error.
    """

    def __init__(self, matrices, unit):
        stack = _stack(matrices, "matrices", "matrices: a pencil needs at least one matrix")
        u = np.asarray(unit, dtype=float)
        if len(stack) != len(u):
            raise ValueError("unit length must match the number of matrices")
        d, r = stack.shape[:2]
        # summed in this order, T decides bit for bit whether T^(-1/2) applies
        t = sum(ui * m for ui, m in zip(u, stack))
        drift = float(np.max(np.abs(t - np.eye(r))))
        if drift > UNIT_DRIFT_TOL:
            raise ValueError(
                f"order unit violated: ||sum_i u_i M_i - I|| = {drift:.3e}"
            )
        size = np.abs(u) @ np.abs(stack).reshape(d, -1)
        if drift > 8 * (d + r) * np.finfo(float).eps * float(size.max()):
            ti = linalg.inv_sqrt_pd(t)
            stack = linalg.hermitian(ti @ stack @ ti, 3)

        # the rank over R of the matrices as vectors of (Re, Im) pairs
        if np.linalg.matrix_rank(stack.reshape(d, -1).view(np.float64), tol=1e-10) < d:
            warnings.warn(
                "pencil matrices are linearly dependent; the level-1 cone is not salient",
                stacklevel=2,
            )

        self.stack = stack
        self.unit = u
        self.unit.flags.writeable = False

    @property
    def matrices(self) -> tuple[HermitianMatrix, ...]:
        return tuple(map(HermitianMatrix, self.stack))

    @property
    def d(self) -> int:
        return len(self.stack)

    @property
    def r(self) -> int:
        return self.stack.shape[-1]

    def __repr__(self) -> str:
        return f"LinearPencil(d={self.d}, r={self.r})"


def _pencil_sum(p: LinearPencil, a: MatrixTuple) -> np.ndarray:
    if p.d != a.d:
        raise ValueError(f"pencil has {p.d} variables, tuple has {a.d}")
    return sum(np.kron(m, e) for m, e in zip(p.stack, a.stack))


def evaluate(p: LinearPencil, a: MatrixTuple) -> HermitianMatrix:
    """sum_i M_i (x) A_i, a Hermitian matrix of size r * s."""
    return HermitianMatrix(_pencil_sum(p, a))


class Classification(enum.Enum):
    INSIDE = "Inside"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class MembershipResult:
    classification: Classification
    margin: float
    worst_facet: int | None = None

    @property
    def inside_or_boundary(self) -> bool:
        return self.classification is not Classification.OUTSIDE


def classify_margin(margin: float, tol: float) -> Classification:
    if margin >= tol:
        return Classification.INSIDE
    if margin <= -tol:
        return Classification.OUTSIDE
    return Classification.BOUNDARY


def membership(p: LinearPencil, a: MatrixTuple, tol: float = BOUNDARY_TOL) -> MembershipResult:
    """Classify a tuple against the pencil's level-s spectrahedron.

    The margin is the smallest eigenvalue of the pencil evaluation; the
    boundary band is an absolute tolerance on it.
    """
    margin = linalg.min_eigenvalue(_pencil_sum(p, a))
    return MembershipResult(classification=classify_margin(margin, tol), margin=margin)


def diagonal_pencil(cone: PolyhedralCone) -> LinearPencil:
    """Diagonal realization of the facet description of a polyhedral cone.

    With facets ell_1, ..., ell_k (normalised at the unit), the matrices are
    M_i = diag(ell_1(e_i), ..., ell_k(e_i)); level-s membership of the
    resulting pencil is exactly facet-wise positivity (ell_k (x) id)(A) >= 0.
    """
    k = cone.n_facets
    stack = np.zeros((cone.dim, k, k))
    stack[:, np.arange(k), np.arange(k)] = cone.facets.T
    return LinearPencil(stack, cone.unit)


def elliptic_cone_pencil(alpha: float) -> LinearPencil:
    """The 2 x 2 pencil (sin(a) sigma_z, cos(a) sigma_x, I) with unit e_3.

    Its level-1 cone is the elliptic cone a^2 sin^2 + b^2 cos^2 <= c^2;
    the section at c = 1 is an ellipse with semi-axes 1/sin(a), 1/cos(a),
    which circumscribes the square for every a in (0, pi/2).
    """
    if not (0.0 < alpha < math.pi / 2.0):
        raise ValueError(f"alpha must be in (0, pi/2), got {alpha}")
    mats = [
        math.sin(alpha) * SIGMA_Z.mat,
        math.cos(alpha) * SIGMA_X.mat,
        np.eye(2),
    ]
    return LinearPencil(mats, np.array([0.0, 0.0, 1.0]))


def circular_cone_pencil() -> LinearPencil:
    """The 2 x 2 pencil (sigma_z, sigma_x, I); level 1 is a^2 + b^2 <= c^2.

    This pencil realizes the smallest operator system of the circular cone,
    so its level-s membership doubles as the minimal-system membership test
    for that (non-polyhedral) cone.
    """
    return LinearPencil([SIGMA_Z.mat, SIGMA_X.mat, np.eye(2)], np.array([0.0, 0.0, 1.0]))


# --------------------------------------------------------------------------
# JSON formats
# --------------------------------------------------------------------------
#
# Pencil: {"d": int, "r": int, "unit": [...], "matrices": [matrix, ...]}
# Tuple:  {"d": int, "s": int, "entries": [matrix, ...]}
# using the shared complex-matrix literal format from linalg.


def pencil_to_json(p: LinearPencil) -> dict:
    return {
        "d": p.d,
        "r": p.r,
        "unit": p.unit.tolist(),
        "matrices": linalg.matrix_to_json(p.stack),
    }


def pencil_from_json(obj: dict) -> LinearPencil:
    if not isinstance(obj, dict):
        raise ValueError("pencil document must be a JSON object")
    for key in ("d", "r", "unit", "matrices"):
        if key not in obj:
            raise ValueError(f"pencil document missing field {key!r}")
    stack = linalg.stack_from_json(obj["matrices"])
    if len(stack) != int(obj["d"]):
        raise ValueError("matrix count does not match d")
    if len(stack) and stack.shape[-1] != int(obj["r"]):
        raise ValueError("matrix size does not match r")
    return LinearPencil(stack, np.asarray(obj["unit"], dtype=float))


def tuple_to_json(a: MatrixTuple) -> dict:
    return {
        "d": a.d,
        "s": a.level,
        "entries": linalg.matrix_to_json(a.stack),
    }


def tuple_from_json(obj: dict) -> MatrixTuple:
    if not isinstance(obj, dict):
        raise ValueError("tuple document must be a JSON object")
    for key in ("d", "s", "entries"):
        if key not in obj:
            raise ValueError(f"tuple document missing field {key!r}")
    stack = linalg.stack_from_json(obj["entries"])
    if len(stack) != int(obj["d"]):
        raise ValueError("entry count does not match d")
    if len(stack) and stack.shape[-1] != int(obj["s"]):
        raise ValueError("entry size does not match s")
    return MatrixTuple(stack)


def load_pencil(path) -> LinearPencil:
    with open(path) as fh:
        return pencil_from_json(json.load(fh))


def save_pencil(p: LinearPencil, path) -> None:
    with open(path, "w") as fh:
        json.dump(pencil_to_json(p), fh, indent=1, sort_keys=True)


def load_tuple(path) -> MatrixTuple:
    with open(path) as fh:
        return tuple_from_json(json.load(fh))


def save_tuple(a: MatrixTuple, path) -> None:
    with open(path, "w") as fh:
        json.dump(tuple_to_json(a), fh, indent=1, sort_keys=True)
