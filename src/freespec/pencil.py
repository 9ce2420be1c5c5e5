"""Linear matrix pencils, free spectrahedra, and level-s membership.

A pencil is a tuple (M_1, ..., M_d) of Hermitian r x r matrices together
with an order unit u satisfying sum_i u_i M_i = I_r.  Its level-s
spectrahedron consists of the Hermitian tuples A with
sum_i M_i (x) A_i >= 0, where (x) is the Kronecker product.

`MatrixTuple` and `LinearPencil` hold their matrices as one read-only
(d, n, n) ``stack``, built from any array-like and checked once by
`linalg.hermitian`; the library reads the stacks only.  ``entries`` and
``matrices`` derive tuples of `linalg.HermitianMatrix` from them.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels, linalg, tolerances
from .cones import PolyhedralCone
from .linalg import SIGMA_X, SIGMA_Z, HermitianMatrix


# kind: (the key of its matrices in a document, the size key, the error for none)
_FORMATS = {
    "pencil": ("matrices", "r", "matrices: a pencil needs at least one matrix"),
    "tuple": ("entries", "s", "entries: a tuple needs at least one entry"),
}


def _stack(x, kind: str) -> np.ndarray:
    """The checked read-only (d, n, n) stack of the matrices of a ``kind``;
    d = 0 is an error."""
    field, _, empty = _FORMATS[kind]
    a = np.asarray(x, dtype=np.complex128)
    if a.shape[:1] == (0,):
        raise ValueError(empty)
    return linalg.hermitian(a, 3, field)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class MatrixTuple:
    """A level-s point: d Hermitian matrices of common size s, held as the
    read-only (d, s, s) ``stack``."""

    stack: np.ndarray

    def __init__(self, entries):
        stack = _stack(entries, "tuple")
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


class LinearPencil:
    """d Hermitian r x r matrices with order unit normalisation, held as the
    read-only (d, r, r) ``stack``.

    A unit drift up to UNIT_DRIFT_TOL is corrected by congruence with
    T^(-1/2) where T = sum_i u_i M_i; larger drift is rejected.  A drift within the
    rounding level of that sum is left alone, so a pencil rebuilt from its
    own matrices (a JSON round trip) is unchanged.  Linear dependence of the
    matrices is reported as a warning (the level-1 cone is then not
    salient), not an error.
    """

    def __init__(self, matrices, unit):
        stack = _stack(matrices, "pencil")
        u = np.asarray(unit, dtype=float)
        if len(stack) != len(u):
            raise ValueError("unit length must match the number of matrices")
        d, r = stack.shape[:2]
        # summed in this order, T decides bit for bit whether T^(-1/2) applies
        t = sum(ui * m for ui, m in zip(u, stack))
        drift = float(np.max(np.abs(t - np.eye(r))))
        if drift > tolerances.UNIT_DRIFT_TOL:
            raise ValueError(
                f"order unit violated: ||sum_i u_i M_i - I|| = {drift:.3e}"
            )
        size = np.abs(u) @ np.abs(stack).reshape(d, -1)
        if drift > 8 * (d + r) * np.finfo(float).eps * float(size.max()):
            ti = linalg.inv_sqrt_pd(t)
            stack = linalg.hermitian(ti @ stack @ ti, 3)

        # the rank over R of the matrices as vectors of (Re, Im) pairs
        rows = stack.reshape(d, -1).view(np.float64)
        if np.linalg.matrix_rank(rows, tol=tolerances.RANK_TOL) < d:
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


def evaluate(p: LinearPencil, a: MatrixTuple) -> np.ndarray:
    """sum_i M_i (x) A_i, a read-only Hermitian matrix of size r * s."""
    return linalg.hermitian(_pencil_sum(p, a))


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


def membership(
    p: LinearPencil, a: MatrixTuple, tol: float = tolerances.BOUNDARY_TOL
) -> MembershipResult:
    """Classify a tuple against the pencil's level-s spectrahedron.

    The margin is the smallest eigenvalue of the pencil evaluation; the
    boundary band is an absolute tolerance on it.
    """
    margin = float(_kernels.eigh_kernel(evaluate(p, a))[0][0])
    return MembershipResult(classification=classify_margin(margin, tol), margin=margin)


def diagonal_pencil(cone: PolyhedralCone) -> LinearPencil:
    """Diagonal realization of the facet description of a polyhedral cone.

    With facets ell_1, ..., ell_k (normalised at the unit), the matrices are
    M_i = diag(ell_1(e_i), ..., ell_k(e_i)); level-s membership of the
    resulting pencil is exactly facet-wise positivity (ell_k (x) id)(A) >= 0.
    """
    return LinearPencil(_diagonal_stack(cone.facets), cone.unit)


def _diagonal_stack(facets: np.ndarray) -> np.ndarray:
    """The (d, k, k) complex stack M_i = diag(F[:, i]) of the facet rows
    F (k x d): the stack of `diagonal_pencil`."""
    k, d = facets.shape
    stack = np.zeros((d, k, k), dtype=np.complex128)
    stack[:, np.arange(k), np.arange(k)] = facets.T
    return stack


def elliptic_cone_pencil(alpha: float) -> LinearPencil:
    """The 2 x 2 pencil (sin(a) sigma_z, cos(a) sigma_x, I) with unit e_3.

    Its level-1 cone is the elliptic cone a^2 sin^2 + b^2 cos^2 <= c^2;
    the section at c = 1 is an ellipse with semi-axes 1/sin(a), 1/cos(a),
    which circumscribes the square for every a in (0, pi/2).
    """
    if not (0.0 < alpha < math.pi / 2.0):
        raise ValueError(f"alpha must be in (0, pi/2), got {alpha}")
    mats = [math.sin(alpha) * SIGMA_Z, math.cos(alpha) * SIGMA_X, np.eye(2)]
    return LinearPencil(mats, np.array([0.0, 0.0, 1.0]))


def circular_cone_pencil() -> LinearPencil:
    """The 2 x 2 pencil (sigma_z, sigma_x, I); level 1 is a^2 + b^2 <= c^2.

    This pencil realizes the smallest operator system of the circular cone,
    so its level-s membership doubles as the minimal-system membership test
    for that (non-polyhedral) cone.
    """
    return LinearPencil([SIGMA_Z, SIGMA_X, np.eye(2)], np.array([0.0, 0.0, 1.0]))


# --------------------------------------------------------------------------
# JSON formats
# --------------------------------------------------------------------------
#
# Pencil: {"d": int, "r": int, "unit": [...], "matrices": [matrix, ...]}
# Tuple:  {"d": int, "s": int, "entries": [matrix, ...]}
# using the shared complex-matrix literal format from linalg, both read by
# `stack_document` into the arrays that the constructors and the
# certificate checker take.


def stack_document(obj, kind: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The checked (d, n, n) stack of a ``kind`` ("pencil" or "tuple")
    document, and a pencil's finite length-d unit (None for a tuple)."""
    field, size, empty = _FORMATS[kind]
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} document must be a JSON object")
    for key in ("d", size, field) + (("unit",) if kind == "pencil" else ()):
        if key not in obj:
            raise ValueError(f"{kind} document missing field {key!r}")
    stack = linalg.stack_from_json(obj[field])
    if len(stack) != linalg.int_from_json(obj, "d"):
        raise ValueError(f"number of {field} does not match d")
    if not len(stack):
        raise ValueError(empty)
    if stack.shape[-1] != linalg.int_from_json(obj, size):
        raise ValueError(f"size of the {field} does not match {size}")
    if kind == "tuple":
        return stack, None
    unit = linalg.finite_from_json(obj["unit"], "unit")
    if unit.shape != (len(stack),):
        raise ValueError("unit must hold one finite number per matrix")
    return stack, unit


def pencil_to_json(p: LinearPencil) -> dict:
    return {
        "d": p.d,
        "r": p.r,
        "unit": p.unit.tolist(),
        "matrices": linalg.matrix_to_json(p.stack),
    }


def pencil_from_json(obj: dict) -> LinearPencil:
    return LinearPencil(*stack_document(obj, "pencil"))


def tuple_to_json(a: MatrixTuple) -> dict:
    return {
        "d": a.d,
        "s": a.level,
        "entries": linalg.matrix_to_json(a.stack),
    }


def tuple_from_json(obj: dict) -> MatrixTuple:
    return MatrixTuple(stack_document(obj, "tuple")[0])
