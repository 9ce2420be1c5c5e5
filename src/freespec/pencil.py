"""Linear matrix pencils, free spectrahedra, and level-s membership.

A pencil is a tuple (M_1, ..., M_d) of Hermitian r x r matrices together
with an order unit u satisfying sum_i u_i M_i = I_r.  Its level-s
spectrahedron consists of the Hermitian tuples A with
sum_i M_i (x) A_i >= 0, where (x) is the Kronecker product.
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
from .linalg import SIGMA_X, SIGMA_Z, HermitianMatrix, as_hermitian

UNIT_DRIFT_TOL = 1e-8
BOUNDARY_TOL = 1e-8


@dataclass(frozen=True)
class MatrixTuple:
    """A level-s point: d Hermitian matrices of common size s."""

    entries: tuple[HermitianMatrix, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("matrix tuple needs at least one entry")
        s = self.entries[0].dim
        for k, e in enumerate(self.entries):
            if e.dim != s:
                raise ValueError(f"entry {k} has size {e.dim}, expected {s}")

    @property
    def d(self) -> int:
        return len(self.entries)

    @property
    def level(self) -> int:
        return self.entries[0].dim

    @staticmethod
    def of(*entries) -> "MatrixTuple":
        return MatrixTuple(tuple(as_hermitian(e) for e in entries))

    @staticmethod
    def from_vector(x) -> "MatrixTuple":
        """Embed a scalar point of R^d as a level-1 tuple."""
        x = np.asarray(x, dtype=float)
        return MatrixTuple(tuple(HermitianMatrix([[v]]) for v in x))

    @staticmethod
    def unit_tuple(u, s: int) -> "MatrixTuple":
        """The tuple u (x) I_s."""
        u = np.asarray(u, dtype=float)
        eye = np.eye(s)
        return MatrixTuple(tuple(HermitianMatrix(v * eye) for v in u))

    def scaled_by(self, matrix: np.ndarray) -> "MatrixTuple":
        """Apply a linear coordinate change L: entries B_i = sum_j L_ij A_j."""
        l = np.asarray(matrix, dtype=float)
        out = []
        for i in range(l.shape[0]):
            acc = sum(l[i, j] * self.entries[j].mat for j in range(self.d))
            out.append(HermitianMatrix(acc))
        return MatrixTuple(tuple(out))


class LinearPencil:
    """d Hermitian r x r matrices with order unit normalisation.

    A unit drift up to 1e-8 is corrected by congruence with T^(-1/2) where
    T = sum_i u_i M_i; larger drift is rejected.  A drift within the
    rounding level of that sum is left alone, so a pencil rebuilt from its
    own matrices (a JSON round trip) is unchanged.  Linear dependence of the
    matrices is reported as a warning (the level-1 cone is then not
    salient), not an error.
    """

    def __init__(self, matrices, unit):
        mats = [as_hermitian(m) for m in matrices]
        u = np.asarray(unit, dtype=float)
        if len(mats) != len(u):
            raise ValueError("unit length must match the number of matrices")
        r = mats[0].dim
        for k, m in enumerate(mats):
            if m.dim != r:
                raise ValueError(f"matrix {k} has size {m.dim}, expected {r}")
        t = sum(ui * m.mat for ui, m in zip(u, mats))
        drift = float(np.max(np.abs(t - np.eye(r))))
        if drift > UNIT_DRIFT_TOL:
            raise ValueError(
                f"order unit violated: ||sum_i u_i M_i - I|| = {drift:.3e}"
            )
        rounding = (
            8 * (len(mats) + r) * np.finfo(float).eps
            * float(np.max(sum(abs(ui) * np.abs(m.mat) for ui, m in zip(u, mats))))
        )
        if drift > rounding:
            ti = linalg.inv_sqrt_pd(HermitianMatrix(t))
            mats = [HermitianMatrix(ti @ m.mat @ ti) for m in mats]

        vecs = np.array([m.mat.ravel() for m in mats])
        stacked = np.concatenate([vecs.real, vecs.imag], axis=1)
        if np.linalg.matrix_rank(stacked, tol=1e-10) < len(mats):
            warnings.warn(
                "pencil matrices are linearly dependent; the level-1 cone is not salient",
                stacklevel=2,
            )

        self.matrices = tuple(mats)
        self.unit = u
        self.unit.flags.writeable = False

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def r(self) -> int:
        return self.matrices[0].dim

    def __repr__(self) -> str:
        return f"LinearPencil(d={self.d}, r={self.r})"


def evaluate(p: LinearPencil, a: MatrixTuple) -> HermitianMatrix:
    """sum_i M_i (x) A_i, a Hermitian matrix of size r * s."""
    if p.d != a.d:
        raise ValueError(f"pencil has {p.d} variables, tuple has {a.d}")
    acc = sum(np.kron(m.mat, e.mat) for m, e in zip(p.matrices, a.entries))
    return HermitianMatrix(acc)


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
    margin = linalg.min_eigenvalue(evaluate(p, a))
    return MembershipResult(classification=classify_margin(margin, tol), margin=margin)


def diagonal_pencil(cone: PolyhedralCone) -> LinearPencil:
    """Diagonal realization of the facet description of a polyhedral cone.

    With facets ell_1, ..., ell_k (normalised at the unit), the matrices are
    M_i = diag(ell_1(e_i), ..., ell_k(e_i)); level-s membership of the
    resulting pencil is exactly facet-wise positivity (ell_k (x) id)(A) >= 0.
    """
    f = cone.facets
    mats = [np.diag(f[:, i]) for i in range(cone.dim)]
    return LinearPencil(mats, cone.unit)


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
        "matrices": [linalg.matrix_to_json(m) for m in p.matrices],
    }


def pencil_from_json(obj: dict) -> LinearPencil:
    if not isinstance(obj, dict):
        raise ValueError("pencil document must be a JSON object")
    for key in ("d", "r", "unit", "matrices"):
        if key not in obj:
            raise ValueError(f"pencil document missing field {key!r}")
    mats = [linalg.matrix_from_json(m) for m in obj["matrices"]]
    if len(mats) != int(obj["d"]):
        raise ValueError("matrix count does not match d")
    for m in mats:
        if m.dim != int(obj["r"]):
            raise ValueError("matrix size does not match r")
    return LinearPencil(mats, np.asarray(obj["unit"], dtype=float))


def tuple_to_json(a: MatrixTuple) -> dict:
    return {
        "d": a.d,
        "s": a.level,
        "entries": [linalg.matrix_to_json(m) for m in a.entries],
    }


def tuple_from_json(obj: dict) -> MatrixTuple:
    if not isinstance(obj, dict):
        raise ValueError("tuple document must be a JSON object")
    for key in ("d", "s", "entries"):
        if key not in obj:
            raise ValueError(f"tuple document missing field {key!r}")
    entries = [linalg.matrix_from_json(m) for m in obj["entries"]]
    if len(entries) != int(obj["d"]):
        raise ValueError("entry count does not match d")
    for m in entries:
        if m.dim != int(obj["s"]):
            raise ValueError("entry size does not match s")
    return MatrixTuple(tuple(entries))


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
