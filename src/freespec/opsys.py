"""Operator-system membership oracles over a polyhedral cone.

For a salient polyhedral cone C in R^d with order unit u, two canonical
operator systems extend C to matrix levels:

* the largest one: A = (A_1, ..., A_d) belongs at level s iff
  (v* A_1 v, ..., v* A_d v) lies in C for every vector v, equivalently
  (ell (x) id)(A) >= 0 for every facet functional ell of C;
* the smallest one: A belongs at level s iff A = sum_k c_k (x) P_k with
  the c_k among the generators of C and P_k PSD.

The smallest-system test is a semidefinite feasibility problem over the
generator weights; its infeasibility certificate converts into a separating
functional phi(B) = sum_i tr(conj(N_i) B_i) that is nonnegative on the
system and strictly negative on the query, which in turn yields a separating
linear pencil by the Effros-Winkler construction.  Over a simplex cone the
generator matrix is invertible, the weights are unique and the test needs
no SDP: A is a member iff every P_k = sum_i G^(-1)[i,k] A_i is PSD.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels, linalg, sdp
from .cones import PolyhedralCone, is_simplex
from .linalg import SIGMA_X, SIGMA_Z, HermitianMatrix, as_hermitian
from .pencil import (
    LinearPencil,
    MatrixTuple,
    MembershipResult,
    circular_cone_pencil,
    classify_margin,
    membership,
)

SEPARATOR_SHIFT = 1e-8
STRICTNESS_EPS = 1e-6
# The certificate checker's limits, used by `certificates` and by every
# producer that tests its own answer first.  A residual (a Member
# certificate's max(-lambda_min, reconstruction error), a separator's
# negativity on the generators, a Kraus reconstruction error) must stay
# strictly below ACCEPT_RESIDUAL, and a separator must take a value below
# -SEPARATOR_PHI_LIMIT at the query.
ACCEPT_RESIDUAL = 1e-6
SEPARATOR_PHI_LIMIT = 1e-7


# --------------------------------------------------------------------------
# Largest system: facet-wise positivity
# --------------------------------------------------------------------------


def max_membership(
    cone: PolyhedralCone, a: MatrixTuple, tol: float = 1e-8
) -> MembershipResult:
    """Membership of a tuple in the largest system of the cone.

    Classification is by the smallest eigenvalue over all facet evaluations
    (ell_k (x) id)(A); the worst facet index is reported.
    """
    if cone.dim != a.d:
        raise ValueError(f"cone has dimension {cone.dim}, tuple has {a.d}")
    worst = None
    margin = math.inf
    for k in range(cone.n_facets):
        f = sum(cone.facets[k, i] * a.entries[i].mat for i in range(a.d))
        m = linalg.min_eigenvalue(HermitianMatrix(f))
        if m < margin:
            margin = m
            worst = k
    return MembershipResult(
        classification=classify_margin(margin, tol), margin=margin, worst_facet=worst
    )


# --------------------------------------------------------------------------
# Smallest system: generator-weight SDP
# --------------------------------------------------------------------------


class MinMembershipStatus(enum.Enum):
    MEMBER = "Member"
    NOT_MEMBER = "NotMember"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class MinMembershipCertificate:
    """PSD weights P_k with sum_k c_k (x) P_k equal to the queried tuple."""

    weights: tuple[HermitianMatrix, ...]
    residual: float


@dataclass(frozen=True)
class SeparationFunctional:
    """phi(B) = sum_i Re tr(conj(N_i) B_i) with strictness margin.

    The margin is the smallest eigenvalue of sum_i u_i N_i; a positive
    margin makes phi strictly positive on every u (x) vv*.
    """

    matrices: tuple[HermitianMatrix, ...]
    margin: float

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def level(self) -> int:
        return self.matrices[0].dim

    def evaluate(self, b: MatrixTuple) -> float:
        if b.d != self.d or b.level != self.level:
            raise ValueError("tuple shape does not match the functional")
        return float(
            sum(
                np.real(np.trace(np.conj(n.mat) @ e.mat))
                for n, e in zip(self.matrices, b.entries)
            )
        )


@dataclass(frozen=True)
class MinMembershipResult:
    status: MinMembershipStatus
    certificate: Optional[MinMembershipCertificate] = None
    separator: Optional[SeparationFunctional] = None
    message: str = ""


def _min_membership_problem(cone: PolyhedralCone, a: MatrixTuple) -> sdp.SdpProblem:
    """Rows tr(E_alpha A_i) = sum_k c_k[i] tr(E_alpha P_k), one per
    coordinate i and Hermitian basis element E_alpha; block k is P_k."""
    s = a.level
    basis = linalg.hermitian_basis(s)
    gens = cone.generators
    coeffs = np.multiply.outer(gens, basis).reshape(len(gens), -1, s, s)
    rhs = np.einsum("aij,dji->da", basis, _stacked(a)).real.ravel()
    return sdp.SdpProblem((s,) * len(gens), tuple(coeffs), rhs)


def _positivity_shift_functional(cone: PolyhedralCone) -> np.ndarray:
    """A functional strictly positive on the cone, normalised at the unit."""
    f = cone.facets.mean(axis=0)
    return f / float(f @ cone.unit)


def _shifted_separator(cone: PolyhedralCone, mats) -> SeparationFunctional:
    """The functional with matrices N_i, shifted by SEPARATOR_SHIFT times a
    cone-positive functional when sum_i u_i N_i is not positive definite."""
    s = mats[0].shape[0]
    margin = linalg.min_eigenvalue(
        HermitianMatrix(sum(u * n for u, n in zip(cone.unit, mats)))
    )
    if margin < SEPARATOR_SHIFT:
        shift = _positivity_shift_functional(cone)
        mats = [n + SEPARATOR_SHIFT * shift[i] * np.eye(s) for i, n in enumerate(mats)]
        margin = linalg.min_eigenvalue(
            HermitianMatrix(sum(u * n for u, n in zip(cone.unit, mats)))
        )
    return SeparationFunctional(
        matrices=tuple(HermitianMatrix(n) for n in mats), margin=float(margin)
    )


def _separator_from_farkas(
    cone: PolyhedralCone, a: MatrixTuple, cert: sdp.FarkasCertificate
) -> SeparationFunctional:
    y = cert.y.reshape(cone.dim, -1)
    mats = np.tensordot(y, linalg.hermitian_basis(a.level), axes=1)
    return _shifted_separator(cone, -np.conj(mats))


def _stacked(a: MatrixTuple) -> np.ndarray:
    return np.array([e.mat for e in a.entries])


def _project_weights(
    gens_pinv_t: np.ndarray, gens: np.ndarray, a: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Weights p moved onto the affine set sum_k c_k (x) P_k = A.

    With R the reconstruction error, the correction pinv(G^T) R is the
    smallest in Frobenius norm; ``gens_pinv_t`` is pinv(G^T).  For a simplex
    cone and p = 0 this is the unique solution P = G^(-T) A.
    """
    r = a - np.tensordot(gens.T, p, axes=1)
    q = p + np.tensordot(gens_pinv_t, r, axes=1)
    return (q + q.conj().transpose(0, 2, 1)) / 2.0


def _weights_residual(gens: np.ndarray, a: np.ndarray, p: np.ndarray) -> float:
    """max(-lambda_min, reconstruction error): the certificate checker's residual."""
    recon = float(np.max(np.abs(np.tensordot(gens.T, p, axes=1) - a)))
    return max(recon, -float(np.linalg.eigvalsh(p)[:, 0].min()), 0.0)


def _member(weights, residual: float) -> MinMembershipResult:
    return MinMembershipResult(
        status=MinMembershipStatus.MEMBER,
        certificate=MinMembershipCertificate(
            weights=tuple(HermitianMatrix(w) for w in weights), residual=residual
        ),
    )


def _separates(cone: PolyhedralCone, a: MatrixTuple, sep: SeparationFunctional) -> bool:
    """The certificate checker's acceptance test for a separator."""
    n = np.array([m.mat for m in sep.matrices])
    on_gens = np.tensordot(cone.generators, n, axes=1)
    worst = -float(np.linalg.eigvalsh(on_gens)[:, 0].min())
    return (
        worst < ACCEPT_RESIDUAL
        and sep.margin > 0
        and sep.evaluate(a) < -SEPARATOR_PHI_LIMIT
    )


def _simplex_min_membership(
    cone: PolyhedralCone, a: MatrixTuple, tol: float
) -> Optional[MinMembershipResult]:
    """Closed-form decision over a simplex cone, or None to defer to the SDP.

    The unique weights P_k are PSD or not; with sigma = max_k ||P_k||_2 the
    band |lambda_min| <= tol * sigma (weights with a zero eigenvalue, up to
    rounding) is left to the SDP, as is any answer whose certificate would
    not pass the checker.  The separator for a negative lambda_min(P_j) with
    eigenvector v is N_i = G^(-1)[i,j] conj(vv*) / |v*P_j v|: it vanishes on
    c_k (x) Q for k != j, is v*Qv/|v*P_j v| >= 0 on c_j (x) Q and -1 at A.
    """
    gens = cone.generators
    gens_pinv_t = np.linalg.pinv(gens.T)
    stack = _stacked(a)
    p = _project_weights(gens_pinv_t, gens, stack, np.zeros_like(stack))
    lam, vecs = np.linalg.eigh(p)
    band = tol * float(np.abs(lam).max())
    lo = lam[:, 0]
    if lo.min() > band:
        residual = _weights_residual(gens, stack, p)
        if residual < ACCEPT_RESIDUAL:
            return _member(p, residual)
    elif lo.min() < -band:
        j = int(lo.argmin())
        v = vecs[j, :, 0]
        vv = np.outer(v.conj(), v) / abs(lo[j])
        sep = _shifted_separator(cone, [gens_pinv_t[j, i] * vv for i in range(cone.dim)])
        if _separates(cone, a, sep):
            return MinMembershipResult(status=MinMembershipStatus.NOT_MEMBER, separator=sep)
    return None


def _sdp_min_membership(
    cone: PolyhedralCone,
    a: MatrixTuple,
    tol: float = 1e-8,
    max_iter: int = sdp.DEFAULT_MAX_ITER,
    problem: Optional[sdp.SdpProblem] = None,
) -> MinMembershipResult:
    """The generator-weight SDP, for any cone.

    The solver's weights and their projection onto the affine set are both
    candidates, and the one with the smaller checker residual is kept.  The
    solver's weights are an interior point, so their residual is their
    reconstruction error and the choice never loses a Member verdict.
    """
    if problem is None:
        problem = _min_membership_problem(cone, a)
    outcome = sdp.solve(problem, tol=tol, max_iter=max_iter)
    if outcome.status in (sdp.SdpStatus.FEASIBLE, sdp.SdpStatus.OPTIMAL):
        gens = cone.generators
        stack = _stacked(a)
        raw = np.array([w.mat for w in outcome.primal])
        candidates = (raw, _project_weights(np.linalg.pinv(gens.T), gens, stack, raw))
        residuals = [_weights_residual(gens, stack, w) for w in candidates]
        best = int(np.argmin(residuals))
        if residuals[best] >= ACCEPT_RESIDUAL:
            return MinMembershipResult(
                status=MinMembershipStatus.UNKNOWN,
                message=f"weight reconstruction residual {residuals[best]:.3e} too large",
            )
        return _member(candidates[best], residuals[best])
    if outcome.status is sdp.SdpStatus.INFEASIBLE:
        sep = _separator_from_farkas(cone, a, outcome.dual_certificate)
        return MinMembershipResult(
            status=MinMembershipStatus.NOT_MEMBER, separator=sep
        )
    return MinMembershipResult(
        status=MinMembershipStatus.UNKNOWN, message=outcome.message
    )


def min_membership(
    cone: PolyhedralCone,
    a: MatrixTuple,
    tol: float = 1e-8,
    dump_to=None,
    max_iter: int = sdp.DEFAULT_MAX_ITER,
) -> MinMembershipResult:
    """Membership of a tuple in the smallest system of a polyhedral cone.

    Decides feasibility of A = sum_k c_k (x) P_k over PSD weights P_k on
    the generators c_k.  A Member outcome carries the weights; a NotMember
    outcome carries a separating functional, nonnegative on the system and
    negative on the query.  A simplex cone is decided in closed form, except
    in the band |lambda_min(P_k)| <= tol * max_k ||P_k|| where the SDP
    decides; ``dump_to`` always receives the SDP.
    """
    if cone.dim != a.d:
        raise ValueError(f"cone has dimension {cone.dim}, tuple has {a.d}")
    problem = None
    if dump_to is not None:
        problem = _min_membership_problem(cone, a)
        sdp.dump_problem(problem, dump_to)
    if is_simplex(cone):
        res = _simplex_min_membership(cone, a, tol)
        if res is not None:
            return res
    return _sdp_min_membership(cone, a, tol=tol, max_iter=max_iter, problem=problem)


def circular_min_membership(a: MatrixTuple, tol: float = 1e-8) -> MembershipResult:
    """Smallest-system membership for the circular cone a^2+b^2 <= c^2.

    The 2 x 2 pencil (sigma_z, sigma_x, I) realizes that system, so pencil
    membership is the exact test; no generator SDP is involved.
    """
    return membership(circular_cone_pencil(), a, tol=tol)


# --------------------------------------------------------------------------
# Rank-one projection witnesses over the square cone
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PauliWitness:
    """Level-2 element of the square-cone smallest system with rank-one parts.

    components = (A_1, A_2, A_3, A_4) are rank-one projections with
    A_1 + A_2 = A_3 + A_4 = I; the tuple is sum_k v_k (x) A_k over the
    square's generators v_k, giving (2 sin(a) sigma_x, 2 cos(a) sigma_z, 2 I).
    """

    alpha: float
    tuple: MatrixTuple
    components: tuple[HermitianMatrix, HermitianMatrix, HermitianMatrix, HermitianMatrix]


def pauli_witness(alpha: float) -> PauliWitness:
    if not (0.0 < alpha < math.pi / 2.0):
        raise ValueError(f"alpha must be in (0, pi/2), got {alpha}")
    eye = np.eye(2)
    sz, sx = SIGMA_Z.mat, SIGMA_X.mat
    c, s = math.cos(alpha), math.sin(alpha)
    a1 = HermitianMatrix((eye - c * sz + s * sx) / 2.0)
    a2 = HermitianMatrix((eye + c * sz - s * sx) / 2.0)
    a3 = HermitianMatrix((eye + c * sz + s * sx) / 2.0)
    a4 = HermitianMatrix((eye - c * sz - s * sx) / 2.0)
    tup = MatrixTuple.of(2.0 * s * sx, 2.0 * c * sz, 2.0 * eye)
    return PauliWitness(alpha=alpha, tuple=tup, components=(a1, a2, a3, a4))


# --------------------------------------------------------------------------
# Essential boundary of the square-cone smallest system
# --------------------------------------------------------------------------


class EssentialBoundaryStatus(enum.Enum):
    IN_ESSENTIAL_BOUNDARY = "InEssentialBoundary"
    NO = "No"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class EssentialBoundaryResult:
    status: EssentialBoundaryStatus
    functional: Optional[SeparationFunctional] = None
    message: str = ""


def essential_boundary_square(
    components: Sequence,
    eps: float = STRICTNESS_EPS,
    tol: float = 1e-8,
    dump_to=None,
) -> EssentialBoundaryResult:
    """Essential-boundary test for sum_k v_k (x) A_k over the square cone.

    With PSD components A_1..A_4, the element lies in the essential boundary
    iff there are Hermitian M_3 > 0 (normalised tr M_3 = 1, strictness
    encoded as M_3 >= eps*I) and D, S with M_3 +- D >= 0, M_3 +- S >= 0 and
    A_1 ⟂ (M_3 + D),  A_2 ⟂ (M_3 - D),  A_3 ⟂ (M_3 + S),  A_4 ⟂ (M_3 - S)
    in the trace inner product.  The decision is a semidefinite feasibility
    problem in the shifted variables P_1 = M_3 + D, P_2 = M_3 - D,
    P_3 = M_3 + S, P_4 = M_3 - S and Z_0 = M_3 - eps*I.

    Like any numerical feasibility test this decides up to the solver
    tolerance: component configurations whose exact system is infeasible
    but lies within ~1e-8 of a feasible one can classify either way.
    The No answer is always backed by a verified infeasibility certificate.
    """
    if len(components) != 4:
        raise ValueError("expected exactly four components")
    comps = [as_hermitian(c) for c in components]
    s = comps[0].dim
    for k, c in enumerate(comps):
        if c.dim != s:
            raise ValueError(f"component {k} has size {c.dim}, expected {s}")
        if c.norm() <= 1e-12:
            raise ValueError(f"component {k} is zero; inputs must be nonzero")
        if not linalg.is_psd(c, tol=1e-9):
            raise ValueError(f"component {k} is not positive semidefinite")
    if eps * s >= 1.0:
        raise ValueError("strictness eps too large for the trace normalisation")

    # rows: P_1 + P_2 = P_3 + P_4 = 2 (Z_0 + eps I) coordinatewise in the
    # Hermitian basis, tr Z_0 = 1 - eps s, and tr(A_k P_k) = 0
    basis = linalg.hermitian_basis(s)
    nb = len(basis)
    coeffs = np.zeros((5, 2 * nb + 5, s, s), dtype=np.complex128)
    for pair, (i1, i2) in enumerate(((0, 1), (2, 3))):
        rows = slice(pair * nb, (pair + 1) * nb)
        coeffs[i1, rows] = coeffs[i2, rows] = basis
        coeffs[4, rows] = -2.0 * basis
    coeffs[4, 2 * nb] = np.eye(s)
    for k in range(4):
        coeffs[k, 2 * nb + 1 + k] = comps[k].mat
    pair_rhs = 2.0 * eps * np.trace(basis, axis1=1, axis2=2).real
    rhs = np.concatenate([pair_rhs, pair_rhs, [1.0 - eps * s], np.zeros(4)])
    problem = sdp.SdpProblem((s,) * 5, tuple(coeffs), rhs)
    if dump_to is not None:
        sdp.dump_problem(problem, dump_to)
    outcome = sdp.solve(problem, tol=tol)
    if outcome.status is sdp.SdpStatus.FEASIBLE:
        p1, p2, p3, p4, z0 = (blk.mat for blk in outcome.primal)
        m3 = z0 + eps * np.eye(s)
        dmat = (p1 - p2) / 2.0
        smat = (p3 - p4) / 2.0
        m1 = (smat + dmat) / 2.0
        m2 = (smat - dmat) / 2.0
        mats = tuple(HermitianMatrix(np.conj(m)) for m in (m1, m2, m3))
        margin = linalg.min_eigenvalue(HermitianMatrix(m3))
        return EssentialBoundaryResult(
            status=EssentialBoundaryStatus.IN_ESSENTIAL_BOUNDARY,
            functional=SeparationFunctional(matrices=mats, margin=float(margin)),
        )
    if outcome.status is sdp.SdpStatus.INFEASIBLE:
        return EssentialBoundaryResult(status=EssentialBoundaryStatus.NO)
    return EssentialBoundaryResult(
        status=EssentialBoundaryStatus.UNKNOWN, message=outcome.message
    )


# --------------------------------------------------------------------------
# Effros-Winkler separation
# --------------------------------------------------------------------------


def effros_winkler_separation(
    phi: SeparationFunctional, u, tol: float = 1e-10
) -> LinearPencil:
    """Separating pencil M_i = T^(-1/2) N_i T^(-1/2) with T = sum_i u_i N_i.

    Requires T positive definite (margin > tol).  The resulting pencil is
    unit-normalised and its free spectrahedron contains every tuple on
    which phi-type functionals of the source system are nonnegative, while
    any tuple with phi(A) < 0 lies strictly outside at its level.
    """
    u = np.asarray(u, dtype=float)
    if len(u) != phi.d:
        raise ValueError("unit length does not match the functional")
    t = sum(ui * n.mat for ui, n in zip(u, phi.matrices))
    t = HermitianMatrix(t)
    if linalg.min_eigenvalue(t) <= tol:
        raise ValueError(
            "functional is not strictly positive at the unit (sum u_i N_i not PD)"
        )
    ti = linalg.inv_sqrt_pd(t)
    mats = [HermitianMatrix(ti @ n.mat @ ti) for n in phi.matrices]
    return LinearPencil(mats, u)


# --------------------------------------------------------------------------
# Positivity thresholds for a Hermitian pair (full versus product vectors)
# --------------------------------------------------------------------------


def lambda1_block(m, n) -> float:
    """Smallest lam with [[M + lam*I, N], [N, I]] >= 0, as max_v (v*N^2v - v*Mv)."""
    hm, hn = as_hermitian(m), as_hermitian(n)
    if hm.dim != hn.dim:
        raise ValueError("matrices must have the same size")
    return linalg.max_eigenvalue(HermitianMatrix(hn.mat @ hn.mat - hm.mat))


# Bisection stops once the bracket is this tight relative to the size of
# (M, N), ||N||^2 + ||M||_F, which bounds |value|; never below the rounding
# margin, where splitting can no longer tighten it.
LAMBDA2_REL_TOL = 1e-12
_LAMBDA2_MAX_ROUNDS = 200


@dataclass(frozen=True)
class Lambda2Result:
    """``value`` is the quartic at the unit vector ``argmax``, so it is
    attained; ``upper`` is a certified bound on the maximum."""

    value: float
    upper: float
    argmax: np.ndarray


def _quartic(mmat: np.ndarray, nmat: np.ndarray, v: np.ndarray) -> float:
    qn = float(np.real(v.conj() @ nmat @ v))
    qm = float(np.real(v.conj() @ mmat @ v))
    return qn * qn - qm


def _chord_bounds(a, b, ga, gb) -> np.ndarray:
    """max over t in [a, b] of chord_g(t) - t^2, per interval."""
    slope = (gb - ga) / (b - a)
    t = np.clip(slope / 2.0, a, b)
    return ga + slope * (t - a) - t * t


def lambda2_products(m, n) -> Lambda2Result:
    """Maximum of (v*Nv)^2 - v*Mv over unit vectors v, with a certified bracket.

    Since x^2 = max_t (2tx - t^2), the maximum equals max f(t) over
    t in [lambda_min N, lambda_max N], where f(t) = g(t) - t^2 and
    g(t) = lambda_max(2tN - M) is convex.  On an interval the chord of g
    lies above g, so chord - t^2, a concave quadratic, bounds f there in
    closed form.  Intervals whose bound beats the best f found so far are
    bisected, with one batched eigvalsh (`_kernels.quartic_grid_scan`) per
    round.  Every top eigenvector v of 2tN - M has quartic
    (v*Nv - t)^2 + f(t) >= f(t), and the fixed point t <- v*Nv never
    lowers it.  ``upper`` is the bracket's top widened by the eigvalsh
    backward error.
    """
    hm, hn = as_hermitian(m), as_hermitian(n)
    if hm.dim != hn.dim:
        raise ValueError("matrices must have the same size")
    mmat, nmat = hm.mat, hn.mat

    def top_vector(t: float) -> np.ndarray:
        return _kernels.eigh_kernel(2.0 * t * nmat - mmat)[1][:, -1]

    n_eigs = np.linalg.eigvalsh(nmat)
    lo, hi = float(n_eigs[0]), float(n_eigs[-1])
    if lo == hi:
        # N = lo*I: f(lo) is the maximum and any top eigenvector attains it
        v = top_vector(lo)
        value = _quartic(mmat, nmat, v)
        return Lambda2Result(value=value, upper=value, argmax=v)

    # ||2tN - M|| <= 2*scale on the interval, and eigvalsh errs by a small
    # multiple of dim*eps times that
    scale = max(abs(lo), abs(hi)) ** 2 + float(np.linalg.norm(mmat))
    margin = 12.0 * hm.dim * np.finfo(float).eps * scale
    tol = max(LAMBDA2_REL_TOL * scale, margin)
    t = np.array([lo, hi])
    gt = _kernels.quartic_grid_scan(mmat, nmat, t)
    ft = gt - t * t
    lower, best_t = float(ft.max()), float(t[ft.argmax()])
    a, b, ga, gb = t[:1], t[1:], gt[:1], gt[1:]
    for _ in range(_LAMBDA2_MAX_ROUNDS):
        bounds = _chord_bounds(a, b, ga, gb)
        top = max(float(bounds.max()), lower)
        if top - lower <= tol:
            break
        live = bounds > lower
        a, b, ga, gb = a[live], b[live], ga[live], gb[live]
        mid = (a + b) / 2.0
        gm = _kernels.quartic_grid_scan(mmat, nmat, mid)
        fm = gm - mid * mid
        k = int(fm.argmax())
        if fm[k] > lower:
            lower, best_t = float(fm[k]), float(mid[k])
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        ga, gb = np.concatenate([ga, gm]), np.concatenate([gm, gb])

    v = top_vector(best_t)
    value = _quartic(mmat, nmat, v)
    for _ in range(_LAMBDA2_MAX_ROUNDS):
        w = top_vector(float(np.real(v.conj() @ nmat @ v)))
        q = _quartic(mmat, nmat, w)
        if q <= value:
            break
        v, value = w, q
    return Lambda2Result(value=value, upper=top + margin, argmax=v)


def common_eigenvector_residual(m, n, v: np.ndarray) -> tuple[float, float]:
    """Residuals ||Mv - (v*Mv)v|| and ||Nv - (v*Nv)v|| for a unit vector."""
    hm, hn = as_hermitian(m), as_hermitian(n)
    v = np.asarray(v, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    rm = hm.mat @ v - (v.conj() @ hm.mat @ v) * v
    rn = hn.mat @ v - (v.conj() @ hn.mat @ v) * v
    return float(np.linalg.norm(rm)), float(np.linalg.norm(rn))


# --------------------------------------------------------------------------
# Witness-compression obstruction harness
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CompressionReport:
    """Numerical evidence that rank-one witnesses at distinct angles cannot
    be compressed into the essential boundary at level r.

    The orthogonality constraints require 2r pairwise orthogonal nonzero
    vectors in C^r; random (and isometry-structured) attempts never push
    the worst pairing residual below the threshold.
    """

    r: int
    angles: tuple[float, ...]
    required_orthogonal_columns: int
    space_dimension: int
    dimension_obstruction: bool
    trials: int
    min_max_residual: float
    degenerate_trials: int
    threshold: float

    @property
    def obstruction_confirmed(self) -> bool:
        return self.dimension_obstruction and self.min_max_residual >= self.threshold


def compression_obstruction_demo(
    r: int,
    angles: Sequence[float],
    trials: int = 10_000,
    seed: int = 0,
    threshold: float = 1e-3,
) -> CompressionReport:
    if r < 1:
        raise ValueError("r must be at least 1")
    angles = tuple(float(a) for a in angles)
    if len(angles) != r:
        raise ValueError("need exactly r angles")
    if any(not (0.0 < a < math.pi / 2.0) for a in angles):
        raise ValueError("angles must lie in (0, pi/2)")
    if len(set(angles)) != r:
        raise ValueError("angles must be distinct")

    # rank-one directions of the four projections per angle
    pvecs = np.zeros((r, 4, 2), dtype=np.complex128)
    for i, a in enumerate(angles):
        w = pauli_witness(a)
        for k, comp in enumerate(w.components):
            dec = linalg.eigh(comp)
            pvecs[i, k] = dec.eigenvectors[:, -1]

    rng = np.random.default_rng(seed)
    min_max_residual = math.inf
    degenerate = 0
    batch = 500
    done = 0
    while done < trials:
        t = min(batch, trials - done)
        vs = rng.standard_normal((t, r, r, 2)) + 1j * rng.standard_normal((t, r, r, 2))
        if done == 0:
            # structured attempts: stacked isometries
            for i in range(r):
                q, _ = np.linalg.qr(
                    rng.standard_normal((r, 2)) + 1j * rng.standard_normal((r, 2))
                )
                vs[0, i] = q[:, :2]
        x = np.einsum("tirc,ikc->tikr", vs, pvecs)
        norms = np.linalg.norm(x, axis=3)
        degenerate += int(np.sum(np.any(norms < 1e-9, axis=(1, 2))))
        for pair in ((0, 1), (2, 3)):
            g = np.abs(np.einsum("tir,tjr->tij", np.conj(x[:, :, pair[0]]), x[:, :, pair[1]]))
            den = norms[:, :, pair[0]][:, :, None] * norms[:, :, pair[1]][:, None, :] + 1e-30
            resid = (g / den).reshape(t, -1).max(axis=1)
            min_max_residual = min(min_max_residual, float(resid.min()))
        done += t

    return CompressionReport(
        r=r,
        angles=angles,
        required_orthogonal_columns=2 * r,
        space_dimension=r,
        dimension_obstruction=2 * r > r,
        trials=trials,
        min_max_residual=min_max_residual,
        degenerate_trials=degenerate,
        threshold=threshold,
    )
