"""Operator-system membership oracles over a polyhedral cone.

For a salient polyhedral cone C in R^d with order unit u, two canonical
operator systems extend C to matrix levels:

* the largest one: A = (A_1, ..., A_d) belongs at level s iff
  (v* A_1 v, ..., v* A_d v) lies in C for every vector v, equivalently
  (ell (x) id)(A) >= 0 for every facet functional ell of C;
* the smallest one: A belongs at level s iff A = sum_k c_k (x) P_k with
  the c_k among the generators of C and P_k PSD.

The smallest-system test is one decision over the generator weights
(`generator_weights`, which also decides the matricial relaxation from a
diagonal source; each caller makes and checks its own answers): every
solution of A = sum_k c_k (x) P_k is the min-norm one P0 plus a free part
in ker G^T, and A is a member iff the margin
max_Z min_k lambda_min(P0_k + sum_j K[k,j] Z_j) is nonnegative, an SDP
with an objective, solved from an exactly feasible start.  Its refutation
converts into a separating functional phi(B) = sum_i tr(conj(N_i) B_i)
that is nonnegative on the system and strictly negative on the query,
which in turn yields a separating linear pencil by the Effros-Winkler
construction.  Over a simplex cone there is no free part, the weights are
unique and the test needs no SDP: A is a member iff every
P_k = sum_i G^(-1)[i,k] A_i is PSD.
A commuting tuple needs none either: pinched onto a joint eigenbasis u_j it
is diagonal, and it is a member iff every joint eigenvalue vector ell_j
lies in the cone, one linear program per eigenvector, solved in closed form
over the d-subsets of the generators when there are at most
`cones.SUBSET_BATCH` of them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels, certificates, linalg, sdp, tolerances
from .cones import SUBSET_BATCH, PolyhedralCone, _subsets
from .linalg import SIGMA_X, SIGMA_Z
from .pencil import (
    LinearPencil,
    MatrixTuple,
    MembershipResult,
    classify_margin,
)

STRICTNESS_EPS = 1e-6  # not a band: the default eps of the essential-boundary problem


# --------------------------------------------------------------------------
# Largest system: facet-wise positivity
# --------------------------------------------------------------------------


def max_membership(
    cone: PolyhedralCone, a: MatrixTuple, tol: float = tolerances.BOUNDARY_TOL
) -> MembershipResult:
    """Membership of a tuple in the largest system of the cone.

    Classification is by the smallest eigenvalue over all facet evaluations
    (ell_k (x) id)(A), ``tol`` its absolute band; the worst facet is reported.
    """
    if cone.dim != a.d:
        raise ValueError(f"cone has dimension {cone.dim}, tuple has {a.d}")
    mins = np.linalg.eigvalsh(np.tensordot(cone.facets, a.stack, axes=1))[:, 0]
    worst = int(np.argmin(mins))
    margin = float(mins[worst])
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
    """PSD weights P_k, a read-only (m, s, s) stack, with
    sum_k c_k (x) P_k equal to the queried tuple."""

    weights: np.ndarray
    residual: float


@dataclass(frozen=True)
class SeparationFunctional:
    """phi(B) = sum_i Re tr(conj(N_i) B_i) with strictness margin.

    ``matrices`` is the read-only (d, s, s) stack of the N_i.  The margin
    is the smallest eigenvalue of sum_i u_i N_i; a positive margin makes phi
    strictly positive on every u (x) vv*.
    """

    matrices: np.ndarray
    margin: float

    def evaluate(self, b: MatrixTuple) -> float:
        n = np.asarray(self.matrices)
        if n.shape != b.stack.shape:
            raise ValueError("tuple shape does not match the functional")
        return certificates.phi(n, b.stack)


@dataclass(frozen=True)
class MinMembershipResult:
    status: MinMembershipStatus
    certificate: Optional[MinMembershipCertificate] = None
    separator: Optional[SeparationFunctional] = None
    message: str = ""


def _separator(
    cone: PolyhedralCone, stack: np.ndarray, y: np.ndarray
) -> Optional[MinMembershipResult]:
    """NotMember with the separator N = -conj(Y) of Farkas matrices Y, plus
    SEPARATOR_SHIFT * max|N| times the facet mean (normalised at the unit,
    so strictly positive on the cone) when the margin lambda_min of
    sum_i u_i N_i is below that.  None unless Y refutes A over the
    generators (the relaxation check from the diagonal source diag(c_k))
    and N passes `certificates.check_separator`."""
    gens, unit = cone.generators, cone.unit
    diagonal = np.einsum("ki,kl->ikl", gens, np.eye(len(gens)))
    if not certificates.check_relaxation_infeasible(diagonal, stack, y).ok:
        return None
    n = linalg.hermitian_part(-np.conj(y))
    check = certificates.check_separator(gens, unit, stack, n)
    tiny = tolerances.SEPARATOR_SHIFT * float(np.abs(n).max())
    if check.details["margin"] < tiny:
        f = cone.facets.mean(axis=0)
        shift = tiny * (f / float(f @ unit))
        n = n + shift[:, None, None] * np.eye(n.shape[-1])
        check = certificates.check_separator(gens, unit, stack, n)
    if not check.ok:
        return None
    n.flags.writeable = False
    sep = SeparationFunctional(matrices=n, margin=check.details["margin"])
    return MinMembershipResult(status=MinMembershipStatus.NOT_MEMBER, separator=sep)


def _offer(member, p):
    """``member`` of the weights ``p``, made exactly Hermitian, read-only."""
    p = linalg.hermitian_part(p)
    p.flags.writeable = False
    return member(p)


def _affine_split(gens: np.ndarray, stack: np.ndarray, h: np.ndarray):
    """The weights with sum_k c_k (x) P_k = A / scale, from one SVD of G
    (``gens``, m x d): P0 + sum_j K[k,j] Z_j over Hermitian Z_j, with the
    min-norm weights P0 = pinv(G^T) A / scale and K an orthonormal basis
    (m x f) of ker G^T.  Returns (rows, scale, pinv(G^T), K, P0) with
    scale = max|A| (1 for A = 0).  Where rows = G h > 0 is not constant to
    CONSTANT_ROWS_TOL, G is first rescaled to c_k / rows_k (else rows = 1),
    so that K^T 1 = 0."""
    m, d = gens.shape
    rows = gens @ h
    rows = rows if np.ptp(rows) > tolerances.CONSTANT_ROWS_TOL * rows.max() else np.ones(m)
    u, sv, vt = np.linalg.svd(gens / rows[:, None])
    rank = int(np.sum(sv > sv.max(initial=0.0) * max(m, d) * np.finfo(float).eps))
    pinv_t = (u[:, :rank] / sv[:rank]) @ vt[:rank]
    scale = float(np.abs(stack).max()) or 1.0
    return rows, scale, pinv_t, u[:, rank:], np.tensordot(pinv_t, stack / scale, axes=1)


def _margin_problem(p0: np.ndarray, kernel: np.ndarray):
    """Minimise sum_k tr(P0_k X_k) over PSD blocks X_k subject to
    sum_k tr X_k = 1 and sum_k K[k,j] tr(E_alpha X_k) = 0 for every column
    j of ``kernel`` and Hermitian basis element E_alpha.  Its dual
    maximises the margin lambda over P0_k + sum_j K[k,j] Z_j >= lambda I,
    with y = (lambda, -Z in the basis).  Returns the problem, its rows
    independent and exactly Hermitian, and its start X_k = I / (m s),
    y = (lambda_min(P0) - 1, 0, ..., 0): S_k = P0_k - y_0 I >= I, and
    A(X) = b once K^T 1 = 0."""
    m, s = len(p0), p0.shape[-1]
    free = np.multiply.outer(kernel, linalg.hermitian_basis(s)).reshape(m, -1, s, s)
    coeffs = np.concatenate([np.broadcast_to(np.eye(s), (m, 1, s, s)), free], axis=1)
    c = linalg.hermitian_part(p0)
    y = np.r_[np.linalg.eigvalsh(c)[:, 0].min() - 1.0, np.zeros(free.shape[1])]
    problem = sdp.SdpProblem._unchecked(coeffs, np.r_[1.0, np.zeros(len(y) - 1)], c)
    return problem, (np.broadcast_to(np.eye(s) / (m * s), (m, s, s)), y)


def margin_sdp(gens: np.ndarray, stack: np.ndarray, h: np.ndarray) -> sdp.SdpProblem:
    """The margin SDP of `generator_weights` on these arguments, which is
    what it solves when no closed form decides."""
    if len(stack) != gens.shape[1]:
        raise ValueError(f"generators have dimension {gens.shape[1]}, the stack has {len(stack)}")
    _, _, _, kernel, p0 = _affine_split(gens, stack, h)
    return _margin_problem(p0, kernel)[0]


def _margin_weights(gens, stack, member, refute, split):
    """The margin decision of `generator_weights` on an `_affine_split`."""
    rows, scale, pinv_t, kernel, p0 = split
    if len(gens) - kernel.shape[1] < gens.shape[1]:
        r = stack / scale - np.tensordot((gens / rows[:, None]).T, p0, axes=1)
        if np.abs(r).max() > tolerances.TOL:
            return refute(r / np.vdot(r, stack).real), "unreachable part: no certificate passed"
    lam, vecs = np.linalg.eigh(p0)
    band = tolerances.TOL * float(np.abs(lam).max())

    def weights(w):
        """The answer for the weights of G for the split's weights ``w``."""
        return _offer(member, scale * w / rows[:, None, None])

    def farkas(x):
        """The answer for Y = -N / |<N, A>| from primal blocks X, if out of band."""
        n = np.tensordot(pinv_t.T, x, axes=1)
        phi = np.vdot(n, stack).real
        if phi >= -band * scale * np.trace(x, axis1=1, axis2=2).real.sum():
            return None
        return refute(-n / abs(phi))

    answer = weights(p0) if lam[:, 0].min() >= -band else None
    if answer is not None:
        return answer, ""
    if kernel.shape[1] == 0:
        j = int(lam[:, 0].argmin())
        x = np.zeros_like(p0)
        x[j] = np.outer(vecs[j, :, 0], vecs[j, :, 0].conj())
        return farkas(x), "closed form: no certificate passed"

    basis = linalg.hermitian_basis(p0.shape[-1])

    def check(x, y):
        """With both sides feasible, y_0 <= margin <= sum_k tr(P0_k X_k):
        an answer is made once either bound leaves the band."""
        x = np.asarray(x)
        if y[0] >= -band:
            z = np.tensordot(y[1:].reshape(kernel.shape[1], -1), basis, axes=1)
            return weights(p0 - np.tensordot(kernel, z, axes=1))
        if np.vdot(p0, x).real < -band * x.trace(axis1=1, axis2=2).real.sum():
            return farkas(x)
        return None

    problem, start = _margin_problem(p0, kernel)
    outcome = sdp.solve(problem, check=check, start=start)
    return outcome.answer, f"margin SDP: {outcome.message or 'no certificate passed'}"


def _cone_lp(gens: np.ndarray, points: np.ndarray):
    """Each row ell_j of ``points`` against the cone spanned by the rows of
    ``gens`` (m x d), over every invertible d-subset S of the generators,
    all in one batch (the caller keeps C(m, d) <= SUBSET_BATCH).

    The weights of ell_j on S are w = ell_j G_S^(-1), and ell_j lies in the
    cone iff some S gives w >= 0 (Caratheodory).  Returns ``low``, the
    largest smallest weight over S for each point; ``weights`` (s, m), the
    weights on that S, zero elsewhere; and ``normals`` (s, d), for each
    point the shortest y = G_S^(-1) e_q / w_q over w_q < 0 with
    gens @ y <= FARKAS_TOL, so that ell_j . y = 1 (NaN where none passes).
    None when every d-subset is singular.
    """
    m, d = gens.shape
    s = len(points)
    rows = np.arange(s)
    sub = _subsets(m, d)
    g = gens[sub]
    hadamard = np.prod(np.linalg.norm(g, axis=2), axis=1)
    live = np.abs(np.linalg.det(g)) > tolerances.SUBSET_SINGULAR_TOL * hadamard
    if not live.any():
        return None
    sub, ginv = sub[live], np.linalg.inv(g[live])
    w = np.einsum("ji,bik->jbk", points, ginv)
    mins = w.min(axis=2)
    at = mins.argmax(axis=1)
    weights = np.zeros((s, m))
    weights[rows[:, None], sub[at]] = w[rows, at]
    # column q as a normal: max_k c_k . y = min_k (gens @ G_S^(-1))[k, q] / w_q
    floor = (gens @ ginv).min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (w < 0) & (floor / w <= tolerances.FARKAS_TOL)
        size = np.where(ok, np.linalg.norm(ginv, axis=1) / np.abs(w), np.inf).reshape(s, -1)
        b, q = np.divmod(size.argmin(axis=1), d)
        normals = ginv[b, :, q] / w[rows, b, q][:, None]
    normals[~ok[rows, b, q]] = np.nan
    return mins[rows, at], weights, normals


def _commuting_weights(gens, stack, member, refute):
    """The answer for a commuting stack, or None.

    In a joint eigenbasis u_j the A_i are diagonal with values ell_j, and
    A = sum_k c_k (x) P_k with P_k = sum_j W[j,k] u_j u_j* whenever
    ell_j = sum_k W[j,k] c_k with W >= 0: one cone-membership LP per
    eigenvector (`_cone_lp`).  If ell_j is outside the cone, with normal y
    (c_k . y <= 0, ell_j . y = 1), then Y_i = y_i u_j u_j*.
    """
    u, ell, offdiagonal = linalg.joint_eigenbasis(stack)
    if offdiagonal > tolerances.TOL * float(np.abs(stack).max()):
        return None
    scored = _cone_lp(gens, ell)
    if scored is None:
        return None
    low, w, normals = scored
    band = tolerances.TOL * float(np.abs(w).max())
    if low.min() >= -band:
        p = np.einsum("xj,jk,yj->kxy", u, np.maximum(w, 0.0), u.conj())
        return _offer(member, p)
    j = int(low.argmin())
    if np.isnan(normals[j, 0]):
        return None
    return refute(np.multiply.outer(normals[j], np.outer(u[:, j], u[:, j].conj())))


def generator_weights(gens: np.ndarray, stack: np.ndarray, h: np.ndarray, member, refute):
    """Decide A = sum_k c_k (x) P_k over PSD weights P_k, for the generators
    c_k as the rows of ``gens`` (m x d) and the (d, s, s) ``stack`` of A_i.

    The caller makes the answers: ``member(P)`` of exactly Hermitian,
    read-only weights, ``refute(Y)`` of Farkas matrices Y_i (a (d, s, s)
    stack with sum_i c_k[i] Y_i <= 0 for every k and sum_i <Y_i, A_i> = 1).
    Each runs the check `freespec verify` runs on its answer's document and
    returns the answer, or None when that check fails.  Returns
    (answer, why): the first answer a maker accepted, or None with ``why``
    no maker accepted one.

    For m > d with at most SUBSET_BATCH d-subsets of generators, a stack
    that commutes (every U* A_i U diagonal within TOL * max|A| in the basis
    of `linalg.joint_eigenbasis`) is decided per joint eigenvector
    (`_commuting_weights`).  Everything else is decided by the sign of the
    margin max_Z min_k lambda_min(P0_k + sum_j K[k,j] Z_j) over the affine
    set of weights (`_affine_split`, A normalised by max|A|, on the rows
    c_k / (c_k . h) when G h > 0 is not constant).  A part R = A - G^T P0
    that no weights reach is refuted by Y = R / <R, A>.  P0 with
    lambda_min >= -band = -TOL * max|lambda(P0)| is offered as a
    Member.  With no free part (G of full row rank, e.g. a simplex)
    X = vv* on the worst block of P0 decides in closed form.  Otherwise
    `_margin_problem` runs from its exactly feasible start, and each
    iterate is judged on two scalars: y_0 >= -band offers the dual weights
    P0 + KZ >= y_0 I, and sum_k tr(P0_k X_k) < -band tr X offers
    Y = -N / |<N, A>| with N = pinv(G) X, since sum_i c_k[i] N_i = X_k.
    The SDP stops at the first answer a maker accepts; `margin_sdp` builds
    it on its own.
    """
    m, d = gens.shape
    if m > d and math.comb(m, d) <= SUBSET_BATCH:
        answer = _commuting_weights(gens, stack, member, refute)
        if answer is not None:
            return answer, ""
    return _margin_weights(gens, stack, member, refute, _affine_split(gens, stack, h))


def min_membership(cone: PolyhedralCone, a: MatrixTuple) -> MinMembershipResult:
    """Membership of a tuple in the smallest system of a polyhedral cone.

    Decides A = sum_k c_k (x) P_k over PSD weights P_k on the generators
    c_k (`generator_weights`: in closed form for a simplex cone, for PSD
    min-norm weights and, per joint eigenvector, for a commuting tuple; by
    the margin SDP otherwise).  A Member outcome carries the weights; a
    NotMember outcome carries a separating functional, nonnegative on the
    system and negative on the query (`_separator`).  Each has passed the
    check of `freespec verify`, once.
    """
    if cone.dim != a.d:
        raise ValueError(f"cone has dimension {cone.dim}, tuple has {a.d}")
    return _min_membership(cone, a.stack)


def _min_membership(cone: PolyhedralCone, stack: np.ndarray) -> MinMembershipResult:
    """`min_membership` of the tuple with the Hermitian (d, s, s) ``stack``,
    which the caller has checked."""
    gens = cone.generators

    def member(p):
        check = certificates.check_min_member(gens, stack, p)
        cert = MinMembershipCertificate(p, check.residual)
        return MinMembershipResult(MinMembershipStatus.MEMBER, cert) if check.ok else None

    answer, why = generator_weights(
        gens, stack, cone.facets.sum(axis=0), member, lambda y: _separator(cone, stack, y)
    )
    return answer or MinMembershipResult(status=MinMembershipStatus.UNKNOWN, message=why)


# --------------------------------------------------------------------------
# Rank-one projection witnesses over the square cone
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PauliWitness:
    """Level-2 element of the square-cone smallest system with rank-one parts.

    components, the read-only (4, 2, 2) stack (A_1, A_2, A_3, A_4), are
    rank-one projections with A_1 + A_2 = A_3 + A_4 = I; the tuple is
    sum_k v_k (x) A_k over the square's generators v_k, giving
    (2 sin(a) sigma_x, 2 cos(a) sigma_z, 2 I).
    """

    alpha: float
    tuple: MatrixTuple
    components: np.ndarray


def pauli_witness(alpha: float) -> PauliWitness:
    if not (0.0 < alpha < math.pi / 2.0):
        raise ValueError(f"alpha must be in (0, pi/2), got {alpha}")
    eye = np.eye(2)
    c, s = math.cos(alpha), math.sin(alpha)
    # A_k = (I + a c sigma_z + b s sigma_x) / 2 with the signs (a, b) of each k
    signs = ((-1, 1), (1, -1), (1, 1), (-1, -1))
    comps = linalg.hermitian([(eye + a * c * SIGMA_Z + b * s * SIGMA_X) / 2.0 for a, b in signs], 3)
    tup = MatrixTuple.of(2.0 * s * SIGMA_X, 2.0 * c * SIGMA_Z, 2.0 * eye)
    return PauliWitness(alpha=alpha, tuple=tup, components=comps)


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
    components: Sequence, eps: float = STRICTNESS_EPS
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
    tolerance `tolerances.TOL`: component configurations whose exact
    system is infeasible but within ~TOL of a feasible one can classify
    either way.
    Rows that `linalg.dependencies` drops are left out of the solve; one
    whose dependency the right-hand sides break is a Farkas certificate by
    itself.  The No answer is always backed by a verified infeasibility
    certificate, and an InEssentialBoundary functional passes its
    certificate check.
    """
    comps = _components(components)
    problem = _boundary_problem(comps, eps)
    kept, deps = linalg.dependencies(problem.flat)
    for c in deps:  # y = +-c: sum_i y_i A_i = 0, a Farkas certificate when y.b > 0
        if sdp._farkas_from_y(problem, c if c @ problem.b > 0 else -c) is not None:
            return EssentialBoundaryResult(status=EssentialBoundaryStatus.NO)
    if deps:
        problem = sdp.SdpProblem._unchecked(problem.a[:, kept], problem.b[kept], None)
    outcome = sdp.solve(problem)
    if outcome.status is sdp.SdpStatus.FEASIBLE:
        p1, p2, p3, p4, z0 = outcome.primal
        m3 = z0 + eps * np.eye(len(z0))
        dmat = (p1 - p2) / 2.0
        smat = (p3 - p4) / 2.0
        m1 = (smat + dmat) / 2.0
        m2 = (smat - dmat) / 2.0
        n = linalg.hermitian_part(np.conj([m1, m2, m3]))
        check = certificates.check_essential_boundary(comps, n, eps)
        if not check.ok:
            return EssentialBoundaryResult(
                status=EssentialBoundaryStatus.UNKNOWN,
                message=f"certificate rejected by its check (residual {check.residual:.3e})",
            )
        n.flags.writeable = False
        return EssentialBoundaryResult(
            status=EssentialBoundaryStatus.IN_ESSENTIAL_BOUNDARY,
            functional=SeparationFunctional(matrices=n, margin=check.details["margin"]),
        )
    if outcome.status is sdp.SdpStatus.INFEASIBLE:
        return EssentialBoundaryResult(status=EssentialBoundaryStatus.NO)
    return EssentialBoundaryResult(
        status=EssentialBoundaryStatus.UNKNOWN, message=outcome.message
    )


def _components(components: Sequence) -> np.ndarray:
    """The four nonzero PSD components of `essential_boundary_square`,
    checked and symmetrised, as one (4, s, s) stack."""
    if len(components) != 4:
        raise ValueError("expected exactly four components")
    comps = [linalg.hermitian(c) for c in components]
    s = len(comps[0])
    for k, c in enumerate(comps):
        if len(c) != s:
            raise ValueError(f"component {k} has size {len(c)}, expected {s}")
        if np.linalg.norm(c) <= tolerances.ZERO_COMPONENT_TOL:
            raise ValueError(f"component {k} is zero; inputs must be nonzero")
        band = tolerances.COMPONENT_PSD_TOL * (1.0 + float(np.linalg.norm(c)))
        if not _kernels.eigh_kernel(c)[0][0] >= -band:
            raise ValueError(f"component {k} is not positive semidefinite")
    return np.array(comps)


def essential_boundary_sdp(components: Sequence, eps: float = STRICTNESS_EPS) -> sdp.SdpProblem:
    """The feasibility SDP of `essential_boundary_square`, in the blocks
    P_1..P_4 and Z_0, after the checks of its four nonzero PSD components."""
    return _boundary_problem(_components(components), eps)


def _boundary_problem(comps: np.ndarray, eps: float) -> sdp.SdpProblem:
    """`essential_boundary_sdp` of the checked stack of `_components`."""
    s = comps.shape[-1]
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
        coeffs[k, 2 * nb + 1 + k] = comps[k]
    pair_rhs = 2.0 * eps * np.trace(basis, axis1=1, axis2=2).real
    rhs = np.concatenate([pair_rhs, pair_rhs, [1.0 - eps * s], np.zeros(4)])
    return sdp.SdpProblem(coeffs, rhs)


# --------------------------------------------------------------------------
# Effros-Winkler separation
# --------------------------------------------------------------------------


def effros_winkler_separation(phi: SeparationFunctional, u) -> LinearPencil:
    """Separating pencil M_i = T^(-1/2) N_i T^(-1/2) with T = sum_i u_i N_i.

    Requires T positive definite (margin > FUNCTIONAL_MARGIN_TOL).  The
    resulting pencil is unit-normalised and its free spectrahedron contains
    every tuple on which phi-type functionals of the source system are
    nonnegative, while any tuple with phi(A) < 0 lies strictly outside at
    its level.
    """
    u = np.asarray(u, dtype=float)
    n = np.asarray(phi.matrices)
    if len(u) != len(n):
        raise ValueError("unit length does not match the functional")
    t = sum(ui * m for ui, m in zip(u, n))
    if _kernels.eigh_kernel(linalg.hermitian(t))[0][0] <= tolerances.FUNCTIONAL_MARGIN_TOL:
        raise ValueError(
            "functional is not strictly positive at the unit (sum u_i N_i not PD)"
        )
    ti = linalg.inv_sqrt_pd(t)
    return LinearPencil(ti @ n @ ti, u)


# --------------------------------------------------------------------------
# Positivity thresholds for a Hermitian pair (full versus product vectors)
# --------------------------------------------------------------------------


def _hermitian_pair(m, n) -> tuple[np.ndarray, np.ndarray, int]:
    """The checked Hermitian M / s^2 and N / s of a threshold problem and k,
    for s = 2^k: k = 0 unless max|N| or sqrt(max|M|) reaches 2^256, else the
    least k that brings both below 1, so that no square overflows and
    lam(M, N) = s^2 lam(M / s^2, N / s) exactly, for both thresholds.  An
    entry that is not finite, or two sizes, is a ValueError (naming M or N)."""
    pair = []
    for x, name in ((m, "M"), (n, "N")):
        a = np.asarray(x, dtype=np.complex128)
        size = float(np.abs(a).max(initial=0.0))  # finite iff every entry is
        if not math.isfinite(size):
            raise ValueError(f"{name}: expected finite entries")
        pair.append((linalg.hermitian(a), size))
    (hm, size_m), (hn, size_n) = pair
    if hm.shape != hn.shape:
        raise ValueError("matrices must have the same size")
    k = math.frexp(max(size_n, math.sqrt(size_m)))[1]
    if k <= 256:  # not a band: far below where a square can overflow
        return hm, hn, 0
    inv = math.ldexp(1.0, -k)
    return hm * inv * inv, hn * inv, k


def _unscaled(x: float, k: int) -> float:
    """s^2 x for s = 2^k, exactly; a ValueError beyond the float range."""
    try:
        return math.ldexp(x, 2 * k)
    except OverflowError:
        raise ValueError(f"threshold {x!r} * 2^{2 * k} is beyond the float range") from None


def lambda1_block(m, n) -> float:
    """Smallest lam with [[M + lam*I, N], [N, I]] >= 0, as max_v (v*N^2v - v*Mv)."""
    hm, hn, k = _hermitian_pair(m, n)
    return _unscaled(float(_kernels.eigh_kernel(linalg.hermitian_part(hn @ hn - hm))[0][-1]), k)


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


def _chord_bound(a: float, b: float, ga: float, gb: float) -> float:
    """max over t in [a, b] of chord_g(t) - t^2."""
    slope = (gb - ga) / (b - a)
    # clamp slope/2 to [a, b] as np.clip does: a bound wins a tie, so a
    # signed zero keeps its bits
    t = slope / 2.0
    t = t if t > a else a
    t = t if t < b else b
    return ga + slope * (t - a) - t * t


def lambda2_products(m, n) -> Lambda2Result:
    """Maximum of (v*Nv)^2 - v*Mv over unit vectors v, with a certified bracket.

    Since x^2 = max_t (2tx - t^2), the maximum equals max f(t) over
    t in [lambda_min N, lambda_max N], where f(t) = g(t) - t^2 and
    g(t) = lambda_max(2tN - M) is convex.  On an interval the chord of g
    lies above g, so chord - t^2, a concave quadratic, bounds f there in
    closed form.  Intervals whose bound beats the best f found so far are
    bisected.  The intervals (a, b, g(a), g(b)) and their bounds are kept
    as Python floats, so the only array work of a round is one batched
    eigvalsh (`_kernels.quartic_grid_scan`) on its midpoints: the left
    halves of the live intervals, in order, then the right halves.  Every
    top eigenvector v of 2tN - M has quartic (v*Nv - t)^2 + f(t) >= f(t),
    and the fixed point t <- v*Nv never lowers it.  ``upper`` is the
    bracket's top widened by the eigvalsh backward error.  An entry of M
    or N that is not finite is a ValueError, and so is an answer beyond
    the float range (the pair is rescaled by `_hermitian_pair`).
    """
    mmat, nmat, k = _hermitian_pair(m, n)

    def top_vector(t: float) -> np.ndarray:
        return _kernels.eigh_kernel(2.0 * t * nmat - mmat)[1][:, -1]

    n_eigs = np.linalg.eigvalsh(nmat)
    lo, hi = float(n_eigs[0]), float(n_eigs[-1])
    if lo == hi:
        # N = lo*I: f(lo) is the maximum and any top eigenvector attains it
        v = top_vector(lo)
        value = _unscaled(_quartic(mmat, nmat, v), k)
        return Lambda2Result(value=value, upper=value, argmax=v)

    # ||2tN - M|| <= 2*scale on the interval, and eigvalsh errs by a small
    # multiple of dim*eps times that
    scale = max(abs(lo), abs(hi)) ** 2 + float(np.linalg.norm(mmat))
    margin = 12.0 * len(mmat) * np.finfo(float).eps * scale
    # bisection stops at a bracket this tight, never below the rounding
    # margin, where splitting can no longer tighten it
    tol = max(tolerances.LAMBDA2_REL_TOL * scale, margin)
    glo, ghi = _kernels.quartic_grid_scan(mmat, nmat, np.array([lo, hi])).tolist()
    # a tie goes to the first point, here and in every round, as argmax's
    lower, best_t = glo - lo * lo, lo
    if ghi - hi * hi > lower:
        lower, best_t = ghi - hi * hi, hi
    intervals = [(lo, hi, glo, ghi)]
    for _ in range(_LAMBDA2_MAX_ROUNDS):
        bounds = [_chord_bound(*iv) for iv in intervals]
        top = max(max(bounds), lower)
        if top - lower <= tol:
            break
        intervals = [iv for iv, bound in zip(intervals, bounds) if bound > lower]
        mids = [(a + b) / 2.0 for a, b, _, _ in intervals]
        gm = _kernels.quartic_grid_scan(mmat, nmat, np.array(mids)).tolist()
        for t, g in zip(mids, gm):
            if g - t * t > lower:
                lower, best_t = g - t * t, t
        intervals = [(a, t, ga, g) for (a, _, ga, _), t, g in zip(intervals, mids, gm)] + [
            (t, b, g, gb) for (_, b, _, gb), t, g in zip(intervals, mids, gm)
        ]

    v = top_vector(best_t)
    value = _quartic(mmat, nmat, v)
    for _ in range(_LAMBDA2_MAX_ROUNDS):
        w = top_vector(float(np.real(v.conj() @ nmat @ v)))
        q = _quartic(mmat, nmat, w)
        if q <= value:
            break
        v, value = w, q
    return Lambda2Result(value=_unscaled(value, k), upper=_unscaled(top + margin, k), argmax=v)


def common_eigenvector_residual(m, n, v: np.ndarray) -> tuple[float, float]:
    """Residuals ||Mv - (v*Mv)v|| and ||Nv - (v*Nv)v|| for a unit vector."""
    hm, hn = linalg.hermitian(m), linalg.hermitian(n)
    v = np.asarray(v, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    rm = hm @ v - (v.conj() @ hm @ v) * v
    rn = hn @ v - (v.conj() @ hn @ v) * v
    return float(np.linalg.norm(rm)), float(np.linalg.norm(rn))
