"""Inclusion of spectrahedra: scalar test, matricial relaxation, scaling.

The scalar inclusion problem asks whether the level-1 cone of a source
pencil lies inside that of a target pencil.  Its matricial strengthening
asks for Kraus operators V_j with sum_j V_j* M_i V_j = N_i, a semidefinite
feasibility problem in the Choi matrix of the connecting map; feasibility
is equivalent to inclusion of the free spectrahedra at every matrix level.
For a diagonal source M_i = diag(F[:, i]), such as the facet realization of
a polyhedral cone, the map is fixed by its PSD values Q_k = Phi(E_kk), so
the strengthening is smallest-system membership of the target over the
cone spanned by the rows of F, decided by `opsys.generator_weights` (the
margin SDP, with r blocks of size t instead of one Choi block of size
r*t); other sources solve the Choi feasibility SDP.  Both paths make
their answers with `_feasible` and `_infeasible`, which run the check of
`freespec verify`.  For a simplex source F is invertible, the decision is
in closed form and the strengthening is tight; when rank F < d, a target with a part outside the
range of F^T is refuted by that part alone.  For a commuting target it
is tight too, and decided in closed form per joint eigenvector: the target
spectrahedron is then a polyhedron.  For non-simplex polyhedral sources and
other targets it can fail even when scalar inclusion holds, and explicit
level-2 witnesses certify the gap.  Scaled-cone inclusion bounds quantify
how much the source must shrink before the strengthening becomes a
relaxation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels, certificates, linalg, sdp, tolerances
from .cones import (
    SQUARE_RAYS,
    PolyhedralCone,
    best_sandwich_simplex,
    is_centrally_symmetric,
    is_simplex,
    rays_equal,
    section_of,
    square_cone,
)
from .linalg import SIGMA_X, SIGMA_Z
from .opsys import (
    MinMembershipStatus,
    _min_membership,
    generator_weights,
    margin_sdp,
    max_membership,
    min_membership,
)
from .pencil import (
    Classification,
    LinearPencil,
    MatrixTuple,
    classify_margin,
    diagonal_pencil,
    elliptic_cone_pencil,
    evaluate,
    membership,
)


# --------------------------------------------------------------------------
# Scalar inclusion
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarInclusionResult:
    holds: bool
    margins: np.ndarray  # per source generator, min eigenvalue at level 1
    witness_ray: Optional[np.ndarray] = None
    witness_margin: Optional[float] = None


def scalar_inclusion(src: PolyhedralCone, tgt: LinearPencil) -> ScalarInclusionResult:
    """Level-1 inclusion of a polyhedral cone in a pencil's spectrahedron.

    Decidable by generator checks: the cone is included iff every extreme
    ray evaluates to a PSD matrix (margin >= -BOUNDARY_TOL).
    """
    if src.dim != tgt.d:
        raise ValueError(f"cone dimension {src.dim} != pencil variables {tgt.d}")
    margins = np.linalg.eigvalsh(np.tensordot(src.generators, tgt.stack, axes=1))[:, 0]
    worst = int(np.argmin(margins))
    if margins[worst] < -tolerances.BOUNDARY_TOL:
        return ScalarInclusionResult(
            holds=False,
            margins=margins,
            witness_ray=src.generators[worst].copy(),
            witness_margin=float(margins[worst]),
        )
    return ScalarInclusionResult(holds=True, margins=margins)


# --------------------------------------------------------------------------
# Matricial relaxation: generator weights for diagonal sources, else Choi
# --------------------------------------------------------------------------


class RelaxationStatus(enum.Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class RelaxationCertificate:
    """Choi matrix (read-only) and Kraus operators of a map carrying M_i
    to N_i."""

    choi: np.ndarray
    kraus: tuple[np.ndarray, ...]
    residual: float


@dataclass(frozen=True)
class RelaxationFarkas:
    """Dual witness: Hermitian Y_i with sum_i M_i^T (x) Y_i <= 0 and
    sum_i <Y_i, N_i> = 1, ruling out any completely positive connecting map;
    ``y_matrices`` is the read-only (d, t, t) stack of the Y_i."""

    y_matrices: np.ndarray
    gap: float
    lambda_max: float


@dataclass(frozen=True)
class RelaxationResult:
    status: RelaxationStatus
    certificate: Optional[RelaxationCertificate] = None
    farkas: Optional[RelaxationFarkas] = None
    message: str = ""


def _choi_problem(src: LinearPencil, tgt: LinearPencil) -> sdp.SdpProblem:
    """Rows tr(F_beta N_i) = tr((M_i^T (x) F_beta) J), one per variable i
    and Hermitian basis element F_beta; the one block is the Choi matrix J."""
    r, t = src.r, tgt.r
    basis = linalg.hermitian_basis(t)
    mt = np.swapaxes(src.stack, 1, 2)
    coeffs = mt[:, None, :, None, :, None] * basis[None, :, None, :, None, :]
    rhs = np.einsum("bij,dji->db", basis, tgt.stack).real.ravel()
    return sdp.SdpProblem(coeffs.reshape(1, -1, r * t, r * t), rhs)


def kraus_from_choi(choi, r: int, t: int) -> tuple[np.ndarray, ...]:
    """Kraus operators V_j in M_{r,t} from the spectral decomposition.

    Eigenvalues below cutoff * tr(J) are dropped; the map acts as
    X -> sum_j V_j* X V_j.  A J whose off-diagonal t x t blocks vanish is
    decomposed block by block: the eigenvector w of block k is e_k (x) w.
    """
    choi = np.asarray(choi)
    blocks = linalg.diagonal_blocks(choi, r, t)
    blocks = choi[None] if blocks is None else blocks
    lam, w = _kernels.eigh_kernel(blocks)
    vecs = np.einsum("kl,kxn->knlx", np.eye(len(blocks)), w).reshape(-1, r, t)
    lam = lam.ravel()
    cutoff = tolerances.KRAUS_EIG_CUTOFF * max(float(np.sum(lam)), 1e-30)  # 1e-30: division guard
    keep = lam > cutoff
    return tuple(np.sqrt(lam[keep])[:, None, None] * np.conj(vecs[keep]))


def _feasible(src: LinearPencil, tgt: LinearPencil, choi) -> Optional[RelaxationResult]:
    """Feasible with the Choi matrix ``choi``, made read-only, and its Kraus
    form, or None when they fail `certificates.check_relaxation_feasible`."""
    choi.flags.writeable = False
    kraus = kraus_from_choi(choi, src.r, tgt.r)
    check = certificates.check_relaxation_feasible(src.stack, tgt.stack, choi, kraus)
    if not check.ok:
        return None
    cert = RelaxationCertificate(choi=choi, kraus=kraus, residual=check.residual)
    return RelaxationResult(status=RelaxationStatus.FEASIBLE, certificate=cert)


def _infeasible(src: LinearPencil, tgt: LinearPencil, y) -> Optional[RelaxationResult]:
    """Infeasible with the Farkas matrices ``y``, made exactly Hermitian,
    or None when they fail `certificates.check_relaxation_infeasible`."""
    y = linalg.hermitian_part(y)
    check = certificates.check_relaxation_infeasible(src.stack, tgt.stack, y)
    if not check.ok:
        return None
    y.flags.writeable = False
    farkas = RelaxationFarkas(y, check.details["gap"], check.details["lambda_max"])
    return RelaxationResult(status=RelaxationStatus.INFEASIBLE, farkas=farkas)


def _sdp_relaxation(src: LinearPencil, tgt: LinearPencil) -> RelaxationResult:
    """The Choi-matrix SDP, for any source pencil."""
    outcome = sdp.solve(_choi_problem(src, tgt))
    answer, message = None, outcome.message
    if outcome.status is sdp.SdpStatus.FEASIBLE:
        answer = _feasible(src, tgt, outcome.primal[0])
        message = "Kraus certificate rejected by its check"
    elif outcome.status is sdp.SdpStatus.INFEASIBLE:
        y = outcome.dual_certificate.y.reshape(src.d, -1)
        answer = _infeasible(src, tgt, np.tensordot(y, linalg.hermitian_basis(tgt.r), axes=1))
        message = "Farkas certificate rejected by its check"
    return answer or RelaxationResult(status=RelaxationStatus.UNKNOWN, message=message)


def _diagonal_facets(src: LinearPencil) -> Optional[np.ndarray]:
    """F with M_i = diag(F[:, i]) when every source matrix is exactly
    diagonal; None otherwise."""
    diag = linalg.diagonal_blocks(src.stack, src.r, 1)
    return None if diag is None else diag[..., 0, 0].T.real


def _same_variables(src: LinearPencil, tgt: LinearPencil) -> None:
    if src.d != tgt.d:
        raise ValueError(f"pencils have different variable counts {src.d} != {tgt.d}")


def relaxation_sdp(src: LinearPencil, tgt: LinearPencil) -> sdp.SdpProblem:
    """The SDP of `relaxation`'s path: the margin SDP of
    `opsys.margin_sdp` over the facets of a diagonal source, the Choi SDP
    otherwise."""
    _same_variables(src, tgt)
    facets = _diagonal_facets(src)
    if facets is None:
        return _choi_problem(src, tgt)
    return margin_sdp(facets, tgt.stack, src.unit)


def relaxation(src: LinearPencil, tgt: LinearPencil) -> RelaxationResult:
    """Matricial strengthening of the inclusion problem.

    Searches for a completely positive map with sum_j V_j* M_i V_j = N_i;
    feasibility is equivalent to inclusion of the free spectrahedra at
    every level.  For a diagonal source M_i = diag(F[:, i]) the map is
    fixed by the PSD values Q_k = Phi(E_kk), so it exists iff
    N_i = sum_k F[k,i] Q_k: smallest-system membership of the target over
    the cone spanned by the rows of F, decided by `opsys.generator_weights`
    (in closed form for F of full row rank, e.g. a simplex source, and for
    a commuting target; by the margin SDP otherwise) with Choi matrix
    blockdiag(Q_k).  Any other source is decided by the feasibility SDP in
    the Choi variable J >= 0 of size r*t with d * t^2 real constraints.
    Either answer has passed the check of `freespec verify`, once;
    `relaxation_sdp` builds the SDP of the path taken.
    """
    _same_variables(src, tgt)
    facets = _diagonal_facets(src)
    if facets is None:
        return _sdp_relaxation(src, tgt)

    def member(q):
        choi = np.einsum("jk,jxy->jxky", np.eye(src.r), q).reshape(src.r * tgt.r, -1)
        return _feasible(src, tgt, linalg.hermitian_part(choi))

    answer, why = generator_weights(
        facets, tgt.stack, src.unit, member, lambda y: _infeasible(src, tgt, y)
    )
    return answer or RelaxationResult(status=RelaxationStatus.UNKNOWN, message=why)


# --------------------------------------------------------------------------
# Level-2 free witnesses for the square cone
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeWitness:
    """A level-s tuple inside the source's largest system but outside the
    target's spectrahedron at the same level."""

    tuple: MatrixTuple
    level: int
    source_margin: float
    target_margin: float


def free_witness_square(alpha: float) -> FreeWitness:
    """The anticommuting pair witness (sigma_z, sigma_x, I) for the square.

    It sits on the boundary of the square's largest system at level 2
    (each facet evaluation I +- sigma has eigenvalue 0) while the elliptic
    target pencil at angle alpha evaluates to minimum eigenvalue
    1 - sin(alpha) - cos(alpha) < 0.
    """
    if not (0.0 < alpha < math.pi / 2.0):
        raise ValueError(f"alpha must be in (0, pi/2), got {alpha}")
    a = MatrixTuple.of(SIGMA_Z, SIGMA_X, np.eye(2))
    src_margin = max_membership(square_cone(), a).margin
    tgt_margin = membership(elliptic_cone_pencil(alpha), a).margin
    return FreeWitness(
        tuple=a, level=2, source_margin=src_margin, target_margin=tgt_margin
    )


def _quad_map_from_square(src: PolyhedralCone) -> Optional[np.ndarray]:
    """Linear map L in GL_3 carrying the square cone's rays onto the rays of
    a quadrilateral cone, diagonal onto diagonal; None for other sources.

    The source rays satisfy one linear relation sum_k lam_k g_k = 0 with
    lam_3 = -1.  For a quadrilateral its two positive and two negative
    coefficients pick out the diagonals, as w_0 + w_1 = w_2 + w_3 does for
    the square: L sends w_0, w_1 to |lam_p| g_p over the positive pair and
    w_2 to |lam_q| g_q for the first of the negative pair, so w_3 lands on
    |lam_q| g_q for the other.  L is scaled so that the mean facet of the
    source is 1 at L e_3.
    """
    if src.dim != 3 or src.n_generators != 4:
        return None
    g = src.generators
    lam = np.append(np.linalg.solve(g[:3].T, g[3]), -1.0)
    pos, neg = np.flatnonzero(lam > 0), np.flatnonzero(lam < 0)
    if len(pos) != 2 or len(neg) != 2:
        return None
    rows = [*pos, neg[0]]
    l = np.linalg.solve(SQUARE_RAYS[:3], np.abs(lam[rows, None]) * g[rows]).T
    return l / float(src.facets.mean(axis=0) @ l[:, 2])


def square_type_witness(src: PolyhedralCone) -> Optional[tuple[MatrixTuple, float]]:
    """Push the square's level-2 witness through the linear map of
    `_quad_map_from_square` onto a quadrilateral source cone: the witness
    and its margin in the source's largest system, from the one
    `max_membership` call that checks it; None when the source is not a
    quadrilateral or the image fails that check."""
    base = MatrixTuple.of(SIGMA_Z, SIGMA_X, np.eye(2))
    if (
        src.dim == 3
        and src.n_generators == 4
        and rays_equal(src.generators, SQUARE_RAYS)
        and np.max(np.abs(src.unit / np.linalg.norm(src.unit) - [0.0, 0.0, 1.0]))
        < tolerances.UNIT_AXIS_TOL
    ):
        return base, max_membership(src, base).margin
    l = _quad_map_from_square(src)
    if l is None:
        return None
    cand = base.scaled_by(l)
    res = max_membership(src, cand, tol=tolerances.WITNESS_TOL)
    return (cand, res.margin) if res.inside_or_boundary else None


# --------------------------------------------------------------------------
# End-to-end inclusion verdict
# --------------------------------------------------------------------------


class VerdictConsistencyError(RuntimeError):
    """Produced verdict violates the relaxation/inclusion implications."""


@dataclass(frozen=True)
class InclusionVerdict:
    """``source`` is the pencil the relaxation decided: the source cone's
    diagonal realization, which its certificate refers to."""

    scalar: ScalarInclusionResult
    relaxation: RelaxationResult
    source: LinearPencil
    free_witness: Optional[FreeWitness] = None

    def __post_init__(self):
        if self.relaxation.status is RelaxationStatus.FEASIBLE and not self.scalar.holds:
            raise VerdictConsistencyError(
                "relaxation feasible but scalar inclusion fails"
            )
        if (
            self.free_witness is not None
            and self.relaxation.status is RelaxationStatus.FEASIBLE
        ):
            raise VerdictConsistencyError("free witness exists despite feasible relaxation")


def check_inclusion(src: PolyhedralCone, tgt: LinearPencil) -> InclusionVerdict:
    """Scalar inclusion, then the matricial relaxation on the source's
    diagonal realization, then a constructive level-2 witness when the
    source is a quadrilateral and the witness verifiably escapes the target."""
    scal = scalar_inclusion(src, tgt)
    diag = diagonal_pencil(src)
    relax = relaxation(diag, tgt)
    witness = None
    if relax.status is not RelaxationStatus.FEASIBLE and not is_simplex(src):
        found = square_type_witness(src)
        if found is not None:
            cand, src_margin = found
            tgt_res = membership(tgt, cand)
            if tgt_res.classification is Classification.OUTSIDE:
                witness = FreeWitness(
                    tuple=cand,
                    level=cand.level,
                    source_margin=src_margin,
                    target_margin=tgt_res.margin,
                )
    return InclusionVerdict(scalar=scal, relaxation=relax, source=diag, free_witness=witness)


# --------------------------------------------------------------------------
# Scaled inclusion of the largest system in the smallest
# --------------------------------------------------------------------------


def scaled_tuple(a: MatrixTuple, nu: float) -> MatrixTuple:
    """(nu*A_1, ..., nu*A_{d-1}, A_d): scaling about the unit e_d along the
    coordinate hyperplane spanned by e_1..e_{d-1}."""
    return MatrixTuple(np.concatenate([nu * a.stack[:-1], a.stack[-1:]]))


def _require_unit_ed(cone: PolyhedralCone, who: str) -> None:
    """A ValueError, headed by ``who``, unless the unit of ``cone`` is e_d
    to UNIT_AXIS_TOL."""
    ed = np.zeros(cone.dim)
    ed[-1] = 1.0
    if np.max(np.abs(cone.unit - ed)) > tolerances.UNIT_AXIS_TOL:
        raise ValueError(f"{who} requires the unit to be e_d")


def scaled_max_in_min(cone: PolyhedralCone, nu: float, a: MatrixTuple):
    """Test whether the nu-scaled tuple enters the smallest system.

    Requires coordinates arranged so the unit is e_d and the section
    hyperplane is spanned by e_1..e_{d-1}; the input must belong to the
    cone's largest system.  Returns the smallest-system result for
    (nu*A_1, ..., nu*A_{d-1}, A_d).
    """
    if not (0.0 < nu <= 1.0):
        raise ValueError(f"scaling factor must be in (0, 1], got {nu}")
    _require_unit_ed(cone, "coordinate convention")
    _require_in_max(max_membership(cone, a).margin)
    return min_membership(cone, scaled_tuple(a, nu))


def _require_in_max(margin: float) -> None:
    """A ValueError unless the largest-system ``margin`` of a tuple
    classifies Inside or Boundary at BOUNDARY_TOL."""
    if classify_margin(margin, tolerances.BOUNDARY_TOL) is Classification.OUTSIDE:
        raise ValueError(f"tuple is outside the largest system (margin {margin:.3e})")


@dataclass(frozen=True)
class ScalingReport:
    """``certificate`` is the read-only (d, d) array of the rays of the
    sandwich simplex, None when there is none."""

    nu_general: float
    nu_symmetric: Optional[float]
    certified_nu: float
    certificate: Optional[np.ndarray]
    sampling: Optional[dict] = None


def scaling_bound(
    cone: PolyhedralCone,
    h_normal,
    verify_samples: int = 0,
    seed: int = 0,
) -> ScalingReport:
    """Scaling factors for which the scaled largest system enters the
    smallest system.

    nu_general = 1/(d+1) holds for a suitable unit (the barycenter of a
    maximum-volume inscribed simplex); nu_symmetric = 1/(d-1) holds when
    the section is centrally symmetric about the unit.  certified_nu is the
    exact best factor nu with nu*C ⊆ S ⊆ C over the sandwich-simplex
    candidate pool (best_sandwich_simplex, in closed form: no bisection and
    no resolution), and certificate is the (d, d) array of the rays of S.
    It is 1 for a simplex cone, sound, and may fall short of the
    theoretical bounds.  The section about u, computed once from
    ``h_normal``, serves both the symmetry test and the search; a normal
    that is not d finite numbers, or gives no bounded section, is a
    ValueError headed "h_normal: ".  Only arrays are built: no cone,
    pencil or tuple.

    ``verify_samples`` > 0 spot-checks both bounds on that many level-2
    tuples each (`_sampling_verification`, from ``seed``), which needs the
    unit to be e_d; the samples of a factor are drawn and decided as one
    stack through S.  A negative ``verify_samples`` is a ValueError, and so
    is a unit other than e_d when sampling, both raised before the sandwich
    search.
    """
    if verify_samples < 0:
        raise ValueError(
            f"the number of level-2 samples must be nonnegative, got {verify_samples}"
        )
    if verify_samples > 0:
        _require_unit_ed(cone, "level-2 sampling")
    d = cone.dim
    sec = section_of(cone, h_normal)
    nu_general = 1.0 / (d + 1)
    nu_symmetric = 1.0 / (d - 1) if is_centrally_symmetric(sec) else None
    report_nu, rays, combination = best_sandwich_simplex(sec)
    sampling = None
    if verify_samples > 0:
        sampling = _sampling_verification(
            cone, combination, (nu_general, nu_symmetric), verify_samples, seed
        )
    return ScalingReport(
        nu_general=nu_general,
        nu_symmetric=nu_symmetric,
        certified_nu=report_nu,
        certificate=rays,
        sampling=sampling,
    )


def _max_stacks(cone: PolyhedralCone, s: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random level-s members of the cone's largest system, as
    one (count, d, s, s) stack; `random_max_tuple` draws one.

    Each tuple takes one standard_normal((d - 1, 2, s, s)) and then one
    random() from ``rng``: Hermitian A_i = (Z + Z*)/2 for Z = X + iY, the
    bits of `linalg.random_hermitian`, and A_d = t*I with t just large
    enough that every facet evaluation is PSD, plus 0.05 times the uniform
    draw.  The draws come first, so one eigensolve covers every facet
    evaluation of every tuple.  Requires the unit to be e_d."""
    d = cone.dim
    _require_unit_ed(cone, "random_max_tuple")
    coef = cone.facets[:, -1]
    if np.any(coef <= 1e-12):  # not a band: guards the division by coef, near 1 for u = e_d
        raise ValueError("facet does not involve the unit coordinate")
    normals, uniforms = zip(*[(rng.standard_normal((d - 1, 2, s, s)), rng.random())
                              for _ in range(count)])
    z = np.array(normals)
    a = z[:, :, 0] + 1j * z[:, :, 1]
    head = (a + np.conj(np.swapaxes(a, -1, -2))) / 2.0
    # summed coordinate by coordinate, so each facet evaluation has the
    # bits of the per-facet sum
    f = sum(cone.facets[:, i, None, None] * head[:, i, None] for i in range(d - 1))
    lam = _kernels.eigh_kernel(f)[0][..., 0]
    t = np.maximum(0.0, np.max(-lam / coef, axis=1)) + 0.05 * np.array(uniforms)
    return np.concatenate([head, t[:, None, None, None] * np.eye(s)], axis=1)


def random_max_tuple(
    cone: PolyhedralCone, s: int, rng: np.random.Generator
) -> MatrixTuple:
    """Random level-s member of the cone's largest system (`_max_stacks`).

    Draws Hermitian A_1..A_{d-1} and sets A_d = t*I with t just large
    enough that every facet evaluation is PSD (with a small random slack).
    Requires the unit to be e_d."""
    return MatrixTuple(_max_stacks(cone, s, rng, 1)[0])


def _sampling_verification(cone, combination, factors, samples, seed) -> dict:
    """Members among ``samples`` level-2 tuples per factor nu of
    ``factors`` = (nu_general, nu_symmetric), the latter None to skip.

    The tuples A of a factor are drawn first as one stack (`_max_stacks`,
    the bits and RNG order of as many `random_max_tuple` calls), in one
    RNG stream from ``seed``, and must lie in the largest system
    (`_require_in_max`, as in `scaled_max_in_min`).  Each scaled tuple B is
    then decided through the sandwich simplex S with rays R = L @ G,
    L = ``combination``: its weights on S are P = R^(-T) B, PSD exactly
    when B is in max(S) = min(S), and W = L^T P are weights on C's
    generators G, PSD whenever P is.  Both maps are one (d, m) matrix,
    R^(-1) L, applied to the whole stack.  A sample counts as Member when
    W passes `certificates.check_min_member`; the others, and every sample
    when there is no S, are decided by `opsys._min_membership` on their
    stacks, as `scaled_max_in_min` decides a tuple.
    """
    rng = np.random.default_rng(seed)
    gens = cone.generators
    if combination is not None:
        to_weights = np.linalg.solve(combination @ gens, combination)
    out = {}
    for label, nu in zip(("nu_general", "nu_symmetric"), factors):
        if nu is None:
            continue
        a = _max_stacks(cone, 2, rng, samples)
        margins = np.linalg.eigvalsh(np.einsum("ki,nixy->nkxy", cone.facets, a))[..., 0]
        for margin in margins.min(axis=1):
            _require_in_max(float(margin))
        b = np.concatenate([nu * a[:, :-1], a[:, -1:]], axis=1)
        closed = [False] * samples
        if combination is not None:
            w = np.einsum("ij,nixy->njxy", to_weights, b)
            closed = [certificates.check_min_member(gens, bn, wn).ok for bn, wn in zip(b, w)]
        good = sum(
            ok or _min_membership(cone, bn).status is MinMembershipStatus.MEMBER
            for ok, bn in zip(closed, b)
        )
        out[label] = {"nu": nu, "samples": samples, "members": good}
    return out


# --------------------------------------------------------------------------
# Entanglement demo: the ball-cone pencil does not realize a smallest system
# --------------------------------------------------------------------------


def partial_transpose(x, dims: tuple[int, int] = (2, 2), subsystem: int = 1) -> np.ndarray:
    """Partial transpose of a bipartite matrix on the chosen factor."""
    a, b = dims
    m = np.asarray(x, dtype=np.complex128).reshape(a, b, a, b)
    if subsystem == 0:
        m = m.transpose(2, 1, 0, 3)
    elif subsystem == 1:
        m = m.transpose(0, 3, 2, 1)
    else:
        raise ValueError("subsystem must be 0 or 1")
    return linalg.hermitian(m.reshape(a * b, a * b))


@dataclass(frozen=True)
class EntangledExampleReport:
    x: np.ndarray
    blocks: np.ndarray  # read-only (4, 2, 2) stack
    identity_residual: float
    pt_min_eig: float
    pt_min_eig_normalized: float
    entangled: bool
    conclusion: str


def ball_pencil() -> LinearPencil:
    """The four-variable pencil over the ball cone in R^4:
    sigma_z (x) x + sigma_x (x) y + [[0, i], [-i, 0]] (x) w + I (x) z."""
    third = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    return LinearPencil(
        [SIGMA_Z, SIGMA_X, third, np.eye(2)], np.array([0.0, 0.0, 0.0, 1.0])
    )


def entangled_example() -> EntangledExampleReport:
    """PSD block matrix with no PSD product decomposition.

    X is twice the rank-one projection onto (1,0,0,1)/sqrt(2).  Its blocks
    A, B, C give exactly 2X = L(A-C, B+B*, (B-B*)/i, A+C) for the ball-cone
    pencil L, i.e. the tuple (sigma_z, sigma_x, sigma_y, I) lies in the
    pencil's level-2 spectrahedron.  If L realized the smallest operator
    system of the ball cone, X would decompose into PSD products and hence
    have PSD partial transpose; its partial transpose has a negative
    eigenvalue, so X is entangled (the 2x2 partial-transpose test is exact)
    and no such realization exists.
    """
    x = linalg.hermitian(np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]))
    a_blk, b_blk, c_blk = x[:2, :2], x[:2, 2:], x[2:, 2:]
    tup = MatrixTuple.of(
        a_blk - c_blk,
        b_blk + b_blk.conj().T,
        (b_blk - b_blk.conj().T) / 1.0j,
        a_blk + c_blk,
    )
    identity_residual = float(np.max(np.abs(evaluate(ball_pencil(), tup) - 2.0 * x)))
    pt_min = float(_kernels.eigh_kernel(partial_transpose(x))[0][0])
    pt_min_norm = pt_min / float(np.real(np.trace(x)))
    entangled = pt_min < -tolerances.PT_NEGATIVITY_TOL
    conclusion = (
        "the displayed PSD matrix is entangled (negative partial transpose), "
        "so the four-variable ball-cone pencil is not a minimal-system realization"
    )
    return EntangledExampleReport(
        x=x,
        blocks=tup.stack,
        identity_residual=identity_residual,
        pt_min_eig=pt_min,
        pt_min_eig_normalized=pt_min_norm,
        entangled=entangled,
        conclusion=conclusion,
    )
