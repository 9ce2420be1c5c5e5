"""Small dense SDP solver over block-diagonal Hermitian variables.

Primal form:

    minimise   <C, X>        (or pure feasibility when no objective given)
    subject to <A_i, X> = b_i   for i = 1..m,
               X = diag(X_1, ..., X_k)  with each block Hermitian PSD,

where <A, X> = tr(X* A) summed over blocks.  The k blocks have one size n
(the margin SDP has one per generator, the Choi SDP one, the essential-
boundary SDP five), read from the shape of the complex (k, m, n, n) array
of coefficients that a problem is built from, zero where a row does not
touch a block; only a dump's header and `SdpProblem.make` state sizes.
The array is laid out once as real (m, 2 k n^2) rows and as a complex
(k, m n, n) view, and the objective as one (k, n, n) stack, zero for a
feasibility problem.  The solver runs on one (k, n, n) stack per
variable: A(X) and A*(y) are one matrix product each (A*(y) on the real
rows viewed as complex), and the Schur complement Re tr(A_i W A_j W) is
Re tr(Z_i Z_j) with Z = A W, one product by W.

The engine is a primal-dual interior-point method with Nesterov-Todd
scaling and a Mehrotra predictor-corrector, working on the complex
Hermitian blocks as given, for at most MAX_ITER iterations, until the
relative residuals and gap (or complementarity) are at most TOL.  It has
one mode: it starts from an exactly feasible, strictly interior point,
checked once, and every iterate stays feasible on both sides.  An
objective problem comes with that start (the margin SDP of
`opsys.generator_weights`).  An iteration: two `eigh` calls for the scaling
G (W = G G*, G* S G = G^-1 X G^-* = diag(lam)), the Schur complement and
its Cholesky factor (LAPACK dpotrf, solved by dpotrs with one refinement
pass), then a predictor and a corrector direction.  Each direction is
taken in the scaled space, where the predictor's dX is -diag(lam) - D and
the corrector's U - D for D = G* dS G.  The predictor's two step lengths
come from one `eigvalsh` of D / root (lambda_min(-I - D / root) = -1 -
lambda_max), the corrector's from one `eigvalsh` of its two scaled
directions stacked; only the corrector's dX is formed unscaled, for the
update.  A caller's check sees every iterate, the (k, n, n) stack of the
primal blocks, and the first answer it gives stops the solve with status
STOPPED and that answer.

A feasibility problem is solved as the objective problem of `_embedding`,
built from its rows alone, started like the margin SDP, with two scalar
tests per iterate: it maximises the least eigenvalue t of X over
A(X) = b, offers X as Feasible once t is at least -TOL, and y as a Farkas
certificate (sum_i y_i A_i negative semidefinite to 0.1 * FARKAS_TOL
together with b.y > 0), checked on the problem as given, once the dual
bound on t is below -TOL.  Without either the status is NumericalFailure.
The rows must be independent and hold I in their span, which both
callers' rows do: the unit of the source gives sum_i u_i M_i^T (x) I = I
for the Choi-matrix relaxation of a non-diagonal source, and the pair and
trace rows give I for `opsys.essential_boundary_square`; each caller
drops dependent rows first.  A problem loaded from a dump that fails
either is a ValueError.

The bands (TOL, FARKAS_TOL, START_TOL and the primal test of `verify`)
are constants of `tolerances`; the numbers written out in `_ipm` are its
parameters and safeguards, which end a solve or keep it finite but decide
no answer.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from . import _kernels, linalg, tolerances
from .linalg import hermitian_part

logger = logging.getLogger("freespec.sdp")

MAX_ITER = 100


class SdpStatus(enum.Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    OPTIMAL = "Optimal"
    STOPPED = "Stopped"
    NUMERICAL_FAILURE = "NumericalFailure"


def _flat(t: np.ndarray) -> np.ndarray:
    """A complex matrix (or a stack of them) as a real row of (Re, Im)
    pairs: the real dot product of two rows is Re tr(A B*), which is
    tr(A B) when B is Hermitian."""
    t = np.ascontiguousarray(t)
    return t.reshape(t.shape[:-2] + (t.shape[-1] ** 2,)).view(np.float64)


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _shaped(x, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``x`` of the given shape, checked and symmetrised by
    `linalg.hermitian`."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != shape:
        raise ValueError(f"{what}: shape {x.shape}, expected {shape}")
    return linalg.hermitian(x, len(shape), what)


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """<X, Y> = Re tr(Y* X), summed over the blocks of a stack."""
    return float(np.vdot(y, x).real)


class SdpProblem:
    """Equality rows <A_i, X> = b_i over k Hermitian PSD blocks of one size n.

    ``a`` is the complex (k, m, n, n) array of the rows' coefficients,
    ``a[j]`` block j's stack, zero where a row does not touch the block, k
    and n read from its shape; ``b`` holds the m right-hand sides and
    ``c``, when given, the (k, n, n) objective.  Both stacks are checked
    Hermitian and symmetrised once, here, and laid out read-only for the
    solver (`_layout`); `make` builds the same arrays from rows.
    """

    def __init__(self, a, b, c=None):
        a, b = np.asarray(a, dtype=np.complex128), np.array(b, dtype=float)
        k, n = (len(a), a.shape[-1]) if a.ndim == 4 else (0, 0)
        if b.ndim != 1 or a.shape != (k, len(b), n, n) or not k * len(b) * n:
            raise ValueError(f"coefficients and right-hand sides: shapes {a.shape} and "
                             f"{b.shape}, expected (k, m, n, n) with k, m, n positive and (m,)")
        a = linalg.hermitian(a, 4, "coefficients")
        self._layout(a, b, None if c is None else _shaped(c, (k, n, n), "objective"))

    @classmethod
    def _unchecked(cls, a, b, c) -> "SdpProblem":
        """The problem of a builder whose (k, m, n, n) coefficients and
        (k, n, n) objective are exactly Hermitian by construction, as
        given: no check, no copy."""
        p = object.__new__(cls)
        p._layout(a, np.asarray(b, float), c)
        return p

    @property
    def blocks(self) -> tuple[int, ...]:
        """The k block sizes, each n."""
        return (self.a.shape[-1],) * len(self.a)

    def _layout(self, a: np.ndarray, b: np.ndarray, c: Optional[np.ndarray]) -> None:
        """``a``, ``b`` and the objective stack ``c`` (None for none),
        read-only, with the layouts of the solver: ``flat`` the rows as
        real (m, 2 k n^2) rows (`_flat`), ``tens`` the complex (k, m n, n)
        view of ``a`` and ``cg`` the (k, n, n) objective, zero for a
        feasibility problem."""
        k, m, n = a.shape[:3]
        cg = np.zeros((k, n, n), dtype=np.complex128) if c is None else c
        for arr in (b, a, cg):
            arr.flags.writeable = False
        self.a, self.b, self.c, self.cg = a, b, None if c is None else tuple(c), cg
        self.flat = _flat(a.swapaxes(0, 1)).reshape(m, 2 * k * n * n)
        self.tens = a.reshape(k, m * n, n)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """A(X): Re tr(A_i X), summed over blocks."""
        return self.flat @ _flat(x).ravel()

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        """A*(y) = sum_i y_i A_i: one matmul, on the rows viewed as complex."""
        return (y @ self.flat.view(np.complex128)).reshape(self.cg.shape)

    def _schur(self, w: np.ndarray) -> np.ndarray:
        """Re tr(A_i W A_j W) = Re tr(Z_i Z_j) with Z_i = A_i W, summed
        over blocks: one product by W, then the real rows of Z against
        those of conj(Z^T), one matrix product per block."""
        k, m = len(w), len(self.b)
        z = (self.tens @ w).reshape((k, m) + w.shape[1:])
        zt = np.ascontiguousarray(_ct(z)).view(np.float64).reshape(k, m, -1)
        out = (z.view(np.float64).reshape(zt.shape) @ zt.swapaxes(1, 2)).sum(0)
        return (out + out.T) / 2.0

    @staticmethod
    def make(blocks, constraints, objective=None) -> "SdpProblem":
        """The problem of rows ``(coeffs, rhs)`` over blocks of the sizes
        ``blocks``, all equal, with one array-like per block in ``coeffs``
        (and in ``objective``) and None for a zero block.  No library code
        builds a problem this way; perfbench's ``sdp.make`` spans wrap it."""
        blocks, rows = tuple(int(s) for s in blocks), list(constraints)
        if min(blocks, default=0) < 1 or len(set(blocks)) != 1:
            raise ValueError(f"expected blocks of one size, got sizes {blocks}")
        shape = (len(blocks),) + (blocks[0],) * 2

        def stack(coeffs, what: str) -> np.ndarray:
            return _shaped([np.zeros(shape[1:]) if x is None else x for x in coeffs], shape, what)

        a = np.zeros((shape[0], len(rows)) + shape[1:], dtype=np.complex128)
        for i, (coeffs, _) in enumerate(rows):
            a[:, i] = stack(coeffs, f"constraint {i}")
        c = None if objective is None else stack(objective, "objective")
        return SdpProblem(a, [float(rhs) for _, rhs in rows], c)


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving the equality system has no PSD solution.

    Normalised so that ``gap = sum_i y_i b_i = 1``; validity requires
    ``lambda_max(sum_i y_i A_i) <= FARKAS_TOL``, which bounds the trace
    of any hypothetical feasible point below ``1/FARKAS_TOL``.
    """

    y: np.ndarray
    gap: float
    lambda_max: float


@dataclass(frozen=True)
class SdpOutcome:
    status: SdpStatus
    primal: Optional[tuple[np.ndarray, ...]] = None  # read-only Hermitian blocks
    dual_certificate: Optional[FarkasCertificate] = None
    objective_value: Optional[float] = None
    y: Optional[np.ndarray] = None
    iterations: int = 0
    message: str = ""
    answer: object = None  # the check's answer, with status STOPPED


@dataclass(frozen=True)
class SdpVerifyReport:
    ok: bool
    max_residual: float
    psd_margin: Optional[float] = None
    max_constraint_residual: Optional[float] = None
    farkas_gap: Optional[float] = None
    farkas_lambda_max: Optional[float] = None
    notes: str = ""


# --------------------------------------------------------------------------
# Interior-point core (complex Hermitian blocks, one (k, n, n) stack each)
# --------------------------------------------------------------------------


@dataclass
class _IpmResult:
    """The last iterate and why it stopped: the check's ``answer``, a
    failure ``message`` or neither (converged)."""

    x: np.ndarray
    y: np.ndarray
    iterations: int
    message: str = ""
    answer: object = None


def _frobenius(a: np.ndarray) -> float:
    """The largest Frobenius norm of a block of the stack."""
    return math.sqrt(float(np.add.reduce((a.conj() * a).real, axis=(-2, -1)).max()))


def _floored(w: np.ndarray) -> np.ndarray:
    """Eigenvalue rows of a stack; a row whose smallest value is not
    positive is floored at 1e-14 * max(1, its largest)."""
    lost = w[:, 0] <= 0
    if lost.any():
        w[lost] = np.maximum(w[lost], 1e-14 * np.maximum(1.0, w[lost, -1:]))  # IPM safeguard: finite scaling
    return w


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """Nesterov-Todd scaling of a stack of blocks: G with W = G G* and
    G* S G = G^-1 X G^-* = diag(lam).  With X = U D U* and F = U D^(1/2),
    F* S F = V diag(lam)^2 V* gives G = F V diag(lam)^(-1/2)."""
    wx, ux = _kernels.eigh_kernel(x)
    f = ux * np.sqrt(_floored(wx))[:, None, :]
    wt, ut = _kernels.eigh_kernel(_ct(f) @ s @ f)  # reads the lower triangle only
    wt = _floored(wt)
    return (f @ ut) * wt[:, None, :] ** -0.25, np.sqrt(wt)


def _cholesky(a: np.ndarray):
    """The lower Cholesky factor of a, or None when a is not positive
    definite."""
    c, info = dpotrf(a, lower=1, clean=0)
    return c if info == 0 else None


@np.errstate(over="ignore", invalid="ignore")
def _ipm(q: SdpProblem, check, start) -> _IpmResult:
    """Iterate on ``q`` from the exactly feasible, strictly interior
    ``start`` (X, y), checked once, until ``check(x, y)`` gives an answer
    other than None, the iterate converges or a failure stops it;
    ``iterations`` counts the completed iterations.  Overflow is silent:
    the finiteness tests on mu and the residuals and on the Schur system
    end a diverging solve as "iterates diverged"."""
    ndim = sum(q.blocks)
    b = q.b

    norm_b = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    norm_c = max(1.0, _frobenius(q.cg))
    x = np.array(start[0], dtype=np.complex128)
    y = np.array(start[1], dtype=float)
    s = q.cg - q._adjoint(y)
    gap = float(np.abs(b - q._apply(x)).max()) / norm_b
    low = np.linalg.eigvalsh(np.concatenate((x, s)))[:, 0].min()
    if gap > tolerances.START_TOL or not low > 0:
        raise ValueError(f"start not feasible and interior: gap {gap:.2e}, min eig {low:.2e}")

    eye = np.eye(q.cg.shape[-1])
    jitter_eye = np.eye(len(b))
    stall = 0
    prev_mu = np.inf
    msg = "max iterations reached"

    for done in range(MAX_ITER):
        ax = q._apply(x)
        rp = b - ax
        rd = q.cg - s - q._adjoint(y)
        mu = _inner(x, s) / ndim
        pobj = _inner(q.cg, x)
        dobj = float(b @ y)

        ep = float(np.abs(rp).max(initial=0.0)) / norm_b
        ed = _frobenius(rd) / norm_c
        eg = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        compl = mu * ndim / (1.0 + abs(pobj) + abs(dobj))
        logger.debug(
            "iter %3d  mu=%9.2e  ep=%9.2e  ed=%9.2e  eg=%9.2e", done + 1, mu, ep, ed, eg
        )
        if not math.isfinite(mu + ep + ed):
            msg = "iterates diverged"
            break

        if check is not None:
            answer = check(x, y)
            if answer is not None:
                return _IpmResult(x, y, done, answer=answer)

        if ep <= tolerances.TOL and ed <= tolerances.TOL and min(eg, compl) <= tolerances.TOL:
            return _IpmResult(x, y, done)

        g, lam = _nt_scaling(x, s)
        root = np.sqrt(lam[:, :, None] * lam[:, None, :])
        wmat = g @ _ct(g)
        schur = q._schur(wmat)
        base = rp + q._apply(wmat @ rd @ wmat)
        if not (np.isfinite(schur).all() and np.isfinite(base).all()):
            msg = "iterates diverged"
            break
        jitter = 1e-13 * max(1.0, float(schur.diagonal().max()))  # IPM parameter: Schur regularisation
        for _ in range(12):
            cf = _cholesky(schur + jitter * jitter_eye)
            if cf is not None:
                break
            jitter *= 100.0
        else:
            msg = "Schur factorisation failed"
            break

        def direction(rhs):
            """dy, dS and its scaled G* dS G for the Schur right-hand side
            ``rhs``."""
            dy = dpotrs(cf, rhs, lower=1)[0]
            dy = dy + dpotrs(cf, rhs - schur @ dy, lower=1)[0]  # one refinement pass
            ds = hermitian_part(rd - q._adjoint(dy))
            return dy, ds, _ct(g) @ ds @ g

        def steps(lows, frac):
            """The primal and dual step lengths, ``frac`` of the way to the
            boundary of the cone and at most 1, from the smallest eigenvalue
            ``low`` of each scaled direction over root."""
            return [min(1.0, frac * (1.0 / max(-low, 1e-14))) for low in lows]  # division guard

        # predictor: R = -X, scaled to -diag(lam).  With D = G* dS G the
        # scaled directions are -diag(lam) - D and D, so both step lengths
        # come from the eigenvalues of D / root, and mu_aff from
        # <(1 - a) diag(lam) - a D, diag(lam) + b D> for the steps a, b
        d = direction(base + ax)[2]
        ev = np.linalg.eigvalsh(d / root)
        ap_a, ad_a = steps((-1.0 - ev[:, -1].max(), ev[:, 0].min()), 0.99)
        lam_d = np.vdot(lam, d.diagonal(axis1=1, axis2=2).real)
        mu_aff = ((1.0 - ap_a) * np.vdot(lam, lam) + ((1.0 - ap_a) * ad_a - ap_a) * lam_d
                  - ap_a * ad_a * _inner(d, d))
        sigma = min(1.0, max(1e-8, (max(mu_aff / ndim, 0.0) / mu) ** 3))  # IPM parameter: least centring

        # corrector: R = G U G*, with U = D + 2 (sigma mu I - diag(lam)^2 + D^2)
        # / (lam_i + lam_j) its scaled form, so that its scaled directions
        # are U - D' and D' for D' = G* dS' G
        tmat = (sigma * mu - lam**2)[:, :, None] * eye + d @ d
        u = d + 2.0 * tmat / (lam[:, :, None] + lam[:, None, :])
        rc = hermitian_part(g @ u @ _ct(g))

        dy, ds, d = direction(base - q._apply(rc))
        gamma = 0.99 if mu < 1e-6 else 0.98  # IPM parameter: step fractions
        ap, ad = steps(np.linalg.eigvalsh(np.stack([u - d, d]) / root)[:, :, 0].min(axis=1), gamma)

        if ap < 1e-10 and ad < 1e-10:  # IPM parameter: a stuck solve answers nothing
            msg = "step lengths vanished"
            break

        x = x + ap * hermitian_part(rc - wmat @ ds @ wmat)
        y = y + ad * dy
        s = s + ad * ds

        if mu > 0.9 * prev_mu and ep < 1e-12 and ed < 1e-12:  # IPM parameter: stall test
            stall += 1
            if stall > 15:
                msg = "progress stalled"
                break
        else:
            stall = 0
        prev_mu = mu
    else:
        done = MAX_ITER
    return _IpmResult(x, y, done, message=msg)


# --------------------------------------------------------------------------
# Public solve / verify
# --------------------------------------------------------------------------


def _lambda_max(p: SdpProblem, y: np.ndarray) -> float:
    """lambda_max(sum_i y_i A_i) over the blocks."""
    return float(np.linalg.eigvalsh(p._adjoint(y))[:, -1].max())


def _farkas_from_y(p: SdpProblem, y: np.ndarray) -> Optional[FarkasCertificate]:
    gap = float(y @ p.b)
    if gap <= 0.0:
        return None
    y = y / gap
    lam_max = _lambda_max(p, y)
    if lam_max > tolerances.FARKAS_TOL:
        return None
    y.flags.writeable = False
    return FarkasCertificate(y=y, gap=1.0, lambda_max=lam_max)


def _embedding(p: SdpProblem):
    """The objective problem, its exact start and its check that decide the
    feasibility problem ``p``.

    On the rows of ``p`` scaled to unit norm, with one Cholesky factor of
    their Gram matrix: X_ls is the least-norm solution of A(X) = b, and w
    solves A*(w) = I.  b is divided by max|lambda(X_ls)| (by 1 for
    X_ls = 0), so that the solve is scale-invariant, and
    t0 = lambda_min(X_ls) - 2.  The problem maximises tau = tr(T) / n over
    the blocks X' >= 0 and one more n x n block T >= 0 subject to
    A(X') + tau A(I) = b - t0 A(I): X = X' + (t0 + tau) I solves A(X) = b,
    and tau is bounded since tr X = w.b.  Its start X' = X_ls - (t0 + 1) I,
    T = I, y = -(2 / N) w for N = k n is exactly feasible and strictly
    interior: X' >= I, and C - A*(y) is 2 I / N on the blocks of ``p`` and
    I / n on T.  An iterate with t0 + tau >= -TOL offers X as Feasible,
    which it is when lambda_min(X) >= -TOL max|lambda(X)|; one whose dual
    bound t0 - b.y on t0 + tau is below -TOL offers y, on the rows of
    ``p``, to `_farkas_from_y`, Infeasible when lambda_max <= 0.1 *
    FARKAS_TOL.  A ValueError names dependent rows or a row span that holds
    no identity.
    """
    k, n = len(p.a), p.a.shape[-1]
    norms = np.maximum(np.linalg.norm(p.flat, axis=1), np.finfo(float).tiny)  # a zero row stays 0
    rows = p.flat / norms[:, None]
    gram = _cholesky(rows @ rows.T)
    if gram is None:
        raise ValueError("the constraint rows are linearly dependent")

    def least_norm(v):
        """z = G^-1 v and A*(z), on the scaled rows."""
        z = dpotrs(gram, v, lower=1)[0]
        return z, hermitian_part((z @ rows.view(np.complex128)).reshape(k, n, n))

    eye = np.eye(n)
    ai = np.trace(p.a, axis1=2, axis2=3).real.sum(0) / norms  # A(I)
    w, unit = least_norm(ai)
    miss = float(np.abs(unit - eye).max())
    if not miss <= tolerances.START_TOL:
        raise ValueError(f"the span of the constraint rows holds no identity (off by {miss:.2e})")
    _, x_ls = least_norm(p.b / norms)
    lam = np.linalg.eigvalsh(x_ls)
    scale = float(np.abs(lam).max()) or 1.0
    t0 = float(lam[:, 0].min()) / scale - 2.0
    coeffs = np.concatenate([p.a / norms[:, None, None], (ai / n)[None, :, None, None] * eye])
    c = np.zeros((k + 1, n, n), dtype=np.complex128)
    c[k] = -eye / n
    q = SdpProblem._unchecked(coeffs, p.b / norms / scale - t0 * ai, c)
    start = (np.concatenate([x_ls / scale - (t0 + 1.0) * eye, eye[None]]), -(2.0 / (k * n)) * w)

    def check(x, y):
        t = t0 + float(np.trace(x[k]).real) / n
        if t >= -tolerances.TOL:
            x = scale * (x[:k] + t * eye)
            ev = np.linalg.eigvalsh(x)
            if ev[:, 0].min() >= -tolerances.TOL * np.abs(ev).max():
                return dict(status=SdpStatus.FEASIBLE, primal=tuple(linalg.hermitian(x, 3)))
        if t0 - float(q.b @ y) < -tolerances.TOL:
            cert = _farkas_from_y(p, y / norms)
            if cert is not None and cert.lambda_max <= 0.1 * tolerances.FARKAS_TOL:
                return dict(status=SdpStatus.INFEASIBLE, dual_certificate=cert)
        return None

    return q, start, check


def solve(p: SdpProblem, check=None, start=None) -> SdpOutcome:
    """Solve a feasibility or linear-objective SDP.

    An objective problem needs ``start``, a strictly interior point (X, y)
    with A(X) = b to START_TOL and C - A*(y) > 0 (ValueError otherwise);
    every iterate is then feasible on both sides.  ``check`` sees every
    iterate (the (k, n, n) stack of the primal blocks, and y); the first
    answer other than None that it returns stops the solve with status
    STOPPED and that answer in ``answer``.

    A feasibility problem takes neither: it is decided as Feasible or
    Infeasible by the objective problem of `_embedding`, whose rows must
    be independent and hold the identity in their span (ValueError
    otherwise), and is NumericalFailure without an answer.
    """
    q = p
    if p.c is None:
        if start is not None or check is not None:
            raise ValueError("a start or a check is for a problem with an objective")
        q, start, check = _embedding(p)
    elif start is None:
        raise ValueError("a problem with an objective needs a start")
    res = _ipm(q, check, start)
    if res.answer is not None:
        if p.c is None:
            return SdpOutcome(**res.answer, iterations=res.iterations)
        return SdpOutcome(status=SdpStatus.STOPPED, iterations=res.iterations, answer=res.answer)
    if res.message or p.c is None:
        return SdpOutcome(status=SdpStatus.NUMERICAL_FAILURE, iterations=res.iterations,
                          message=res.message or "converged with no certificate")
    return SdpOutcome(
        status=SdpStatus.OPTIMAL,
        primal=tuple(linalg.hermitian(res.x, 3)),
        objective_value=_inner(p.cg, res.x),
        y=res.y,
        iterations=res.iterations,
    )


def verify(outcome: SdpOutcome, p: SdpProblem) -> SdpVerifyReport:
    """Independent re-check of an outcome against the problem data, with
    the primal's eigenvalues from the LAPACK call of `_kernels.eigh_kernel`."""
    if outcome.status in (SdpStatus.FEASIBLE, SdpStatus.OPTIMAL):
        shapes = [np.shape(xb) for xb in outcome.primal or ()]
        if shapes != [p.cg.shape[1:]] * len(p.blocks):
            return SdpVerifyReport(ok=False, max_residual=np.inf, notes="primal blocks misshapen")
        x = linalg.hermitian(outcome.primal, 3, "primal")
        psd_margin = float(_kernels.eigh_kernel(x)[0][:, 0].min())
        gaps = np.abs(p._apply(x) - p.b)
        max_res = float(np.max(gaps, initial=0.0))
        scale = 1.0 + max(float(np.linalg.norm(xb)) for xb in outcome.primal)
        ok = (psd_margin >= -tolerances.PRIMAL_PSD_TOL * scale
              and max_res <= tolerances.ACCEPT_RESIDUAL)
        return SdpVerifyReport(
            ok=ok,
            max_residual=max(max_res, max(0.0, -psd_margin)),
            psd_margin=psd_margin,
            max_constraint_residual=max_res,
            notes="" if ok else "primal check failed",
        )
    if outcome.status is SdpStatus.INFEASIBLE:
        cert = outcome.dual_certificate
        if cert is None:
            return SdpVerifyReport(ok=False, max_residual=np.inf, notes="missing certificate")
        gap = float(cert.y @ p.b)
        lam_max = _lambda_max(p, cert.y)
        ok = gap > 0.0 and lam_max <= tolerances.FARKAS_TOL * gap
        return SdpVerifyReport(
            ok=ok,
            max_residual=max(0.0, lam_max) / gap if gap > 0 else np.inf,
            farkas_gap=gap,
            farkas_lambda_max=lam_max,
            notes="" if ok else "Farkas certificate failed",
        )
    return SdpVerifyReport(ok=False, max_residual=np.inf, notes=f"status {outcome.status.value}")


# --------------------------------------------------------------------------
# Problem dump / restore (SDPA-sparse-like text format, complex entries)
# --------------------------------------------------------------------------
#
# Layout (lines starting with '*' are comments):
#     m
#     nblocks
#     <block sizes, space separated>
#     <b_1 ... b_m>
#     <matno> <blk> <i> <j> <re> <im>     one line per upper-triangle entry
#
# matno 0 is the objective, 1..m the constraints; indices are 1-based and
# only nonzero entries with i <= j appear.  A reader error names the line.


def dump_problem(p: SdpProblem, path) -> None:
    lines = ["* freespec SDP dump (complex SDPA-sparse-like format)", str(len(p.b)),
             str(len(p.blocks)), " ".join(str(n) for n in p.blocks)]
    lines.append(" ".join(repr(float(v)) for v in p.b))

    def emit(matno, mats):
        for bno, mat in enumerate(mats):
            for i, j in zip(*np.nonzero(np.triu(mat))):
                re, im = float(mat[i, j].real), float(mat[i, j].imag)
                lines.append(f"{matno} {bno + 1} {i + 1} {j + 1} {re!r} {im!r}")

    if p.c is not None:
        emit(0, p.c)
    for k in range(len(p.b)):
        emit(k + 1, p.a[:, k])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _header(line, kind, count: int, what: str, least=-math.inf) -> list:
    """The ``count`` tokens of a numbered header line read by ``kind``,
    none below ``least``; a ValueError names the line and ``what``."""
    no, toks = line
    try:
        vals = [kind(t) for t in toks]
    except ValueError:
        vals = None
    if vals is None or len(vals) != count or any(v < least for v in vals):
        raise ValueError(f"line {no}: expected {what}")
    return vals


def load_problem(path) -> SdpProblem:
    """The problem of a dump, whose header states positive block sizes, all
    equal; a ValueError names the line at fault or the missing header line."""
    with open(path) as fh:
        lines = [(no, ln.split()) for no, ln in enumerate(fh, 1)
                 if ln.strip() and not ln.startswith("*")]
    if len(lines) < 4:
        raise ValueError(f"missing header line {len(lines) + 1} of 4")
    (m,) = _header(lines[0], int, 1, "m, one integer >= 1", 1)
    (k,) = _header(lines[1], int, 1, "the block count, one integer >= 1", 1)
    sizes = tuple(_header(lines[2], int, k, f"the block sizes, {k} positive integers", 1))
    if len(set(sizes)) != 1:
        raise ValueError(f"expected blocks of one size, got sizes {sizes}")
    n = sizes[0]
    rhs = _header(lines[3], float, m, f"the right-hand sides, {m} numbers")
    coeffs = np.zeros((k, m + 1, n, n), dtype=np.complex128)  # matno 0: the objective
    has_obj = False
    for no, toks in lines[4:]:
        try:  # four integers and two floats
            *index, re, im = toks
            matno, blk, i, j = map(int, index)
            v = complex(float(re), float(im))
        except ValueError:
            matno = -1
        if not (0 <= matno <= m and 1 <= blk <= k and 1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"line {no}: expected 'matno block i j re im' with matno in "
                             f"0..{m}, block in 1..{k} and i, j in 1..{n}")
        has_obj = has_obj or matno == 0
        mat = coeffs[blk - 1, matno]
        mat[i - 1, j - 1] += v
        if i != j:
            mat[j - 1, i - 1] += v.conjugate()
    return SdpProblem(coeffs[:, 1:], rhs, coeffs[:, 0] if has_obj else None)
