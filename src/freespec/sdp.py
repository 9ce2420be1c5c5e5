"""Small dense SDP solver over block-diagonal Hermitian variables.

Primal form:

    minimise   <C, X>        (or pure feasibility when no objective given)
    subject to <A_i, X> = b_i   for i = 1..m,
               X = diag(X_1, ..., X_B)  with each block Hermitian PSD,

where <A, X> = tr(X* A) summed over blocks.  A problem stores its
coefficients block by block: one (m, n_k, n_k) stack of the rows'
coefficients on block k, zero where a row does not touch that block.  At
construction it also groups its blocks of equal size: a group of k blocks
of size n holds their rows as real (m, 2 k n^2) rows and as one complex
(k, m n, n) stack, and their objective as one (k, n, n) stack, zero for a
feasibility problem.  The problem's one A(X), A*(y) and Schur complement
work on these groups, with X and S as one (k, n, n) stack per group: A(X)
and A*(y) are one matrix product each per group (A*(y) on the real rows
viewed as complex), and the Schur complement Re tr(A_i W A_j W) is
Re tr(Z_i Z_j) with Z = A W, one product by W per group.

The engine is a primal-dual interior-point method with Nesterov-Todd
scaling and a Mehrotra predictor-corrector, working on the complex
Hermitian blocks as given, for at most MAX_ITER iterations.  It starts
infeasible, from multiples of I, on the problem `_preprocess` reduces
(rows scaled, dependent ones dropped).  An objective problem with
independent rows may instead come with an exactly feasible, strictly
interior start (the margin SDP of `opsys.generator_weights`): it is
checked once, the problem is solved as given, and every iterate stays
feasible on both sides.  An iteration, per size group: two `eigh` calls
for the scaling G (W = G G*, G* S G = G^-1 X G^-* = diag(lam)), the Schur
complement and its Cholesky factor (LAPACK dpotrf, solved by dpotrs with
one refinement pass), then a predictor and a corrector direction.  Each
direction is taken in the scaled space, where the predictor's dX is
-diag(lam) - D and the corrector's U - D for D = G* dS G.  The
predictor's two step lengths come from one `eigvalsh` of D / root
(lambda_min(-I - D / root) = -1 - lambda_max), the corrector's from one
`eigvalsh` of its two scaled directions stacked; only the corrector's dX
is formed unscaled, for the update.  A caller's check sees every iterate, the group stack itself when
there is one group, and the first answer it gives stops the solve with
status STOPPED and that answer.

A feasibility problem is the objective problem with C = 0, on the rows
scaled to max|b| = 1 so that the solve is scale-invariant.  Each iterate
is checked: X projected onto A(X) = b is Feasible when it is PSD up to
tol times its largest eigenvalue, and y is Infeasible when it verifies as
a Farkas certificate: sum_i y_i A_i negative semidefinite (to a strict
tolerance) together with b.y > 0.  Without either the status is
NumericalFailure.  Its callers are the Choi-matrix relaxation of a
non-diagonal source, `opsys.essential_boundary_square` and problems
loaded from a dump.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import qr
from scipy.linalg.lapack import dpotrf, dpotrs

from . import _kernels
from . import linalg
from .linalg import hermitian_part

logger = logging.getLogger("freespec.sdp")

DEFAULT_TOL = 1e-8
MAX_ITER = 100
FARKAS_TOL = 1e-7
START_TOL = 1e-12


class SdpStatus(enum.Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    OPTIMAL = "Optimal"
    STOPPED = "Stopped"
    NUMERICAL_FAILURE = "NumericalFailure"


class InconsistentConstraintsError(ValueError):
    """Linearly dependent constraint rows with conflicting right-hand sides."""


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


def _inner(xs, ys) -> float:
    """<X, Y> = Re tr(Y* X), summed over stacks."""
    return float(sum(np.vdot(y, x).real for x, y in zip(xs, ys)))


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Equality rows <A_i, X> = b_i over Hermitian PSD blocks.

    ``a[k]`` is the read-only complex (m, n_k, n_k) stack of the rows'
    coefficients on block k, zero where a row does not touch the block;
    ``b`` holds the m right-hand sides and ``c``, when given, the objective
    block by block.  Each stack is checked Hermitian and symmetrised once,
    at construction, and the blocks are then grouped by size (`_group`).
    """

    blocks: tuple[int, ...]
    a: tuple[np.ndarray, ...]
    b: np.ndarray
    c: Optional[tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        blocks = tuple(int(n) for n in self.blocks)
        if any(n < 1 for n in blocks):
            raise ValueError("block dimensions must be positive")
        if len(self.a) != len(blocks):
            raise ValueError(f"expected {len(blocks)} coefficient stacks, got {len(self.a)}")
        b = np.array(self.b, dtype=float)
        if b.ndim != 1:
            raise ValueError("right-hand sides must form a vector")
        b.flags.writeable = False
        a = tuple(
            _shaped(ak, (len(b), n, n), f"block {k} coefficients")
            for k, (ak, n) in enumerate(zip(self.a, blocks))
        )
        c = self.c
        if c is not None:
            if len(c) != len(blocks):
                raise ValueError(f"expected {len(blocks)} objective blocks, got {len(c)}")
            c = tuple(
                _shaped(ck, (n, n), f"objective block {k}")
                for k, (ck, n) in enumerate(zip(c, blocks))
            )
        for name, value in (("blocks", blocks), ("a", a), ("b", b), ("c", c)):
            object.__setattr__(self, name, value)
        self._group()

    @classmethod
    def _unchecked(cls, blocks, a, b, c) -> "SdpProblem":
        """The problem of a builder whose stacks are exactly Hermitian by
        construction, as given: no check, no copy; made read-only."""
        p = object.__new__(cls)
        p.__dict__.update(
            blocks=tuple(blocks), a=tuple(a), b=np.asarray(b, float),
            c=None if c is None else tuple(c),
        )
        for arr in (p.b, *p.a, *(p.c or ())):
            arr.flags.writeable = False
        p._group()
        return p

    def _group(self) -> None:
        """The blocks of each size as one group: ``groups`` their indices,
        ``flat`` their rows as real (m, 2 k n^2) rows (`_flat`), ``tens``
        the same rows block by block as a complex (k, m n, n) stack and
        ``cg`` the (k, n, n) objective."""
        sizes, m = self.blocks, len(self.b)
        groups = [[k for k, n in enumerate(sizes) if n == size] for size in dict.fromkeys(sizes)]
        # a lone block is taken as a view: no copy of a large Choi stack
        tens = [
            self.a[g[0]][None] if len(g) == 1 else np.stack([self.a[k] for k in g])
            for g in groups
        ]
        c = self.c or [np.zeros((n, n), dtype=np.complex128) for n in sizes]
        self.__dict__.update(
            groups=groups, cg=[np.stack([c[k] for k in g]) for g in groups],
            flat=[_flat(t.swapaxes(0, 1)).reshape(m, -1) for t in tens],
            tens=[t.reshape(len(t), -1, t.shape[-1]) for t in tens],
        )

    def _stacks(self, blocks) -> list[np.ndarray]:
        """Matrices given block by block, as one stack per group."""
        return [np.stack([blocks[k] for k in g]) for g in self.groups]

    def _split(self, stacks):
        """One stack per group as the matrices in block order: with one
        group, its stack itself."""
        if len(stacks) == 1:
            return stacks[0]
        out = {k: stack[j] for g, stack in zip(self.groups, stacks) for j, k in enumerate(g)}
        return [out[k] for k in range(len(self.blocks))]

    def _apply(self, x) -> np.ndarray:
        """A(X): Re tr(A_i X), summed over blocks."""
        return sum(f @ _flat(xg).ravel() for f, xg in zip(self.flat, x))

    def _adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        """A*(y) = sum_i y_i A_i: one matmul per group, on its rows viewed
        as complex."""
        return [(y @ f.view(np.complex128)).reshape(c.shape) for f, c in zip(self.flat, self.cg)]

    def _schur(self, w) -> np.ndarray:
        """Re tr(A_i W A_j W) = Re tr(Z_i Z_j) with Z_i = A_i W, summed
        over blocks: one product by W per group, then the real rows of Z
        against those of conj(Z^T), one matrix product per block."""
        m = len(self.b)

        def group(t, wg):
            z = (t @ wg).reshape((len(wg), m) + wg.shape[1:])
            zt = np.ascontiguousarray(_ct(z)).view(np.float64).reshape(len(wg), m, -1)
            return (z.view(np.float64).reshape(zt.shape) @ zt.swapaxes(1, 2)).sum(0)

        out = sum(group(t, wg) for t, wg in zip(self.tens, w))
        return (out + out.T) / 2.0

    @staticmethod
    def make(blocks: Sequence[int], constraints, objective=None) -> "SdpProblem":
        """A problem from rows ``(coeffs, rhs)``, with one array-like per
        block in ``coeffs`` (and in ``objective``) and None for a zero block."""
        blocks = tuple(int(n) for n in blocks)
        rows = list(constraints)
        a = [np.zeros((len(rows), n, n), dtype=np.complex128) for n in blocks]
        for i, (coeffs, _) in enumerate(rows):
            for k, coeff in enumerate(_row(blocks, coeffs, f"constraint {i}")):
                a[k][i] = coeff
        c = None if objective is None else _row(blocks, objective, "objective")
        return SdpProblem(blocks, tuple(a), [float(rhs) for _, rhs in rows], c)


def _row(blocks: tuple[int, ...], coeffs, what: str) -> tuple[np.ndarray, ...]:
    """One coefficient per block as an array, None read as a zero block."""
    if len(coeffs) != len(blocks):
        raise ValueError(f"{what}: expected {len(blocks)} coefficient blocks")
    out = []
    for k, (coeff, n) in enumerate(zip(coeffs, blocks)):
        arr = np.zeros((n, n)) if coeff is None else np.asarray(coeff, dtype=np.complex128)
        if arr.shape != (n, n):
            raise ValueError(f"{what}: block {k} has dim {arr.shape}, expected {n}")
        out.append(arr)
    return tuple(out)


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving the equality system has no PSD solution.

    Normalised so that ``gap = sum_i y_i b_i = 1``; validity requires
    ``lambda_max(sum_i y_i A_i) <= tol`` for a strict tolerance, which
    bounds the trace of any hypothetical feasible point below ``1/tol``.
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
# Constraint preprocessing (row scaling + rank reduction)
# --------------------------------------------------------------------------


def _svec(a: np.ndarray) -> np.ndarray:
    """Real isometric vectorisation of each Hermitian matrix of a stack:
    the diagonal, then sqrt(2) Re and sqrt(2) Im of the strict upper
    triangle."""
    j, k = np.triu_indices(a.shape[-1], k=1)
    upper = math.sqrt(2.0) * a[..., j, k]
    diag = np.diagonal(a, axis1=-2, axis2=-1).real
    return np.concatenate([diag, upper.real, upper.imag], axis=-1)


def _preprocess(p: SdpProblem):
    """The problem on its independent rows scaled to unit norm (a scaled
    row stays exactly Hermitian, so it is built unchecked), its row map
    ``(kept, scale)`` and the y of an inconsistent dependent row or None."""
    m = len(p.b)
    if m == 0:
        raise ValueError("problem has no constraints")
    rows = np.concatenate([_svec(ak) for ak in p.a], axis=1)
    scale = np.maximum(np.linalg.norm(rows, axis=1), 1e-12)
    rows = rows / scale[:, None]
    b = p.b / scale

    # rank-revealing QR on the transposed row matrix
    _, r, piv = qr(rows.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > max(1e-12, 1e-10 * diag[0]))) if diag.size else 0
    kept = np.sort(piv[:rank])
    dropped = np.setdiff1d(np.arange(m), kept)
    conflict_y = None
    if dropped.size:
        combo, *_ = np.linalg.lstsq(rows[kept].T, rows[dropped].T, rcond=None)
        pred = combo.T @ b[kept]
        gaps = np.abs(pred - b[dropped])
        bad = gaps > 1e-7 * (1.0 + np.abs(b[dropped]))
        if np.any(bad):
            j = int(np.argmax(gaps))
            y = np.zeros(m)
            y[dropped[j]] = -1.0
            y[kept] += combo[:, j]
            if float(y @ b) < 0.0:
                y = -y
            conflict_y = y / scale  # back to original row scaling

    a = [ak[kept] / scale[kept, None, None] for ak in p.a]
    q = SdpProblem._unchecked(p.blocks, a, b[kept], p.c)
    return q, (kept, scale[kept]), conflict_y


def _expand_y(rows, y: np.ndarray, m: int) -> np.ndarray:
    """Multipliers of the reduced rows in the problem's row order; y
    itself for the identity map ``rows`` None."""
    if rows is None:
        return y
    kept, scale = rows
    out = np.zeros(m)
    out[kept] = y / scale
    return out


# --------------------------------------------------------------------------
# Interior-point core (complex Hermitian blocks, one pass per size group)
# --------------------------------------------------------------------------


@dataclass
class _IpmResult:
    """The last iterate, one stack per size group, and why it stopped:
    the check's ``answer``, a failure ``message`` or neither (converged)."""

    x: list[np.ndarray]
    y: np.ndarray
    iterations: int
    message: str = ""
    answer: object = None


def _frobenius(stacks) -> float:
    """The largest Frobenius norm of a block of the stacks."""
    return math.sqrt(max(
        float(np.add.reduce((a.conj() * a).real, axis=(-2, -1)).max()) for a in stacks
    ))


def _floored(w: np.ndarray) -> np.ndarray:
    """Eigenvalue rows of a stack; a row whose smallest value is not
    positive is floored at 1e-14 * max(1, its largest)."""
    lost = w[:, 0] <= 0
    if lost.any():
        w[lost] = np.maximum(w[lost], 1e-14 * np.maximum(1.0, w[lost, -1:]))
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
def _ipm(q: SdpProblem, tol: float, check=None, start=None) -> _IpmResult:
    """Iterate on ``q`` until ``check(x, y)`` gives an answer other than
    None, the iterate converges or a failure stops it; ``iterations``
    counts the completed iterations.  Overflow is silent: the finiteness
    tests on mu and the residuals and on the Schur system end a diverging
    solve as "iterates diverged"."""
    ndim = sum(q.blocks)
    m = len(q.b)
    b = q.b

    norm_b = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    norm_c = max(1.0, _frobenius(q.cg))
    if start is not None:  # checked once: one A(X), one eigvalsh per size group
        x = [xs.astype(np.complex128) for xs in q._stacks(start[0])]
        y = np.array(start[1], dtype=float)
        s = [cg - ag for cg, ag in zip(q.cg, q._adjoint(y))]
        gap = float(np.abs(b - q._apply(x)).max()) / norm_b
        low = min(np.linalg.eigvalsh(np.concatenate(xs))[:, 0].min() for xs in zip(x, s))
        if gap > START_TOL or not low > 0:
            raise ValueError(f"start not feasible and interior: gap {gap:.2e}, min eig {low:.2e}")
    else:
        eta_p = 10.0 * max(1.0, math.sqrt(ndim), norm_b)
        eta_d = max(1.0, math.sqrt(ndim), norm_c)
        units = [np.broadcast_to(np.eye(c.shape[-1], dtype=np.complex128), c.shape) for c in q.cg]
        x = [eta_p * u for u in units]
        s = [eta_d * u for u in units]
        y = np.zeros(m)

    eyes = [np.eye(c.shape[-1]) for c in q.cg]
    jitter_eye = np.eye(m)
    stall = 0
    prev_mu = np.inf
    msg = "max iterations reached"

    for done in range(MAX_ITER):
        ax = q._apply(x)
        rp = b - ax
        rd = [cg - sg - ag for cg, sg, ag in zip(q.cg, s, q._adjoint(y))]
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

        if ep <= tol and ed <= tol and min(eg, compl) <= tol:
            return _IpmResult(x, y, done)

        gs, lams = zip(*(_nt_scaling(xg, sg) for xg, sg in zip(x, s)))
        roots = [np.sqrt(lam[:, :, None] * lam[:, None, :]) for lam in lams]
        wmats = [g @ _ct(g) for g in gs]
        schur = q._schur(wmats)
        base = rp + q._apply([w @ r @ w for w, r in zip(wmats, rd)])
        if not (np.isfinite(schur).all() and np.isfinite(base).all()):
            msg = "iterates diverged"
            break
        jitter = 1e-13 * max(1.0, float(schur.diagonal().max()))
        for _ in range(12):
            cf = _cholesky(schur + jitter * jitter_eye)
            if cf is not None:
                break
            jitter *= 100.0
        else:
            msg = "Schur factorisation failed"
            break

        def direction(rhs):
            """dy, and dS and its scaled G* dS G per group, for the Schur
            right-hand side ``rhs``."""
            dy = dpotrs(cf, rhs, lower=1)[0]
            dy = dy + dpotrs(cf, rhs - schur @ dy, lower=1)[0]  # one refinement pass
            ds = [hermitian_part(r - a) for r, a in zip(rd, q._adjoint(dy))]
            return dy, ds, [_ct(g) @ d @ g for g, d in zip(gs, ds)]

        def steps(lows, frac):
            """The primal and dual step lengths, ``frac`` of the way to the
            boundary of the cone and at most 1, from the smallest eigenvalue
            ``low`` of each scaled direction over root."""
            return [min(1.0, frac * (1.0 / max(-low, 1e-14))) for low in lows]

        # predictor: R = -X, scaled to -diag(lam).  With D = G* dS G the
        # scaled directions are -diag(lam) - D and D, so both step lengths
        # come from the eigenvalues of D / root, and mu_aff from
        # <(1 - a) diag(lam) - a D, diag(lam) + b D> for the steps a, b
        dss = direction(base + ax)[2]
        evs = [np.linalg.eigvalsh(d / root) for d, root in zip(dss, roots)]
        top = max(e[:, -1].max() for e in evs)
        ap_a, ad_a = steps((-1.0 - top, min(e[:, 0].min() for e in evs)), 0.99)
        lam2 = sum(np.vdot(lam, lam) for lam in lams)
        lam_d = sum(np.vdot(lam, d.diagonal(axis1=1, axis2=2).real) for lam, d in zip(lams, dss))
        mu_aff = ((1.0 - ap_a) * lam2 + ((1.0 - ap_a) * ad_a - ap_a) * lam_d
                  - ap_a * ad_a * _inner(dss, dss))
        sigma = min(1.0, max(1e-8, (max(mu_aff / ndim, 0.0) / mu) ** 3))

        # corrector: R = G U G*, with U = D + 2 (sigma mu I - diag(lam)^2 + D^2)
        # / (lam_i + lam_j) its scaled form, so that its scaled directions
        # are U - D' and D' for D' = G* dS' G
        us, rc = [], []
        for g, lam, d, eye in zip(gs, lams, dss, eyes):
            tmat = (sigma * mu - lam**2)[:, :, None] * eye + d @ d
            us.append(d + 2.0 * tmat / (lam[:, :, None] + lam[:, None, :]))
            rc.append(hermitian_part(g @ us[-1] @ _ct(g)))

        dy, ds, dss = direction(base - q._apply(rc))
        gamma = 0.99 if mu < 1e-6 else 0.98
        lows = [
            np.linalg.eigvalsh(np.stack([u - d, d]) / root)[:, :, 0].min(axis=1)
            for u, d, root in zip(us, dss, roots)
        ]
        ap, ad = steps(np.min(lows, axis=0), gamma)

        if ap < 1e-10 and ad < 1e-10:
            msg = "step lengths vanished"
            break

        x = [xg + ap * hermitian_part(c - w @ d @ w) for xg, c, w, d in zip(x, rc, wmats, ds)]
        y = y + ad * dy
        s = [sg + ad * d for sg, d in zip(s, ds)]

        if mu > 0.9 * prev_mu and ep < 1e-12 and ed < 1e-12:
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
    return max(float(_kernels.eigh_kernel(h)[0][:, -1].max()) for h in p._adjoint(y))


def _farkas_from_y(p: SdpProblem, y: np.ndarray) -> Optional[FarkasCertificate]:
    gap = float(y @ p.b)
    if gap <= 0.0:
        return None
    y = y / gap
    lam_max = _lambda_max(p, y)
    if lam_max > FARKAS_TOL:
        return None
    yv = np.asarray(y, dtype=float)
    yv.flags.writeable = False
    return FarkasCertificate(y=yv, gap=1.0, lambda_max=lam_max)


def solve(p: SdpProblem, tol: float = DEFAULT_TOL, check=None, start=None) -> SdpOutcome:
    """Solve a feasibility or linear-objective SDP.

    ``check``, for an objective problem only, sees every iterate (the list
    of primal blocks, and y in the problem's row order); the first answer
    other than None that it returns stops the solve with status STOPPED
    and that answer in ``answer``.

    ``start``, for an objective problem with independent rows, is a
    strictly interior point (X, y) with A(X) = b to START_TOL and
    C - A*(y) > 0 (ValueError otherwise).  The problem is then solved as
    given, not preprocessed, and every iterate is feasible on both sides.
    """
    if start is not None:
        if p.c is None:
            raise ValueError("a start is for a problem with an objective")
        return _solve_optimization(p, p, None, tol, check, start)
    q, rows, conflict_y = _preprocess(p)
    if conflict_y is not None:
        # sum_i y_i A_i = 0 with y.b > 0: a Farkas certificate, unless the
        # numerics are pathological
        cert = _farkas_from_y(p, conflict_y)
        if cert is None:
            raise InconsistentConstraintsError(
                "dependent constraint rows have conflicting right-hand sides"
            )
        return SdpOutcome(status=SdpStatus.INFEASIBLE, dual_certificate=cert)
    if p.c is None:
        return _solve_feasibility(p, q, rows, tol)
    return _solve_optimization(p, q, rows, tol, check)


def _solve_optimization(
    p: SdpProblem, q: SdpProblem, rows, tol: float, check=None, start=None
) -> SdpOutcome:
    """``q``, reduced from ``p`` with the row map ``rows``, by the IPM."""
    hook = None if check is None else (
        lambda x, y: check(q._split(x), _expand_y(rows, y, len(p.b)))
    )
    res = _ipm(q, tol, hook, start)
    if res.answer is not None:
        return SdpOutcome(status=SdpStatus.STOPPED, iterations=res.iterations, answer=res.answer)
    if not res.message:
        return SdpOutcome(
            status=SdpStatus.OPTIMAL,
            primal=tuple(linalg.hermitian(xb) for xb in q._split(res.x)),
            objective_value=_inner(q.cg, res.x),
            y=_expand_y(rows, res.y, len(p.b)),
            iterations=res.iterations,
        )
    return SdpOutcome(
        status=SdpStatus.NUMERICAL_FAILURE, iterations=res.iterations, message=res.message
    )


def _solve_feasibility(p: SdpProblem, q: SdpProblem, rows, tol: float) -> SdpOutcome:
    """The objective problem with C = 0 on the rows of ``q`` (reduced from
    ``p`` with the row map ``rows``) scaled to max|b| = 1.

    The infeasible-start iterates are strictly PD and tend to a
    relative-interior feasible point when there is one, while y tends to a
    Farkas ray when there is none.  Each iterate, the converged one too: X,
    projected twice onto A(X) = b through one Cholesky factor of the Gram
    matrix A A*, is Feasible when lambda_min >= -tol * max|lambda| over the
    blocks; y is Infeasible when its Farkas certificate has lambda_max <=
    0.1 * FARKAS_TOL.  Without an answer the status is NumericalFailure.
    """
    scale = float(np.abs(q.b).max()) or 1.0
    q = SdpProblem._unchecked(q.blocks, q.a, q.b / scale, None)
    gram = _cholesky(sum(f @ f.T for f in q.flat))
    if gram is None:
        raise np.linalg.LinAlgError("Gram matrix of the independent rows not positive definite")

    def check(x, y):
        for _ in range(2):
            z = dpotrs(gram, q.b - q._apply(x), lower=1)[0]
            x = [xg + az for xg, az in zip(x, q._adjoint(z))]
        lam = [_kernels.eigh_kernel(xg)[0] for xg in x]
        if min(w[:, 0].min() for w in lam) >= -tol * max(np.abs(w).max() for w in lam):
            primal = tuple(linalg.hermitian(scale * xb) for xb in q._split(x))
            return dict(status=SdpStatus.FEASIBLE, primal=primal)
        cert = _farkas_from_y(p, _expand_y(rows, y, len(p.b)))
        if cert is not None and cert.lambda_max <= 0.1 * FARKAS_TOL:
            return dict(status=SdpStatus.INFEASIBLE, dual_certificate=cert)
        return None

    res = _ipm(q, tol, check)
    if res.answer is not None:
        return SdpOutcome(**res.answer, iterations=res.iterations)
    return SdpOutcome(
        status=SdpStatus.NUMERICAL_FAILURE,
        iterations=res.iterations,
        message=res.message or "converged with no certificate",
    )


def verify(outcome: SdpOutcome, p: SdpProblem) -> SdpVerifyReport:
    """Independent re-check of an outcome against the problem data, with
    eigenvalues from the LAPACK call of `_kernels.eigh_kernel`."""
    if outcome.status in (SdpStatus.FEASIBLE, SdpStatus.OPTIMAL):
        if outcome.primal is None or len(outcome.primal) != len(p.blocks):
            return SdpVerifyReport(ok=False, max_residual=np.inf, notes="primal blocks missing")
        x = [linalg.hermitian(xs, 3, "primal") for xs in p._stacks(outcome.primal)]
        psd_margin = min(float(_kernels.eigh_kernel(xs)[0][:, 0].min()) for xs in x)
        gaps = np.abs(p._apply(x) - p.b)
        max_res = float(np.max(gaps, initial=0.0))
        scale = 1.0 + max(float(np.linalg.norm(xb)) for xb in outcome.primal)
        ok = psd_margin >= -1e-7 * scale and max_res <= 1e-6
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
        ok = gap > 0.0 and lam_max <= FARKAS_TOL * gap
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
# only nonzero entries with i <= j appear.


def dump_problem(p: SdpProblem, path) -> None:
    lines = ["* freespec SDP dump (complex SDPA-sparse-like format)"]
    lines.append(str(len(p.b)))
    lines.append(str(len(p.blocks)))
    lines.append(" ".join(str(n) for n in p.blocks))
    lines.append(" ".join(repr(float(v)) for v in p.b))

    def emit(matno, mats):
        for bno, mat in enumerate(mats):
            for i, j in zip(*np.nonzero(np.triu(mat))):
                v = mat[i, j]
                lines.append(
                    f"{matno} {bno + 1} {i + 1} {j + 1} "
                    f"{float(v.real)!r} {float(v.imag)!r}"
                )

    if p.c is not None:
        emit(0, p.c)
    for k in range(len(p.b)):
        emit(k + 1, [ak[k] for ak in p.a])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_problem(path) -> SdpProblem:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("*")]
    m = int(raw[0])
    nblocks = int(raw[1])
    blocks = tuple(int(t) for t in raw[2].split())
    if len(blocks) != nblocks:
        raise ValueError("block count mismatch in dump")
    rhs = [float(t) for t in raw[3].split()]
    if len(rhs) != m:
        raise ValueError("rhs length mismatch in dump")
    a = [np.zeros((m, n, n), dtype=np.complex128) for n in blocks]
    c = [np.zeros((n, n), dtype=np.complex128) for n in blocks]
    has_obj = False
    for ln in raw[4:]:
        toks = ln.split()
        matno, blk, i, j = (int(t) for t in toks[:4])
        v = complex(float(toks[4]), float(toks[5]))
        has_obj = has_obj or matno == 0
        mat = c[blk - 1] if matno == 0 else a[blk - 1][matno - 1]
        mat[i - 1, j - 1] += v
        if i != j:
            mat[j - 1, i - 1] += v.conjugate()
    return SdpProblem(blocks, tuple(a), rhs, tuple(c) if has_obj else None)
