"""Small dense SDP solver over block-diagonal Hermitian variables.

Primal form:

    minimise   <C, X>        (or pure feasibility when no objective given)
    subject to <A_i, X> = b_i   for i = 1..m,
               X = diag(X_1, ..., X_B)  with each block Hermitian PSD,

where <A, X> = tr(X* A) summed over blocks.  The engine is an
infeasible-start primal-dual interior-point method with Nesterov-Todd
scaling and a Mehrotra predictor-corrector, working on the complex
Hermitian blocks as given; the dense Schur complement is solved by
Cholesky.

Feasibility problems are run through a phase-I reformulation: minimise t
subject to X + t*I >= 0 (plus a generous trace safeguard), declaring
Feasible iff the optimal t falls below tolerance.  Infeasible is declared
only when the phase-I dual multipliers verify as a Farkas certificate:
sum_i y_i A_i negative semidefinite (to a strict tolerance) together with
b.y > 0; without a verified certificate the status is NumericalFailure.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

logger = logging.getLogger("freespec.sdp")

from . import _kernels
from . import linalg
from .linalg import HermitianMatrix, as_hermitian

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100
FARKAS_TOL = 1e-7


class SdpStatus(enum.Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    OPTIMAL = "Optimal"
    NUMERICAL_FAILURE = "NumericalFailure"


class InconsistentConstraintsError(ValueError):
    """Linearly dependent constraint rows with conflicting right-hand sides."""


@dataclass(frozen=True)
class SdpConstraint:
    """One linear equality tr(sum_b C_b X_b) = rhs.

    ``coeffs`` has one entry per block; ``None`` marks a zero block.
    """

    coeffs: tuple[Optional[HermitianMatrix], ...]
    rhs: float


@dataclass(frozen=True)
class SdpProblem:
    blocks: tuple[int, ...]
    constraints: tuple[SdpConstraint, ...]
    objective: Optional[tuple[Optional[HermitianMatrix], ...]] = None

    def __post_init__(self):
        for n in self.blocks:
            if n < 1:
                raise ValueError("block dimensions must be positive")
        for k, con in enumerate(self.constraints):
            self._check_blockrow(con.coeffs, f"constraint {k}")
        if self.objective is not None:
            self._check_blockrow(self.objective, "objective")

    def _check_blockrow(self, coeffs, what: str) -> None:
        if len(coeffs) != len(self.blocks):
            raise ValueError(f"{what}: expected {len(self.blocks)} coefficient blocks")
        for b, c in enumerate(coeffs):
            if c is not None and c.dim != self.blocks[b]:
                raise ValueError(
                    f"{what}: block {b} has dim {c.dim}, expected {self.blocks[b]}"
                )

    @staticmethod
    def make(blocks: Sequence[int], constraints, objective=None) -> "SdpProblem":
        """Convenience constructor accepting raw arrays for coefficients."""
        blocks = tuple(int(n) for n in blocks)

        def conv_row(row):
            out = []
            for c in row:
                out.append(None if c is None else as_hermitian(c))
            return tuple(out)

        cons = tuple(
            SdpConstraint(coeffs=conv_row(row), rhs=float(rhs)) for row, rhs in constraints
        )
        obj = None if objective is None else conv_row(objective)
        return SdpProblem(blocks=blocks, constraints=cons, objective=obj)


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
    primal: Optional[tuple[HermitianMatrix, ...]] = None
    dual_certificate: Optional[FarkasCertificate] = None
    objective_value: Optional[float] = None
    y: Optional[np.ndarray] = None
    iterations: int = 0
    message: str = ""


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
# Working form and constraint preprocessing (row scaling + rank reduction)
# --------------------------------------------------------------------------


@dataclass
class _Form:
    """The problem as the interior-point core sees it: complex coefficient
    arrays, rows scaled to unit norm, linearly dependent rows dropped."""

    sizes: list[int]
    amats: list[list[Optional[np.ndarray]]]  # [kept constraint][block]
    b: np.ndarray
    cblocks: list[Optional[np.ndarray]]
    kept: list[int]          # kept constraint indices
    row_scale: np.ndarray
    # multipliers (original indexing) witnessing an inconsistent dependent
    # row: sum_i y_i A_i = 0 with y.b != 0
    conflict_y: Optional[np.ndarray] = None


def _svec(m: np.ndarray) -> np.ndarray:
    """Real isometric vectorisation of a Hermitian matrix: the diagonal,
    then sqrt(2) Re and sqrt(2) Im of the strict upper triangle."""
    idx = np.triu_indices(m.shape[0], k=1)
    upper = math.sqrt(2.0) * m[idx]
    return np.concatenate([m.diagonal().real, upper.real, upper.imag])


def _preprocess(p: SdpProblem, consistency_tol: float = 1e-7) -> _Form:
    m = len(p.constraints)
    if m == 0:
        raise ValueError("problem has no constraints")
    sizes = list(p.blocks)
    rows = np.zeros((m, sum(n * n for n in sizes)))
    for i, con in enumerate(p.constraints):
        off = 0
        for c, n in zip(con.coeffs, sizes):
            if c is not None:
                rows[i, off : off + n * n] = _svec(c.mat)
            off += n * n

    scale = np.maximum(np.linalg.norm(rows, axis=1), 1e-12)
    rows = rows / scale[:, None]
    b = np.array([con.rhs for con in p.constraints], dtype=float) / scale

    # rank-revealing QR on the transposed row matrix
    from scipy.linalg import qr

    _, r, piv = qr(rows.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > max(1e-12, 1e-10 * diag[0]))) if diag.size else 0
    kept = sorted(piv[:rank].tolist())
    dropped = [i for i in range(m) if i not in set(kept)]
    conflict_y = None
    if dropped:
        combo, *_ = np.linalg.lstsq(rows[kept].T, rows[dropped].T, rcond=None)
        pred = combo.T @ b[kept]
        gaps = np.abs(pred - b[dropped])
        bad = gaps > consistency_tol * (1.0 + np.abs(b[dropped]))
        if np.any(bad):
            # the conflicting combination is itself a Farkas certificate:
            # sum_i y_i A_i = 0 with y.b != 0
            j = int(np.argmax(gaps))
            y = np.zeros(m)
            y[dropped[j]] = -1.0
            for pos, i in enumerate(kept):
                y[i] += combo[pos, j]
            if float(y @ b) < 0.0:
                y = -y
            conflict_y = y / scale  # back to original row scaling

    cblocks = [None] * len(sizes)
    if p.objective is not None:
        cblocks = [None if c is None else c.mat for c in p.objective]
    return _Form(
        sizes=sizes,
        amats=[
            [None if c is None else c.mat / scale[i] for c in p.constraints[i].coeffs]
            for i in kept
        ],
        b=b[kept].copy(),
        cblocks=cblocks,
        kept=kept,
        row_scale=scale,
        conflict_y=conflict_y,
    )


def _conflict_outcome(p: SdpProblem, form: _Form) -> Optional[SdpOutcome]:
    """Infeasible outcome from inconsistent dependent rows, when present.

    The multiplier vector satisfies sum_i y_i A_i = 0 with y.b != 0, which
    is a Farkas certificate; if it does not verify (pathological numerics)
    an InconsistentConstraintsError is raised instead.
    """
    if form.conflict_y is None:
        return None
    cert = _farkas_from_y(p, form.conflict_y.copy())
    if cert is None:
        raise InconsistentConstraintsError(
            "dependent constraint rows have conflicting right-hand sides"
        )
    return SdpOutcome(status=SdpStatus.INFEASIBLE, dual_certificate=cert)


# --------------------------------------------------------------------------
# Interior-point core (complex Hermitian blocks)
# --------------------------------------------------------------------------


@dataclass
class _IpmResult:
    converged: bool
    x: list[np.ndarray]
    y: np.ndarray
    s: list[np.ndarray]
    iterations: int
    mu: float
    primal_obj: float
    message: str = ""
    stop_label: str = ""


def _flat(t: np.ndarray) -> np.ndarray:
    """A complex matrix (or a stack of them) as a real row of (Re, Im)
    pairs: the real dot product of two rows is Re tr(A B*), which is
    tr(A B) when B is Hermitian."""
    t = np.ascontiguousarray(t)
    return t.reshape(t.shape[:-2] + (t.shape[-1] ** 2,)).view(np.float64)


class _BlockData:
    """Per-block stacked constraint tensors for fast A(.) / A*(.) / Schur."""

    def __init__(self, sizes: list[int], amats, cblocks):
        self.sizes = sizes
        self.nblocks = len(sizes)
        self.m = len(amats)
        self.idx: list[np.ndarray] = []
        self.tens: list[np.ndarray] = []
        for b, n in enumerate(sizes):
            ids = [i for i in range(self.m) if amats[i][b] is not None]
            self.idx.append(np.array(ids, dtype=int))
            if ids:
                self.tens.append(np.stack([amats[i][b] for i in ids]))
            else:
                self.tens.append(np.zeros((0, n, n)))
        self.flat = [_flat(t) for t in self.tens]
        self.c = [
            np.zeros((n, n)) if cb is None else cb for n, cb in zip(sizes, cblocks)
        ]
        self.norm_c = max((np.linalg.norm(cb) for cb in self.c), default=0.0)
        self.total_dim = sum(sizes)

    def apply(self, xblocks) -> np.ndarray:
        """Re tr(A_i X), summed over blocks."""
        out = np.zeros(self.m)
        for b in range(self.nblocks):
            if len(self.idx[b]):
                out[self.idx[b]] += self.flat[b] @ _flat(xblocks[b])
        return out

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        out = []
        for b, n in enumerate(self.sizes):
            if len(self.idx[b]):
                out.append(np.tensordot(y[self.idx[b]], self.tens[b], axes=1))
            else:
                out.append(np.zeros((n, n)))
        return out

    def schur(self, wblocks) -> np.ndarray:
        """Re tr(A_i W A_j W), summed over blocks."""
        m = np.zeros((self.m, self.m))
        for b in range(self.nblocks):
            ids = self.idx[b]
            if not len(ids):
                continue
            w = wblocks[b]
            m[np.ix_(ids, ids)] += self.flat[b] @ _flat(w @ self.tens[b] @ w).T
        return (m + m.T) / 2.0


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def _inner(xs, ys) -> float:
    return float(sum(np.vdot(y, x).real for x, y in zip(xs, ys)))


def _step_to_boundary(hmat: np.ndarray) -> float:
    """Max alpha with I + alpha*H >= 0."""
    w, _ = _kernels.eigh_kernel(hmat)
    lam_min = w[0]
    if lam_min >= -1e-14:
        return np.inf
    return 1.0 / (-lam_min)


def _ipm(
    data: _BlockData, b: np.ndarray, tol: float, max_iter: int, check=None
) -> _IpmResult:
    sizes = data.sizes
    ndim = data.total_dim
    m = data.m

    norm_b = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    norm_c = max(1.0, data.norm_c)
    eta_p = 10.0 * max(1.0, math.sqrt(ndim), norm_b)
    eta_d = max(1.0, math.sqrt(ndim), norm_c)

    x = [eta_p * np.eye(n, dtype=np.complex128) for n in sizes]
    s = [eta_d * np.eye(n, dtype=np.complex128) for n in sizes]
    y = np.zeros(m)

    best = None
    stall = 0
    prev_mu = np.inf
    msg = "max iterations reached"

    for it in range(1, max_iter + 1):
        rp = b - data.apply(x)
        aty = data.adjoint(y)
        rd = [data.c[bq] - s[bq] - aty[bq] for bq in range(data.nblocks)]
        mu = _inner(x, s) / ndim
        pobj = _inner(data.c, x)
        dobj = float(b @ y)

        ep = float(np.max(np.abs(rp), initial=0.0)) / norm_b
        ed = max((np.linalg.norm(r) for r in rd), default=0.0) / norm_c
        eg = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        compl = mu * ndim / (1.0 + abs(pobj) + abs(dobj))
        logger.debug(
            "iter %3d  mu=%9.2e  ep=%9.2e  ed=%9.2e  eg=%9.2e", it, mu, ep, ed, eg
        )

        if ep <= tol and ed <= tol and min(eg, compl) <= tol:
            return _IpmResult(True, x, y, s, it - 1, mu, pobj)

        if check is not None:
            label = check(x, y, s)
            if label:
                return _IpmResult(
                    False, x, y, s, it - 1, mu, pobj, stop_label=label
                )

        # Nesterov-Todd scaling per block
        gs, gis, lams = [], [], []
        for bq, n in enumerate(sizes):
            wx, ux = _kernels.eigh_kernel(x[bq])
            if wx[0] <= 0:
                wx = np.maximum(wx, 1e-14 * max(1.0, wx[-1]))
            xh = (ux * np.sqrt(wx)) @ ux.conj().T
            xhi = (ux / np.sqrt(wx)) @ ux.conj().T
            wt, ut = _kernels.eigh_kernel(_herm(xh @ s[bq] @ xh))
            if wt[0] <= 0:
                wt = np.maximum(wt, 1e-14 * max(1.0, wt[-1]))
            g = (xh @ ut) * wt**-0.25
            gi = (wt[:, None] ** 0.25) * (ut.conj().T @ xhi)
            gs.append(g)
            gis.append(gi)
            lams.append(np.sqrt(wt))

        wmats = [g @ g.conj().T for g in gs]
        try:
            schur = data.schur(wmats)
            jitter = 1e-13 * max(1.0, float(np.max(np.diag(schur))))
            for _ in range(12):
                try:
                    cf = cho_factor(schur + jitter * np.eye(m), lower=True)
                    break
                except np.linalg.LinAlgError:
                    jitter *= 100.0
            else:
                msg = "Schur factorisation failed"
                break
        except np.linalg.LinAlgError:
            msg = "Schur assembly failed"
            break

        wrdw = [wmats[bq] @ rd[bq] @ wmats[bq] for bq in range(data.nblocks)]

        def solve_dirs(rc):
            rhs = rp - data.apply(rc) + data.apply(wrdw)
            dy = cho_solve(cf, rhs)
            dy = dy + cho_solve(cf, rhs - schur @ dy)  # one refinement pass
            atdy = data.adjoint(dy)
            ds = [rd[bq] - atdy[bq] for bq in range(data.nblocks)]
            dx = [rc[bq] - wmats[bq] @ ds[bq] @ wmats[bq] for bq in range(data.nblocks)]
            return [_herm(d) for d in dx], dy, [_herm(d) for d in ds]

        def steplen(dx, ds):
            ap = ad = np.inf
            dxs_list, dss_list = [], []
            for bq in range(data.nblocks):
                lam = lams[bq]
                root = np.sqrt(np.outer(lam, lam))
                dxs = gis[bq] @ dx[bq] @ gis[bq].conj().T
                dss = gs[bq].conj().T @ ds[bq] @ gs[bq]
                dxs_list.append(dxs)
                dss_list.append(dss)
                ap = min(ap, _step_to_boundary(dxs / root))
                ad = min(ad, _step_to_boundary(dss / root))
            return ap, ad, dxs_list, dss_list

        # predictor
        rc_aff = [-xb for xb in x]
        dxa, dya, dsa = solve_dirs(rc_aff)
        ap_a, ad_a, dxs_a, dss_a = steplen(dxa, dsa)
        ap_a = min(1.0, 0.99 * ap_a)
        ad_a = min(1.0, 0.99 * ad_a)
        mu_aff = (
            _inner(
                [x[bq] + ap_a * dxa[bq] for bq in range(data.nblocks)],
                [s[bq] + ad_a * dsa[bq] for bq in range(data.nblocks)],
            )
            / ndim
        )
        mu_aff = max(mu_aff, 0.0)
        sigma = min(1.0, max(1e-8, (mu_aff / mu) ** 3))

        # corrector
        rc = []
        for bq in range(data.nblocks):
            lam = lams[bq]
            tmat = (
                sigma * mu * np.eye(len(lam))
                - np.diag(lam**2)
                - (dxs_a[bq] @ dss_a[bq] + dss_a[bq] @ dxs_a[bq]) / 2.0
            )
            u = 2.0 * tmat / np.add.outer(lam, lam)
            rc.append(_herm(gs[bq] @ u @ gs[bq].conj().T))

        dx, dy, ds = solve_dirs(rc)
        ap, ad, _, _ = steplen(dx, ds)
        gamma = 0.99 if mu < 1e-6 else 0.98
        ap = min(1.0, gamma * ap)
        ad = min(1.0, gamma * ad)

        if ap < 1e-10 and ad < 1e-10:
            msg = "step lengths vanished"
            break

        x = [x[bq] + ap * dx[bq] for bq in range(data.nblocks)]
        y = y + ad * dy
        s = [s[bq] + ad * ds[bq] for bq in range(data.nblocks)]

        if mu > 0.9 * prev_mu and ep < 1e-12 and ed < 1e-12:
            stall += 1
            if stall > 15:
                msg = "progress stalled"
                break
        else:
            stall = 0
        prev_mu = mu
        best = (x, y, s, it, mu, pobj)

    if best is None:
        best = (x, y, s, 0, np.inf, 0.0)
    x, y, s, it, mu, pobj = best
    return _IpmResult(False, x, y, s, it, mu, pobj, message=msg)


# --------------------------------------------------------------------------
# Public solve / verify
# --------------------------------------------------------------------------


def _expand_y(form: _Form, y_reduced: np.ndarray, m_total: int) -> np.ndarray:
    """Map multipliers of the kept, scaled rows back to original indexing."""
    y = np.zeros(m_total)
    for pos, i in enumerate(form.kept):
        y[i] = y_reduced[pos] / form.row_scale[i]
    return y


def _sum_y_a(p: SdpProblem, y: np.ndarray) -> list[HermitianMatrix]:
    out = []
    for b, n in enumerate(p.blocks):
        acc = np.zeros((n, n), dtype=np.complex128)
        for i, con in enumerate(p.constraints):
            if con.coeffs[b] is not None and y[i] != 0.0:
                acc += y[i] * con.coeffs[b].mat
        out.append(HermitianMatrix(acc))
    return out


def _farkas_from_y(p: SdpProblem, y: np.ndarray) -> Optional[FarkasCertificate]:
    gap = float(sum(y[i] * con.rhs for i, con in enumerate(p.constraints)))
    if gap <= 0.0:
        return None
    y = y / gap
    lam_max = max(
        linalg.max_eigenvalue(h) for h in _sum_y_a(p, y)
    )
    if lam_max > FARKAS_TOL:
        return None
    yv = np.asarray(y, dtype=float)
    yv.flags.writeable = False
    return FarkasCertificate(y=yv, gap=1.0, lambda_max=float(lam_max))


def solve(
    p: SdpProblem, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SdpOutcome:
    """Solve a feasibility or linear-objective SDP."""
    if p.objective is None:
        return _solve_feasibility(p, tol, max_iter)
    return _solve_optimization(p, tol, max_iter)


def _solve_optimization(p: SdpProblem, tol: float, max_iter: int) -> SdpOutcome:
    form = _preprocess(p)
    conflict = _conflict_outcome(p, form)
    if conflict is not None:
        return conflict
    data = _BlockData(form.sizes, form.amats, form.cblocks)
    res = _ipm(data, form.b, tol, max_iter)
    if res.converged:
        primal = tuple(HermitianMatrix(xb) for xb in res.x)
        y = _expand_y(form, res.y, len(p.constraints))
        obj = _objective_value(p, primal)
        return SdpOutcome(
            status=SdpStatus.OPTIMAL,
            primal=primal,
            objective_value=obj,
            y=y,
            iterations=res.iterations,
        )
    return SdpOutcome(
        status=SdpStatus.NUMERICAL_FAILURE, iterations=res.iterations, message=res.message
    )


def _objective_value(p: SdpProblem, primal) -> float:
    total = 0.0
    for b, c in enumerate(p.objective):
        if c is not None:
            total += linalg.trace_inner(primal[b], c)
    return float(total)


def _residual_ok(p: SdpProblem, primal, tol: float) -> bool:
    for con in p.constraints:
        val = sum(
            linalg.trace_inner(primal[b], c)
            for b, c in enumerate(con.coeffs)
            if c is not None
        )
        if abs(val - con.rhs) > tol * (1.0 + abs(con.rhs)):
            return False
    return True


def _solve_feasibility(p: SdpProblem, tol: float, max_iter: int) -> SdpOutcome:
    form = _preprocess(p)
    conflict = _conflict_outcome(p, form)
    if conflict is not None:
        return conflict
    nb = len(form.sizes)
    m = len(form.amats)

    # phase-I: variables (Z, w) with X = Z - (w - 1) * I and w >= 0;
    # minimising w drives the shift t = w - 1 down to -min_eig of the most
    # interior solution, floored at t = -1.
    sizes1 = form.sizes + [1]
    amats1 = []
    b1 = []
    for i in range(m):
        tau = float(
            sum(np.trace(a).real for a in form.amats[i] if a is not None)
        )
        amats1.append(form.amats[i] + [np.array([[-tau]], dtype=np.complex128)])
        b1.append(form.b[i] - tau)
    cblocks1 = [None] * nb + [np.array([[1.0]])]

    # Stop as soon as either side is certifiable: a strictly positive shift
    # with verified constraint residuals, or a verified Farkas certificate.
    found: dict = {}

    def checker(x, y, s):
        t = float(x[nb][0, 0].real) - 1.0
        if t < 0.5 * tol:
            primal = tuple(
                HermitianMatrix(x[b] - t * np.eye(n)) for b, n in enumerate(form.sizes)
            )
            if _residual_ok(p, primal, 1e-8):
                found["primal"] = primal
                return "feasible"
        y_full = _expand_y(form, y[:m], len(p.constraints))
        cert = _farkas_from_y(p, y_full)
        if cert is not None and cert.lambda_max <= 0.1 * FARKAS_TOL:
            found["cert"] = cert
            return "infeasible"
        return ""

    data = _BlockData(sizes1, amats1, cblocks1)
    res = _ipm(data, np.array(b1), min(tol * 1e-2, 1e-9), max_iter, check=checker)

    if res.stop_label == "feasible":
        return SdpOutcome(
            status=SdpStatus.FEASIBLE, primal=found["primal"], iterations=res.iterations
        )
    if res.stop_label == "infeasible":
        return SdpOutcome(
            status=SdpStatus.INFEASIBLE,
            dual_certificate=found["cert"],
            iterations=res.iterations,
        )

    if not res.converged:
        return SdpOutcome(
            status=SdpStatus.NUMERICAL_FAILURE,
            iterations=res.iterations,
            message=f"phase-I: {res.message}",
        )

    t_star = float(res.x[nb][0, 0].real) - 1.0
    if t_star < tol:
        primal = tuple(
            HermitianMatrix(res.x[b] - t_star * np.eye(n)) for b, n in enumerate(form.sizes)
        )
        return SdpOutcome(
            status=SdpStatus.FEASIBLE, primal=primal, iterations=res.iterations
        )

    y = _expand_y(form, res.y[:m], len(p.constraints))
    cert = _farkas_from_y(p, y)
    if cert is None:
        return SdpOutcome(
            status=SdpStatus.NUMERICAL_FAILURE,
            iterations=res.iterations,
            message="phase-I optimum positive but Farkas certificate did not verify",
        )
    return SdpOutcome(
        status=SdpStatus.INFEASIBLE,
        dual_certificate=cert,
        iterations=res.iterations,
    )


def verify(outcome: SdpOutcome, p: SdpProblem) -> SdpVerifyReport:
    """Independent re-check of an outcome using only the linalg module."""
    if outcome.status in (SdpStatus.FEASIBLE, SdpStatus.OPTIMAL):
        if outcome.primal is None:
            return SdpVerifyReport(ok=False, max_residual=np.inf, notes="missing primal")
        psd_margin = min(linalg.min_eigenvalue(xb) for xb in outcome.primal)
        max_res = 0.0
        for con in p.constraints:
            val = sum(
                linalg.trace_inner(outcome.primal[b], c)
                for b, c in enumerate(con.coeffs)
                if c is not None
            )
            max_res = max(max_res, abs(val - con.rhs))
        scale = 1.0 + max(xb.norm() for xb in outcome.primal)
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
        gap = float(sum(cert.y[i] * con.rhs for i, con in enumerate(p.constraints)))
        lam_max = max(linalg.max_eigenvalue(h) for h in _sum_y_a(p, cert.y))
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
# only entries with i <= j appear.


def dump_problem(p: SdpProblem, path) -> None:
    lines = ["* freespec SDP dump (complex SDPA-sparse-like format)"]
    lines.append(str(len(p.constraints)))
    lines.append(str(len(p.blocks)))
    lines.append(" ".join(str(n) for n in p.blocks))
    lines.append(" ".join(repr(float(c.rhs)) for c in p.constraints))

    def emit(matno, coeffs):
        out = []
        for bno, c in enumerate(coeffs):
            if c is None:
                continue
            mat = c.mat
            for i in range(mat.shape[0]):
                for j in range(i, mat.shape[1]):
                    v = mat[i, j]
                    if v != 0:
                        out.append(
                            f"{matno} {bno + 1} {i + 1} {j + 1} "
                            f"{float(v.real)!r} {float(v.imag)!r}"
                        )
        return out

    if p.objective is not None:
        lines.extend(emit(0, p.objective))
    for k, con in enumerate(p.constraints):
        lines.extend(emit(k + 1, con.coeffs))
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
    mats: dict[tuple[int, int], np.ndarray] = {}
    has_obj = False
    for ln in raw[4:]:
        toks = ln.split()
        matno, blk, i, j = (int(t) for t in toks[:4])
        re, im = float(toks[4]), float(toks[5])
        if matno == 0:
            has_obj = True
        key = (matno, blk - 1)
        if key not in mats:
            n = blocks[blk - 1]
            mats[key] = np.zeros((n, n), dtype=np.complex128)
        v = complex(re, im)
        mats[key][i - 1, j - 1] += v
        if i != j:
            mats[key][j - 1, i - 1] += v.conjugate()

    def row(matno):
        return tuple(
            HermitianMatrix(mats[(matno, b)]) if (matno, b) in mats else None
            for b in range(nblocks)
        )

    objective = row(0) if has_obj else None
    cons = tuple(SdpConstraint(coeffs=row(k + 1), rhs=rhs[k]) for k in range(m))
    return SdpProblem(blocks=blocks, constraints=cons, objective=objective)
