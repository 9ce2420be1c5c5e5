"""Serializable certificates and the one acceptance test of each kind.

Every certificate-producing operation can emit a self-contained JSON
document (matrices in the shared literal format).  Acceptance lives here
only: one ``check_<kind>`` function per kind, on numpy arrays.  The
producers (`opsys.min_membership`, `opsys.essential_boundary_square`,
`containment.relaxation`) run it once per answer, on the arrays they emit,
and answer Unknown when it fails; `verify_certificate` runs it on the arrays a
document states (read by `cones.cone_arrays` and `pencil.stack_document`,
with a check that a cone's generators span R^d), which a JSON round trip
restores exactly, so both see the same residual.  No kind reads a cone's
``facets`` or builds a cone or pencil: a scaling sandwich's facets come
from its generators and unit by `cones.cone_facets` (a simplex's in
closed form), so every listed generator counts, extreme or not, and a
pencil's unit is not renormalised; max|sum_i u_i M_i - I| of each pencil
is reported as ``unit_drift``.  A residual keeps a NaN term (`_worst`) and
must stay below ``ACCEPT_RESIDUAL``, so it is finite; a separator also
needs a positive margin and phi(A) < -``SEPARATOR_PHI_LIMIT``, and a
Farkas certificate lambda_max <= ``FARKAS_TOL`` * gap with a gap above
``FARKAS_GAP_LIMIT`` times the size of its terms.  Only the last two
limits are relative.  All four come from `tolerances`, the solver's
``FARKAS_TOL`` too, so the checker imports none of `sdp`, `opsys` and
`containment`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import linalg, tolerances
from .cones import ConeConstructionError, PolyhedralCone, cone_arrays, cone_facets, cone_to_json
from .cones import section_frame, section_rows, spanning
from .linalg import finite_from_json, matrix_to_json, stack_from_json
from .pencil import LinearPencil, MatrixTuple, pencil_to_json, stack_document, tuple_to_json

if TYPE_CHECKING:
    from .containment import RelaxationCertificate, RelaxationFarkas
    from .opsys import MinMembershipCertificate, SeparationFunctional

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CertificateCheck:
    kind: str
    ok: bool
    residual: float
    details: dict


def _kraus_from_json(obj) -> tuple[np.ndarray, ...]:
    kraus = () if obj == [] else linalg.complex_from_pairs(obj, 3)
    if kraus is None:
        raise ValueError("kraus: expected a list of equal-shape matrices of [re, im] pairs")
    return tuple(kraus)


# -- constructors ------------------------------------------------------------


def _document(kind: str, **fields) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def relaxation_feasible_cert(
    src: LinearPencil, tgt: LinearPencil, cert: RelaxationCertificate
) -> dict:
    return _document(
        "relaxation_feasible", src=pencil_to_json(src), tgt=pencil_to_json(tgt),
        choi=matrix_to_json(cert.choi), kraus=matrix_to_json(cert.kraus),
    )


def relaxation_infeasible_cert(
    src: LinearPencil, tgt: LinearPencil, farkas: RelaxationFarkas
) -> dict:
    return _document(
        "relaxation_infeasible", src=pencil_to_json(src), tgt=pencil_to_json(tgt),
        y_matrices=matrix_to_json(farkas.y_matrices),
    )


def min_member_cert(
    cone: PolyhedralCone, query: MatrixTuple, cert: MinMembershipCertificate
) -> dict:
    return _document(
        "min_membership_member", cone=cone_to_json(cone), query=tuple_to_json(query),
        weights=matrix_to_json(cert.weights),
    )


def separator_cert(
    cone: PolyhedralCone, query: MatrixTuple, sep: SeparationFunctional
) -> dict:
    return _document(
        "min_membership_separator", cone=cone_to_json(cone), query=tuple_to_json(query),
        n_matrices=matrix_to_json(sep.matrices), margin=sep.margin,
    )


def essential_boundary_cert(
    components, functional: SeparationFunctional, eps: float
) -> dict:
    return _document(
        "essential_boundary", components=matrix_to_json(components),
        n_matrices=matrix_to_json(functional.matrices), eps=eps,
    )


def sandwich_cert(cone: PolyhedralCone, nu: float, h_normal, rays: np.ndarray) -> dict:
    """The document of a sandwich simplex with the (d, d) ``rays``."""
    return _document(
        "scaling_sandwich", cone=cone_to_json(cone), nu=nu,
        h_normal=list(map(float, h_normal)),
        simplex_generators=np.asarray(rays).tolist(),
    )


# -- acceptance tests, on arrays ---------------------------------------------
#
# Matrices come as (k, n, n) complex stacks: a tuple A_i, weights P_k,
# separator matrices N_i, pencil matrices M_i (source) and N_i (target).


def apply_kraus(kraus: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j V_j* X_i V_j for each X_i of the (d, r, r) stack ``x``, as one
    product K* (X_i V_j stacked) over the (n, r, t) Kraus operators stacked
    into the (n*r, t) matrix K."""
    t = kraus.shape[-1]
    xv = x[:, None] @ kraus
    return kraus.reshape(-1, t).conj().T @ xv.reshape(len(x), -1, t)


def phi(n: np.ndarray, stack: np.ndarray) -> float:
    """phi(B) = sum_i Re tr(conj(N_i) B_i), the separator's functional."""
    return float(np.einsum("ixy,iyx->", n.conj(), stack).real)


def _eigvalsh(j: np.ndarray, r: int, t: int) -> np.ndarray:
    """Eigenvalues of an rt x rt matrix, from its diagonal t x t blocks when
    the others vanish."""
    blocks = linalg.diagonal_blocks(j, r, t)
    return np.linalg.eigvalsh(j if blocks is None else blocks)


def _worst(*terms: float) -> float:
    """max(0, *terms), NaN when a term is NaN (which max drops unless first)."""
    return np.nan if np.isnan(terms).any() else max(0.0, *terms)


def check_min_member(gens: np.ndarray, stack: np.ndarray, weights: np.ndarray) -> CertificateCheck:
    """PSD weights P_k with sum_k c_k[i] P_k = A_i, for the generators c_k
    as the rows of ``gens``: residual max(-lambda_min(P_k), reconstruction
    error), at least 0."""
    recon = float(np.max(np.abs(np.tensordot(gens.T, weights, axes=1) - stack)))
    residual = _worst(recon, -float(np.linalg.eigvalsh(weights)[:, 0].min()))
    ok = residual < tolerances.ACCEPT_RESIDUAL
    return CertificateCheck("min_membership_member", ok, residual, {})


def check_separator(
    gens: np.ndarray, unit: np.ndarray, stack: np.ndarray, n: np.ndarray
) -> CertificateCheck:
    """phi(B) = sum_i Re tr(conj(N_i) B_i) nonnegative on the system
    (sum_i c_k[i] N_i >= 0 for every generator, up to the residual), with
    a positive margin lambda_min(sum_i u_i N_i) and phi(A) below
    -SEPARATOR_PHI_LIMIT."""
    lows = np.linalg.eigvalsh(np.tensordot(np.vstack([gens, unit]), n, axes=1))[:, 0]
    worst, margin = _worst(-float(lows[:-1].min())), float(lows[-1])
    phi_query = phi(n, stack)
    ok = (worst < tolerances.ACCEPT_RESIDUAL and margin > 0
          and phi_query < -tolerances.SEPARATOR_PHI_LIMIT)
    details = {"margin": margin, "phi_query": phi_query}
    return CertificateCheck("min_membership_separator", ok, worst, details)


def check_relaxation_feasible(
    src: np.ndarray, tgt: np.ndarray, choi: np.ndarray, kraus
) -> CertificateCheck:
    """A PSD Choi matrix, and Kraus operators V_j with
    sum_j V_j* M_i V_j = N_i: residual max(-lambda_min(J), reconstruction
    error), at least 0."""
    r, t = src.shape[-1], tgt.shape[-1]
    psd_margin = float(_eigvalsh(choi, r, t).min())
    v = np.asarray(kraus, dtype=np.complex128).reshape(-1, r, t)
    recon = float(np.max(np.abs(apply_kraus(v, src) - tgt)))
    residual = _worst(-psd_margin, recon)
    details = {"choi_min_eig": psd_margin, "kraus_count": len(v)}
    ok = residual < tolerances.ACCEPT_RESIDUAL
    return CertificateCheck("relaxation_feasible", ok, residual, details)


def check_relaxation_infeasible(
    src: np.ndarray, tgt: np.ndarray, y: np.ndarray
) -> CertificateCheck:
    """Farkas matrices Y_i with gap = sum_i <Y_i, N_i> above
    FARKAS_GAP_LIMIT * sum_i |Y_i|_F |N_i|_F, so that it is not
    cancellation, and lambda_max(sum_i M_i^T (x) Y_i) <= FARKAS_TOL * gap;
    the residual is max(lambda_max, 0) / gap, with that size in the details."""
    r, t = src.shape[-1], tgt.shape[-1]
    gap = float(np.einsum("ixy,ixy->", y.conj(), tgt).real)
    size = float(np.linalg.norm(y, axis=(1, 2)) @ np.linalg.norm(tgt, axis=(1, 2)))
    big = np.einsum("iba,ixy->axby", src, y).reshape(r * t, r * t)
    lam = float(_eigvalsh(big, r, t).max())
    ok = gap > tolerances.FARKAS_GAP_LIMIT * size and lam <= tolerances.FARKAS_TOL * gap
    residual = _worst(lam) / gap if gap > 0 else float("inf")
    details = {"gap": gap, "size": size, "lambda_max": lam}
    return CertificateCheck("relaxation_infeasible", ok, residual, details)


def check_essential_boundary(comps: np.ndarray, n: np.ndarray, eps: float) -> CertificateCheck:
    """Hermitian M_i = conj(N_i) with M_3 >= eps*I (up to the residual),
    tr M_3 = 1, P = (M_3 + D, M_3 - D, M_3 + S, M_3 - S) >= 0 for
    D = M_1 - M_2 and S = M_1 + M_2, and each P_k orthogonal to the
    component A_k."""
    m1, m2, m3 = np.conj(n)
    dmat, smat = m1 - m2, m1 + m2
    p = np.array([m3 + dmat, m3 - dmat, m3 + smat, m3 - smat])
    lows = np.linalg.eigvalsh(np.concatenate([p, m3[None]]))[:, 0]
    orth = np.abs(np.einsum("kxy,kyx->k", p, comps).real)
    trace_err = abs(float(np.trace(m3).real) - 1.0)
    residual = _worst(-float(lows[:4].min()), trace_err, float(orth.max()))
    margin = float(lows[4])
    ok = residual < tolerances.ACCEPT_RESIDUAL and margin >= eps - tolerances.ACCEPT_RESIDUAL
    details = {"margin": margin, "orthogonality": orth.tolist()}
    return CertificateCheck("essential_boundary", ok, residual, details)


def check_scaling_sandwich(
    gens: np.ndarray, unit: np.ndarray, nu: float, h_normal: np.ndarray, simplex: np.ndarray
) -> CertificateCheck:
    """A simplex S with nu*C ⊆ S ⊆ C on the sections about the unit, C and
    S the cones on the rows of ``gens`` and ``simplex`` with facets from
    `cone_facets`: every vertex of one section satisfies every facet row of
    the other.  A unit not strictly inside C or S, or a normal that gives
    no bounded section, is a ValueError that names the document field."""

    def facets_of(name: str, g: np.ndarray) -> np.ndarray:
        try:
            return cone_facets(g, unit)
        except ConeConstructionError as exc:
            raise ValueError(f"{name}: {exc}") from None

    facets = facets_of("cone", gens)
    # one normal and basis for both sections
    frame = section_frame(unit, h_normal)
    verts, facet_rows = section_rows(gens, unit, facets, *frame)
    facets_s = facets_of("simplex_generators", simplex)
    verts_s, facet_rows_s = section_rows(simplex, unit, facets_s, *frame)
    inside = 1.0 + verts_s @ facet_rows.T
    around = 1.0 + (nu * verts) @ facet_rows_s.T
    residual = _worst(-float(inside.min()), -float(around.min()))
    ok = residual < tolerances.ACCEPT_RESIDUAL
    return CertificateCheck("scaling_sandwich", ok, residual, {"nu": nu})


# -- validation of documents -------------------------------------------------


def verify_certificate(doc: dict) -> CertificateCheck:
    """Parse a certificate document (bare, or under "certificate" of a
    document or of a full CLI output's "result"), check its shapes and run
    the acceptance test of its kind; a malformed document raises a
    ValueError that names the field."""
    if isinstance(doc, dict) and isinstance(doc.get("result"), dict):
        doc = doc["result"]
    if isinstance(doc, dict) and "certificate" in doc and "kind" not in doc:
        doc = doc["certificate"]
    if not isinstance(doc, dict):
        raise ValueError("certificate must be a JSON object")
    if "kind" not in doc and "status" in doc:
        raise ValueError(f"the document holds no certificate (status {doc['status']!r})")
    kind = doc.get("kind")
    handlers = {
        "relaxation_feasible": _verify_relaxation,
        "relaxation_infeasible": _verify_relaxation,
        "min_membership_member": _verify_membership,
        "min_membership_separator": _verify_membership,
        "essential_boundary": _verify_essential_boundary,
        "scaling_sandwich": _verify_sandwich,
    }
    if not isinstance(kind, str) or kind not in handlers:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return handlers[kind](doc)


def _parsed(doc: dict, name: str, parse=lambda v: v):
    """``parse(doc[name])``, with the field named in its error."""
    if name not in doc:
        raise ValueError(f"certificate missing field {name!r}")
    try:
        return parse(doc[name])
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _stack(mats, count: int, size=None) -> np.ndarray:
    """The (count, size, size) stack of a list of matrix literals; with no
    ``size``, the size of the first."""
    if not isinstance(mats, list) or len(mats) != count:
        raise ValueError(f"expected a list of {count} matrices")
    return stack_from_json(mats, size)


def _verify_relaxation(doc) -> CertificateCheck:
    """Either relaxation kind, with max|sum_i u_i M_i - I| of each pencil."""
    src, su = _parsed(doc, "src", lambda v: stack_document(v, "pencil"))
    tgt, tu = _parsed(doc, "tgt", lambda v: stack_document(v, "pencil"))
    if len(tgt) != len(src):
        raise ValueError(f"tgt: {len(tgt)} matrices for a source with {len(src)}")
    r, t = src.shape[-1], tgt.shape[-1]
    if doc["kind"] == "relaxation_infeasible":
        y = _parsed(doc, "y_matrices", lambda v: _stack(v, len(tgt), t))
        check = check_relaxation_infeasible(src, tgt, y)
    else:
        choi = _parsed(doc, "choi", lambda m: _stack([m], 1, r * t)[0])
        kraus = _kraus_from_json(_parsed(doc, "kraus"))
        if kraus and kraus[0].shape != (r, t):
            raise ValueError(f"kraus: expected {r} x {t} operators, got {kraus[0].shape}")
        check = check_relaxation_feasible(src, tgt, choi, kraus)
    drift = {k: float(np.abs(u @ m.reshape(len(u), -1) - np.eye(m.shape[-1]).ravel()).max())
             for k, m, u in (("src", src, su), ("tgt", tgt, tu))}
    return replace(check, details={**check.details, "unit_drift": drift})


def _spanning_cone(obj) -> tuple[np.ndarray, np.ndarray]:
    """The generators and unit of a cone document (`cone_arrays`), the
    generators spanning R^d (`spanning`)."""
    gens, unit = cone_arrays(obj)
    return spanning(gens, len(unit)), unit


def _verify_membership(doc) -> CertificateCheck:
    """Either smallest-system kind, on the cone's generators and unit."""
    gens, unit = _parsed(doc, "cone", _spanning_cone)
    query = _parsed(doc, "query", lambda v: stack_document(v, "tuple")[0])
    if len(query) != len(unit):
        raise ValueError(f"query: {len(query)} entries for a cone of dimension {len(unit)}")
    s = query.shape[-1]
    if doc["kind"] == "min_membership_member":
        weights = _parsed(doc, "weights", lambda v: _stack(v, len(gens), s))
        return check_min_member(gens, query, weights)
    n = _parsed(doc, "n_matrices", lambda v: _stack(v, len(unit), s))
    return check_separator(gens, unit, query, n)


def _verify_essential_boundary(doc) -> CertificateCheck:
    comps = _parsed(doc, "components", lambda v: _stack(v, 4))
    n = _parsed(doc, "n_matrices", lambda v: _stack(v, 3, comps.shape[-1]))
    eps = _parsed(doc, "eps", lambda v: float(finite_from_json(v, shape=())))
    return check_essential_boundary(comps, n, eps)


def _simplex(gens: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """``gens``, d rows of length d that span R^d."""
    if gens.shape != (len(unit),) * 2:
        raise ValueError(f"expected {len(unit)} generators of length {len(unit)}, got {gens.shape}")
    return spanning(gens, len(unit))


def _verify_sandwich(doc) -> CertificateCheck:
    gens, unit = _parsed(doc, "cone", _spanning_cone)
    nu = _parsed(doc, "nu", lambda v: float(finite_from_json(v, shape=())))
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu: {nu!r} is not in (0, 1]")
    h_normal = _parsed(doc, "h_normal", lambda v: finite_from_json(v, shape=(len(unit),)))
    simplex = _parsed(doc, "simplex_generators", lambda g: _simplex(finite_from_json(g), unit))
    return check_scaling_sandwich(gens, unit, nu, h_normal, simplex)
