"""Serializable certificates and their independent re-validation.

Every certificate-producing operation can emit a self-contained JSON
document (matrices in the shared literal format); `verify_certificate`
re-checks the claimed properties using only eigenvalue computations and
returns the worst residual.  A certificate is accepted when the residual
is below `opsys.ACCEPT_RESIDUAL` (1e-6); the producers test their answers
against the same limits before emitting them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, sdp
from .cones import PolyhedralCone, SimplexCone, cone_from_json, cone_to_json, section_of
from .containment import (
    RelaxationCertificate,
    RelaxationFarkas,
    apply_kraus,
)
from .linalg import HermitianMatrix, matrix_from_json, matrix_to_json
from .opsys import (
    ACCEPT_RESIDUAL,
    SEPARATOR_PHI_LIMIT,
    MinMembershipCertificate,
    SeparationFunctional,
)
from .pencil import (
    LinearPencil,
    MatrixTuple,
    pencil_from_json,
    pencil_to_json,
    tuple_from_json,
    tuple_to_json,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CertificateCheck:
    kind: str
    ok: bool
    residual: float
    details: dict


def _complex_mats_to_json(mats) -> list:
    return [matrix_to_json(m) for m in mats]


def _kraus_to_json(kraus) -> list:
    k = np.asarray(kraus, dtype=np.complex128)
    return np.stack([k.real, k.imag], -1).tolist()


def _kraus_from_json(obj) -> tuple[np.ndarray, ...]:
    if obj == []:
        return ()
    try:
        pairs = np.array(obj, dtype=float)
    except (TypeError, ValueError):
        pairs = np.zeros(0)
    if pairs.ndim != 4 or pairs.shape[-1] != 2:
        raise ValueError("kraus: expected a list of equal-shape matrices of [re, im] pairs")
    return tuple(pairs.view(np.complex128)[..., 0])


# -- constructors ------------------------------------------------------------


def relaxation_feasible_cert(
    src: LinearPencil, tgt: LinearPencil, cert: RelaxationCertificate
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "relaxation_feasible",
        "src": pencil_to_json(src),
        "tgt": pencil_to_json(tgt),
        "choi": matrix_to_json(cert.choi),
        "kraus": _kraus_to_json(cert.kraus),
    }


def relaxation_infeasible_cert(
    src: LinearPencil, tgt: LinearPencil, farkas: RelaxationFarkas
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "relaxation_infeasible",
        "src": pencil_to_json(src),
        "tgt": pencil_to_json(tgt),
        "y_matrices": _complex_mats_to_json(farkas.y_matrices),
    }


def min_member_cert(
    cone: PolyhedralCone, query: MatrixTuple, cert: MinMembershipCertificate
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "min_membership_member",
        "cone": cone_to_json(cone),
        "query": tuple_to_json(query),
        "weights": _complex_mats_to_json(cert.weights),
    }


def separator_cert(
    cone: PolyhedralCone, query: MatrixTuple, sep: SeparationFunctional
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "min_membership_separator",
        "cone": cone_to_json(cone),
        "query": tuple_to_json(query),
        "n_matrices": _complex_mats_to_json(sep.matrices),
        "margin": sep.margin,
    }


def essential_boundary_cert(
    components, functional: SeparationFunctional, eps: float
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "essential_boundary",
        "components": _complex_mats_to_json(components),
        "n_matrices": _complex_mats_to_json(functional.matrices),
        "eps": eps,
    }


def sandwich_cert(cone: PolyhedralCone, nu: float, h_normal, simplex) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "scaling_sandwich",
        "cone": cone_to_json(cone),
        "nu": nu,
        "h_normal": list(map(float, h_normal)),
        "simplex_generators": np.asarray(simplex.generators).tolist(),
    }


# -- validation --------------------------------------------------------------


def verify_certificate(doc: dict) -> CertificateCheck:
    if not isinstance(doc, dict):
        raise ValueError("certificate must be a JSON object")
    if "certificate" in doc and "kind" not in doc:
        doc = doc["certificate"]
    kind = doc.get("kind")
    handlers = {
        "relaxation_feasible": _check_relaxation_feasible,
        "relaxation_infeasible": _check_relaxation_infeasible,
        "min_membership_member": _check_min_member,
        "min_membership_separator": _check_separator,
        "essential_boundary": _check_essential_boundary,
        "scaling_sandwich": _check_sandwich,
    }
    if kind not in handlers:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return handlers[kind](doc)


def _check_relaxation_feasible(doc) -> CertificateCheck:
    src = pencil_from_json(doc["src"])
    tgt = pencil_from_json(doc["tgt"])
    choi = matrix_from_json(doc["choi"])
    kraus = _kraus_from_json(doc["kraus"])
    psd_margin = linalg.min_eigenvalue(choi)
    residual = max(0.0, -psd_margin)
    for i in range(src.d):
        img = apply_kraus(kraus, src.matrices[i].mat)
        residual = max(residual, float(np.max(np.abs(img.mat - tgt.matrices[i].mat))))
    return CertificateCheck(
        kind="relaxation_feasible",
        ok=residual < ACCEPT_RESIDUAL,
        residual=residual,
        details={"choi_min_eig": psd_margin, "kraus_count": len(kraus)},
    )


def _check_relaxation_infeasible(doc) -> CertificateCheck:
    src = pencil_from_json(doc["src"])
    tgt = pencil_from_json(doc["tgt"])
    ymats = [matrix_from_json(m) for m in doc["y_matrices"]]
    gap = float(sum(linalg.trace_inner(tgt.matrices[i], ymats[i]) for i in range(tgt.d)))
    big = sum(np.kron(src.matrices[i].mat.T, ymats[i].mat) for i in range(src.d))
    lam = linalg.max_eigenvalue(HermitianMatrix(big))
    ok = gap > 0 and lam <= sdp.FARKAS_TOL * gap
    residual = max(0.0, lam) / gap if gap > 0 else float("inf")
    return CertificateCheck(
        kind="relaxation_infeasible",
        ok=ok,
        residual=residual,
        details={"gap": gap, "lambda_max": lam},
    )


def _check_min_member(doc) -> CertificateCheck:
    cone = cone_from_json(doc["cone"])
    query = tuple_from_json(doc["query"])
    weights = [matrix_from_json(m) for m in doc["weights"]]
    if len(weights) != cone.n_generators:
        raise ValueError("weight count does not match generators")
    residual = max(0.0, -min(linalg.min_eigenvalue(w) for w in weights))
    for i in range(cone.dim):
        acc = sum(cone.generators[k, i] * weights[k].mat for k in range(len(weights)))
        residual = max(residual, float(np.max(np.abs(acc - query.entries[i].mat))))
    return CertificateCheck(
        kind="min_membership_member",
        ok=residual < ACCEPT_RESIDUAL,
        residual=residual,
        details={},
    )


def _check_separator(doc) -> CertificateCheck:
    cone = cone_from_json(doc["cone"])
    query = tuple_from_json(doc["query"])
    nmats = [matrix_from_json(m) for m in doc["n_matrices"]]
    # nonnegativity on the system: sum_i c_i N_i >= 0 for every generator
    worst = 0.0
    for g in cone.generators:
        acc = sum(gi * n.mat for gi, n in zip(g, nmats))
        worst = max(worst, -linalg.min_eigenvalue(HermitianMatrix(acc)))
    margin = linalg.min_eigenvalue(
        HermitianMatrix(sum(u * n.mat for u, n in zip(cone.unit, nmats)))
    )
    phi_query = float(
        sum(np.real(np.trace(np.conj(n.mat) @ e.mat)) for n, e in zip(nmats, query.entries))
    )
    ok = worst < ACCEPT_RESIDUAL and margin > 0 and phi_query < -SEPARATOR_PHI_LIMIT
    return CertificateCheck(
        kind="min_membership_separator",
        ok=ok,
        residual=worst,
        details={"margin": margin, "phi_query": phi_query},
    )


def _check_essential_boundary(doc) -> CertificateCheck:
    comps = [matrix_from_json(m) for m in doc["components"]]
    nmats = [matrix_from_json(m) for m in doc["n_matrices"]]
    eps = float(doc["eps"])
    # stored with the conjugation convention; recover M_i = conj(N_i)
    m1, m2, m3 = (np.conj(n.mat) for n in nmats)
    dmat = m1 - m2
    smat = m1 + m2
    residual = 0.0
    for sign in (1.0, -1.0):
        residual = max(residual, -linalg.min_eigenvalue(HermitianMatrix(m3 + sign * dmat)))
        residual = max(residual, -linalg.min_eigenvalue(HermitianMatrix(m3 + sign * smat)))
    residual = max(residual, abs(float(np.real(np.trace(m3))) - 1.0))
    orth = [
        abs(float(np.real(np.trace((m3 + dmat) @ comps[0].mat)))),
        abs(float(np.real(np.trace((m3 - dmat) @ comps[1].mat)))),
        abs(float(np.real(np.trace((m3 + smat) @ comps[2].mat)))),
        abs(float(np.real(np.trace((m3 - smat) @ comps[3].mat)))),
    ]
    residual = max(residual, max(orth))
    margin = linalg.min_eigenvalue(HermitianMatrix(m3))
    ok = residual < ACCEPT_RESIDUAL and margin >= eps - ACCEPT_RESIDUAL
    return CertificateCheck(
        kind="essential_boundary",
        ok=ok,
        residual=residual,
        details={"margin": margin, "orthogonality": orth},
    )


def _check_sandwich(doc) -> CertificateCheck:
    cone = cone_from_json(doc["cone"])
    nu = float(doc["nu"])
    h_normal = np.asarray(doc["h_normal"], dtype=float)
    simplex = SimplexCone(np.asarray(doc["simplex_generators"], dtype=float), cone.unit)
    sec = section_of(cone, h_normal)
    sec_s = section_of(simplex, h_normal)
    residual = 0.0
    # simplex inside the cone
    for v in sec_s.vertices:
        vals = 1.0 + sec.facet_rows @ v
        residual = max(residual, -float(vals.min()))
    # scaled cone inside the simplex
    for v in nu * sec.vertices:
        vals = 1.0 + sec_s.facet_rows @ v
        residual = max(residual, -float(vals.min()))
    return CertificateCheck(
        kind="scaling_sandwich",
        ok=residual < ACCEPT_RESIDUAL,
        residual=residual,
        details={"nu": nu},
    )
