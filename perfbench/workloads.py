"""Seeded instance lists, the per-instance work, and the correctness gate.

Each workload turns a seed into a fixed list of instances and runs one
instance as a user of the matching CLI subcommand would: decide it, build
its certificate and re-verify that certificate.  The library receives only
the generated inputs; what is known about an instance by construction stays
in ``Instance.expect`` and is read by ``gate`` alone.

Instance kinds cycle in a fixed pattern, so every prefix of a list holds
each kind in nearly equal shares; a run that stops early or late still
measures the same mix.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from freespec import certificates, cones, containment, linalg, opsys, pencil, sampling
from freespec.linalg import SIGMA_X, SIGMA_Z, HermitianMatrix
from freespec.pencil import MatrixTuple

# Enough instances that a run at the rates measured on a 2-core host does
# not wrap around its list; wrapping is harmless, it only repeats inputs.
LIST_LENGTH = {"membership": 960, "inclusion": 720, "thresholds": 300, "scaling": 45}

SCALING_VERIFY_SAMPLES = 2
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
LAMBDA_ORDER_TOL = 1e-9
SIGMA_PAIR_LAMBDA2 = 1.25
SIGMA_PAIR_TOL = 1e-6


@dataclass(frozen=True)
class Instance:
    index: int
    kind: str
    args: tuple
    # answer known by construction, read only by the gate
    expect: Optional[str] = None


@dataclass
class Outcome:
    verdict: str
    definitive: bool
    cert: Optional[dict] = None
    values: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Input generation
# --------------------------------------------------------------------------


def regular_polygon_cone(k: int, rotation: float) -> cones.PolyhedralCone:
    """Cone over a regular k-gon on the unit circle, unit e_3."""
    ang = rotation + 2.0 * math.pi * np.arange(k) / k
    gens = np.column_stack([np.cos(ang), np.sin(ang), np.ones(k)])
    return cones.PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.0, 1.0]))


def _rescaled(a: MatrixTuple, factor: float) -> MatrixTuple:
    return MatrixTuple(tuple(HermitianMatrix(factor * e.mat) for e in a.entries))


def _membership_list(rng: np.random.Generator, n: int) -> list[Instance]:
    square = cones.square_cone()
    phase = rng.uniform()
    out = []
    for i in range(n):
        shape = ("simplex", "square", "polygon")[i % 3]
        s = 2 + (i // 3) % 2
        member = (i // 6) % 2 == 0
        size = i // 12
        if shape == "simplex":
            cone = sampling.random_simplex_cone(rng, 2 + size % 3)
        elif shape == "square":
            cone = square
        else:
            cone = regular_polygon_cone(5 + size % 4, rng.uniform(0, 2 * math.pi))
        if member:
            query = sampling.random_min_member(rng, cone, s)
        elif shape == "simplex":
            # the unit of a random simplex cone is not e_d, which
            # random_max_tuple needs; a random tuple is the other half
            query = MatrixTuple(tuple(linalg.random_hermitian(rng, s) for _ in range(cone.dim)))
        else:
            query = containment.random_max_tuple(cone, s, rng)
        kind = f"{shape}-s{s}-{'member' if member else 'query'}"
        if i % 5 == 4:
            # exponents uniform on (-6, 6), spread evenly over any stretch of
            # the list by a golden-ratio sequence from a random start, so
            # that every run meets the scale defect at tiny scales equally
            exponent = -6.0 + 12.0 * ((phase + (i // 5) * GOLDEN) % 1.0)
            query = _rescaled(query, 10.0 ** exponent)
            kind += "-rescaled"
        out.append(Instance(i, kind, (cone, query), "Member" if member else None))
    return out


def _inclusion_list(rng: np.random.Generator, n: int) -> list[Instance]:
    out = []
    for i in range(n):
        family = i % 3
        j = i // 3
        # sizes cycle through every combination rather than being drawn, so
        # the few large relaxations come in the same share in every run
        t = 2 + j % 5
        if family == 0:
            cone = sampling.random_simplex_cone(rng, 2 + (j // 5) % 3)
            tgt = sampling.random_target_for_simplex(rng, cone, t)
            out.append(Instance(i, f"simplex-d{cone.dim}-t{t}", (cone, tgt), "Feasible"))
        elif family == 1:
            k = 4 + (j // 5) % 5
            cone = regular_polygon_cone(k, rng.uniform(0, 2 * math.pi))
            tgt = sampling.random_commuting_target(rng, cone, t)
            out.append(Instance(i, f"polygon-k{k}-t{t}", (cone, tgt), "Feasible"))
        else:
            k = 4 + j % 3
            alpha = rng.uniform(0.2, math.pi / 2 - 0.2)
            tgt = pencil.elliptic_cone_pencil(alpha)
            if k == 4:
                out.append(Instance(i, "square-elliptic", (cones.square_cone(), tgt),
                                    "Infeasible+witness"))
            else:
                cone = regular_polygon_cone(k, rng.uniform(0, 2 * math.pi))
                out.append(Instance(i, f"polygon-k{k}-elliptic", (cone, tgt)))
    return out


def _thresholds_list(rng: np.random.Generator, n: int) -> list[Instance]:
    out = [Instance(0, "sigma-pair", (SIGMA_X, SIGMA_Z), "sigma-pair")]
    for i in range(1, n):
        s = 3 if i % 20 == 19 else 2
        pair = (linalg.random_hermitian(rng, s), linalg.random_hermitian(rng, s))
        out.append(Instance(i, f"random-s{s}", pair))
    return out


def _scaling_list(rng: np.random.Generator, n: int) -> list[Instance]:
    out = []
    for i in range(n):
        k = 4 + i % 3
        cone = regular_polygon_cone(k, rng.uniform(0, 2 * math.pi))
        # the CLI's default section normal
        out.append(Instance(i, f"polygon-k{k}", (cone, cone.facets.mean(axis=0))))
    return out


_GENERATORS = {
    "membership": _membership_list,
    "inclusion": _inclusion_list,
    "thresholds": _thresholds_list,
    "scaling": _scaling_list,
}


def generate(workload: str, seed: int, n: Optional[int] = None) -> list[Instance]:
    """The instance list of a workload; the same seed gives the same list."""
    rng = np.random.default_rng([seed, sorted(_GENERATORS).index(workload)])
    return _GENERATORS[workload](rng, LIST_LENGTH[workload] if n is None else n)


def _feed(h, obj) -> None:
    if isinstance(obj, (HermitianMatrix, np.ndarray)):
        a = np.ascontiguousarray(np.asarray(obj))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    elif isinstance(obj, MatrixTuple):
        for e in obj.entries:
            _feed(h, e)
    elif isinstance(obj, cones.PolyhedralCone):
        _feed(h, obj.generators)
        _feed(h, obj.unit)
    elif isinstance(obj, pencil.LinearPencil):
        for m in obj.matrices:
            _feed(h, m)
        _feed(h, obj.unit)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def input_digest(instances: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.kind.encode())
        for a in inst.args:
            _feed(h, a)
    return h.hexdigest()


# --------------------------------------------------------------------------
# Per-instance work: decide, build the certificate, re-verify it
# --------------------------------------------------------------------------


def _checked(verdict: str, doc: dict, values: Optional[dict] = None) -> Outcome:
    # the re-check a user runs, timed with the instance; the gate repeats it
    # untimed and acts on its result
    certificates.verify_certificate(doc)
    return Outcome(verdict, True, doc, values or {})


def run_membership(inst: Instance) -> Outcome:
    cone, query = inst.args
    res = opsys.min_membership(cone, query)
    if res.status is opsys.MinMembershipStatus.MEMBER:
        return _checked("Member", certificates.min_member_cert(cone, query, res.certificate))
    if res.status is opsys.MinMembershipStatus.NOT_MEMBER:
        return _checked("NotMember", certificates.separator_cert(cone, query, res.separator))
    return Outcome(f"Unknown: {res.message}", False)


def run_inclusion(inst: Instance) -> Outcome:
    src, tgt = inst.args
    verdict = containment.check_inclusion(src, tgt)
    rel = verdict.relaxation
    values = {"scalar_holds": verdict.scalar.holds, "witness": verdict.free_witness is not None}
    label = f"{rel.status.value}{'+witness' if values['witness'] else ''}"
    if rel.status is containment.RelaxationStatus.FEASIBLE:
        doc = certificates.relaxation_feasible_cert(
            pencil.diagonal_pencil(src), tgt, rel.certificate)
        return _checked(label, doc, values)
    if rel.status is containment.RelaxationStatus.INFEASIBLE:
        doc = certificates.relaxation_infeasible_cert(pencil.diagonal_pencil(src), tgt, rel.farkas)
        return _checked(label, doc, values)
    return Outcome(f"Unknown: {rel.message}", False, None, values)


def run_thresholds(inst: Instance) -> Outcome:
    m, n = inst.args
    lam1 = opsys.lambda1_block(m, n)
    lam2 = opsys.lambda2_products(m, n).value
    finite = math.isfinite(lam1) and math.isfinite(lam2)
    return Outcome(f"{lam1!r} {lam2!r}", finite, None, {"lambda1": lam1, "lambda2": lam2})


def run_scaling(inst: Instance) -> Outcome:
    cone, normal = inst.args
    rep = containment.scaling_bound(cone, normal, verify_samples=SCALING_VERIFY_SAMPLES)
    members = ",".join(f"{k}={v['members']}" for k, v in sorted((rep.sampling or {}).items()))
    label = f"nu={rep.certified_nu!r} {members}"
    if rep.certificate is None:
        return Outcome(f"Unknown: no sandwich certificate; {label}", False)
    doc = certificates.sandwich_cert(cone, rep.certified_nu, normal, rep.certificate)
    return _checked(label, doc)


RUNNERS: dict[str, Callable[[Instance], Outcome]] = {
    "membership": run_membership,
    "inclusion": run_inclusion,
    "thresholds": run_thresholds,
    "scaling": run_scaling,
}


def run_instance(workload: str, inst: Instance) -> Outcome:
    """One instance; an exception is an answer that is not definitive."""
    try:
        return RUNNERS[workload](inst)
    except Exception as exc:  # noqa: BLE001 - counted, never retried
        return Outcome(f"Error: {type(exc).__name__}: {exc}", False)


# --------------------------------------------------------------------------
# Correctness gate (runs outside the timed window and outside traced spans)
# --------------------------------------------------------------------------


def gate(inst: Instance, out: Outcome) -> list[str]:
    """Problems with one outcome: a rejected certificate or a wrong answer.

    Every definitive answer with a certificate is verified again here, from
    the certificate document alone.  An answer that is not definitive is
    never wrong; it counts towards the unknown fraction instead.
    """
    problems = []
    if out.cert is not None:
        check = certificates.verify_certificate(out.cert)
        if not check.ok:
            problems.append(f"certificate {check.kind} rejected (residual {check.residual:.3e})")
    if not out.definitive:
        return problems
    exp = inst.expect
    if exp in ("Member", "Feasible") and out.verdict != exp:
        problems.append(f"expected {exp}, got {out.verdict}")
    if exp == "Feasible" and not out.values.get("scalar_holds"):
        problems.append("scalar inclusion fails on a by-construction inclusion")
    if exp == "Infeasible+witness" and out.verdict != "Infeasible+witness":
        problems.append(f"expected Infeasible with a level-2 witness, got {out.verdict}")
    if "lambda1" in out.values:
        lam1, lam2 = out.values["lambda1"], out.values["lambda2"]
        if lam2 > lam1 + LAMBDA_ORDER_TOL:
            problems.append(f"lambda2 {lam2!r} exceeds lambda1 {lam1!r}")
        if exp == "sigma-pair" and abs(lam2 - SIGMA_PAIR_LAMBDA2) > SIGMA_PAIR_TOL:
            problems.append(f"lambda2(sigma_x, sigma_z) = {lam2!r}, expected 1.25")
    return problems


_NUMBER = re.compile(r"[-+]?\d+(\.\d+)?([eE][-+]?\d+)?")


def unknown_group(verdict: str) -> str:
    """An Unknown or Error verdict with its numbers masked, for grouping."""
    return _NUMBER.sub("#", verdict)
