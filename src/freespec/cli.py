"""Command-line front end.

Subcommands cover the full pipeline: scalar inclusion plus matricial
relaxation (`check-inclusion`), the relaxation alone (`relaxation`),
smallest/largest-system membership, the essential-boundary test for the
square cone, scaling bounds, the positivity-threshold pair (`comei`),
witness construction, the entanglement demo, and certificate re-validation
(`verify`).

Exit codes: 0 for a definitive answer, 2 for Unknown/NumericalFailure,
1 for usage or input errors.  Output is human-readable by default and a
versioned JSON document with --output json; with a fixed --seed the JSON
output is byte-identical across runs on the same platform.  The only
environment variable consulted is FREESPEC_LOG (logging verbosity).
There is no tolerance option: every decision band is a constant of
freespec.tolerances, among them BOUNDARY_TOL (absolute, on eigenvalues)
and TOL (relative).
"""

from __future__ import annotations

import argparse
import ast
import itertools
import json
import logging
import math
import operator
import os
import re
import sys
from typing import Optional

import numpy as np

from . import __version__, certificates, containment, cones, linalg, opsys, pencil, sdp

logger = logging.getLogger("freespec")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2

SCHEMA_VERSION = 1


class CliError(Exception):
    """Usage or input error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 1
        raise CliError(message)


# -- angle and ratio expressions ---------------------------------------------

_EXPRESSION_CHARS = frozenset("0123456789.eE+-*/()pi")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv}


def parse_expression(text: str) -> float:
    """The value of ``text``: numbers (zero-padded too), ``pi``, ``+ - * /``,
    unary minus and parentheses, with Python's precedence and float
    arithmetic."""
    bad = [ch for ch in text if ch not in _EXPRESSION_CHARS and not ch.isspace()]
    if bad:
        raise CliError(f"bad character {bad[0]!r} in expression {text!r}")
    # Python rejects indentation, line breaks and zero-padded integers
    src = re.sub(r"(?<![\w.])0+([0-9]+)(?![\w.])", r"\1", " ".join(text.split()))

    def value(node) -> float:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(src[node.col_offset:node.end_col_offset])
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            lhs, rhs = value(node.left), value(node.right)
            if isinstance(node.op, ast.Div) and rhs == 0.0:
                raise CliError(f"division by zero in expression {text!r}")
            return _BINARY[type(node.op)](lhs, rhs)
        raise CliError(f"unsupported term in expression {text!r}")

    try:
        return value(ast.parse(src, mode="eval").body)
    except SyntaxError:
        raise CliError(f"malformed expression {text!r}") from None
    except (RecursionError, MemoryError):  # past the depth Python parses
        raise CliError(f"expression too deeply nested: {text!r}") from None


# -- input loading -----------------------------------------------------------


def _read(spec: str, parse):
    """``parse`` of the JSON document in the file ``spec``; a file that
    cannot be read or decoded, and a ValueError ``parse`` raises (a cone's
    ConeConstructionError too), become a CliError that names the file."""
    try:
        with open(spec, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"file not found: {spec}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{spec}: malformed JSON at line {exc.lineno} column {exc.colno}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{spec}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except OSError as exc:
        raise CliError(f"{spec}: cannot read: {exc.strerror or exc}")
    try:
        return parse(doc)
    except ValueError as exc:
        raise CliError(f"{spec}: {exc}")


def load_cone_arg(spec: str) -> cones.PolyhedralCone:
    if spec == "square":
        return cones.square_cone()
    return _read(spec, cones.cone_from_json)


def load_pencil_arg(spec: str, alpha: Optional[float]) -> pencil.LinearPencil:
    builtin = {
        "circular": pencil.circular_cone_pencil,
        "square-diag": lambda: pencil.diagonal_pencil(cones.square_cone()),
    }
    if spec in builtin:
        return builtin[spec]()
    if spec in ("calpha", "elliptic"):
        if alpha is None:
            raise CliError(f"target {spec!r} requires --alpha")
        return pencil.elliptic_cone_pencil(alpha)
    return _read(spec, pencil.pencil_from_json)


def load_matrix_arg(spec: str) -> np.ndarray:
    return _read(spec, lambda doc: linalg.matrix_from_json(
        doc["matrix"] if isinstance(doc, dict) and "matrix" in doc else doc))


def _components(doc) -> list:
    if not (isinstance(doc, list) and len(doc) == 4):
        raise ValueError("expected a JSON array of four matrices")
    return [linalg.matrix_from_json(m) for m in doc]


# -- reporting ----------------------------------------------------------------


class Report:
    def __init__(self, command: str, output: str, seed: int):
        self.command = command
        self.output = output
        self.seed = seed
        self.lines: list[str] = []
        self.data: dict = {}
        self.exit_code = EXIT_OK

    def say(self, line: str) -> None:
        self.lines.append(line)

    def put(self, key: str, value) -> None:
        self.data[key] = value

    def render(self) -> str:
        if self.output == "json":
            doc = {
                "schema_version": SCHEMA_VERSION,
                "command": self.command,
                "seed": self.seed,
                "result": self.data,
            }
            return json.dumps(doc, sort_keys=True, indent=1)
        return "\n".join(self.lines)


def _json_safe(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


# -- subcommand implementations ------------------------------------------------


def _report_relaxation(rep: Report, src, tgt, rel) -> None:
    """The certificate and its summary line, or the Unknown exit code."""
    if rel.status is containment.RelaxationStatus.FEASIBLE:
        rep.put("certificate", certificates.relaxation_feasible_cert(src, tgt, rel.certificate))
        rep.say(f"  Kraus rank {len(rel.certificate.kraus)}, residual {rel.certificate.residual:.3e}")
    elif rel.status is containment.RelaxationStatus.INFEASIBLE:
        rep.put("certificate", certificates.relaxation_infeasible_cert(src, tgt, rel.farkas))
        rep.say(f"  Farkas gap {rel.farkas.gap:.6f}, lambda_max {rel.farkas.lambda_max:.3e}")
    else:
        rep.exit_code = EXIT_UNKNOWN


def _dump(args, build, *inputs) -> None:
    """With ``--dump-sdp``, the SDP that ``build`` makes of the inputs,
    written before the decision runs."""
    if args.dump_sdp:
        sdp.dump_problem(build(*inputs), args.dump_sdp)


def _cmd_check_inclusion(args, rep: Report) -> None:
    src = load_cone_arg(args.src)
    alpha = parse_expression(args.alpha) if args.alpha else None
    tgt = load_pencil_arg(args.tgt, alpha)
    diag = pencil.diagonal_pencil(src)
    _dump(args, containment.relaxation_sdp, diag, tgt)
    verdict = containment.check_inclusion(src, tgt)
    scal = verdict.scalar
    rel = verdict.relaxation
    rep.put("scalar", {
        "holds": scal.holds,
        "margins": [float(m) for m in scal.margins],
        "witness_ray": _json_safe(scal.witness_ray),
    })
    rep.put("relaxation", {"status": rel.status.value})
    rep.say(f"scalar inclusion: {'Holds' if scal.holds else 'Fails'}")
    if not scal.holds:
        rep.say(f"  violating ray {scal.witness_ray} margin {scal.witness_margin:.6e}")
    rep.say(f"matricial relaxation: {rel.status.value}")
    _report_relaxation(rep, diag, tgt, rel)
    if verdict.free_witness is not None:
        fw = verdict.free_witness
        rep.put("free_witness", {
            "level": fw.level,
            "tuple": pencil.tuple_to_json(fw.tuple),
            "source_margin": fw.source_margin,
            "target_margin": fw.target_margin,
        })
        rep.say(f"free witness at level {fw.level}: target margin {fw.target_margin:.6f}")


def _cmd_relaxation(args, rep: Report) -> None:
    alpha = parse_expression(args.alpha) if args.alpha else None
    src = load_pencil_arg(args.src, alpha)
    tgt = load_pencil_arg(args.tgt, alpha)
    _dump(args, containment.relaxation_sdp, src, tgt)
    rel = containment.relaxation(src, tgt)
    rep.put("status", rel.status.value)
    rep.say(f"relaxation: {rel.status.value}")
    _report_relaxation(rep, src, tgt, rel)
    if rep.exit_code == EXIT_UNKNOWN:
        rep.say(f"  {rel.message}")


def _cmd_min_membership(args, rep: Report) -> None:
    cone = load_cone_arg(args.cone)
    query = _read(args.tuple, pencil.tuple_from_json)
    _dump(args, opsys.margin_sdp, cone.generators, query.stack, cone.facets.sum(axis=0))
    res = opsys.min_membership(cone, query)
    rep.put("status", res.status.value)
    rep.say(f"smallest-system membership: {res.status.value}")
    if res.status is opsys.MinMembershipStatus.MEMBER:
        rep.put("certificate", certificates.min_member_cert(cone, query, res.certificate))
        rep.say(f"  residual {res.certificate.residual:.3e}")
    elif res.status is opsys.MinMembershipStatus.NOT_MEMBER:
        rep.put("certificate", certificates.separator_cert(cone, query, res.separator))
        rep.say(
            f"  separator margin {res.separator.margin:.6e}, "
            f"phi(query) = {res.separator.evaluate(query):.6f}"
        )
    else:
        rep.exit_code = EXIT_UNKNOWN
        rep.say(f"  {res.message}")


def _cmd_max_membership(args, rep: Report) -> None:
    cone = load_cone_arg(args.cone)
    query = _read(args.tuple, pencil.tuple_from_json)
    res = opsys.max_membership(cone, query)
    rep.put("classification", res.classification.value)
    rep.put("margin", res.margin)
    rep.put("worst_facet", res.worst_facet)
    rep.say(
        f"largest-system membership: {res.classification.value} "
        f"(margin {res.margin:.6e}, worst facet {res.worst_facet})"
    )


def _cmd_essential_boundary(args, rep: Report) -> None:
    comps = _read(args.components, _components)
    _dump(args, opsys.essential_boundary_sdp, comps, args.epsilon)
    res = opsys.essential_boundary_square(comps, eps=args.epsilon)
    rep.put("status", res.status.value)
    rep.say(f"essential boundary: {res.status.value}")
    if res.status is opsys.EssentialBoundaryStatus.IN_ESSENTIAL_BOUNDARY:
        rep.put("certificate", certificates.essential_boundary_cert(comps, res.functional, args.epsilon))
        rep.say(f"  strictness margin {res.functional.margin:.6e}")
    elif res.status is opsys.EssentialBoundaryStatus.UNKNOWN:
        rep.exit_code = EXIT_UNKNOWN
        rep.say(f"  {res.message}")


def _cmd_scaling_bound(args, rep: Report) -> None:
    cone = load_cone_arg(args.cone)
    normal = (
        np.array([float(x) for x in args.normal.split(",")])
        if args.normal
        else cone.facets.mean(axis=0)
    )
    report = containment.scaling_bound(
        cone, normal, verify_samples=args.samples, seed=args.seed
    )
    rep.put("nu_general", report.nu_general)
    rep.put("nu_symmetric", report.nu_symmetric)
    rep.put("certified_nu", report.certified_nu)
    rep.say(f"nu_general = {report.nu_general}")
    rep.say(f"nu_symmetric = {report.nu_symmetric}")
    rep.say(f"certified_nu = {report.certified_nu} (sandwich simplex)")
    if report.certificate is not None:
        rep.put("certificate", certificates.sandwich_cert(
            cone, report.certified_nu, normal, report.certificate))
    if report.sampling is not None:
        rep.put("sampling", report.sampling)
        for label, info in report.sampling.items():
            rep.say(f"sampling {label}: {info['members']}/{info['samples']} members at nu={info['nu']}")


def _cmd_comei(args, rep: Report) -> None:
    m = load_matrix_arg(args.M)
    n = load_matrix_arg(args.N)
    lam1 = opsys.lambda1_block(m, n)
    lam2 = opsys.lambda2_products(m, n)
    rep.put("lambda1", lam1)
    rep.put("lambda2", lam2.value)
    rep.put("lambda2_upper", lam2.upper)
    rm, rn = opsys.common_eigenvector_residual(m, n, lam2.argmax)
    rep.put("common_eigenvector_residual", [rm, rn])
    rep.say(f"lambda1 = {lam1!r}")
    rep.say(f"lambda2 = {lam2.value!r}")
    rep.say(f"argmax residuals: ||Mv-(v*Mv)v|| = {rm:.3e}, ||Nv-(v*Nv)v|| = {rn:.3e}")


def _cmd_witness(args, rep: Report) -> None:
    if args.target != "square":
        raise CliError(f"unknown witness target {args.target!r} (expected 'square')")
    alpha = parse_expression(args.alpha)
    fw = containment.free_witness_square(alpha)
    pw = opsys.pauli_witness(alpha)
    sq = cones.square_cone()
    mem = opsys.min_membership(sq, pw.tuple)
    rep.put("alpha", alpha)
    rep.put("free_witness", {
        "tuple": pencil.tuple_to_json(fw.tuple),
        "source_margin": fw.source_margin,
        "target_margin": fw.target_margin,
    })
    rep.put("pauli_witness", {
        "tuple": pencil.tuple_to_json(pw.tuple),
        "components": [linalg.matrix_to_json(c) for c in pw.components],
        "membership": mem.status.value,
    })
    if mem.certificate is not None:
        rep.put("certificate", certificates.min_member_cert(sq, pw.tuple, mem.certificate))
    # boundary of the elliptic target section at c = 1 (in place of a plot)
    ts = [2.0 * math.pi * k / 16 for k in range(16)]
    boundary = [
        [math.cos(t) / math.sin(alpha), math.sin(t) / math.cos(alpha)] for t in ts
    ]
    rep.put("target_section_boundary", boundary)
    rep.say(f"free witness (sigma_z, sigma_x, I): target margin {fw.target_margin!r}")
    rep.say(f"  expected 1 - sin(a) - cos(a) = {1 - math.sin(alpha) - math.cos(alpha)!r}")
    rep.say(f"pauli witness: smallest-system membership {mem.status.value}")
    rep.say("elliptic target section boundary (a, b) at c = 1:")
    for pt in boundary[:8]:
        mirror = [-pt[0], -pt[1]]
        rep.say(f"  ({pt[0]:+8.4f}, {pt[1]:+8.4f})   ({mirror[0]:+8.4f}, {mirror[1]:+8.4f})")


def _cmd_entangled_demo(args, rep: Report) -> None:
    report = containment.entangled_example()
    rep.put("identity_residual", report.identity_residual)
    rep.put("pt_min_eig", report.pt_min_eig)
    rep.put("pt_min_eig_normalized", report.pt_min_eig_normalized)
    rep.put("entangled", report.entangled)
    rep.put("conclusion", report.conclusion)
    rep.say("2X = L(sigma_z, sigma_x, sigma_y, I) with residual "
            f"{report.identity_residual!r}")
    rep.say(f"partial transpose min eigenvalue: {report.pt_min_eig!r} "
            f"({report.pt_min_eig_normalized!r} for the normalized projection)")
    rep.say(report.conclusion)


def _cmd_verify(args, rep: Report) -> None:
    check = certificates.verify_certificate(_read(args.certificate, lambda doc: doc))
    rep.put("kind", check.kind)
    rep.put("ok", check.ok)
    rep.put("residual", check.residual)
    rep.put("details", {k: _json_safe(v) for k, v in check.details.items()})
    rep.say(f"certificate kind: {check.kind}")
    rep.say(f"residual: {check.residual:.3e}")
    rep.say("VALID" if check.ok else "INVALID")
    if not check.ok:
        rep.exit_code = EXIT_UNKNOWN


# -- argument parsing ----------------------------------------------------------


# the global flags, which are also accepted after the subcommand
_GLOBAL_FLAGS = _Parser(prog="freespec", add_help=False)
_GLOBAL_FLAGS.add_argument("--output", choices=("human", "json"), default=argparse.SUPPRESS)
_GLOBAL_FLAGS.add_argument("--seed", type=int, default=argparse.SUPPRESS)


def build_parser() -> _Parser:
    p = _Parser(prog="freespec", description=__doc__)
    p.add_argument("--version", action="version", version=f"freespec {__version__}")
    p.add_argument("--output", choices=("human", "json"), default="human")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices  # the subcommand names, for _parse_args

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, parents=[_GLOBAL_FLAGS], **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("check-inclusion", _cmd_check_inclusion,
             help="scalar inclusion plus matricial relaxation")
    sp.add_argument("--src", required=True, help="cone JSON file or 'square'")
    sp.add_argument("--tgt", required=True,
                    help="pencil JSON file or builtin: calpha/elliptic, circular, square-diag")
    sp.add_argument("--alpha", help="angle expression for the calpha target, e.g. pi/4")
    sp.add_argument("--dump-sdp", help="write the relaxation's SDP, the margin SDP over the "
                    "source's facets, to this path")

    sp = add("relaxation", _cmd_relaxation, help="matricial relaxation between two pencils")
    sp.add_argument("--src", required=True)
    sp.add_argument("--tgt", required=True)
    sp.add_argument("--alpha")
    sp.add_argument("--dump-sdp")

    sp = add("min-membership", _cmd_min_membership, help="smallest-system membership")
    sp.add_argument("--cone", required=True)
    sp.add_argument("--tuple", required=True)
    sp.add_argument("--dump-sdp")

    sp = add("max-membership", _cmd_max_membership, help="largest-system membership")
    sp.add_argument("--cone", required=True)
    sp.add_argument("--tuple", required=True)

    sp = add("essential-boundary", _cmd_essential_boundary,
             help="essential-boundary test over the square cone")
    sp.add_argument("--components", required=True,
                    help="JSON file with an array of four PSD matrices")
    sp.add_argument("--epsilon", type=float, default=opsys.STRICTNESS_EPS)
    sp.add_argument("--dump-sdp")

    sp = add("scaling-bound", _cmd_scaling_bound, help="scaling factors and certificates")
    sp.add_argument("--cone", required=True)
    sp.add_argument("--normal", help="comma-separated hyperplane normal")
    sp.add_argument("--samples", type=int, default=0,
                    help="level-2 sampling verification count")

    sp = add("comei", _cmd_comei, help="positivity thresholds for a Hermitian pair")
    sp.add_argument("--M", required=True, help="matrix literal JSON file")
    sp.add_argument("--N", required=True, help="matrix literal JSON file")

    sp = add("witness", _cmd_witness, help="witness constructions")
    sp.add_argument("target", help="'square'")
    sp.add_argument("--alpha", required=True, help="angle expression, e.g. pi/4")

    add("entangled-demo", _cmd_entangled_demo, help="entangled block-matrix example")

    sp = add("verify", _cmd_verify, help="re-validate an emitted certificate")
    sp.add_argument("certificate", help="certificate JSON file (or full CLI output)")

    return p


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, naming the unknown flags before the
    subcommand: argparse reads the value of one as the subcommand."""
    try:
        return parser.parse_args(argv)
    except CliError:
        head = itertools.takewhile(lambda arg: arg not in parser.commands, argv)
        unknown = _GLOBAL_FLAGS.parse_known_args(list(head))[1]
        if unknown and unknown[0].startswith("-"):
            raise CliError(f"unrecognized arguments: {' '.join(unknown)}") from None
        raise


def main(argv: Optional[list[str]] = None) -> int:
    level = os.environ.get("FREESPEC_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else argv)
        rep = Report(args.command, args.output, args.seed)
        args.fn(args, rep)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(rep.render())
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())
