"""CLI behaviour: parsing, exit codes, JSON output, certificate round trips."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from freespec import cli, cones, linalg, opsys, pencil, sampling, sdp
from freespec.containment import _choi_problem
from freespec.cli import EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, main, parse_expression
from freespec.linalg import SIGMA_X, SIGMA_Z

from conftest import save_cone, save_pencil, save_tuple


@pytest.fixture()
def fixtures(tmp_path):
    save_cone(cones.square_cone(), tmp_path / "square.json")
    save_pencil(pencil.elliptic_cone_pencil(math.pi / 4), tmp_path / "calpha.json")
    save_tuple(
        pencil.MatrixTuple.of(SIGMA_Z, SIGMA_X, np.eye(2)), tmp_path / "szsxi.json"
    )
    (tmp_path / "sx.json").write_text(json.dumps(linalg.matrix_to_json(SIGMA_X)))
    (tmp_path / "sz.json").write_text(json.dumps(linalg.matrix_to_json(SIGMA_Z)))
    from freespec.opsys import pauli_witness

    comps = [linalg.matrix_to_json(c) for c in pauli_witness(math.pi / 3).components]
    (tmp_path / "comps.json").write_text(json.dumps(comps))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpressionParser:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi/4", math.pi / 4),
            ("pi / 6", math.pi / 6),
            ("0.7854", 0.7854),
            ("2*pi/8", math.pi / 4),
            ("1/3", 1 / 3),
            ("pi/4 + 0", math.pi / 4),
            ("-pi/4 + pi/2", math.pi / 4),
        ],
    )
    def test_values(self, text, value):
        assert parse_expression(text) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize(
        "text,value",
        [
            (" \tpi/4\t ", math.pi / 4),
            ("07/10", 7 / 10),
            ("--1", 1.0),
            ("1/-2", 1 / -2),
            ("2*-pi", 2 * -math.pi),
            ("1e-3*pi", 1e-3 * math.pi),
            ("-0.0", -0.0),
            ("1e400", math.inf),
        ],
    )
    def test_values_are_python_floats(self, text, value):
        got = parse_expression(text)
        assert got == value and math.copysign(1.0, got) == math.copysign(1.0, value)

    @pytest.mark.parametrize(
        "text", ["0x10", "1_0", "1j", "+1", "2**2", "2//2", "pi(1)", "tau", "1 2", "...", "", "1e"]
    )
    def test_rejected(self, text):
        with pytest.raises(cli.CliError, match="expression"):
            parse_expression(text)

    def test_bad_token(self):
        with pytest.raises(cli.CliError):
            parse_expression("pi/4; rm -rf")

    def test_unknown_identifier(self):
        with pytest.raises(cli.CliError):
            parse_expression("tau/2")


class TestParseInputs:
    def test_square_fixture(self, fixtures):
        cone = cli.load_cone_arg(str(fixtures / "square.json"))
        assert cone.n_generators == 4
        assert np.array_equal(cone.generators[0], [1.0, -1.0, 1.0])

    def test_pencil_unit_mismatch(self, fixtures, tmp_path):
        doc = json.load(open(fixtures / "calpha.json"))
        doc["matrices"][2] = linalg.matrix_to_json(1.5 * np.eye(2))
        bad = tmp_path / "bad_pencil.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match="order unit"):
            cli.load_pencil_arg(str(bad), None)

    def test_non_hermitian_matrix(self, tmp_path):
        doc = [[[1.0, 0.1], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        bad = tmp_path / "bad_matrix.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match="not Hermitian"):
            cli.load_matrix_arg(str(bad))

    def test_missing_file(self):
        with pytest.raises(cli.CliError, match="not found"):
            cli.load_cone_arg("/nonexistent/cone.json")

    def test_a_facet_holding_no_number(self, fixtures, tmp_path):
        doc = json.load(open(fixtures / "square.json"))
        doc["facets"][0][1] = {}
        bad = tmp_path / "bad_cone.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match="facets: expected finite numbers"):
            cli.load_cone_arg(str(bad))

    def test_an_incomplete_facet_list(self, capsys, tmp_path, octahedron_without_a_facet):
        # every listed facet is valid and supported and every generator is
        # extreme; trusted, the list would put (0.6, 0.6, 0.6, 1) Inside
        doc = octahedron_without_a_facet
        path = tmp_path / "oct7.json"
        path.write_text(json.dumps(doc))
        (tmp_path / "pt.json").write_text(json.dumps(
            {"d": 4, "s": 1, "entries": [[[[x, 0]]] for x in (0.6, 0.6, 0.6, 1.0)]}))
        code, out, err = run(capsys, "max-membership", "--cone", str(path),
                             "--tuple", str(tmp_path / "pt.json"))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "facets" in err, err
        assert "Traceback" not in err
        with pytest.raises(ValueError, match="facets"):
            cones.cone_from_json(doc)
        del doc["facets"]
        assert cones.cone_from_json(doc).n_facets == 8

    def test_a_complete_facet_list_keeps_its_order(self):
        doc = cones.cone_to_json(cones.square_cone())
        doc["facets"] = doc["facets"][::-1]
        assert np.array_equal(cones.cone_from_json(doc).facets, cones.square_cone().facets[::-1])


class TestCheckInclusion:
    def test_square_to_calpha(self, capsys, fixtures):
        code, out, _ = run(
            capsys,
            "check-inclusion",
            "--src", str(fixtures / "square.json"),
            "--tgt", str(fixtures / "calpha.json"),
        )
        assert code == EXIT_OK
        assert "Holds" in out
        assert "Infeasible" in out
        assert "-0.414214" in out

    def test_builtin_target_with_alpha(self, capsys):
        code, out, _ = run(
            capsys,
            "check-inclusion", "--src", "square", "--tgt", "calpha", "--alpha", "0.7854",
        )
        assert code == EXIT_OK
        assert "Infeasible" in out

    def test_json_output_structure(self, capsys, fixtures):
        code, out, _ = run(
            capsys,
            "check-inclusion", "--src", "square", "--tgt", "calpha",
            "--alpha", "pi/4", "--output", "json",
        )
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["result"]["scalar"]["holds"] is True
        assert doc["result"]["relaxation"]["status"] == "Infeasible"
        margin = doc["result"]["free_witness"]["target_margin"]
        assert margin == pytest.approx(1 - math.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("dump", [False, True])
    def test_diagonal_pencil_built_once(self, capsys, monkeypatch, tmp_path, dump):
        # check_inclusion decides on the cone's facets and builds no pencil;
        # the one the dump and the certificate state is built once
        built = []
        build = pencil.diagonal_pencil

        def counting(cone):
            built.append(cone)
            return build(cone)

        monkeypatch.setattr(pencil, "diagonal_pencil", counting)
        argv = ["check-inclusion", "--src", "square", "--tgt", "calpha", "--alpha", "pi/4"]
        if dump:
            argv += ["--dump-sdp", str(tmp_path / "relax.sdp")]
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert len(built) == 1


class TestComei:
    def test_pauli_pair(self, capsys, fixtures):
        code, out, _ = run(
            capsys, "comei", "--M", str(fixtures / "sx.json"), "--N", str(fixtures / "sz.json"),
        )
        assert code == EXIT_OK
        assert "lambda1 = 2.0" in out
        assert "lambda2 = 1.25" in out

    def test_json_bracket(self, capsys, fixtures):
        code, out, _ = run(
            capsys, "comei", "--M", str(fixtures / "sx.json"), "--N", str(fixtures / "sz.json"),
            "--output", "json",
        )
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert "lower_bound_only" not in result
        assert result["lambda2_upper"] >= result["lambda2"]


class TestScalingBound:
    def test_square(self, capsys):
        code, out, _ = run(capsys, "scaling-bound", "--cone", "square")
        assert code == EXIT_OK
        assert "nu_general = 0.25" in out
        assert "nu_symmetric = 0.5" in out

    def test_negative_samples_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "scaling-bound", "--cone", "square", "--samples", "-3")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: the number of level-2 samples must be nonnegative, got -3\n"

    def test_sampling_needs_the_unit_e_d(self, capsys, tmp_path):
        path = tmp_path / "tilted.json"
        save_cone(cones.PolyhedralCone(cones.SQUARE_RAYS, [0.0, 0.1, 1.0]), path)
        assert run(capsys, "scaling-bound", "--cone", str(path))[0] == EXIT_OK
        code, out, err = run(capsys, "scaling-bound", "--cone", str(path), "--samples", "2")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: level-2 sampling requires the unit to be e_d\n"

    @pytest.mark.parametrize("normal", ["0,0", "nan,0,1", "inf,0,1"])
    def test_a_normal_of_other_than_d_finite_numbers_is_an_input_error(self, capsys, normal):
        code, out, err = run(capsys, "scaling-bound", "--cone", "square", f"--normal={normal}")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: h_normal: expected 3 finite numbers\n"

    def test_samples_all_members_on_the_square(self, capsys):
        code, out, _ = run(capsys, "scaling-bound", "--cone", "square", "--samples", "20",
                           "--output", "json")
        assert code == EXIT_OK
        sampling = json.loads(out)["result"]["sampling"]
        for label in ("nu_general", "nu_symmetric"):
            assert sampling[label]["members"] == sampling[label]["samples"] == 20


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "no-such-command")
        assert code == EXIT_USAGE

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "check-inclusion", "--src", "square")
        assert code == EXIT_USAGE

    def test_bad_cone_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "scaling-bound", "--cone", str(bad))
        assert code == EXIT_USAGE
        assert "malformed JSON" in err

    @pytest.mark.parametrize("before", [True, False], ids=["global", "subcommand"])
    def test_no_tolerance_option(self, capsys, fixtures, before):
        # the decision bands are constants: --tol is a usage error in
        # either place
        argv = ["min-membership", "--cone", "square", "--tuple", str(fixtures / "szsxi.json")]
        argv = ["--tol", "1e-8", *argv] if before else [*argv, "--tol", "1e-8"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [(["--tol", "1e-8", "relaxation", "--src", "square-diag", "--tgt", "calpha"],
          "--tol 1e-8"),
         (["--frobnicate", "3", "verify", "x"], "--frobnicate 3"),
         (["--output", "json", "--frobnicate", "verify", "x"], "--frobnicate")],
        ids=["tol", "frobnicate", "after-a-known-flag"],
    )
    def test_unknown_global_flag_is_named(self, capsys, argv, flag):
        # argparse reads the value of an unknown flag before the subcommand
        # as the subcommand; the error names the flag instead
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: unrecognized arguments: {flag}\n"

    @pytest.mark.parametrize("before", [True, False], ids=["global", "subcommand"])
    def test_known_global_flags_in_either_place(self, capsys, before):
        flags = ["--output", "json", "--seed", "3"]
        argv = [*flags, "entangled-demo"] if before else ["entangled-demo", *flags]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and json.loads(out)["seed"] == 3

    def test_an_unknown_subcommand_is_still_named(self, capsys):
        code, _, err = run(capsys, "--seed", "3", "frob")
        assert code == EXIT_USAGE
        assert err.startswith("error: argument command: invalid choice: 'frob'")

    def test_division_by_zero_in_alpha(self, capsys):
        code, _, err = run(
            capsys, "check-inclusion", "--src", "square", "--tgt", "calpha", "--alpha", "1/0"
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "division by zero" in err

    @pytest.mark.parametrize(
        "alpha",
        ["(" * 3000 + "pi/4" + ")" * 3000, "-" * 3000 + "pi/4", "+".join(["pi"] * 3000)],
        ids=["parentheses", "unary-minus", "flat-sum"],
    )
    def test_alpha_beyond_the_parser_depth(self, capsys, alpha):
        code, _, err = run(capsys, "witness", "square", f"--alpha={alpha}")
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bad_component_names_its_file(self, capsys, tmp_path):
        path = tmp_path / "comps.json"
        path.write_text(json.dumps([[[[1, 0], [2, 0]], [[0, 0], [1, 0]]]] * 4))
        code, _, err = run(capsys, "essential-boundary", "--components", str(path))
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {path}: ") and "not Hermitian" in err

    @pytest.mark.parametrize(
        "doc", [{"result": 5}, {"certificate": 5}, {"result": {"certificate": 5}}]
    )
    def test_verify_certificate_that_is_not_an_object(self, capsys, tmp_path, doc):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error: ")

    def test_verify_a_document_with_no_certificate(self, capsys, tmp_path):
        # components (I, I, I/2, 3I/2): the answer No carries no certificate
        comps = tmp_path / "comps.json"
        comps.write_text(json.dumps([linalg.matrix_to_json(c * np.eye(2)) for c in (1, 1, 0.5, 1.5)]))
        _, out, _ = run(capsys, "essential-boundary", "--components", str(comps), "--output", "json")
        assert json.loads(out)["result"]["status"] == "No"
        path = tmp_path / "no.json"
        path.write_text(out)
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert err == "error: the document holds no certificate (status 'No')\n"
        assert "Traceback" not in out + err

    def test_verify_a_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {tmp_path}: cannot read") and "Traceback" not in err

    def test_binary_file_names_itself(self, capsys, tmp_path):
        path = tmp_path / "cone.json"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "scaling-bound", "--cone", str(path))
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {path}: not UTF-8")


class TestSeedReproducibility:
    def test_byte_identical_json(self, capsys):
        argv = ["scaling-bound", "--cone", "square", "--samples", "3",
                "--seed", "11", "--output", "json"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_comei_reproducible(self, capsys, fixtures):
        argv = ["comei", "--M", str(fixtures / "sx.json"), "--N", str(fixtures / "sz.json"),
                "--seed", "5", "--output", "json"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestCertificateRoundTrips:
    def _verify(self, capsys, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(payload)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_OK, out
        assert "VALID" in out
        doc = json.loads(payload)
        res = json.loads(
            run(capsys, "verify", str(path), "--output", "json")[1]
        )
        assert res["result"]["ok"] is True
        assert res["result"]["residual"] < 1e-6

    def test_relaxation_feasible(self, capsys, tmp_path):
        _, out, _ = run(
            capsys, "relaxation", "--src", "square-diag", "--tgt", "square-diag",
            "--output", "json",
        )
        self._verify(capsys, tmp_path, "cert1.json", out)

    def test_relaxation_infeasible(self, capsys, tmp_path):
        _, out, _ = run(
            capsys, "relaxation", "--src", "square-diag", "--tgt", "calpha",
            "--alpha", "pi/4", "--output", "json",
        )
        self._verify(capsys, tmp_path, "cert2.json", out)

    def test_min_membership_member(self, capsys, tmp_path, fixtures):
        pw_path = fixtures / "pauli_tuple.json"
        from freespec.opsys import pauli_witness

        save_tuple(pauli_witness(math.pi / 4).tuple, pw_path)
        _, out, _ = run(
            capsys, "min-membership", "--cone", "square", "--tuple", str(pw_path),
            "--output", "json",
        )
        self._verify(capsys, tmp_path, "cert3.json", out)

    def test_min_membership_separator(self, capsys, tmp_path, fixtures):
        _, out, _ = run(
            capsys, "min-membership", "--cone", "square",
            "--tuple", str(fixtures / "szsxi.json"), "--output", "json",
        )
        self._verify(capsys, tmp_path, "cert4.json", out)

    def test_essential_boundary(self, capsys, tmp_path, fixtures):
        _, out, _ = run(
            capsys, "essential-boundary", "--components", str(fixtures / "comps.json"),
            "--output", "json",
        )
        self._verify(capsys, tmp_path, "cert5.json", out)

    def test_scaling_sandwich(self, capsys, tmp_path):
        _, out, _ = run(capsys, "scaling-bound", "--cone", "square", "--output", "json")
        self._verify(capsys, tmp_path, "cert6.json", out)

    def test_witness_square(self, capsys, tmp_path):
        _, out, _ = run(capsys, "witness", "square", "--alpha", "pi/4", "--output", "json")
        self._verify(capsys, tmp_path, "cert7.json", out)

    def test_check_inclusion_cert(self, capsys, tmp_path):
        _, out, _ = run(
            capsys, "check-inclusion", "--src", "square", "--tgt", "calpha",
            "--alpha", "pi/3", "--output", "json",
        )
        self._verify(capsys, tmp_path, "cert8.json", out)

    def test_tampered_certificate_flagged(self, capsys, tmp_path):
        _, out, _ = run(
            capsys, "relaxation", "--src", "square-diag", "--tgt", "square-diag",
            "--output", "json",
        )
        doc = json.loads(out)
        cert = doc["result"]["certificate"]
        cert["tgt"]["matrices"][0][0][0][0] += 0.5  # corrupt an entry
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        code, out2, _ = run(capsys, "verify", str(path))
        assert code == EXIT_UNKNOWN
        assert "INVALID" in out2


class TestVerifyShapes:
    """A certificate whose fields disagree in count or size is an input
    error that names the field, never a traceback or a truncated check."""

    def _certificate(self, capsys, *argv):
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == EXIT_OK
        return json.loads(out)["result"]["certificate"]

    def _rejects(self, capsys, tmp_path, cert, field):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(cert))
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and field in err, err
        assert "Traceback" not in out + err

    SOURCES = {
        "separator": ("min-membership", "--cone", "square", "--tuple", "szsxi.json"),
        "relaxation": ("relaxation", "--src", "square-diag", "--tgt", "calpha", "--alpha", "pi/4"),
        "essential": ("essential-boundary", "--components", "comps.json"),
        "sandwich": ("scaling-bound", "--cone", "square"),
    }

    def _mutated(self, capsys, tmp_path, fixtures, source, path, value, field):
        """The certificate of ``source`` with ``value`` at ``path`` is
        rejected with ``field`` in the error."""
        argv = [str(fixtures / a) if a.endswith(".json") else a for a in self.SOURCES[source]]
        cert = self._certificate(capsys, *argv)
        parent = cert
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        self._rejects(capsys, tmp_path, cert, field)

    @pytest.mark.parametrize(
        "source,path,value,field",
        [
            ("separator", ("cone", "d"), None, "cone: d must be an integer"),
            ("separator", ("cone", "d"), [3], "cone: d must be an integer"),
            ("separator", ("cone", "d"), math.inf, "cone: d must be an integer"),
            ("relaxation", ("src", "d"), None, "src: d must be an integer"),
            ("relaxation", ("src", "d"), [3], "src: d must be an integer"),
            ("relaxation", ("tgt", "d"), math.inf, "tgt: d must be an integer"),
            ("relaxation", ("tgt", "r"), None, "tgt: r must be an integer"),
            ("separator", ("kind",), ["min_membership_separator"], "unknown certificate kind"),
            ("separator", ("kind",), {"kind": "scaling_sandwich"}, "unknown certificate kind"),
            ("separator", ("query", "entries", 0, 0, 1, 0), [0.0, 0.0],
             "query: entry (0,1): expected [re, im]"),
            ("separator", ("query", "entries", 0, 0, 1, 0), None,
             "query: entry (0,1): expected [re, im]"),
            ("essential", ("eps",), None, "eps: expected a finite number"),
            ("essential", ("eps",), [1e-6], "eps: expected a finite number"),
        ],
        ids=["cone-d-null", "cone-d-list", "cone-d-infinity", "src-d-null", "src-d-list",
             "tgt-d-infinity", "tgt-r-null", "kind-list", "kind-object", "entry-list",
             "entry-null", "eps-null", "eps-list"],
    )
    def test_a_field_of_the_wrong_type(self, capsys, tmp_path, fixtures, source, path, value, field):
        self._mutated(capsys, tmp_path, fixtures, source, path, value, field)

    @pytest.mark.parametrize(
        "source,path,value,field",
        [
            ("separator", ("cone", "unit", 0), {}, "cone: unit: expected finite numbers"),
            ("separator", ("cone", "unit", 2), None, "cone: unit: expected finite numbers"),
            ("separator", ("cone", "generators", 1, 0), [0.5],
             "cone: generators: expected finite numbers"),
            ("separator", ("cone", "generators", 0, 2), {"x": 1},
             "cone: generators: expected finite numbers"),
            ("relaxation", ("src", "unit", 0), {}, "src: unit: expected finite numbers"),
            ("sandwich", ("cone", "unit", 0), [], "cone: unit: expected finite numbers"),
            ("sandwich", ("simplex_generators", 0, 0), {},
             "simplex_generators: expected finite numbers"),
            ("sandwich", ("simplex_generators", 1), None,
             "simplex_generators: expected finite numbers"),
        ],
        ids=["cone-unit-object", "cone-unit-null", "generator-list", "generator-object",
             "pencil-unit-object", "sandwich-unit-list", "simplex-object",
             "simplex-null"],
    )
    def test_a_number_field_holding_no_number(
        self, capsys, tmp_path, fixtures, source, path, value, field
    ):
        self._mutated(capsys, tmp_path, fixtures, source, path, value, field)

    def test_a_sandwich_over_an_incomplete_facet_list(self, capsys, tmp_path, forged_sandwich):
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(forged_sandwich))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_UNKNOWN
        assert out.splitlines()[-1] == "INVALID"

    def test_member_query_shorter_than_the_cone(self, capsys, tmp_path, fixtures):
        save_tuple(opsys.pauli_witness(math.pi / 4).tuple, fixtures / "pw.json")
        cert = self._certificate(
            capsys, "min-membership", "--cone", "square", "--tuple",
            str(fixtures / "pw.json"),
        )
        cert["query"]["entries"].pop()
        cert["query"]["d"] -= 1
        self._rejects(capsys, tmp_path, cert, "query: 2 entries")

    def test_member_weight_of_the_wrong_size(self, capsys, tmp_path, fixtures):
        save_tuple(opsys.pauli_witness(math.pi / 4).tuple, fixtures / "pw.json")
        cert = self._certificate(
            capsys, "min-membership", "--cone", "square", "--tuple",
            str(fixtures / "pw.json"),
        )
        cert["weights"][1] = linalg.matrix_to_json(np.eye(3))
        self._rejects(capsys, tmp_path, cert, "weights: expected 2 x 2")

    def test_separator_with_a_missing_matrix(self, capsys, tmp_path, fixtures):
        cert = self._certificate(
            capsys, "min-membership", "--cone", "square", "--tuple",
            str(fixtures / "szsxi.json"),
        )
        cert["n_matrices"].pop()
        self._rejects(capsys, tmp_path, cert, "n_matrices: expected a list of 3")

    def test_relaxation_farkas_with_a_missing_matrix(self, capsys, tmp_path, fixtures):
        cert = self._certificate(
            capsys, "relaxation", "--src", "square-diag", "--tgt", "calpha",
            "--alpha", "pi/4",
        )
        cert["y_matrices"].pop()
        self._rejects(capsys, tmp_path, cert, "y_matrices: expected a list of 3")

    def test_relaxation_kraus_of_the_wrong_shape(self, capsys, tmp_path, fixtures):
        cert = self._certificate(
            capsys, "relaxation", "--src", "square-diag", "--tgt", "square-diag",
        )
        cert["kraus"] = [[row[:1] for row in v] for v in cert["kraus"]]
        self._rejects(capsys, tmp_path, cert, "kraus: expected 4 x 4")

    def test_relaxation_target_with_fewer_variables(self, capsys, tmp_path, fixtures):
        cert = self._certificate(
            capsys, "relaxation", "--src", "square-diag", "--tgt", "square-diag",
        )
        # without its first variable the target is still unital
        cert["tgt"]["matrices"].pop(0)
        cert["tgt"]["unit"].pop(0)
        cert["tgt"]["d"] -= 1
        self._rejects(capsys, tmp_path, cert, "tgt: 2 matrices")

    EMPTY_PENCIL = {"d": 0, "r": 1, "unit": [], "matrices": []}

    def test_relaxation_with_an_empty_source(self, capsys, tmp_path, fixtures):
        cert = self._certificate(
            capsys, "relaxation", "--src", "square-diag", "--tgt", "square-diag",
        )
        cert["src"] = self.EMPTY_PENCIL
        self._rejects(capsys, tmp_path, cert, "src: matrices: a pencil needs at least one matrix")

    def test_relaxation_command_with_an_empty_source(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(self.EMPTY_PENCIL))
        code, out, err = run(capsys, "relaxation", "--src", str(path), "--tgt", "square-diag")
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "matrices: a pencil needs at least one matrix" in err
        assert "Traceback" not in out + err

    def test_member_cone_of_dimension_zero(self, capsys, tmp_path, fixtures):
        cert = self._certificate(
            capsys, "min-membership", "--cone", "square", "--tuple",
            str(fixtures / "szsxi.json"),
        )
        cert["cone"] = {"d": 0, "unit": [], "generators": [[]]}
        self._rejects(capsys, tmp_path, cert, "cone: d must be at least 1")


def _stacked(mats):
    return np.array([m.mat for m in mats])


def _facets(diagonal):
    """F with M_i = diag(F[:, i]) for a diagonal pencil."""
    return np.diagonal(_stacked(diagonal.matrices), axis1=1, axis2=2).T.real


def _margin_problem(gens, stack, h):
    """The margin SDP that `opsys.generator_weights` dumps."""
    _, _, _, kernel, p0 = opsys._affine_split(gens, stack, h)
    return opsys._margin_problem(p0, kernel)[0]


class TestOtherCommands:
    def test_max_membership(self, capsys, fixtures):
        code, out, _ = run(
            capsys, "max-membership", "--cone", "square",
            "--tuple", str(fixtures / "szsxi.json"),
        )
        assert code == EXIT_OK
        assert "Boundary" in out

    def test_entangled_demo(self, capsys):
        code, out, _ = run(capsys, "entangled-demo")
        assert code == EXIT_OK
        assert "not a minimal-system realization" in out

    def test_witness_bad_target(self, capsys):
        code, _, err = run(capsys, "witness", "pentagon", "--alpha", "pi/4")
        assert code == EXIT_USAGE

    def test_dump_sdp(self, capsys, tmp_path, fixtures):
        dump = tmp_path / "problem.sdpa"
        code, _, _ = run(
            capsys, "relaxation", "--src", "square-diag", "--tgt", "calpha",
            "--alpha", "pi/4", "--dump-sdp", str(dump),
        )
        assert code == EXIT_OK
        from freespec import sdp

        p = sdp.load_problem(dump)
        assert p.blocks == (2,) * 4  # one weight of size t = 2 per facet
        assert len(p.b) == 5  # the trace row, then t^2 per direction of ker F^T
        assert p.c is not None  # the margin objective sum_k tr(P0_k X_k)

    def test_dump_sdp_of_non_diagonal_source_is_the_choi_problem(self, capsys, tmp_path):
        dump, ref = tmp_path / "cli.sdpa", tmp_path / "ref.sdpa"
        code, _, _ = run(
            capsys, "relaxation", "--src", "calpha", "--tgt", "calpha",
            "--alpha", "pi/3", "--dump-sdp", str(dump),
        )
        assert code == EXIT_OK
        tgt = pencil.elliptic_cone_pencil(math.pi / 3)
        sdp.dump_problem(_choi_problem(tgt.stack, tgt.stack), ref)
        assert sdp.load_problem(dump).blocks == (4,)  # Choi variable of size r*t = 2*2
        assert dump.read_bytes() == ref.read_bytes()

    def test_dump_sdp_on_simplex(self, capsys, tmp_path):
        # the closed form decides a simplex, and the dump is still the
        # margin SDP, over the generators or the source's facets
        rng = np.random.default_rng(9)
        cone = sampling.random_simplex_cone(rng, 3)
        query = sampling.random_min_member(rng, cone, 2)
        src, tgt = pencil.diagonal_pencil(cone), sampling.random_target_for_simplex(rng, cone, 2)
        save_cone(cone, tmp_path / "simplex.json")
        save_tuple(query, tmp_path / "query.json")
        save_pencil(src, tmp_path / "src.json")
        save_pencil(tgt, tmp_path / "tgt.json")
        runs = (
            ("min-membership", "--cone", "simplex.json", "--tuple", "query.json"),
            ("relaxation", "--src", "src.json", "--tgt", "tgt.json"),
        )
        # built from the files, as the CLI reads them back
        loaded_cone = cli.load_cone_arg(str(tmp_path / "simplex.json"))
        loaded_src = cli.load_pencil_arg(str(tmp_path / "src.json"), None)
        expected = (
            _margin_problem(
                loaded_cone.generators,
                _stacked(cli._read(str(tmp_path / "query.json"), pencil.tuple_from_json).entries),
                loaded_cone.facets.sum(axis=0),
            ),
            _margin_problem(
                _facets(loaded_src),
                _stacked(cli.load_pencil_arg(str(tmp_path / "tgt.json"), None).matrices),
                loaded_src.unit,
            ),
        )
        for argv, problem in zip(runs, expected):
            dump, ref = tmp_path / f"{argv[0]}.sdpa", tmp_path / f"{argv[0]}-ref.sdpa"
            argv = [a if not a.endswith(".json") else str(tmp_path / a) for a in argv]
            code, out, _ = run(capsys, *argv, "--dump-sdp", str(dump), "--output", "json")
            assert code == EXIT_OK
            assert json.loads(out)["result"]["status"] in ("Member", "Feasible")
            loaded = sdp.load_problem(dump)
            assert loaded.blocks == problem.blocks
            assert len(loaded.b) == len(problem.b)
            sdp.dump_problem(problem, ref)
            assert dump.read_bytes() == ref.read_bytes()

    def test_dump_sdp_of_reloaded_target_matches_in_memory(self, capsys, tmp_path):
        # saving and reloading a target must not change a single matrix entry
        rng = np.random.default_rng(10)
        for k in range(4):
            cone = sampling.random_simplex_cone(rng, 2 + k % 3)
            src = pencil.diagonal_pencil(cone)
            tgt = sampling.random_target_for_simplex(rng, cone, 2 + k)
            save_pencil(src, tmp_path / "src.json")
            save_pencil(tgt, tmp_path / "tgt.json")
            dump, ref = tmp_path / "cli.sdpa", tmp_path / "ref.sdpa"
            code, _, _ = run(
                capsys, "relaxation", "--src", str(tmp_path / "src.json"),
                "--tgt", str(tmp_path / "tgt.json"), "--dump-sdp", str(dump),
            )
            assert code == EXIT_OK
            problem = _margin_problem(_facets(src), _stacked(tgt.matrices), src.unit)
            sdp.dump_problem(problem, ref)
            assert dump.read_bytes() == ref.read_bytes()


    def test_commuting_target_is_decided_without_the_sdp(
        self, capsys, tmp_path, solve_calls
    ):
        # square-diag commutes: decided per joint eigenvector, and the dump
        # is still the margin SDP over the square's facets
        dump, ref = tmp_path / "cli.sdpa", tmp_path / "ref.sdpa"
        code, out, _ = run(
            capsys, "check-inclusion", "--src", "square", "--tgt", "square-diag",
            "--dump-sdp", str(dump), "--output", "json",
        )
        assert code == EXIT_OK
        assert solve_calls == []
        tgt = pencil.diagonal_pencil(cones.square_cone())
        sdp.dump_problem(_margin_problem(_facets(tgt), _stacked(tgt.matrices), tgt.unit), ref)
        assert dump.read_bytes() == ref.read_bytes()
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, text, _ = run(capsys, "verify", str(path))
        assert code == EXIT_OK, text


def _rounded(path) -> bytes:
    """The numbers of a dumped problem, loaded and rounded to 12 decimals."""
    p = sdp.load_problem(path)
    parts = [np.array(p.blocks, dtype=float), p.b, *p.a, *(p.c or ())]
    return b"".join(
        (np.round(part, 12) + 0.0).tobytes() for x in parts for part in (np.real(x), np.imag(x))
    )


class TestDumpFormatPinned:
    """The --dump-sdp output of four fixed commands, as SHA-256 digests.

    Any change to how problems are built, stored or written shows here,
    so the digests only change with a deliberate change of the format.
    The essential-boundary problem is exact, and its digest is of the
    bytes.  The margin SDP's data come from an SVD, whose last bits depend
    on the BLAS kernel a machine selects, so its digests are of the loaded
    numbers rounded to 12 decimals (`_rounded`).
    """

    DIGESTS = {
        "min-membership": (
            "c0e98dfc6318604ccdf14a79c842787f"
            "2d143b12bc2a22d427973a29e56815f0"
        ),
        "relaxation": (
            "309e61e5ec0261737258eaae64401ab8"
            "2b0a69fc7f4038024530a2b489e486f7"
        ),
        "check-inclusion": (
            "309e61e5ec0261737258eaae64401ab8"
            "2b0a69fc7f4038024530a2b489e486f7"
        ),
        "essential-boundary": (
            "64862091deab9e44a16cd5d101cbbaf8"
            "cdec77a78122834fa6bfd9f0d1f5031f"
        ),
    }

    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_digest(self, capsys, tmp_path, fixtures, command):
        argv = {
            "min-membership": (
                "--cone", "square", "--tuple", str(fixtures / "szsxi.json"),
            ),
            "relaxation": ("--src", "square-diag", "--tgt", "calpha", "--alpha", "pi/4"),
            "check-inclusion": ("--src", "square", "--tgt", "calpha", "--alpha", "pi/4"),
            "essential-boundary": ("--components", str(fixtures / "comps.json")),
        }[command]
        dump = tmp_path / f"{command}.sdpa"
        run(capsys, command, *argv, "--dump-sdp", str(dump))
        data = dump.read_bytes() if command == "essential-boundary" else _rounded(dump)
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[command]


_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from freespec import cli
codes = []
for i, argv in enumerate(json.loads(sys.argv[1])):
    with open(f"out{i}.json", "w") as fh, contextlib.redirect_stdout(fh):
        codes.append(cli.main([*argv, "--output", "json"]))
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(["verify", f"out{i}.json"]))
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy."))}))
"""


def test_the_sdps_answer_and_verify_without_scipy(fixtures):
    # numpy is the only numeric dependency: the Choi feasibility SDP, the
    # margin SDP of a square Member and the essential-boundary SDP run with
    # scipy unimportable, and each certificate verifies.  The Member has the
    # rank-one weights of (1, 0), (0, 1), (1, 1) and (1, -1) on the square's
    # generators; its min-norm weights are not PSD, so the SDP decides it
    member = pencil.MatrixTuple.of(SIGMA_Z + 2 * SIGMA_X, 2 * SIGMA_X - SIGMA_Z, 3 * np.eye(2))
    save_tuple(member, fixtures / "member.json")
    runs = [
        ["relaxation", "--src", "circular", "--tgt", "calpha", "--alpha", "pi/4"],
        ["min-membership", "--cone", "square", "--tuple", "member.json"],
        ["essential-boundary", "--components", "comps.json"],
    ]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(runs)], cwd=fixtures,
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"codes": [EXIT_OK] * 6, "scipy": []}
