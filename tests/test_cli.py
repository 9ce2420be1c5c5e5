"""CLI behaviour: parsing, exit codes, JSON output, certificate round trips."""

import hashlib
import json
import math

import numpy as np
import pytest

from freespec import cli, cones, linalg, opsys, pencil, sampling, sdp
from freespec.containment import _choi_problem
from freespec.cli import EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, main, parse_expression
from freespec.linalg import SIGMA_X, SIGMA_Z


@pytest.fixture()
def fixtures(tmp_path):
    cones.save_cone(cones.square_cone(), tmp_path / "square.json")
    pencil.save_pencil(pencil.elliptic_cone_pencil(math.pi / 4), tmp_path / "calpha.json")
    pencil.save_tuple(
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

        pencil.save_tuple(pauli_witness(math.pi / 4).tuple, pw_path)
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
        assert p.blocks == (8,)  # Choi variable of size r*t = 4*2
        assert len(p.b) == 12  # d * t^2

    def test_dump_sdp_on_simplex(self, capsys, tmp_path):
        # the closed form decides a simplex, and the dump is still the SDP
        rng = np.random.default_rng(9)
        cone = sampling.random_simplex_cone(rng, 3)
        query = sampling.random_min_member(rng, cone, 2)
        src, tgt = pencil.diagonal_pencil(cone), sampling.random_target_for_simplex(rng, cone, 2)
        cones.save_cone(cone, tmp_path / "simplex.json")
        pencil.save_tuple(query, tmp_path / "query.json")
        pencil.save_pencil(src, tmp_path / "src.json")
        pencil.save_pencil(tgt, tmp_path / "tgt.json")
        runs = (
            ("min-membership", "--cone", "simplex.json", "--tuple", "query.json"),
            ("relaxation", "--src", "src.json", "--tgt", "tgt.json"),
        )
        # built from the files, as the CLI reads them back
        expected = (
            opsys._min_membership_problem(
                cones.load_cone(tmp_path / "simplex.json"),
                pencil.load_tuple(tmp_path / "query.json"),
            ),
            _choi_problem(
                pencil.load_pencil(tmp_path / "src.json"),
                pencil.load_pencil(tmp_path / "tgt.json"),
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
            pencil.save_pencil(src, tmp_path / "src.json")
            pencil.save_pencil(tgt, tmp_path / "tgt.json")
            dump, ref = tmp_path / "cli.sdpa", tmp_path / "ref.sdpa"
            code, _, _ = run(
                capsys, "relaxation", "--src", str(tmp_path / "src.json"),
                "--tgt", str(tmp_path / "tgt.json"), "--dump-sdp", str(dump),
            )
            assert code == EXIT_OK
            sdp.dump_problem(_choi_problem(src, tgt), ref)
            assert dump.read_bytes() == ref.read_bytes()


class TestDumpFormatPinned:
    """The --dump-sdp bytes of four fixed commands, as SHA-256 digests.

    Any change to how problems are built, stored or written shows here,
    so the digests only change with a deliberate change of the format.
    """

    DIGESTS = {
        "min-membership": (
            "6591f1db0b734c94ced8039176c13ef9"
            "4ec6b05fb7ae1121832eb70485fee813"
        ),
        "relaxation": (
            "4cb3846dc07a1d9911af04efab0f96fd"
            "e2bf58db67d497f18ac2f78c41ea2fdc"
        ),
        "check-inclusion": (
            "4cb3846dc07a1d9911af04efab0f96fd"
            "e2bf58db67d497f18ac2f78c41ea2fdc"
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
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == self.DIGESTS[command]
