import json
import re
import shlex
from pathlib import Path

import pytest

from conftest import curved_n1_two_entries
from jetstar import cli, homology
from jetstar.cli import main
from jetstar.fedosov import load_connection_json
from jetstar.weyl import PoissonTensor


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PINNED_STAR = {
    "flat-n1": (
        ["--dim", "1", "x1", "x2"],
        "jetstar star (schema jetstar-report/1, v0.1.0)\n"
        "f = x1\n"
        "g = x2\n"
        "f * g = x1*x2 + (-1/2*i)*h\n"
        "  c_0 = x1*x2\n"
        "  c_1 = (-1/2*i)\n"
    ),
    "point-subset": (
        ["--dim", "1", "--subset", "point", "x1", "x2"],
        "jetstar star (schema jetstar-report/1, v0.1.0)\n"
        "f = x1\n"
        "g = x2\n"
        "f * g = x1*x2 + (-1/2*i)*h\n"
        "  c_0 = x1*x2\n"
        "  c_1 = (-1/2*i)\n"
        "induced on the quotient:\n"
        "  c_0 = x1*x2\n"
        "  c_1 = (-1/2*i)\n"
    ),
    "curved-linear-n2": (
        ["--dim", "2", "--connection", "curved-linear-n2", "--jet-order", "8",
         "--fedosov-order", "6", "x1", "x3"],
        "jetstar star (schema jetstar-report/1, v0.1.0)\n"
        "f = x1\n"
        "g = x3\n"
        "f * g = x1*x3 + (-1/2*i)*h\n"
        "  c_0 = x1*x3\n"
        "  c_1 = (-1/2*i)\n"
    ),
    "curved-linear-n2-h3": (
        ["--dim", "2", "--connection", "curved-linear-n2", "--jet-order", "6",
         "--fedosov-order", "6", "--hbar-order", "3", "x1^3 + x2*x3", "x3^3*x2 + h*x1"],
        "jetstar star (schema jetstar-report/1, v0.1.0)\n"
        "f = x2*x3 + x1^3\n"
        "g = x2*x3^3 + x1*h\n"
        "f * g = x2^2*x3^4 + x1*x2*x3*h + x1^4*h + (-9/2*i)*x1^2*x2*x3^2*h"
        " + (1/2*i)*x2*h^2 + (-9/2)*x1*x2*x3*h^2 + (-3/4)*x2^3*x3*h^2 + (3/4*i)*x2*h^3\n"
        "  c_0 = x2^2*x3^4\n"
        "  c_1 = x1*x2*x3 + x1^4 + (-9/2*i)*x1^2*x2*x3^2\n"
        "  c_2 = (1/2*i)*x2 + (-9/2)*x1*x2*x3 + (-3/4)*x2^3*x3\n"
        "  c_3 = (3/4*i)*x2\n"
    ),
}


class TestStarCommand:
    @pytest.mark.parametrize("case", sorted(PINNED_STAR))
    def test_pinned_output(self, capsys, case):
        argv, expected = PINNED_STAR[case]
        code, out, _ = run(capsys, "star", *argv)
        assert code == 0
        assert out == expected

    def test_flat_canonical_pair(self, capsys):
        code, out, _ = run(capsys, "star", "--dim", "1", "x1", "x2")
        assert code == 0
        assert "x1*x2 + (-1/2*i)*h" in out
        assert "c_1 = (-1/2*i)" in out

    def test_unit_echo(self, capsys):
        code, out, _ = run(capsys, "star", "--dim", "1", "1", "x2^2 + x1")
        assert code == 0
        assert "f * g = x1 + x2^2" in out

    def test_curved_builtin(self, capsys):
        code, out, _ = run(
            capsys, "star", "--dim", "2", "--connection", "curved-linear-n2",
            "--jet-order", "8", "--fedosov-order", "6", "x1", "x3",
        )
        assert code == 0
        assert "c_0 = x1*x3" in out
        assert "c_1 = (-1/2*i)" in out

    def test_induced_on_quotient(self, capsys):
        code, out, _ = run(capsys, "star", "--dim", "1", "--subset", "point", "x1", "x2")
        assert code == 0
        assert "induced on the quotient" in out

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "star", "--dim", "1", "x1 +", "x2")
        assert code == 2
        assert "error" in err

    def test_fiber_expression_rejected(self, capsys):
        code, _, err = run(capsys, "star", "--dim", "1", "y1", "x2")
        assert code == 2


class TestVerifyCommand:
    def test_weyl_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "weyl", "--trials", "3", "--seed", "5")
        assert code == 0
        assert "moyal_associative: pass" in out
        assert "all passed" in out

    def test_derham_reports_star_involution(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "derham", "--subset", "point",
            "--trials", "3", "--seed", "5",
        )
        assert code == 0
        assert "star_involution" in out and "pass" in out

    def test_corrupted_pi_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "half_dim": 1,
            "pi": [["0", "0"], ["0", "0"]],
            "gamma": [],
        }))
        code, _, err = run(
            capsys, "verify", "--suite", "weyl", "--connection", str(bad),
        )
        assert code == 2
        assert "error" in err

    def test_dimension_mismatch_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "--suite", "fedosov", "--dim", "1",
            "--connection", "curved-linear-n2",
        )
        assert code == 2

    def test_json_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for path in (out1, out2):
            code = main([
                "verify", "--suite", "homology", "--seed", "11", "--trials", "2",
                "--subset", "point", "--format", "json", "--out", str(path),
            ])
            capsys.readouterr()
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_embeds_config_and_version(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        main([
            "verify", "--suite", "weyl", "--seed", "3", "--trials", "2",
            "--format", "json", "--out", str(path),
        ])
        capsys.readouterr()
        report = json.loads(path.read_text())
        assert report["schema"] == "jetstar-report/1"
        assert report["config"]["seed"] == 3
        assert report["config"]["version"] == report["version"]


class TestHomologyCommand:
    def test_point_betti(self, capsys):
        code, out, _ = run(capsys, "homology", "--subset", "point")
        assert code == 0
        assert "betti (Whitney-de Rham): [1, 0, 0]" in out

    def test_two_points_betti(self, capsys):
        code, out, _ = run(capsys, "homology", "--subset", "two-points")
        assert code == 0
        assert "[2, 0, 0]" in out

    def test_duality_columns_equal(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        code = main(["homology", "--format", "json", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        report = json.loads(path.read_text())
        for entry in report["subsets"]:
            for _, left, right in entry["duality"]:
                assert left == right

    def test_hochschild_flag(self, capsys, tmp_path):
        path = tmp_path / "hh.json"
        code = main([
            "homology", "--subset", "point", "--hochschild",
            "--format", "json", "--out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        report = json.loads(path.read_text())
        hh = report["subsets"][0]["hochschild"]
        assert hh is not None and "caveat" in hh

    def test_hochschild_guardrail_reported_as_skipped(self, capsys, tmp_path, monkeypatch):
        def no_table(self):
            raise AssertionError("oversized product table was built")

        monkeypatch.setattr(homology.FiniteAlgebra, "_build_table", no_table)
        path = tmp_path / "hh.json"
        argv = ["homology", "--subset", "plane-in-r4", "--jet-order", "4", "--hochschild"]
        code = main(argv + ["--format", "json", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        hh = json.loads(path.read_text())["subsets"][0]["hochschild"]
        assert hh == {"skipped": "algebra dimension 16 exceeds 12", "components": 1}
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "hochschild: skipped (algebra dimension 16 exceeds 12)" in out


class TestConfigFile:
    def test_config_file_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 99, "trials": 2}))
        path = tmp_path / "r.json"
        code = main([
            "verify", "--suite", "weyl", "--config", str(cfg),
            "--seed", "3", "--format", "json", "--out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        report = json.loads(path.read_text())
        assert report["config"]["seed"] == 3       # flag wins
        assert report["config"]["trials"] == 2     # file value kept

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        code, _, err = run(capsys, "verify", "--suite", "weyl", "--config", str(cfg))
        assert code == 2


# the settings each command reads; it must reject every other one
READS = {
    "star": {"dim", "jet_order", "fedosov_order", "hbar_order", "hbar_min", "subset",
             "connection", "format", "out"},
    "verify": {"dim", "subset", "connection", "seed", "trials", "format", "out"},
    "homology": {"subset", "jet_order", "format", "out"},
}
ALL_SETTINGS = set().union(*READS.values())
UNREAD = [(command, key) for command in READS for key in sorted(ALL_SETTINGS - READS[command])]
# a cheap run of each command, and the extra options it takes
QUICK = {
    "star": (["--dim", "1", "x1", "x2"], set()),
    "verify": (["--suite", "weyl", "--trials", "1"], {"--suite"}),
    "homology": (["--subset", "point"], {"--hochschild"}),
}


def _flag(key):
    return "--" + key.replace("_", "-")


class TestSettingsPerCommand:
    @pytest.mark.parametrize("command", sorted(READS))
    def test_each_command_accepts_exactly_its_flags(self, command):
        sub = cli._build_parser()._subparsers._group_actions[0].choices[command]
        flags = {opt for action in sub._actions for opt in action.option_strings}
        expected = {_flag(key) for key in READS[command]} | QUICK[command][1]
        assert flags == expected | {"-h", "--help", "--config"}

    @pytest.mark.parametrize("command,key", UNREAD)
    def test_unread_flag_is_a_usage_error(self, command, key, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, _flag(key), "1", *QUICK[command][0]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", UNREAD)
    def test_unread_config_key_exits_2(self, command, key, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        code, out, err = run(capsys, command, "--config", str(cfg), *QUICK[command][0])
        assert code == 2
        assert out == ""
        assert err == f"error: unknown config keys: [{key!r}]\n"

    @pytest.mark.parametrize("command", sorted(READS))
    def test_report_echoes_exactly_the_settings_read(self, command, capsys, tmp_path):
        path = tmp_path / "r.json"
        argv = [command, "--format", "json", "--out", str(path), *QUICK[command][0]]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        config = json.loads(path.read_text())["config"]
        assert set(config) == READS[command] - {"out"} | {"command", "version"}

    @pytest.mark.parametrize("args,file_cfg", [
        (["--trials", "0"], None),
        (["--trials", "-3"], None),
        ([], {"trials": -3}),
        ([], {"format": "xml"}),
    ])
    def test_flag_and_config_values_share_one_check(self, args, file_cfg, capsys, tmp_path):
        argv = ["verify", "--suite", "weyl", *args]
        if file_cfg is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(file_cfg))
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        key = "trials" if "--trials" in args else next(iter(file_cfg))
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1

    @pytest.mark.parametrize("suite", ["homology", "all"])
    def test_homology_suite_rejects_a_subset_it_cannot_model(self, suite, capsys):
        code, out, err = run(capsys, "verify", "--suite", suite, "--subset", "cross")
        assert code == 2
        assert out == ""
        assert err == "error: suite homology models only point, axis, not 'cross'\n"

    def test_subset_for_a_suite_without_subsets_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "weyl", "--subset", "point")
        assert code == 2
        assert err == "error: suite weyl checks no subset\n"


def _readme_commands():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv and argv[0] == "jetstar"]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_usage_parses(argv):
    cli._build_parser().parse_args(argv)


GOOD_SUBSET = {"dim": 2, "germs": [{"point": ["0", "0"], "directions": []}]}
MALFORMED = {
    "subset-without-germs": ("--subset", {"dim": 2}),
    "subset-point-not-a-number": (
        "--subset", {"dim": 2, "germs": [{"point": ["a", "0"], "directions": []}]},
    ),
    "subset-top-level-list": ("--subset", [GOOD_SUBSET]),
    "subset-not-json": ("--subset", '{"dim": 2,'),
    "connection-without-half-dim": ("--connection", {"gamma": []}),
    "connection-without-poly": (
        "--connection", {"half_dim": 1, "gamma": [{"indices": [1, 1, 1]}]},
    ),
    "connection-not-json": ("--connection", "{"),
    "config-dim-not-an-integer": ("--config", {"dim": "x"}),
    "config-top-level-list": ("--config", [1]),
    "config-not-json": ("--config", "dim = 1"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_with_one_error_line(self, case, capsys, tmp_path):
        flag, content = MALFORMED[case]
        path = tmp_path / "input.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        command = "homology" if flag == "--subset" else "verify"
        argv = [command, flag, str(path)]
        if command == "verify":
            argv += ["--suite", "weyl", "--trials", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_subset_dimension_differs_from_tensor(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(
            {"dim": 3, "germs": [{"point": ["0", "0", "0"], "directions": []}]}
        ))
        code, out, err = run(capsys, "homology", "--subset", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: Poisson tensor of dimension 2 on a subset of dimension 3\n"

    def test_benchmark_connection_loads(self):
        # the fedosov-star workload's connection, in its JSON form
        conn, pt = load_connection_json({
            "name": "gamma111-x2-gamma122-x1",
            "half_dim": 1,
            "gamma": [
                {"indices": [1, 1, 1], "poly": "x2"},
                {"indices": [1, 2, 2], "poly": "x1"},
            ],
        })
        assert conn.entries == curved_n1_two_entries().entries
        assert conn.name == "gamma111-x2-gamma122-x1"
        assert pt.pi == PoissonTensor.darboux(1).pi
