import importlib.resources
import json
import math
import re
from pathlib import Path

import jsonschema
import pytest

from kcbs_qkd.cli import _build_parser, main, report_json, round_floats


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def schema():
    ref = importlib.resources.files("kcbs_qkd") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text())


# --- verify ------------------------------------------------------------------


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "ktilde_max 0.447214" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["noncontextual_bound"] == 0.4
    assert doc["ktilde_max"] == pytest.approx(math.sqrt(5) / 5, abs=1e-9)
    assert doc["ok"] is True


def test_verify_corrupt_basis(tmp_path, capsys):
    bad = tmp_path / "basis.json"
    bad.write_text(json.dumps([[1, 0, 0]] * 5))
    code, _, err = run(capsys, "verify", "--basis", str(bad))
    assert code == 1
    assert "invalid basis" in err


def test_verify_unreadable_basis(tmp_path, capsys):
    bad = tmp_path / "basis.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--basis", str(bad))
    assert code == 1


# --- monogamy ----------------------------------------------------------------


def test_monogamy_default(capsys):
    code, out, _ = run(capsys, "monogamy")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 0.8
    assert doc["mode"] == "paper-abstract"


def test_monogamy_mimic(capsys):
    code, out, _ = run(capsys, "monogamy", "--mode", "mimic")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "mimic"
    assert doc["bound"] != 0.8 or doc["alpha"] != [2, 2]


def test_monogamy_custom_failure(tmp_path, capsys):
    doc = {
        "n": 4,
        "labels": ["a", "b", "c", "d"],
        "edges": [
            [0, 1, "exclusive"], [1, 2, "exclusive"],
            [2, 3, "exclusive"], [3, 0, "exclusive"],
        ],
        "parts": [[0, 1, 2, 3], []],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "monogamy", "--graph", str(path))
    assert code == 1
    assert "parts_chordal" in err


def test_monogamy_custom_graph_size_caps(tmp_path, capsys):
    # an edgeless graph in two parts passes every check but the size caps
    caps = {21: "capped at 20 vertices, got 21", 33: "vertex count 33 outside [0, 32]"}
    for n, message in caps.items():
        doc = {
            "n": n,
            "labels": [f"v{v}" for v in range(n)],
            "edges": [],
            "parts": [list(range(n // 2)), list(range(n // 2, n))],
        }
        path = tmp_path / f"graph{n}.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "monogamy", "--graph", str(path))
        assert code == 1
        assert message in err, err


# --- simulate ----------------------------------------------------------------


def simulate_report(tmp_path, capsys, *extra):
    out_path = tmp_path / "report.json"
    code, out, err = run(
        capsys,
        "simulate", "--rounds", "20000", "--seed", "7",
        "--sacrifice", "0.1", "--out", str(out_path), *extra,
    )
    return code, json.loads(out_path.read_text()), out, err


def test_simulate_ideal(tmp_path, capsys, schema):
    code, report, out, _ = simulate_report(tmp_path, capsys)
    assert code == 0
    assert report["key_stats"]["key_rate_per_transmission"] == pytest.approx(0.55, abs=0.01)
    assert report["security"]["verdict"] == "Secure"
    assert "oracle" not in report
    assert report["monogamy_anticorr_bounds"] == {"paper": 1.2, "derived": 1.6}
    jsonschema.validate(report, schema)
    # every human-readable number also appears in the JSON report
    for line in out.strip().splitlines():
        key, value = line.split()
        if key in ("rounds", "verdict"):
            continue
        assert value == format_value(report, key)


def format_value(report, key):
    section = report["key_stats"] if key in report["key_stats"] else report["security"]
    return str(section[key])


def test_simulate_with_eve(tmp_path, capsys, schema):
    code, report, _, _ = simulate_report(
        tmp_path, capsys, "--eve", "fixed:1", "--resend", "collapsed"
    )
    assert code == 0  # the optimal fixed attack still leaves K(A,B) > 5/8
    jsonschema.validate(report, schema)
    assert report["oracle"]["kab_expected"] == pytest.approx(0.898142, abs=1e-6)
    assert report["security"]["pe_estimate"] is not None
    assert report["diagnostics"]["note"].startswith("diagnostic only")
    assert report["kcbs_constants"]["paper"]["noncontextual_anticorr_form"] == 0.6
    assert report["kcbs_constants"]["derived"]["noncontextual_anticorr_form"] == 0.8


def test_simulate_rejects_resend_without_eve(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "simulate", "--rounds", "100", "--seed", "1", "--resend", "collapsed",
    )
    assert code == 1
    assert "resend" in err


def test_simulate_rejects_bad_eve_spec(capsys):
    code, _, err = run(capsys, "simulate", "--rounds", "100", "--seed", "1", "--eve", "quantum")
    assert code == 1


def test_simulate_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--rounds", "100"])
    assert exc.value.code == 1  # a usage error, not 2 (Insecure)
    capsys.readouterr()


def test_simulate_rejects_negative_seed(capsys):
    code, _, err = run(capsys, "simulate", "--rounds", "100", "--seed", "-1")
    assert code == 1
    assert err.startswith("simulate: seed -1")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--rounds", "10", "--seed", "1", "--json-out", "x.json"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --json-out" in capsys.readouterr().err


def test_simulate_without_sifted_rounds(capsys):
    # the only round of seed 1 falls out of context (C3)
    code, _, err = run(capsys, "simulate", "--rounds", "1", "--seed", "1")
    assert code == 1
    assert err.startswith("simulate: no sifted rounds")


def test_simulate_inconclusive_exit_code(tmp_path, capsys):
    # tiny sacrifice subset -> Inconclusive -> exit 3
    code, out, _ = run(
        capsys, "simulate", "--rounds", "500", "--seed", "3", "--sacrifice", "0.1",
    )
    assert code == 3
    assert "verdict Inconclusive" in out


def test_simulate_transcript_csv(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    code, _, _ = run(
        capsys,
        "simulate", "--rounds", "300", "--seed", "4", "--sacrifice", "0.0",
        "--transcript", str(csv_path),
    )
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 301
    assert lines[0].startswith("index,i,j,case")


def test_simulate_json_stdout_round_trip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "simulate", "--rounds", "20000", "--seed", "7",
        "--sacrifice", "0.1", "--out", str(out_path), "--json",
    )
    stdout_doc = json.loads(out)
    file_doc = json.loads(out_path.read_text())
    assert stdout_doc == file_doc
    # serialization is stable under a parse/dump round trip
    assert report_json(stdout_doc) == out_path.read_text().strip()


def check_unwritable(tmp_path, capsys, flag):
    """``flag`` aimed into a missing directory and at a directory: exit 1 with
    a message, and no temporary file left behind."""
    (tmp_path / "dir").mkdir()
    for target in (tmp_path / "missing" / "r", tmp_path / "dir"):
        code, _, err = run(capsys, "simulate", "--rounds", "300", "--seed", "4", flag, str(target))
        assert code == 1
        assert err.startswith("simulate: cannot write")
    assert not list(tmp_path.rglob("*.tmp"))


def test_simulate_out_write_error(tmp_path, capsys):
    check_unwritable(tmp_path, capsys, "--out")


def test_simulate_transcript_write_error(tmp_path, capsys):
    check_unwritable(tmp_path, capsys, "--transcript")


def test_simulate_builds_channel_once(capsys, monkeypatch):
    # the report's oracle reads the channel that the session sampled from
    from kcbs_qkd import adversary, protocol

    original = adversary.build_channel
    builds = []

    def counted(basis, resend):
        builds.append(resend)
        return original(basis, resend)

    for module in (adversary, protocol):
        monkeypatch.setattr(module, "build_channel", counted)
    run(capsys, "simulate", "--rounds", "300", "--seed", "4", "--eve", "fixed:1")
    assert builds == ["collapsed"]


def test_simulate_insecure_exit_code(tmp_path, capsys, monkeypatch):
    # no built-in attack drives K(A,B) below 5/8, so exercise the Insecure
    # exit path by substituting the security estimator
    import kcbs_qkd.cli as cli
    from kcbs_qkd.protocol import SECURITY_THRESHOLD, SecurityReport

    def fake_security(transcript, fraction, rng):
        return SecurityReport(
            kab_estimate=0.5,
            confidence_halfwidth=0.01,
            threshold=SECURITY_THRESHOLD,
            verdict="Insecure",
            sacrificed_count=1000,
        )

    monkeypatch.setattr(cli, "estimate_security", fake_security)
    code, out, _ = run(
        capsys, "simulate", "--rounds", "2000", "--seed", "1", "--sacrifice", "0.1",
    )
    assert code == 2
    assert "verdict Insecure" in out


def test_readme_usage_matches_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    parser = _build_parser()
    commands = parser._subparsers._group_actions[0].choices
    checked = 0
    for block in blocks:
        lines = [line.strip() for line in block.splitlines()]
        for n, line in enumerate(lines):
            if not line.startswith("kcbs-qkd "):
                continue
            if "[" not in line:  # a complete command line
                parser.parse_args(line.split()[1:])
            options = commands[line.split()[1]]._option_string_actions
            synopsis = line
            for more in lines[n + 1:]:
                if not more.startswith("["):
                    break
                synopsis += " " + more
            for flag, value in re.findall(r"(--[a-z-]+)(?: ([^\s\]]+))?", synopsis):
                assert flag in options, f"README flag {flag} unknown to the parser"
                if flag == "--mode":
                    assert set(value.split("|")) == set(options[flag].choices), synopsis
                checked += 1
    assert checked >= 15


def test_round_floats_precision():
    assert round_floats(0.1 + 0.2) == 0.3
    assert round_floats({"x": [float("nan")]}) == {"x": [None]}
