import ast
import gc
import importlib
import importlib.resources
import json
import math
import re
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcbs_qkd.cli import _build_parser, _report_float, main, report_json
from kcbs_qkd.kcbs import standard_basis


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


def _standard_rows():
    return standard_basis().rays.real.tolist()


def test_verify_rotated_basis(tmp_path, capsys):
    # the witness maximum does not depend on the pentagon's orientation: the
    # standard rays turned by a real orthogonal or a complex unitary matrix
    rng = np.random.default_rng(5)
    orthogonal, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    unitary, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rays = np.array(_standard_rows())
    documents = {
        "real": (rays @ orthogonal.T).tolist(),
        "complex": [[[c.real, c.imag] for c in ray] for ray in rays @ unitary.T],
    }
    for name, doc in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--json", "--basis", str(path))
        assert code == 0, (name, err)
        block = json.loads(out)
        assert block["ok"] is True
        assert block["ktilde_max"] == pytest.approx(math.sqrt(5) / 5, abs=1e-9), name
        assert 0.0 <= block["pentagon_max_neighbor_overlap"] <= 1e-10, name


def test_verify_irregular_pentagon(tmp_path, capsys):
    # a pentagon whose neighbours are orthogonal, so KcbsBasis takes it, but
    # not the regular one: its witness maximum misses the quantum bound
    v2 = [math.cos(1.0), 0.0, math.sin(1.0)]
    v4 = [0.0, math.cos(1.2), math.sin(1.2)]
    v3 = np.cross(v2, v4)
    rays = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], v2, (v3 / np.linalg.norm(v3)).tolist(), v4]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(rays))
    code, out, err = run(capsys, "verify", "--basis", str(path))
    assert code == 1
    assert "ktilde_max 0.440344" in out and "ok False" in out
    assert "verify: scenario invariants failed" in err
    code, out, err = run(capsys, "verify", "--json", "--basis", str(path))
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "verify: scenario invariants failed" in err


def test_verify_corrupt_basis(tmp_path, capsys):
    rows = _standard_rows()
    x = rows[0][0]
    documents = [
        [[1, 0, 0]] * 5,
        # amplitudes are numbers or [re, im] pairs of numbers, never coerced
        [[str(c) for c in row] for row in rows],
        [[bool(c) if c in (0.0, 1.0) else c for c in row] for row in rows],
        [[[x, 0, 99], *rows[0][1:]], *rows[1:]],
        [[[x], *rows[0][1:]], *rows[1:]],
        [[[x, "0"], *rows[0][1:]], *rows[1:]],
        [[None, *rows[0][1:]], *rows[1:]],
    ]
    bad = tmp_path / "basis.json"
    for doc in documents:
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--basis", str(bad))
        assert code == 1, doc
        assert "verify: invalid basis: " in err, doc


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


def test_monogamy_goldens(capsys):
    # the whole output, edge order included, of both built-in certificates
    golden = Path(__file__).parent / "golden"
    for name, argv in (("paper_abstract", ()), ("mimic", ("--mode", "mimic"))):
        code, out, _ = run(capsys, "monogamy", *argv)
        assert code == 0
        assert out == (golden / f"monogamy_{name}.json").read_text(), name


def test_monogamy_mode_and_graph_exclusive(tmp_path, capsys):
    # a built-in mode and a custom graph cannot both be certified: a usage error
    path = tmp_path / "graph.json"
    path.write_text("{}")
    for mode in ("paper-abstract", "mimic"):
        with pytest.raises(SystemExit) as exc:
            main(["monogamy", "--mode", mode, "--graph", str(path)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err


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
    # an edgeless graph in two parts passes every check up to ContextGraph's
    # cap of 32 vertices, and each of its vertices counts once
    for n in (21, 32, 33):
        doc = {
            "n": n,
            "labels": [f"v{v}" for v in range(n)],
            "edges": [],
            "parts": [list(range(n // 2)), list(range(n // 2, n))],
        }
        path = tmp_path / f"graph{n}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "monogamy", "--graph", str(path))
        if n <= 32:
            assert code == 0, err
            cert = json.loads(out)
            assert (cert["alpha"], cert["deterministic_max"]) == ([n // 2, n - n // 2], n)
        else:
            assert code == 1 and out == ""
            assert "vertex count 33 outside [0, 32]" in err, err


def test_monogamy_custom_graph_types_rejected(tmp_path, capsys):
    # labels must be a list of strings, n and every vertex a true integer, not coerced
    good = {"n": 3, "labels": ["a", "b", "c"], "edges": [], "parts": [[0, 1], [2]]}
    bad = {
        "float_edge": (
            {"edges": [[0, 1.9, "exclusive"]]}, "edge vertex must be an integer, got 1.9"
        ),
        "bool_edge": (
            {"edges": [[True, 2, "exclusive"]]}, "edge vertex must be an integer, got True"
        ),
        "string_edge": (
            {"edges": [["2", 0, "compatible"]]}, "edge vertex must be an integer, got '2'"
        ),
        "float_part": ({"parts": [[0, 1.5], [2]]}, "part vertex must be an integer, got 1.5"),
        "bool_part": ({"parts": [[0, 1], [True]]}, "part vertex must be an integer, got True"),
        "string_part": ({"parts": [[0, 1], ["2"]]}, "part vertex must be an integer, got '2'"),
        "labels": ({"labels": "abc"}, "labels must be a list of strings"),
        "edges_object": ({"edges": {}}, "edges must be a list of [u, v, kind] triples"),
        "label_types": ({"labels": ["a", "b", 3]}, "labels must be a list of strings"),
        "float_n": ({"n": 3.7}, "n must be an integer, got 3.7"),
        "bool_n": (
            {"n": True, "labels": ["a"], "parts": [[0], []]},
            "n must be an integer, got True",
        ),
    }
    # whole documents: each error names the field at fault
    documents = {
        "no_n": ({k: v for k, v in good.items() if k != "n"}, "graph document lacks n"),
        "no_labels": ({k: v for k, v in good.items() if k != "labels"},
                      "graph document lacks labels"),
        "no_edges": ({k: v for k, v in good.items() if k != "edges"},
                     "graph document lacks edges"),
        "no_parts": ({k: v for k, v in good.items() if k != "parts"},
                     "document must supply exactly two parts"),
        "list": ([good], "graph document must be a JSON object with keys n, labels, edges, got"),
        "short_edge": ({**good, "edges": [[0, 1]]}, "each edge must be a [u, v, kind] triple"),
    }
    cases = {name: ({**good, **change}, message) for name, (change, message) in bad.items()}
    for name, (doc, message) in {**cases, **documents}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "monogamy", "--graph", str(path))
        assert code == 1 and out == "", name
        assert message in err, err


def test_monogamy_custom_unknown_part_vertex(tmp_path, capsys):
    doc = {"n": 3, "labels": ["a", "b", "c"], "edges": [], "parts": [[0, 1, 2], [7]]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "monogamy", "--graph", str(path))
    assert code == 1
    assert "parts_vertices: vertices [7] not in 0..2" in err, err


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
    assert err == "simulate: --resend requires an eavesdropper (--eve fixed:K|random)\n"


def test_simulate_rejects_unknown_resend(capsys):
    # a usage error, as an unknown --mode is
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--rounds", "100", "--seed", "1", "--eve", "random",
              "--resend", "teleport"])
    assert exc.value.code == 1
    assert "argument --resend: invalid choice: 'teleport'" in capsys.readouterr().err


def test_simulate_rejects_bad_eve_spec(capsys):
    # only absent, fixed:0 to fixed:4 and random, and the error names them
    for spec in ("quantum", "fixed:", "fixed:x", "fixed: 1", "fixed:\u0661", "fixed:5", "fixed:-1", "fixed:01"):
        code, out, err = run(capsys, "simulate", "--rounds", "100", "--seed", "1", "--eve", spec)
        assert code == 1 and out == "", spec
        assert err == (
            f"simulate: unknown eavesdropper spec {spec!r}: use absent, fixed:0 to fixed:4, or random\n"
        )


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


def test_simulate_rejects_rounds_beyond_memory(capsys):
    # numpy refuses a transcript of 2^62 rounds by arithmetic, before it
    # allocates anything; a count the kernel could start to fill is not tried
    code, out, err = run(capsys, "simulate", "--rounds", str(2**62), "--seed", "1")
    assert code == 1 and out == ""
    assert err.startswith(f"simulate: cannot hold {2**62} rounds: ") and err.count("\n") == 1, err


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


def test_simulate_transcript_adds_no_peak(tmp_path, capsys):
    # the CSV writer and the report's text each hold less than the session
    # kernel, so the whole command peaks at run_session with or without the
    # transcript
    argv = ["simulate", "--mode", "entangled", "--eve", "random", "--rounds", "20000",
            "--out", str(tmp_path / "report.json")]
    csv = ["--transcript", str(tmp_path / "t.csv")]
    run(capsys, *argv, "--seed", "1", *csv)  # warm: the channel, the oracle, the tables
    peaks = []
    for extra in (csv, []):
        gc.collect()
        tracemalloc.start()
        try:
            main(argv + ["--seed", "7"] + extra)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    assert peaks[0] <= 1.01 * peaks[1], peaks


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


def test_simulate_rejects_out_equal_to_transcript(tmp_path, capsys):
    # the CSV would replace the report
    path = tmp_path / "p"
    code, out, err = run(
        capsys, "simulate", "--rounds", "2000", "--seed", "3",
        "--out", str(path), "--transcript", str(tmp_path / "." / "p"),
    )
    assert code == 1 and out == ""
    assert err == "simulate: --out and --transcript name the same file\n"
    assert not list(tmp_path.iterdir())


def test_simulate_rejects_out_on_transcript_temporary(tmp_path, capsys):
    # the CSV is written through <transcript>.tmp, which would replace the report
    path = tmp_path / "p"
    code, out, err = run(
        capsys, "simulate", "--rounds", "2000", "--seed", "3",
        "--transcript", str(path), "--out", f"{path}.tmp",
    )
    assert code == 1 and out == ""
    assert err == f"simulate: --out names the temporary file of --transcript {path}\n"
    assert not list(tmp_path.iterdir())
    # the other way round, the report's temporary file is gone before the CSV is written
    code, _, _ = run(
        capsys, "simulate", "--rounds", "2000", "--seed", "3",
        "--out", str(path), "--transcript", f"{path}.tmp",
    )
    assert code != 1
    assert json.loads(path.read_text())["config"]["rounds"] == 2000
    assert Path(f"{path}.tmp").read_text().startswith("index,")


def test_simulate_failed_write_leaves_outputs_untouched(tmp_path, capsys):
    # an exit code that means error comes with no output that looks finished:
    # neither path is created, and an existing file at either is kept
    report, csv_path = tmp_path / "r.json", tmp_path / "t.csv"
    missing = tmp_path / "missing"
    for out, transcript in (
        (report, missing / "x.csv"),
        (missing / "r.json", csv_path),
        (report, tmp_path),
        (tmp_path, csv_path),
    ):
        code, _, err = run(
            capsys, "simulate", "--rounds", "2000", "--seed", "3",
            "--out", str(out), "--transcript", str(transcript),
        )
        assert code == 1
        assert err.startswith("simulate: cannot write")
        assert not report.exists() and not csv_path.exists()
    report.write_text("old report")
    csv_path.write_text("old transcript")
    for out, transcript in ((report, missing / "x.csv"), (missing / "r.json", csv_path)):
        code, _, _ = run(
            capsys, "simulate", "--rounds", "2000", "--seed", "3",
            "--out", str(out), "--transcript", str(transcript),
        )
        assert code == 1
    assert report.read_text() == "old report" and csv_path.read_text() == "old transcript"
    assert not list(tmp_path.rglob("*.tmp"))


def test_simulate_successful_write_removes_nothing(tmp_path, capsys, monkeypatch):
    # each output's temporary file is renamed over its path, so there is
    # nothing left to remove
    import os

    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    report, csv_path = tmp_path / "r.json", tmp_path / "t.csv"
    code, _, _ = run(
        capsys, "simulate", "--rounds", "2000", "--seed", "3",
        "--out", str(report), "--transcript", str(csv_path),
    )
    assert code == 0 and report.exists() and csv_path.exists()
    assert removed == []


def _traced_calls() -> tuple:
    """The benchmark tracer's (module, attribute, span) triples, read from
    ``perfbench/run.py`` without running it."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "run.py").read_text())
    (value,) = (node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED_CALLS"])
    return ast.literal_eval(value)


def test_simulate_calls_each_traced_global_once(tmp_path, capsys, monkeypatch):
    # the per-process caches live in the callees: every call of simulate still
    # calls each global that the benchmark's tracer patches once, as it
    # assumes; with a transcript, Eve and a subset large enough for p_E
    names = [f"{module}.{attr}" for module, attr, _ in _traced_calls()]
    assert {"cli.write_transcript_csv", "protocol.estimate_pe"} <= set(names)
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        module, attr = name.split(".")
        mod = importlib.import_module(f"kcbs_qkd.{module}")
        monkeypatch.setattr(mod, attr, counted(name, getattr(mod, attr)))
    for _ in range(2):
        code, _, _ = run(capsys, "simulate", "--rounds", "2000", "--seed", "4", "--eve", "fixed:1",
                         "--transcript", str(tmp_path / "t.csv"))
        assert code == 0
        assert calls == dict.fromkeys(names, 1)
        calls.update(dict.fromkeys(names, 0))


def test_simulate_builds_channel_once(capsys):
    # the report's oracle reads the channel that the session sampled from,
    # whether or not the oracle is cached already
    from kcbs_qkd.adversary import build_channel

    build_channel.cache_clear()
    run(capsys, "simulate", "--rounds", "300", "--seed", "4", "--eve", "fixed:1")
    assert build_channel.cache_info().misses == 1


@pytest.mark.parametrize("mode", ["prepare", "entangled"])
def test_resend_labels_name_one_channel(tmp_path, capsys, mode):
    # Eve's click projector has rank 1, so both resend labels name her one
    # Lüders channel: a session under either label writes the same CSV and a
    # report that differs in the label alone, both read one channel, and
    # their oracles are equal field for field
    from kcbs_qkd.adversary import EveStrategy, build_channel
    from kcbs_qkd.protocol import attack_expectation

    for eve in [*(f"fixed:{k}" for k in range(5)), "random"]:
        build_channel.cache_clear()
        runs = []
        for resend in ("collapsed", "eigenstate"):
            out, csv = tmp_path / f"{resend}.json", tmp_path / f"{resend}.csv"
            run(capsys, "simulate", "--rounds", "2000", "--seed", "9", "--mode", mode,
                "--eve", eve, "--resend", resend, "--out", str(out), "--transcript", str(csv))
            report = json.loads(out.read_text())
            assert report["config"]["eve"].pop("resend") == resend
            runs.append((csv.read_bytes(), report))
        assert runs[0] == runs[1], (mode, eve)
        assert build_channel.cache_info().misses == 1, (mode, eve)
        kind, _, setting = eve.partition(":")
        oracles = [attack_expectation(EveStrategy(kind, int(setting) if setting else None, resend),
                                      standard_basis())
                   for resend in ("collapsed", "eigenstate")]
        assert oracles[0] == oracles[1], (mode, eve)


def test_simulate_insecure_exit_code(tmp_path, capsys, monkeypatch):
    # no built-in attack drives K(A,B) below 5/8, so exercise the Insecure
    # exit path by substituting the security estimator
    import kcbs_qkd.cli as cli
    from kcbs_qkd.protocol import SECURITY_THRESHOLD, SecurityReport

    def fake_security(transcript):
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
                if flag in ("--mode", "--resend"):
                    assert set(value.split("|")) == set(options[flag].choices), synopsis
                checked += 1
    assert checked >= 15


def test_every_option_has_help():
    commands = _build_parser()._subparsers._group_actions[0].choices
    missing = [
        f"{name} {action.option_strings[-1]}"
        for name, command in commands.items()
        for action in command._actions
        if action.option_strings and not action.help
    ]
    assert missing == []


# --- text output ---------------------------------------------------------------

# The whole standard output of the commands without --json, each printed
# value rounded as the report rounds it: verify, a Secure session that prints
# p_E, and an Inconclusive one, whose sacrificed subset is too small for K(A,B)
TEXT_OUTPUTS = {
    ("verify",): (0, """\
pentagon_max_neighbor_overlap 2.39049309900246e-32
ktilde_max 0.447214
noncontextual_bound 0.4
quantum_bound 0.447214
exclusivity_max 0.5
ok True
"""),
    ("simulate", "--rounds", "2000", "--seed", "7", "--eve", "fixed:1"): (0, """\
rounds 2000
sift_rate 0.5905
p0 0.312447078746825
p1 0.687552921253175
shannon 0.895978025018962
key_rate_per_transmission 0.529075023773697
anticorr_fraction 0.92887383573243
kab_estimate 0.949152542372881
threshold 0.625
verdict Secure
pe_estimate 0.541066892464014
"""),
    ("simulate", "--rounds", "500", "--seed", "3", "--sacrifice", "0.1"): (3, """\
rounds 500
sift_rate 0.618
p0 0.288025889967638
p1 0.711974110032362
shannon 0.866157486378697
key_rate_per_transmission 0.535285326582035
anticorr_fraction 1.0
kab_estimate None
threshold 0.625
verdict Inconclusive
"""),
}


@pytest.mark.parametrize("argv", TEXT_OUTPUTS, ids=lambda argv: " ".join(argv))
def test_text_output_pinned(capsys, argv):
    assert run(capsys, *argv)[:2] == TEXT_OUTPUTS[argv]


def round_floats(obj):
    """The reports' rounding, spelled out on a whole document: floats to 15
    significant digits, NaN as None, tuples as lists."""
    if isinstance(obj, float):
        return None if math.isnan(obj) else float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def test_round_floats_precision():
    for rounded in (round_floats, _report_float):
        assert rounded(0.1 + 0.2) == 0.3
        assert rounded(float("nan")) is None
    assert round_floats({"x": [float("nan")]}) == {"x": [None]}


# --- report_json's text cache -------------------------------------------------

CONSTANT_KEYS = ("kcbs_constants", "monogamy_certificate", "monogamy_anticorr_bounds", "oracle")


def plain_json(doc):
    return json.dumps(round_floats(doc), indent=2, sort_keys=True)


# strings a splice could mistake for the place of a constant block
TRICKY = st.sampled_from(
    ["\x00", "\x00oracle\x00", '\n  "oracle": null', '"oracle": null', "null", "\n  "]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | TRICKY,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=5) | TRICKY | st.sampled_from(CONSTANT_KEYS),
                          inner, max_size=3)
    ),
    max_leaves=12,
)


# each side of %g's switch to an exponent, whole numbers, signed zero,
# subnormals, and finite floats that round to infinity
FLOAT_EDGES = [
    0.0, -0.0, 1.0, -3.0, 1e-4, 9.99999999999999e-5, 1e-5, 1e14, 1e15, 1e16,
    123456789012345.6, 999999999999999.9, 9999999999999999.0, 5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    math.inf, -math.inf, math.nan, 0.1 + 0.2, 1 / 3, np.float64(2 / 3),
    *(math.nextafter(10.0 ** e, d) for e in range(-6, 17) for d in (0, math.inf)),
]


@given(st.dictionaries(st.sampled_from(CONSTANT_KEYS) | st.text(max_size=8) | TRICKY,
                       JSON_VALUES, max_size=7))
@example({"config": FLOAT_EDGES, "oracle": tuple(FLOAT_EDGES)})
@settings(max_examples=300, deadline=None)
def test_report_json_matches_plain_encoder(doc):
    expected = plain_json(doc)
    assert report_json(doc) == expected  # cold or warm, whatever ran before
    assert report_json(doc) == expected  # warm


def test_constant_blocks_independent_of_mode(capsys):
    # every report embeds the paper-abstract certificate: the constant blocks
    # depend on Eve and the basis, not on the session's mode
    for eve in (("--eve", "absent"), ("--eve", "fixed:1", "--resend", "collapsed"),
                ("--eve", "random", "--resend", "eigenstate")):
        modes, blocks = [], []
        for mode in ("prepare", "entangled"):
            _, out, _ = run(capsys, "simulate", "--rounds", "300", "--seed", "4",
                            "--mode", mode, *eve, "--json")
            report = json.loads(out)
            modes.append(report["config"]["mode"])
            blocks.append({key: report.get(key) for key in CONSTANT_KEYS})
        assert modes[0] != modes[1] and blocks[0] == blocks[1], eve
        assert (blocks[0]["oracle"] is None) == (eve[1] == "absent"), eve


def test_report_json_follows_a_changed_block():
    doc = {"oracle": {"kab_expected": 0.75, "table": [[0.1, None], []]}, "version": "x"}
    first = report_json(doc)
    doc["oracle"]["table"][0][0] = 0.2
    second = report_json(doc)
    assert second != first and second == plain_json(doc)
    doc["oracle"]["table"][0][0] = 0.1
    assert report_json(doc) == first


def test_report_json_renders_unpicklable_blocks():
    # a block kept by no key is rendered on every call
    class Label(str):
        pass

    doc = {"oracle": {"label": Label("x")}, "kcbs_constants": np.float64(0.1 + 0.2)}
    assert report_json(doc) == report_json(doc) == plain_json(doc)


def test_mutated_report_leaves_next_report_unchanged(capsys, monkeypatch):
    # build_report's blocks are new dicts of shared immutable values: a
    # caller that edits one changes neither the next report nor its text
    import kcbs_qkd.cli as cli

    reports = []

    def kept(*args):
        reports.append(build_report(*args))
        return reports[-1]

    build_report = cli.build_report
    monkeypatch.setattr(cli, "build_report", kept)
    argv = ("simulate", "--rounds", "300", "--seed", "4", "--eve", "fixed:1", "--json")
    _, first, _ = run(capsys, *argv)
    report = reports[-1]
    report["oracle"]["kab_expected"] = 0
    report["kcbs_constants"]["paper"]["exclusivity_max"] = 0
    report["kcbs_constants"]["derived"].clear()
    report["monogamy_certificate"]["parts"][0].append(9)
    report["config"]["eve"]["setting"] = 3
    _, second, _ = run(capsys, *argv)
    assert second == first
    assert report_json(report) == plain_json(report) != first.rstrip("\n")


def test_warm_report_encodes_once(capsys, monkeypatch):
    # the constant blocks are encoded once, and no report goes through
    # json.dumps: a warm session makes no indented call and no cache miss
    import kcbs_qkd.cli as cli

    argv = ("simulate", "--rounds", "300", "--seed", "4", "--eve", "random", "--json")
    _, first, _ = run(capsys, *argv)
    indented = []

    def spy(*args, **kwargs):
        if kwargs.get("indent") is not None:
            indented.append(args)
        return dumps(*args, **kwargs)

    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", spy)
    misses = cli._pickled_text.cache_info().misses
    _, second, _ = run(capsys, *argv)
    assert second == first
    assert indented == []
    assert cli._pickled_text.cache_info().misses == misses


def test_report_json_rejects_non_str_keys():
    # json.dumps would write 1 as "1"; a report's keys are str at every depth
    for doc in ({1: 0.5}, {"config": {2: "x"}}, {"oracle": {None: 1}}, {"a": [{(1,): 2}]}):
        with pytest.raises(TypeError, match="keys must be str"):
            report_json(doc)
    with pytest.raises(TypeError, match="not JSON serializable"):
        report_json({"config": {1, 2}})


@pytest.mark.parametrize("argv", [
    ("simulate", "--rounds", "300", "--seed", "4", "--eve", "random", "--json"),
    ("simulate", "--rounds", "300", "--seed", "4", "--mode", "entangled", "--out", "{out}"),
    ("verify", "--json"),
    ("monogamy",),
])
def test_warm_command_leaves_no_cyclic_garbage(argv, tmp_path, capsys):
    # nothing a warm command allocates waits for the cyclic collector
    argv = [a.format(out=tmp_path / "report.json") for a in argv]
    run(capsys, *argv)
    gc.collect()
    gc.disable()
    try:
        main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
