"""The benchmark's checks accept real output and reject corrupted output.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kcbs_qkd.cli import main  # noqa: E402

ROUNDS = 3000
SPEC = {
    "mode": "entangled",
    "rounds": ROUNDS,
    "seed": 11,
    "sacrifice_fraction": 0.1,
    "eve": {"kind": "random", "setting": None, "resend": "eigenstate"},
}


@pytest.fixture(scope="module")
def validator():
    return checks.load_schema(ROOT)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """One real entangled session with its report, exit code and CSV lines."""
    tmp = tmp_path_factory.mktemp("session")
    argv = ["simulate", "--mode", "entangled", "--rounds", str(ROUNDS), "--seed", "11",
            "--eve", "random", "--resend", "eigenstate", "--out", str(tmp / "report.json"),
            "--transcript", str(tmp / "rounds.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report = (tmp / "report.json").read_text()
    lines = (tmp / "rounds.csv").read_text().splitlines(keepends=True)
    return report, code, lines


def write_csv(tmp_path, lines) -> Path:
    path = tmp_path / "rounds.csv"
    path.write_text("".join(lines))
    return path


def test_exact_computation_reproduces_paper():
    assert checks.check_published() == []
    kab, pe = checks.exact_attack({"kind": "fixed", "setting": 3, "resend": "eigenstate"})
    assert kab == pytest.approx(0.8981, abs=2e-4)
    assert pe == pytest.approx(0.5491, abs=2e-4)
    assert checks.exact_attack({"kind": "absent"}) == (1.0, None)


def test_binomial_bounds():
    assert checks.binomial_ok(6000, 10_000, 3 / 5)
    assert not checks.binomial_ok(6400, 10_000, 3 / 5)
    assert not checks.binomial_ok(5600, 10_000, 3 / 5)
    assert checks.attempts_ok(1000, 3000)
    assert not checks.attempts_ok(1000, 2000)
    assert not checks.attempts_ok(1000, 4000)


def test_real_session_passes(session, validator, tmp_path):
    report, code, lines = session
    assert checks.check_report(json.loads(report), SPEC, code, validator) == []
    assert checks.check_csv(write_csv(tmp_path, lines), json.loads(report)) == []


def test_flipped_bits_in_report_rejected(session, validator, tmp_path):
    report, code, lines = session
    key = '"anticorr_fraction": '
    at = report.index(key) + len(key) + 4  # a digit of the value
    flipped = report[:at] + chr(ord(report[at]) ^ 1) + report[at + 1:]
    doc = json.loads(flipped)
    assert checks.check_report(doc, SPEC, code, validator)
    assert checks.check_csv(write_csv(tmp_path, lines), doc)


def test_flipped_key_bits_in_csv_rejected(session, tmp_path):
    report, _, lines = session
    flipped = list(lines)
    changed = 0
    for n, line in enumerate(lines[1:], start=1):
        row = line.rstrip("\r\n").split(",")
        if row[3] != "C3" and changed < 3:
            row[4] = row[6] = str(1 - int(row[6]))  # Bob's outcome and bit together
            flipped[n] = ",".join(row) + "\r\n"
            changed += 1
    assert changed == 3
    assert checks.check_csv(write_csv(tmp_path, flipped), json.loads(report))


@pytest.mark.parametrize("verdict, exit_code", [("Insecure", 2), ("Insecure", 0), ("Inconclusive", 3)])
def test_wrong_verdict_rejected(session, validator, verdict, exit_code):
    report, _, _ = session
    doc = json.loads(report)
    doc["security"]["verdict"] = verdict
    assert checks.check_report(doc, SPEC, exit_code, validator)


def test_wrong_exit_code_rejected(session, validator):
    report, _, _ = session
    assert checks.check_report(json.loads(report), SPEC, 2, validator)


@pytest.mark.parametrize("cut", ["rows", "mid-line"])
def test_truncated_csv_rejected(session, tmp_path, cut):
    report, _, lines = session
    if cut == "rows":
        truncated = lines[:-10]
    else:
        truncated = lines[:-1] + [lines[-1][:3]]
    assert checks.check_csv(write_csv(tmp_path, truncated), json.loads(report))


def test_schema_violation_rejected(session, validator):
    report, code, _ = session
    doc = json.loads(report)
    del doc["key_stats"]["p1"]
    assert checks.check_report(doc, SPEC, code, validator)


def test_no_eve_requires_perfect_anticorrelation(validator, tmp_path):
    argv = ["simulate", "--rounds", "2000", "--seed", "5", "--out", str(tmp_path / "r.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    doc = json.loads((tmp_path / "r.json").read_text())
    spec = dict(SPEC, mode="prepare_measure", rounds=2000, seed=5,
                eve={"kind": "absent", "setting": None, "resend": "collapsed"})
    assert checks.check_report(doc, spec, code, validator) == []
    sifted = round(doc["key_stats"]["sift_rate"] * 2000)
    doc["key_stats"]["anticorr_fraction"] = float(f"{(sifted - 1) / sifted:.15g}")
    assert checks.check_report(doc, spec, code, validator)


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
