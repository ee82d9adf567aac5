"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavy Monte-Carlo criteria use fixed seeds and stated tolerances.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from conftest import D2_OVERLAP, synthetic_transcript
from kcbs_qkd.adversary import EveStrategy, attack_expectation, build_channel, estimate_pe
from kcbs_qkd.cli import main
from kcbs_qkd.graphs import verify_monogamy_decomposition
from kcbs_qkd.kcbs import ktilde, standard_basis
from kcbs_qkd.protocol import (
    ENTANGLED,
    PREPARE_MEASURE,
    ProtocolConfig,
    estimate_security,
    key_stats,
    run_session,
)
from kcbs_qkd.qutrit import QutritState, RngStream

NO_EVE = EveStrategy()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def config(basis, **kw):
    defaults = dict(
        mode=PREPARE_MEASURE,
        basis=basis,
        rounds=1000,
        sacrifice_fraction=0.1,
        eve=NO_EVE,
        seed=7,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def test_criterion_1_kcbs_value(basis):
    state = QutritState([0.0, 0.0, 1.0])
    start = time.perf_counter()
    value = ktilde(state, basis)
    elapsed = time.perf_counter() - start
    ok = abs(value - 0.4472135955) <= 1e-9 and value > 0.4 and elapsed < 1e-3
    report(
        "criterion 1 (KCBS value)",
        ok,
        f"ktilde={value:.10f}, bound 0.4 exceeded, runtime {elapsed * 1e6:.0f}us",
    )


def test_criterion_2_pentagon(basis):
    neighbor = max(
        abs(np.vdot(basis.source_vectors[i].amplitudes,
                    basis.source_vectors[(i + 1) % 5].amplitudes))
        for i in range(5)
    )
    d2 = [
        abs(np.vdot(basis.source_vectors[i].amplitudes,
                    basis.source_vectors[(i + 2) % 5].amplitudes))
        for i in range(5)
    ]
    ok = neighbor <= 1e-10 and all(abs(x - 0.618034) <= 1e-6 for x in d2)
    report(
        "criterion 2 (pentagon)",
        ok,
        f"max neighbor overlap {neighbor:.2e}, distance-2 overlaps "
        f"{[round(float(x), 6) for x in d2]}",
    )


def test_criterion_3_monogamy_certificate():
    start = time.perf_counter()
    cert = verify_monogamy_decomposition()
    elapsed = time.perf_counter() - start
    ok = (
        cert.chordal == (True, True)
        and cert.alpha == (2, 2)
        and cert.bound == 4 / 5
        and isinstance(cert.deterministic_max, int)
        and elapsed < 1.0
    )
    report(
        "criterion 3 (monogamy certificate)",
        ok,
        f"chordal={cert.chordal}, alpha={cert.alpha}, bound={cert.bound}, "
        f"deterministic_max={cert.deterministic_max}, runtime {elapsed:.3f}s",
    )


def test_criterion_4_ideal_statistics(basis):
    start = time.perf_counter()
    t = run_session(config(basis, rounds=100_000, seed=7))
    ks = key_stats(t)
    elapsed = time.perf_counter() - start
    ok = (
        abs(ks.sift_rate - 0.600) <= 0.006
        and abs(ks.p0 - 1 / 3) <= 0.01
        and abs(ks.p1 - 2 / 3) <= 0.01
        and abs(ks.shannon - 0.9183) <= 0.002
        and abs(ks.key_rate_per_transmission - 0.551) <= 0.005
        and ks.anticorr_fraction == 1.0
        and elapsed < 10.0
    )
    report(
        "criterion 4 (ideal statistics)",
        ok,
        f"sift={ks.sift_rate:.4f}, p0={ks.p0:.4f}, p1={ks.p1:.4f}, "
        f"S={ks.shannon:.4f}, rate={ks.key_rate_per_transmission:.4f}, "
        f"anticorr={ks.anticorr_fraction}, runtime {elapsed:.1f}s",
    )


def test_criterion_5_entangled_mode(basis):
    n = 100_000
    te = run_session(config(basis, rounds=n, seed=17, mode=ENTANGLED))
    tp = run_session(config(basis, rounds=n, seed=18))
    success = n / te.total_attempts

    def cells(t):
        i, j = t.columns[:2]
        return np.bincount(5 * i + j, minlength=25)

    # Bob's outcome is a deterministic function of (i, j) in both ideal
    # modes, so the joint (i, j, outcome) comparison reduces to (i, j) cells.
    table = np.vstack([cells(te), cells(tp)])
    _, p_value, _, _ = chi2_contingency(table)
    ok = abs(success - 1 / 3) <= 0.005 and p_value > 0.01
    report(
        "criterion 5 (entangled mode)",
        ok,
        f"per-attempt success {success:.4f}, chi-square p={p_value:.3f}",
    )


def test_criterion_6_adversary_oracle(basis):
    eve = EveStrategy(kind="fixed", setting=1)
    oracle = attack_expectation(eve, build_channel(basis, eve.resend))
    start = time.perf_counter()
    t = run_session(config(basis, rounds=1_000_000, seed=7, eve=eve))
    alice, bob, _ = t.sifted()
    n = len(alice)
    kab = np.count_nonzero(alice != bob) / n
    pe = estimate_pe(t)
    elapsed = time.perf_counter() - start
    kab_tol = 4 * math.sqrt(oracle.kab_expected * (1 - oracle.kab_expected) / n)
    pe_tol = 4 * math.sqrt(oracle.pe_expected * (1 - oracle.pe_expected) / n)
    security = estimate_security(t, 0.1, RngStream(7, stream_id=1_000_000))
    ok = (
        abs(kab - oracle.kab_expected) <= kab_tol
        and abs(pe - oracle.pe_expected) <= pe_tol
        and abs(oracle.kab_expected - 0.8981) < 2e-4
        and abs(oracle.pe_expected - 0.5491) < 2e-4
        and pe < kab  # P_B > P_E reproduced
        and security.verdict == "Secure"
        and elapsed < 60.0
    )
    report(
        "criterion 6 (adversary oracle)",
        ok,
        f"kab {kab:.4f} vs {oracle.kab_expected:.4f} (tol {kab_tol:.4f}), "
        f"pe {pe:.4f} vs {oracle.pe_expected:.4f} (tol {pe_tol:.4f}), "
        f"verdict {security.verdict}, runtime {elapsed:.1f}s",
    )


def test_criterion_7_threshold_logic(basis):
    verdicts = {}
    for fraction in (0.60, 0.625, 0.65):
        t = synthetic_transcript(basis, 40_000, fraction)
        rep = estimate_security(t, 0.5, RngStream(55, stream_id=0))
        verdicts[fraction] = rep.verdict
    ok = (
        verdicts[0.60] == "Insecure"
        and verdicts[0.625] == "Inconclusive"
        and verdicts[0.65] == "Secure"
    )
    report("criterion 7 (threshold logic)", ok, f"verdicts {verdicts}")


def test_criterion_8a_graph_cross_checks():
    from test_graphs import brute_force_alpha, naive_is_chordal, random_graph
    from kcbs_qkd.graphs import EdgeKind, independence_number, is_chordal, noncontextual_max

    rng = np.random.Generator(np.random.Philox(key=4242))
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 10))
        g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.7)))
        if independence_number(g) != noncontextual_max(g):
            mismatches += 1
        if is_chordal(g) != naive_is_chordal(g):
            mismatches += 1
    report(
        "criterion 8a (graph oracle cross-checks)",
        mismatches == 0,
        f"{mismatches} mismatches over 200 random instances",
    )


# Byte-exact `simulate --rounds 5000` reports for each mode and Eve kind, and
# the sha256 of the Eve runs' CSV transcripts (tests/golden/transcripts.sha256).
# Regenerate them only for an intended change of the report or the draws.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CONFIGS = {
    "prepare_absent": ["--mode", "prepare", "--seed", "11"],
    "prepare_fixed1_collapsed": [
        "--mode", "prepare", "--seed", "12", "--eve", "fixed:1", "--resend", "collapsed",
    ],
    "prepare_random_eigenstate": [
        "--mode", "prepare", "--seed", "13", "--eve", "random", "--resend", "eigenstate",
    ],
    "entangled_absent": ["--mode", "entangled", "--seed", "14"],
    "entangled_fixed1_collapsed": [
        "--mode", "entangled", "--seed", "15", "--eve", "fixed:1", "--resend", "collapsed",
    ],
    "entangled_random_eigenstate": [
        "--mode", "entangled", "--seed", "16", "--eve", "random", "--resend", "eigenstate",
    ],
}


def test_criterion_8b_golden_reports(tmp_path, capsys):
    hashes = {}
    for line in (GOLDEN / "transcripts.sha256").read_text().splitlines():
        digest, name = line.split()
        hashes[name] = digest
    mismatches = []
    for name, flags in GOLDEN_CONFIGS.items():
        out = tmp_path / f"{name}.json"
        csv = tmp_path / f"{name}.csv"
        main(["simulate", "--rounds", "5000", *flags,
              "--out", str(out), "--transcript", str(csv)])
        if out.read_bytes() != (GOLDEN / f"{name}.json").read_bytes():
            mismatches.append(f"{name}.json")
        if f"{name}.csv" in hashes and (
            hashlib.sha256(csv.read_bytes()).hexdigest() != hashes[f"{name}.csv"]
        ):
            mismatches.append(f"{name}.csv")
    capsys.readouterr()
    report(
        "criterion 8b (golden reports)",
        not mismatches and len(hashes) == 4,
        f"{len(GOLDEN_CONFIGS)} reports and {len(hashes)} transcript hashes checked, "
        f"mismatches {mismatches}",
    )
