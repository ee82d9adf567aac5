"""Independent correctness checks for `kcbs-qkd simulate` reports and transcripts.

The expected statistics come from an exact computation written here with
numpy: the pentagon rays from their closed form, and Eve's intercept-resend
branches as explicit density matrices.  Nothing is imported from
``kcbs_qkd.adversary``, so the checks stay independent of the code they judge.

Observed frequencies are tested against the exact values with Chernoff
(Kullback-Leibler) tail bounds at a fixed per-check error probability, so the
acceptance regions are fixed before any session runs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import jsonschema
import numpy as np

THRESHOLD = 5 / 8
PUBLISHED_KAB = 0.8981
PUBLISHED_PE = 0.5491
PUBLISHED_TOL = 2e-4
SIFT_RATE = 3 / 5  # 15 of the 25 (i, j) pairs lie in one context
P1 = 2 / 3  # of those, 10 are neighbours (Alice writes 1)
CLICK_ENTANGLED = 1 / 3  # Alice's click probability per attempt
DELTA = 1e-10  # error probability allowed to each binomial check
EXIT_CODES = {"Secure": 0, "Insecure": 2, "Inconclusive": 3}
KEY_STAT_FIELDS = ("sift_rate", "p0", "p1", "anticorr_fraction")
ENTROPY_FIELDS = ("shannon", "key_rate_per_transmission")


def pentagon_projectors() -> np.ndarray:
    """The five rank-1 projectors |v_i><v_i|, v_i ~ (cos 4pi i/5, -sin 4pi i/5, sqrt(cos pi/5))."""
    angle = 4 * math.pi * np.arange(5) / 5
    rays = np.stack(
        [np.cos(angle), -np.sin(angle), np.full(5, math.sqrt(math.cos(math.pi / 5)))],
        axis=1,
    )
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    return np.einsum("ia,ib->iab", rays, rays)


def exact_attack(eve: dict) -> tuple[float, float | None]:
    """Exact (K(A,B), p_E) over sifted rounds for an Eve spec as in the report.

    Alice prepares ray i, Bob measures P_j; a round is sifted when j - i is 0
    or +-1 mod 5, and Alice's bit is 0 when i == j.  Eve measures {P_k, I-P_k}
    and resends the collapsed state, or the ray k on a click under
    ``eigenstate``; she guesses Alice's bit as 1 - (her outcome).
    """
    proj = pentagon_projectors()
    dist = (np.arange(5)[None, :] - np.arange(5)[:, None]) % 5  # [i, j]
    sifted = np.isin(dist, (0, 1, 4))
    alice = dist != 0
    if eve["kind"] == "absent":
        click = np.einsum("jab,iba->ij", proj, proj)
        return float(np.where(alice, 1 - click, click)[sifted].mean()), None
    settings = [eve["setting"]] if eve["kind"] == "fixed" else range(5)
    anti = np.zeros((5, 5))
    guess = np.zeros((5, 5))
    for k in settings:
        weight = 1 / len(settings)
        for outcome, m in ((1, proj[k]), (0, np.eye(3) - proj[k])):
            post = np.einsum("ab,ibc,cd->iad", m, proj, m)  # M rho_i M, unnormalised
            p_branch = np.einsum("iaa->i", post)
            if outcome == 1 and eve["resend"] == "eigenstate":
                post = p_branch[:, None, None] * proj[k]
            click = np.einsum("jab,iba->ij", proj, post)  # P(branch, Bob clicks | i, j)
            anti += weight * np.where(alice, p_branch[:, None] - click, click)
            guess += weight * p_branch[:, None] * ((1 - outcome) == alice)
    return float(anti[sifted].mean()), float(guess[sifted].mean())


def check_published() -> list[str]:
    """The exact computation must reproduce the paper's K(A,B) and p_E."""
    kab, pe = exact_attack({"kind": "fixed", "setting": 1, "resend": "collapsed"})
    problems = []
    if abs(kab - PUBLISHED_KAB) > PUBLISHED_TOL:
        problems.append(f"exact K(A,B) {kab:.6f} is not the published {PUBLISHED_KAB}")
    if abs(pe - PUBLISHED_PE) > PUBLISHED_TOL:
        problems.append(f"exact p_E {pe:.6f} is not the published {PUBLISHED_PE}")
    if exact_attack({"kind": "absent"})[0] != 1.0:
        problems.append("exact K(A,B) without Eve is not 1")
    return problems


def _kl(q: float, p: float) -> float:
    total = 0.0
    if q > 0:
        total += q * math.log(q / p)
    if q < 1:
        total += (1 - q) * math.log((1 - q) / (1 - p))
    return total


def binomial_ok(k: int, n: int, p: float, delta: float = DELTA) -> bool:
    """False when k successes in n Bernoulli(p) trials lie in a tail of mass < delta.

    Uses the Chernoff bound P(X >= k) <= exp(-n KL(k/n || p)) (and its mirror).
    """
    return n > 0 and n * _kl(k / n, p) <= math.log(1 / delta)


def attempts_ok(rounds: int, attempts: int, delta: float = DELTA) -> bool:
    """Entangled mode: ``rounds`` clicks after ``attempts`` Bernoulli(1/3) draws.

    T = attempts is at most t exactly when Bin(t, 1/3) >= rounds, so both
    tails of T are binomial tails.
    """
    if attempts < rounds:
        return False
    p = CLICK_ENTANGLED
    bound = math.log(1 / delta)
    if rounds / attempts > p:  # too few attempts: P(Bin(T, p) >= rounds)
        return attempts * _kl(rounds / attempts, p) <= bound
    if attempts > 1 and (rounds - 1) / (attempts - 1) < p:  # P(Bin(T-1, p) <= rounds-1)
        return (attempts - 1) * _kl((rounds - 1) / (attempts - 1), p) <= bound
    return True


def _round15(x: float) -> float:
    return float(f"{x:.15g}")


def _entropy_bits(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def load_schema(root: Path) -> jsonschema.Draft202012Validator:
    schema = json.loads((root / "src/kcbs_qkd/schemas/report.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


def check_report(report: dict, spec: dict, exit_code: int, validator) -> list[str]:
    """Problems with one report produced by ``simulate`` for ``spec``.

    ``spec`` holds the session's mode, rounds, seed, sacrifice and eve dict.
    """
    problems = [f"schema: {err.message}" for err in validator.iter_errors(report)]
    if problems:
        return problems
    cfg = report["config"]
    for key in ("mode", "rounds", "seed", "sacrifice_fraction", "eve"):
        if cfg[key] != spec[key]:
            problems.append(f"config {key}: {cfg[key]!r} != {spec[key]!r}")
    ks, sec, rounds = report["key_stats"], report["security"], spec["rounds"]
    eve = spec["eve"]
    kab_exact, pe_exact = exact_attack(eve)

    verdict = sec["verdict"]
    if exit_code != EXIT_CODES[verdict]:
        problems.append(f"exit code {exit_code} does not match verdict {verdict}")
    kab, half = sec["kab_estimate"], sec["confidence_halfwidth"]
    if kab is None or half is None or not half > 0:
        problems.append(f"no interval: kab {kab}, halfwidth {half}")
    else:
        implied = (
            "Secure" if kab - half > THRESHOLD
            else "Insecure" if kab + half < THRESHOLD
            else "Inconclusive"
        )
        if verdict != implied:
            problems.append(f"verdict {verdict} but kab {kab} +- {half} implies {implied}")
    # every workload session has K(A,B) >= 0.898 and >= 100 sacrificed rounds
    if verdict != "Secure":
        problems.append(f"verdict {verdict}, expected Secure (exact K(A,B) {kab_exact:.4f})")

    counts = {}
    for name, value, n in (
        ("sift_rate", ks["sift_rate"], rounds),
        ("p1", ks["p1"], None),
        ("anticorr_fraction", ks["anticorr_fraction"], None),
        ("kab_estimate", kab, sec["sacrificed_count"]),
        ("pe_estimate", sec["pe_estimate"], None),
    ):
        n = counts["sift_rate"] if n is None else n
        if value is None or not n:
            continue
        counts[name] = round(value * n)
        if _round15(counts[name] / n) != value:
            problems.append(f"{name} {value} is no count over {n}")
    if problems:
        return problems
    sifted, m = counts["sift_rate"], sec["sacrificed_count"]

    if not binomial_ok(sifted, rounds, SIFT_RATE):
        problems.append(f"sift rate {ks['sift_rate']} outside bounds of 3/5 at n={rounds}")
    if not binomial_ok(counts["p1"], sifted, P1):
        problems.append(f"p1 {ks['p1']} outside bounds of 2/3 at n={sifted}")
    if ks["p0"] != _round15(1.0 - counts["p1"] / sifted):
        problems.append(f"p0 {ks['p0']} != 1 - p1")
    if abs(ks["shannon"] - _entropy_bits(counts["p1"] / sifted)) > 1e-12:
        problems.append(f"shannon {ks['shannon']} is not H(p1)")
    if abs(ks["key_rate_per_transmission"] - ks["sift_rate"] * ks["shannon"]) > 1e-12:
        problems.append("key_rate_per_transmission != sift_rate * shannon")

    anti = ks["anticorr_fraction"]
    if eve["kind"] == "absent":
        if anti != 1.0 or kab != 1.0:
            problems.append(f"no Eve but anticorr_fraction {anti}, kab {kab} (expected 1.0)")
        if sec["pe_estimate"] is not None or "oracle" in report:
            problems.append("no Eve but an Eve estimate or oracle is reported")
    else:
        if not binomial_ok(counts["anticorr_fraction"], sifted, kab_exact):
            problems.append(f"anticorr_fraction {anti} outside bounds of {kab_exact:.4f}")
        if not binomial_ok(counts["kab_estimate"], m, kab_exact):
            problems.append(f"kab_estimate {kab} outside bounds of {kab_exact:.4f} at m={m}")
        pe = sec["pe_estimate"]
        if pe is None or not binomial_ok(counts["pe_estimate"], sifted, pe_exact):
            problems.append(f"pe_estimate {pe} outside bounds of {pe_exact:.4f}")
        oracle = report.get("oracle")
        if oracle is None:
            problems.append("Eve present but no oracle block")
        elif (
            abs(oracle["kab_expected"] - kab_exact) > 1e-9
            or abs(oracle["pe_expected"] - pe_exact) > 1e-9
        ):
            problems.append(
                f"oracle ({oracle['kab_expected']}, {oracle['pe_expected']}) != exact "
                f"({kab_exact}, {pe_exact})"
            )

    attempts = report["total_attempts"]
    if spec["mode"] == "entangled":
        if not attempts_ok(rounds, attempts):
            problems.append(f"{attempts / rounds:.4f} attempts per round outside bounds of 3")
    elif attempts != rounds:
        problems.append(f"prepare-and-measure with {attempts} attempts for {rounds} rounds")
    return problems


def check_csv(path: Path, report: dict) -> list[str]:
    """Recompute the key statistics from the transcript rows and compare.

    Count ratios must equal the report's exactly; the entropy-derived fields
    to 1e-12, since their last digit depends on the order of float operations.
    """
    rounds = report["config"]["rounds"]
    eve_present = report["config"]["eve"]["kind"] != "absent"
    problems: list[str] = []
    rows = sifted = ones = anti = hits = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != [
            "index", "i", "j", "case", "bob_outcome", "alice_bit", "bob_bit",
            "eve_setting", "eve_outcome", "eve_guess",
        ]:
            return ["CSV header differs"]
        for row in reader:
            if len(row) != 10 or row[0] != str(rows):
                return [f"CSV row {rows} malformed: {row}"]
            i, j, case, outcome, a_bit, b_bit = row[1:7]
            dist = (int(j) - int(i)) % 5
            want = "C1" if dist == 0 else "C2" if dist in (1, 4) else "C3"
            if case != want:
                return [f"CSV row {rows}: case {case} for i={i}, j={j}"]
            if eve_present != (row[9] != ""):
                return [f"CSV row {rows}: Eve columns do not match the config"]
            rows += 1
            if case == "C3":
                if a_bit or b_bit:
                    return [f"CSV row {rows - 1}: bits on an out-of-context round"]
                continue
            if a_bit != ("0" if case == "C1" else "1") or b_bit != outcome:
                return [f"CSV row {rows - 1}: bits do not follow case and outcome"]
            sifted += 1
            ones += a_bit == "1"
            anti += a_bit != b_bit
            hits += row[9] == a_bit
    if rows != rounds:
        return [f"CSV has {rows} rows for {rounds} rounds"]
    p1 = ones / sifted
    sift_rate = sifted / rounds
    shannon = _entropy_bits(p1)
    exact = {"sift_rate": sift_rate, "p0": 1.0 - p1, "p1": p1, "anticorr_fraction": anti / sifted}
    close = {"shannon": shannon, "key_rate_per_transmission": sift_rate * shannon}
    ks = report["key_stats"]
    for name in KEY_STAT_FIELDS:
        if _round15(exact[name]) != ks[name]:
            problems.append(f"CSV {name} {_round15(exact[name])} != report {ks[name]}")
    for name in ENTROPY_FIELDS:
        if abs(close[name] - ks[name]) > 1e-12:
            problems.append(f"CSV {name} {close[name]} != report {ks[name]}")
    if eve_present and _round15(hits / sifted) != report["security"]["pe_estimate"]:
        problems.append(f"CSV p_E {hits / sifted} != report {report['security']['pe_estimate']}")
    return problems
