"""The report goldens held to the exact laws of their sampled leaves.

The byte goldens pin a report between changes; this test checks that what
they pin is lawful, so that a regenerated golden is checked by more than its
diff.  Each sampled leaf of a session of R rounds, n of them sifted and m
sacrificed, has a law that follows from the protocol alone:

- ``total_attempts``: exactly R in prepare-and-measure mode.  In entangled
  mode each round's attempts are Geometric(1/3) on {1, 2, ...}, as each of
  Alice's clicks has probability Tr(P_i)/3 = 1/3: mean 3 and variance
  (1 - 1/3) / (1/3)^2 = 6 a round, so 3R and 6R in all.
- ``sift_rate``: Binomial(R, 3/5) / R, as i and j are uniform and drawn apart
  from Eve, and 15 of the 25 pairs (i, j) are sifted.
- ``p1``: Binomial(n, 2/3) / n, as of the three settings j sifted with each i
  one is C1 (Alice's bit 0) and two are C2 (bit 1).
- ``anticorr_fraction`` over n and ``kab_estimate`` over m: Binomial(., K) / .
  with K the report's own ``oracle.kab_expected``; without Eve exactly 1.0.
  Sifted rounds are independent, and each one's (i, j) is uniform over the
  sifted pairs, so each is anti-correlated with probability K.
- ``pe_estimate`` over n: Binomial(n, p_E) / n with the oracle's p_E.
- Exact leaves: ``sacrificed_count`` = round(f n) for the sacrificed fraction
  f, and ``threshold`` = 5/8.

A leaf fails where its z-score exceeds ``Z_BOUND`` = 4, fixed before the
goldens were read: over the 27 z-scored leaves of the six goldens that is a
family-wise false alarm of about 2e-3.  Mutual information is left out: its
plug-in estimate is biased, and its exact value is not computed yet.
"""

import json
import math

import numpy as np
import pytest

from conftest import GOLDEN, GOLDEN_CONFIGS

Z_BOUND = 4.0


def binomial_z(share: float, trials: int, p: float) -> float:
    """The z-score of an observed share of ``trials`` Bernoulli(p) draws."""
    return (share - p) * trials / math.sqrt(trials * p * (1.0 - p))


def law_scores(report: dict) -> tuple[dict, list]:
    """The z-score of each sampled leaf of a report by its name, and the
    exact leaves that differ from their values."""
    cfg, stats, sec = report["config"], report["key_stats"], report["security"]
    rounds = cfg["rounds"]
    n = round(stats["sift_rate"] * rounds)
    m = sec["sacrificed_count"]
    scores, wrong = {}, []
    if cfg["mode"] == "entangled":
        scores["total_attempts"] = (report["total_attempts"] - 3 * rounds) / math.sqrt(6 * rounds)
    elif report["total_attempts"] != rounds:
        wrong.append("total_attempts")
    scores["sift_rate"] = binomial_z(stats["sift_rate"], rounds, 3 / 5)
    scores["p1"] = binomial_z(stats["p1"], n, 2 / 3)
    shares = {"anticorr_fraction": (stats["anticorr_fraction"], n)}
    if sec["kab_estimate"] is not None:  # m >= 100
        shares["kab_estimate"] = (sec["kab_estimate"], m)
    if cfg["eve"]["kind"] == "absent":
        wrong += [name for name, (share, _) in shares.items() if share != 1.0]
    else:
        kab = report["oracle"]["kab_expected"]
        for name, (share, trials) in shares.items():
            scores[name] = binomial_z(share, trials, kab)
        scores["pe_estimate"] = binomial_z(sec["pe_estimate"], n, report["oracle"]["pe_expected"])
    if m != round(cfg["sacrifice_fraction"] * n):
        wrong.append("sacrificed_count")
    if sec["threshold"] != 5 / 8:
        wrong.append("threshold")
    return scores, wrong


def law_violations(report: dict) -> list:
    """The leaves of a report that break their law: |z| above ``Z_BOUND``, or
    an exact leaf that differs from its value."""
    scores, wrong = law_scores(report)
    return sorted(wrong + [name for name, z in scores.items() if abs(z) > Z_BOUND])


def golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


@pytest.mark.parametrize("name", GOLDEN_CONFIGS)
def test_golden_leaves_follow_their_laws(name):
    assert law_violations(golden(name)) == []


def test_law_check_rejects_geometric_quarter_attempts():
    # attempts drawn with click probability 1/4: mean 4R, about 29 sigma at
    # 5,000 rounds
    rng = np.random.default_rng(2024)
    for name in GOLDEN_CONFIGS:
        report = golden(name)
        if report["config"]["mode"] != "entangled":
            continue
        report["total_attempts"] = int(rng.geometric(0.25, report["config"]["rounds"]).sum())
        assert law_scores(report)[0]["total_attempts"] > 25, name
        assert law_violations(report) == ["total_attempts"], name


def test_law_check_rejects_swapped_bits():
    # a model that writes 1 on C1 and 0 on C2 flips Alice's bit on every
    # sifted round: p1 near 1/3, and each share of rounds on which a bit
    # differs from hers turned into its complement
    for name in GOLDEN_CONFIGS:
        report = golden(name)
        stats, sec = report["key_stats"], report["security"]
        stats["p0"], stats["p1"] = stats["p1"], stats["p0"]
        stats["anticorr_fraction"] = 1.0 - stats["anticorr_fraction"]
        for leaf in ("kab_estimate", "pe_estimate"):
            if sec[leaf] is not None:
                sec[leaf] = 1.0 - sec[leaf]
        assert abs(stats["p1"] - 1 / 3) < 0.02, name
        assert "p1" in law_violations(report), name
