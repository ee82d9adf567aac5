import csv
import math

import numpy as np
import pytest

from kcbs_qkd.adversary import EveStrategy, build_channel
from kcbs_qkd.kcbs import KcbsBasis, standard_vectors_unnormalized
from kcbs_qkd.protocol import (
    ENTANGLED,
    PREPARE_MEASURE,
    ProtocolConfig,
    RoundRecord,
    Transcript,
    estimate_security,
    key_stats,
    mutual_information,
    run_round,
    run_session,
    write_transcript_csv,
)
from kcbs_qkd.qutrit import RngStream, TwoQutritState, born_probability, entangled_collapse

NO_EVE = EveStrategy()


def config(basis, rounds=1000, seed=42, mode=PREPARE_MEASURE, eve=NO_EVE, sacrifice=0.1):
    return ProtocolConfig(
        mode=mode,
        basis=basis,
        rounds=rounds,
        sacrifice_fraction=sacrifice,
        eve=eve,
        seed=seed,
    )


def synthetic_transcript(basis, n_sifted, anticorr_fraction, n_c3=0):
    """A hand-built transcript with an exact anti-correlation fraction."""
    rounds = []
    flips = round(n_sifted * (1 - anticorr_fraction))
    for r in range(n_sifted):
        correlated = r < flips  # alice == bob on these rounds
        rounds.append(
            RoundRecord(
                index=r,
                alice_setting=0,
                bob_setting=1,
                bob_outcome=0 if not correlated else 1,
                sift_case="C2",
                alice_bit=1,
                bob_bit=1 if correlated else 0,
            )
        )
    for r in range(n_sifted, n_sifted + n_c3):
        rounds.append(
            RoundRecord(
                index=r,
                alice_setting=0,
                bob_setting=2,
                bob_outcome=0,
                sift_case="C3",
                alice_bit=None,
                bob_bit=None,
            )
        )
    cfg = ProtocolConfig(
        mode=PREPARE_MEASURE,
        basis=None,  # never touched after construction
        rounds=len(rounds),
        sacrifice_fraction=0.5,
        eve=NO_EVE,
        seed=0,
    )
    return Transcript(config=cfg, rounds=rounds, total_attempts=len(rounds))


def test_config_validation(basis):
    with pytest.raises(ValueError):
        config(basis, rounds=0)
    with pytest.raises(ValueError):
        config(basis, sacrifice=0.6)
    with pytest.raises(ValueError):
        ProtocolConfig(
            mode="teleport", basis=basis, rounds=1, sacrifice_fraction=0.1,
            eve=NO_EVE, seed=0,
        )


def test_round_cases_no_eve(basis):
    cfg = config(basis, rounds=5000, seed=11)
    seen = set()
    for r in range(5000):
        rec = run_round(cfg, r)
        d = (rec.bob_setting - rec.alice_setting) % 5
        if d == 0:
            assert rec.sift_case == "C1"
            assert rec.bob_outcome == 1 and rec.alice_bit == 0 and rec.bob_bit == 1
        elif d in (1, 4):
            assert rec.sift_case == "C2"
            assert rec.bob_outcome == 0 and rec.alice_bit == 1 and rec.bob_bit == 0
        else:
            assert rec.sift_case == "C3"
            assert rec.alice_bit is None and rec.bob_bit is None
        assert rec.eve_setting is None
        seen.add(rec.sift_case)
    assert seen == {"C1", "C2", "C3"}


def test_sift_case_frequencies(basis):
    n = 50_000
    t = run_session(config(basis, rounds=n, seed=3))
    counts = {"C1": 0, "C2": 0, "C3": 0}
    for rec in t.rounds:
        counts[rec.sift_case] += 1
    for case, p in (("C1", 0.2), ("C2", 0.4), ("C3", 0.4)):
        sigma = math.sqrt(p * (1 - p) / n)
        assert counts[case] / n == pytest.approx(p, abs=3 * sigma)
    sifted = counts["C1"] + counts["C2"]
    assert counts["C1"] / sifted == pytest.approx(
        1 / 3, abs=3 * math.sqrt((1 / 3) * (2 / 3) / sifted)
    )


def test_session_determinism(basis):
    t1 = run_session(config(basis, rounds=2000, seed=77))
    t2 = run_session(config(basis, rounds=2000, seed=77))
    assert t1.rounds == t2.rounds
    t3 = run_session(config(basis, rounds=2000, seed=78))
    assert t1.rounds != t3.rounds


def test_channel_built_per_config():
    # each config must read the channel of its own basis, also when a fresh
    # basis takes over the memory (and so the id) of a freed one
    vectors = standard_vectors_unnormalized()
    eve = EveStrategy(kind="fixed", setting=1)
    for n in range(300):
        order = range(5) if n % 2 == 0 else [(i + 1) % 5 for i in range(5)]
        fresh_basis = KcbsBasis.from_vectors([vectors[i] for i in order])
        cfg = config(fresh_basis, rounds=1, eve=eve)
        run_round(cfg, 0)
        fresh = build_channel(fresh_basis, eve.resend)
        assert np.array_equal(cfg.channel.overlap, fresh.overlap)
        assert np.array_equal(cfg.channel.branch, fresh.branch)
        assert np.array_equal(cfg.channel.click, fresh.click)


def test_entangled_mode_requires_real_basis(basis, complex_basis):
    # the kernel takes Bob's state to be ray i; for complex rays the isotropic
    # pair steers Bob to conj(v_i) instead, which P_i seldom clicks on
    isotropic = TwoQutritState(np.eye(3).reshape(-1))
    p0 = complex_basis.projectors[0]
    for r in range(200):
        outcome, bob = entangled_collapse(isotropic, p0, RngStream(3, r))
        if outcome == 1:
            break
    assert born_probability(bob, p0) < 0.5
    with pytest.raises(ValueError, match="real"):
        config(complex_basis, mode=ENTANGLED)
    config(complex_basis)  # prepare-and-measure sends v_i itself
    config(basis, mode=ENTANGLED)


def test_key_stats_ideal(basis):
    t = run_session(config(basis, rounds=50_000, seed=21))
    ks = key_stats(t)
    assert ks.sift_rate == pytest.approx(0.6, abs=0.01)
    assert ks.p0 == pytest.approx(1 / 3, abs=0.01)
    assert ks.p1 == pytest.approx(2 / 3, abs=0.01)
    assert ks.shannon == pytest.approx(0.9183, abs=0.003)
    assert ks.key_rate_per_transmission == pytest.approx(ks.sift_rate * ks.shannon, abs=1e-12)
    assert ks.anticorr_fraction == 1.0


def test_key_stats_requires_sifted_rounds(basis):
    t = synthetic_transcript(basis, n_sifted=0, anticorr_fraction=1.0, n_c3=3)
    with pytest.raises(ValueError):
        key_stats(t)


def test_entangled_mode_statistics(basis):
    n = 20_000
    t = run_session(config(basis, rounds=n, seed=13, mode=ENTANGLED))
    assert len(t.rounds) == n
    rate = n / t.total_attempts
    assert rate == pytest.approx(1 / 3, abs=3 * math.sqrt((1 / 3) * (2 / 3) / t.total_attempts))
    ks = key_stats(t)
    assert ks.anticorr_fraction == 1.0
    assert ks.sift_rate == pytest.approx(0.6, abs=0.015)


def test_entangled_mode_attempt_metadata(basis):
    t = run_session(config(basis, rounds=100, seed=1, mode=ENTANGLED))
    assert all(rec.attempts >= 1 for rec in t.rounds)
    assert t.total_attempts == sum(rec.attempts for rec in t.rounds)
    pm = run_session(config(basis, rounds=100, seed=1))
    assert pm.total_attempts == 100


def test_security_ideal_run(basis):
    t = run_session(config(basis, rounds=20_000, seed=8))
    rep = estimate_security(t, 0.1, RngStream(8, stream_id=20_000))
    assert rep.kab_estimate == 1.0
    assert rep.verdict == "Secure"
    assert rep.confidence_halfwidth == pytest.approx(1 / rep.sacrificed_count, abs=0)
    assert rep.pe_estimate is None
    # deterministically anti-correlated bits: I(A;B) = H(A)
    assert rep.mutual_info_ab > 0.8


def test_security_subset_too_small(basis):
    t = run_session(config(basis, rounds=500, seed=8))
    rep = estimate_security(t, 0.1, RngStream(8, stream_id=500))
    assert rep.verdict == "Inconclusive"
    assert "too small" in rep.note


@pytest.mark.parametrize(
    "fraction,expected",
    [(0.60, "Insecure"), (0.625, "Inconclusive"), (0.65, "Secure")],
)
def test_security_threshold_logic(basis, fraction, expected):
    t = synthetic_transcript(basis, n_sifted=40_000, anticorr_fraction=fraction)
    rep = estimate_security(t, 0.5, RngStream(123, stream_id=0))
    assert rep.verdict == expected
    assert rep.threshold == 5 / 8


def test_security_excludes_c3(basis):
    t = synthetic_transcript(basis, n_sifted=1000, anticorr_fraction=1.0, n_c3=1000)
    rep = estimate_security(t, 0.5, RngStream(5, stream_id=0))
    assert rep.sacrificed_count == 500  # half of the sifted rounds only
    assert rep.kab_estimate == 1.0


def test_mutual_information_identities():
    bits = [0, 1, 1] * 100
    h = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert mutual_information(bits, bits) == pytest.approx(h, abs=1e-12)

    rng = RngStream(99, 0)
    x = [rng.integer(2) for _ in range(100_000)]
    y = [rng.integer(2) for _ in range(100_000)]
    assert mutual_information(x, y) == pytest.approx(0.0, abs=1e-3)

    with pytest.raises(ValueError):
        mutual_information([0, 1], [0])
    with pytest.raises(ValueError):
        mutual_information([0] * 99, [0] * 99)


def test_mutual_information_matches_shannon_on_ideal_run(basis):
    t = run_session(config(basis, rounds=20_000, seed=30))
    ks = key_stats(t)
    sifted = [rec for rec in t.rounds if rec.sift_case != "C3"]
    mi = mutual_information(
        [rec.alice_bit for rec in sifted], [rec.bob_bit for rec in sifted]
    )
    assert mi == pytest.approx(ks.shannon, abs=1e-12)


def test_transcript_csv(tmp_path, basis):
    t = run_session(config(basis, rounds=200, seed=2, eve=EveStrategy(kind="fixed", setting=1)))
    path = tmp_path / "t.csv"
    write_transcript_csv(t, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "index", "i", "j", "case", "bob_outcome",
        "alice_bit", "bob_bit", "eve_setting", "eve_outcome", "eve_guess",
    ]
    assert len(rows) == 201
    for row in rows[1:]:
        if row[3] == "C3":
            assert row[5] == "" and row[6] == ""
        else:
            assert row[5] in ("0", "1") and row[6] in ("0", "1")
        assert row[7] == "1"  # Eve's fixed setting


def test_run_round_matches_session(basis):
    cfg = config(basis, rounds=50, seed=64)
    t = run_session(cfg)
    for r in (0, 17, 49):
        assert run_round(cfg, r) == t.rounds[r]
