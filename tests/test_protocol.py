import csv
import math

import numpy as np
import pytest

from conftest import synthetic_transcript
from kcbs_qkd.adversary import SIFT, EveStrategy, build_channel
from kcbs_qkd.kcbs import KcbsBasis, standard_vectors_unnormalized
from kcbs_qkd.protocol import (
    ENTANGLED,
    PREPARE_MEASURE,
    ProtocolConfig,
    Round,
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
    # sift table: C1 (code 0, Alice's bit 0) on equal settings, C2 (code 1,
    # Alice's bit 1) on neighbours, C3 (code 2) otherwise
    for i in range(5):
        for j in range(5):
            d = (j - i) % 5
            assert SIFT[i, j] == (0 if d == 0 else 1 if d in (1, 4) else 2)
    cfg = config(basis, rounds=5000, seed=11)
    seen = set()
    for r in range(5000):
        rec = run_round(cfg, r)
        case = SIFT[rec.i, rec.j]
        if case == 0:
            assert rec.bob_outcome == 1  # Bob's bit anti-correlates with 0
        elif case == 1:
            assert rec.bob_outcome == 0
        assert rec.eve_setting == rec.eve_outcome == -1 and rec.attempts == 1
        seen.add(int(case))
    assert seen == {0, 1, 2}


def test_sift_frequencies(basis):
    n = 50_000
    t = run_session(config(basis, rounds=n, seed=3))
    i, j = t.columns[:2]
    c1, c2, c3 = np.bincount(SIFT[i, j], minlength=3).tolist()
    counts = {"C1": c1, "C2": c2, "C3": c3}
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
    assert np.array_equal(t1.columns, t2.columns)
    t3 = run_session(config(basis, rounds=2000, seed=78))
    assert not np.array_equal(t1.columns, t3.columns)


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
    assert t.columns.shape == (6, n)
    rate = n / t.total_attempts
    assert rate == pytest.approx(1 / 3, abs=3 * math.sqrt((1 / 3) * (2 / 3) / t.total_attempts))
    ks = key_stats(t)
    assert ks.anticorr_fraction == 1.0
    assert ks.sift_rate == pytest.approx(0.6, abs=0.015)


def test_entangled_mode_attempt_metadata(basis):
    t = run_session(config(basis, rounds=100, seed=1, mode=ENTANGLED))
    attempts = t.columns[5]
    assert attempts.min() >= 1
    assert t.total_attempts == attempts.sum() > 100
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
    alice, bob, _ = t.sifted()
    mi = mutual_information(alice, bob)
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
    for mode in (PREPARE_MEASURE, ENTANGLED):
        for eve in (NO_EVE, EveStrategy(kind="fixed", setting=1), EveStrategy(kind="random")):
            cfg = config(basis, rounds=50, seed=64, mode=mode, eve=eve)
            t = run_session(cfg)
            for r in range(cfg.rounds):
                assert run_round(cfg, r) == Round(*t.columns[:, r].tolist())


def test_transcript_holds_draws_only(basis):
    # six int16 columns in one owning array: 12 bytes per round
    t = run_session(config(basis, rounds=1000, seed=5, mode=ENTANGLED, eve=EveStrategy(kind="random")))
    assert t.columns.dtype == np.int16 and t.columns.flags.owndata
    assert t.columns.nbytes / 1000 <= 16


def test_channel_without_eve_holds_overlap_only(basis):
    cfg = config(basis)
    run_round(cfg, 0)
    assert cfg.channel.branch is None and cfg.channel.click is None
    assert np.array_equal(cfg.channel.overlap, build_channel(basis, "collapsed").overlap)
