import collections
import csv
import dataclasses
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import synthetic_transcript
from kcbs_qkd import adversary, protocol
from kcbs_qkd.adversary import SIFT, EveStrategy
from kcbs_qkd.kcbs import KcbsBasis, standard_basis, standard_vectors_unnormalized
from kcbs_qkd.protocol import (
    ENTANGLED,
    PREPARE_MEASURE,
    KeyStats,
    ProtocolConfig,
    Round,
    SecurityReport,
    Transcript,
    _BLOCK,
    _CSV_CHUNK,
    _CSV_HALF,
    _SIFT_BITS,
    _STATS_CHUNK,
    _mutual_information,
    attack_expectation,
    estimate_pe,
    estimate_security,
    key_stats,
    run_round,
    run_session,
    write_transcript_csv,
)
from kcbs_qkd.qutrit import _LANES, RngStream
import reference
from reference import born, entangled_collapse, projector, sift, state, write_transcript_csv_rows

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
    # ints only: seed 2.5 would run as seed 2
    for field, value in itertools.product(("rounds", "seed"), (2.5, 2.0, True)):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            config(basis, **{field: value})


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


def test_sift_bits_match_sift_table():
    # the statistics find sifted rounds by bit j - i + 4 of one int16, read-only
    assert _SIFT_BITS.dtype == np.int16 and _SIFT_BITS.shape == ()
    assert not _SIFT_BITS.flags.writeable and int(_SIFT_BITS) >> 9 == 0
    for i in range(5):
        for j in range(5):
            assert (int(_SIFT_BITS) >> (j - i + 4)) & 1 == (SIFT[i, j] != adversary.C3), (i, j)


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
    # each config must read the channel and oracle of its own basis, also
    # when a fresh basis takes over the memory (and so the id) of a freed one;
    # "fresh" is built and contracted past the per-process caches
    vectors = standard_vectors_unnormalized()
    rotated = [(i + 1) % 5 for i in range(5)]
    eve = EveStrategy(kind="fixed", setting=1)
    for n in range(300):
        order = range(5) if n % 2 == 0 else rotated
        fresh_basis = KcbsBasis([vectors[i] for i in order])
        cfg = config(fresh_basis, rounds=1, eve=eve)
        run_round(cfg, 0)
        fresh = adversary.build_channel.__wrapped__(fresh_basis)
        assert np.array_equal(cfg.channel.branch, fresh.branch)
        assert np.array_equal(cfg.channel.click, fresh.click)
        assert attack_expectation(eve, cfg.basis) == attack_expectation.__wrapped__(eve, fresh_basis)
    # the oracle is kept per value: bases built apart from the same rays share
    # one, and a reordered basis gets its own
    standard = attack_expectation(eve, KcbsBasis(vectors))
    assert attack_expectation(eve, KcbsBasis(vectors)) is standard
    reordered = attack_expectation(eve, KcbsBasis([vectors[i] for i in rotated]))
    assert reordered is not standard
    assert reordered == attack_expectation.__wrapped__(eve, KcbsBasis([vectors[i] for i in rotated]))
    # what the caches share is read-only
    for array in (cfg.channel.branch, cfg.channel.click):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.5
    shared = standard_basis()
    for array in (shared.rays, shared.projectors, shared.overlap):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.5


def test_entangled_mode_requires_real_basis(basis, complex_basis):
    # the kernel takes Bob's state to be ray i; for complex rays the isotropic
    # pair steers Bob to conj(v_i) instead, which P_i seldom clicks on
    isotropic = state(np.eye(3))
    p0 = projector(complex_basis.rays[0])
    for r in range(200):
        outcome, bob = entangled_collapse(isotropic, p0, RngStream(3, r))
        if outcome == 1:
            break
    assert born(bob, p0) < 0.5
    with pytest.raises(ValueError, match="real"):
        config(complex_basis, mode=ENTANGLED)
    config(complex_basis)  # prepare-and-measure sends v_i itself
    config(basis, mode=ENTANGLED)
    # the check reads the projectors: a real pentagon times a global phase
    # has complex rays but the same real projectors
    phased = KcbsBasis([1j * v for v in basis.rays])
    assert np.abs(phased.rays.imag).max() > 0.5
    config(phased, mode=ENTANGLED)


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
    with pytest.raises(ValueError):
        estimate_security(t)


def test_key_stats_constant_bits(basis):
    # every sifted round of the synthetic transcript is C2, Alice's bit 1:
    # the key carries no entropy
    ks = key_stats(synthetic_transcript(basis, n_sifted=40, anticorr_fraction=0.5, n_c3=10))
    assert (ks.p1, ks.p0, ks.shannon, ks.key_rate_per_transmission) == (1.0, 0.0, 0.0, 0.0)
    assert ks.sift_rate == 0.8


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


def _geometric_fit(attempts: np.ndarray) -> float:
    """The chi-square p-value of attempt counts against Geometric(1/3): each
    count whose expected number is at least 5 has its own bin, and the rest
    share a tail bin, whose expected number is twice the last one's."""
    n = len(attempts)
    top = 1 + int(math.log(15 / n) / math.log(2 / 3))  # n/3 (2/3)^(top - 1) >= 5
    observed = np.bincount(np.minimum(attempts, top + 1), minlength=top + 2)[1:]
    expected = [n / 3 * (2 / 3) ** (a - 1) for a in range(1, top + 1)] + [n * (2 / 3) ** top]
    return chisquare(observed, expected).pvalue


@pytest.mark.parametrize(
    "eve, seed",
    [(NO_EVE, 101), (EveStrategy(kind="fixed", setting=1), 102), (EveStrategy(kind="random"), 103)],
    ids=["absent", "fixed", "random"],
)
def test_entangled_attempts_geometric(basis, eve, seed):
    # each of Alice's attempts clicks with probability 1/3, whatever Eve does,
    # so a round's attempts follow Geometric(1/3); the same counts one attempt
    # off are rejected, so the test has teeth
    cfg = config(basis, rounds=100_000, seed=seed, mode=ENTANGLED, eve=eve)
    attempts = run_session(cfg).columns[5]
    assert _geometric_fit(attempts) > 1e-3
    assert _geometric_fit(attempts + 1) < 1e-3


def test_absent_eve_round_finishes_in_its_click_block(basis, monkeypatch):
    # without Eve, a click on row 1 (3/5 of clicks) leaves Bob's setting and
    # outcome to rows 2-3 of the same Philox block, so the round draws no block
    # after it: 9/5 blocks of search and 2/5 of a finishing one, 2.2 a round
    lanes = []

    def spy(seed, ids, blocks):
        lanes.append(len(ids))
        return uniforms(seed, ids, blocks)

    uniforms = protocol.uniforms
    monkeypatch.setattr(protocol, "uniforms", spy)
    run_session(config(basis, rounds=20_000, seed=21, mode=ENTANGLED))
    assert sum(lanes) <= 2.35 * 20_000, sum(lanes) / 20_000


@pytest.mark.parametrize("rounds", [2 * _BLOCK + 7, 20_000])
@pytest.mark.parametrize(
    "eve", [NO_EVE, EveStrategy(kind="fixed", setting=1), EveStrategy(kind="random")],
    ids=["absent", "fixed", "random"],
)
def test_entangled_philox_blocks_drawn(basis, monkeypatch, eve, rounds):
    # every Philox block an entangled session draws, read against its attempts
    # a: the search sweep draws blocks 1 to ceil(a / 2) of each round once,
    # and later ones only in the calls of a draining pool, whose ids repeat;
    # the finishing sweep draws block (a + 3) // 2 once, of every round with
    # Eve and of every round with even a without her.  This pins the lanes a
    # round costs (2.8 with Eve, 2.2 without) however the sweeps are written
    calls = {"search": [], "finish": []}
    sweep = ["search"]

    def spy(seed, ids, blocks):
        assert len(ids) <= _BLOCK
        calls[sweep[0]].append((ids.copy(), np.broadcast_to(blocks, ids.shape).copy()))
        return uniforms(seed, ids, blocks)

    def finishing(cfg, columns):
        sweep[0] = "finish"
        return finishing_sweep(cfg, columns)

    uniforms, finishing_sweep = protocol.uniforms, protocol._finishing_sweep
    monkeypatch.setattr(protocol, "uniforms", spy)
    monkeypatch.setattr(protocol, "_finishing_sweep", finishing)
    attempts = run_session(config(basis, rounds=rounds, seed=29, mode=ENTANGLED,
                                  eve=eve)).columns[5].astype(np.int64)
    last = (attempts + 1) // 2  # the block of the click, ceil(a / 2)

    def drawn(calls):
        ids = np.concatenate([c[0] for c in calls]).astype(np.int64)
        blocks = np.concatenate([c[1] for c in calls]).astype(np.int64)
        repeats = np.concatenate([np.full(len(c[0]), len(np.unique(c[0])) < len(c[0]))
                                  for c in calls])
        return ids, blocks, repeats

    ids, blocks, repeats = drawn(calls["search"])
    within = blocks <= last[ids]
    assert blocks.min() >= 1
    pairs = ids[within] * (last.max() + 1) + blocks[within]
    assert len(np.unique(pairs)) == len(pairs) == last.sum()
    assert repeats[~within].all()

    ids, blocks, _ = drawn(calls["finish"])
    order = np.argsort(ids, kind="stable")
    expected = np.arange(rounds) if eve.present else np.flatnonzero(attempts % 2 == 0)
    assert np.array_equal(ids[order], expected)
    assert np.array_equal(blocks[order], (attempts[expected] + 3) // 2)


def test_security_ideal_run(basis):
    t = run_session(config(basis, rounds=20_000, seed=8))
    rep = estimate_security(t)
    assert rep.kab_estimate == 1.0
    assert rep.verdict == "Secure"
    assert rep.confidence_halfwidth == pytest.approx(1 / rep.sacrificed_count, abs=0)
    assert rep.pe_estimate is None
    # deterministically anti-correlated bits: I(A;B) = H(A)
    assert rep.mutual_info_ab > 0.8


def test_security_subset_too_small(basis):
    t = run_session(config(basis, rounds=500, seed=8))
    rep = estimate_security(t)
    assert rep.verdict == "Inconclusive"
    assert "too small" in rep.note


@pytest.mark.parametrize(
    "fraction,expected",
    [(0.60, "Insecure"), (0.625, "Inconclusive"), (0.65, "Secure")],
)
def test_security_threshold_logic(basis, fraction, expected):
    t = synthetic_transcript(basis, n_sifted=40_000, anticorr_fraction=fraction, seed=123)
    rep = estimate_security(t)
    assert rep.verdict == expected
    assert rep.threshold == 5 / 8


def test_security_excludes_c3(basis):
    t = synthetic_transcript(basis, n_sifted=1000, anticorr_fraction=1.0, n_c3=1000, seed=5)
    rep = estimate_security(t)
    assert rep.sacrificed_count == 500  # half of the sifted rounds only
    assert rep.kab_estimate == 1.0


def _joint(x, y) -> list:
    """The 2x2 table of counts of the bit pairs (x[r], y[r])."""
    x, y = np.asarray(x), np.asarray(y)
    return [[int(np.count_nonzero((x == a) & (y == b))) for b in (0, 1)] for a in (0, 1)]


def test_mutual_information_identities():
    bits = [0, 1, 1] * 100
    h = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert _joint(bits, bits) == [[100, 0], [0, 200]]
    assert _mutual_information(_joint(bits, bits)) == pytest.approx(h, abs=1e-12)

    rng = RngStream(99, 0)
    x = [rng.integer(2) for _ in range(100_000)]
    y = [rng.integer(2) for _ in range(100_000)]
    assert _mutual_information(_joint(x, y)) == pytest.approx(0.0, abs=1e-3)


def test_mutual_information_matches_shannon_on_ideal_run(basis):
    t = run_session(config(basis, rounds=20_000, seed=30))
    ks = key_stats(t)
    alice, bob, _ = sift(t)
    mi = _mutual_information(_joint(alice, bob))
    assert mi == pytest.approx(ks.shannon, abs=1e-12)


def test_transcript_csv(tmp_path, basis):
    t = run_session(config(basis, rounds=200, seed=2, eve=EveStrategy(kind="fixed", setting=1)))
    path = tmp_path / "t.csv"
    with open(path, "wb") as fh:
        write_transcript_csv(t, fh)
    # a path is opened and written in place, to the same bytes
    write_transcript_csv(t, str(tmp_path / "by_path.csv"))
    assert (tmp_path / "by_path.csv").read_bytes() == path.read_bytes()
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


@pytest.mark.parametrize("mode", [PREPARE_MEASURE, ENTANGLED])
@pytest.mark.parametrize("kind", ["absent", "fixed", "random"])
def test_transcript_csv_matches_row_writer(tmp_path, basis, mode, kind):
    # byte for byte the csv.writer rows, around every chunk and half-chunk
    # edge and across the index's growth from four to five digits; once, the
    # chunk number's growth from two to three digits
    eve = EveStrategy(kind=kind, setting=1 if kind == "fixed" else None)
    sizes = (1, 9, 10, 11, _CSV_HALF - 1, _CSV_HALF, _CSV_HALF + 1,
             _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1,
             _CSV_CHUNK + _CSV_HALF - 1, _CSV_CHUNK + _CSV_HALF, _CSV_CHUNK + _CSV_HALF + 1,
             2 * _CSV_CHUNK + 7, 10_001)
    if (mode, kind) == (PREPARE_MEASURE, "random"):
        sizes += (100 * _CSV_CHUNK + 1,)
    for rounds in sizes:
        t = run_session(config(basis, rounds=rounds, seed=rounds, mode=mode, eve=eve))
        with open(tmp_path / "columnar.csv", "wb") as fh:
            write_transcript_csv(t, fh)
        write_transcript_csv_rows(t, str(tmp_path / "rows.csv"))
        expected = (tmp_path / "rows.csv").read_bytes()
        assert (tmp_path / "columnar.csv").read_bytes() == expected, rounds
        assert expected.count(b"\r\n") == rounds + 1


@pytest.mark.parametrize("rounds", [20_000, 200_000])
def test_transcript_csv_working_set_bounded(tmp_path, basis, rounds):
    # the writer's memory is bounded by its half chunk, not the session
    # length, and lies below the entangled sweeps' 50.9 KB
    eve = EveStrategy(kind="random")
    with open(tmp_path / "t.csv", "wb") as fh:
        write_transcript_csv(run_session(config(basis, rounds=1, eve=eve)), fh)
    t = run_session(config(basis, rounds=rounds, seed=6, eve=eve))
    tracemalloc.start()
    try:
        with open(tmp_path / "t.csv", "wb") as fh:  # its buffer counted, as simulate's is
            write_transcript_csv(t, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 1024, peak


KINDS = ("absent", "fixed", "random")


def test_run_round_matches_session(basis):
    for mode in (PREPARE_MEASURE, ENTANGLED):
        for eve in (NO_EVE, EveStrategy(kind="fixed", setting=1), EveStrategy(kind="random")):
            cfg = config(basis, rounds=50, seed=64, mode=mode, eve=eve)
            t = run_session(cfg)
            for r in range(cfg.rounds):
                assert run_round(cfg, r) == Round(*t.columns[:, r].tolist())
    # a one-round session, sessions around one full entangled pool and around
    # one prepare-and-measure pass, and ones of two full pools or passes plus 7
    # rounds; the pass width matters to prepare-and-measure only.  An
    # entangled session of r < _BLOCK rounds draws _BLOCK // r blocks a round
    # in its first pass: 3 at _BLOCK // 3, 2 at _BLOCK // 2 - 1, 1 at + 1.
    # Without Eve, the finishing sweep scans 3 _BLOCK rounds for a call
    pool = (1, 2, _BLOCK // 3, _BLOCK // 2 - 1, _BLOCK // 2 + 1,
            _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7,
            3 * _BLOCK - 1, 3 * _BLOCK, 3 * _BLOCK + 1)
    passes = (_LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 7)
    for mode, kind, rounds in itertools.chain(
        itertools.product((PREPARE_MEASURE, ENTANGLED), KINDS, pool),
        itertools.product((PREPARE_MEASURE,), KINDS, passes),
    ):
        eve = EveStrategy(kind=kind, setting=1 if kind == "fixed" else None)
        cfg = config(basis, rounds=rounds, seed=2**63 + 5, mode=mode, eve=eve)
        t = run_session(cfg)
        replay = [run_round(cfg, r) for r in range(rounds)]
        assert replay == [Round(*c) for c in t.columns.T.tolist()], (mode, kind, rounds)
        if mode == ENTANGLED and rounds > 2:
            # rounds that stay in the pool for several passes of the attempt
            # search, and rounds whose setting s = 2 (a - 1) sits in row 2, so
            # that their later draws cross into the next Philox block
            s = 2 * (t.columns[5] - 1)
            assert t.columns[5].max() >= 10 and (s % 4 == 2).any(), kind


@pytest.mark.parametrize(
    "eve",
    [NO_EVE, EveStrategy(kind="fixed", setting=2, resend="eigenstate"), EveStrategy(kind="random")],
    ids=["absent", "fixed", "random"],
)
def test_entangled_session_independent_of_pool_width(basis, monkeypatch, eve):
    # the pool's width sets which rounds share a Philox pass, never what a
    # round draws: every width gives the same transcript
    cfg = config(basis, rounds=3001, seed=11, mode=ENTANGLED, eve=eve)
    expected = run_session(cfg).columns
    for width in (1, 2, 3, 7, 100):
        monkeypatch.setattr(protocol, "_BLOCK", width)
        assert np.array_equal(run_session(cfg).columns, expected), width


@pytest.mark.parametrize("eve", [*(f"fixed:{k}" for k in range(5)), "random"])
def test_entangled_finishing_in_place_matches_run_round(basis, monkeypatch, eve):
    # with Eve the finishing sweep runs in place on windows of _BLOCK rounds,
    # mixing clicks on rows 1 and 3 in one call; every setting of Eve's, at
    # the pool's own and at small widths, whose windows end mid-session or
    # on its last round, replays through run_round
    kind, _, setting = eve.partition(":")
    eve = EveStrategy(kind=kind, setting=int(setting) if setting else None)
    for rounds in (2 * _BLOCK + 7, 3 * _BLOCK):
        cfg = config(basis, rounds=rounds, seed=2**63 + 5, mode=ENTANGLED, eve=eve)
        replay = [run_round(cfg, r) for r in range(rounds)]
        for width in (_BLOCK, 1, 3, 100):
            monkeypatch.setattr(protocol, "_BLOCK", width)
            t = run_session(cfg)
            assert [Round(*c) for c in t.columns.T.tolist()] == replay, (rounds, width)
            assert (t.columns[5] % 2 == 1).any() and (t.columns[5] % 2 == 0).any()


def test_entangled_pool_fills_its_last_passes(basis, monkeypatch):
    # once no round is left to start, the rounds still searching draw several
    # blocks a call: a 500-round session's last rounds take few calls, none
    # wider than the pool
    calls = []

    def spy(seed, ids, blocks):
        calls.append(len(ids))
        return uniforms(seed, ids, blocks)

    uniforms = protocol.uniforms
    monkeypatch.setattr(protocol, "uniforms", spy)
    for seed in range(20):
        calls.clear()
        run_session(config(basis, rounds=500, seed=seed, mode=ENTANGLED,
                           eve=EveStrategy(kind="random")))
        assert len(calls) <= 6 and max(calls) <= _BLOCK, (seed, calls)


@pytest.mark.parametrize(
    "eve",
    [NO_EVE, EveStrategy(kind="fixed", setting=2, resend="eigenstate"), EveStrategy(kind="random")],
    ids=["absent", "fixed", "random"],
)
def test_prepare_session_independent_of_pass_width(basis, monkeypatch, eve):
    # the same for prepare-and-measure passes: random Eve's rounds read a
    # second Philox block, drawn only after the first one's rows are read
    cfg = config(basis, rounds=3001, seed=11, eve=eve)
    expected = run_session(cfg).columns
    for width in (1, 7, 100):
        monkeypatch.setattr(protocol, "_LANES", width)
        assert np.array_equal(run_session(cfg).columns, expected), width


@pytest.mark.parametrize("mode", [PREPARE_MEASURE, ENTANGLED])
def test_session_working_set_bounded(basis, mode):
    # the kernel's own memory is bounded by its block size, not the session
    # length.  An entangled session of 100 rounds draws 4 blocks a round from
    # its first pass; one of k _BLOCK +- 1 rounds drains its pool, and ends
    # its finishing sweep, at other passes.  Every Eve kind is measured, as
    # each leaves a different share of rounds to the finishing sweep
    eves = [EveStrategy(kind="random", resend="eigenstate")]
    lengths = (5_000, 50_000, 100)
    if mode == ENTANGLED:
        eves += [NO_EVE, EveStrategy(kind="fixed", setting=1)]
        lengths += (_BLOCK - 1, _BLOCK + 1, 3 * _BLOCK - 1, 3 * _BLOCK, 3 * _BLOCK + 1,
                    11_000, 20_000)
    for eve in eves:
        run_session(config(basis, rounds=10, mode=mode, eve=eve))
        peaks = []
        for rounds in lengths:
            cfg = config(basis, rounds=rounds, seed=3, mode=mode, eve=eve)
            cfg.channel  # built outside the measurement
            tracemalloc.start()
            try:
                t = run_session(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - t.columns.nbytes)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 160 * 1024, (eve, peaks)
        assert peaks[1] <= 1.1 * peaks[0], (eve, peaks)
        if mode == ENTANGLED:
            # this is the session of sweep_short's memory measurement, whose
            # peak is nearly all this working set and the columns.  The
            # benchmark lets that peak grow by 5% at most: 5% over the 53,197 B
            # of the 384-lane pool whose rounds held their whole click block
            assert max(peaks) <= 1.05 * 53_197, (eve, peaks)
            assert peaks[2] <= peaks[0], (eve, peaks)


def test_integer5_is_scalar_integer():
    # RngStream.integer(5) is min(int(5 u), 4); a Philox double is at most
    # 1 - 2^-53, so the array draw needs no clamp at its top
    edges = [np.nextafter(x, d) for x in (0.2, 0.4, 0.6, 0.8) for d in (0.0, 1.0)]
    u = np.array([0.0, 0.2, 0.4, 0.6, 0.8, *edges, 1.0 - 2.0**-53])
    expected = [min(int(5 * x), 4) for x in u.tolist()]
    out = np.empty(len(u), np.int16)
    protocol._integer5(u.copy(), out)
    assert out.tolist() == expected
    assert expected[-1] == 4


def test_cells_computed_once(basis):
    # key_stats, estimate_security and estimate_pe share one count table, and
    # the columns it is computed from cannot change under it
    eve = EveStrategy(kind="fixed", setting=1)
    t = run_session(config(basis, rounds=2000, seed=9, eve=eve, sacrifice=0.5))
    cells = t.cells
    assert cells.shape == (5, 5, 2, 6, 3) and cells.dtype == np.int64
    assert cells.sum() == 2000
    key_stats(t)
    estimate_security(t)
    estimate_pe(t)
    assert t.cells is cells
    with pytest.raises(ValueError, match="read-only"):
        t.columns[0, 0] = 4
    with pytest.raises(ValueError, match="read-only"):
        cells[0, 1, 0, 2, 1] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.columns = t.columns.copy()
    # a view is refused, as a write to its base would leave the view stale;
    # so are other types and shapes
    base = t.columns.copy()
    for columns in (base[:, :], base.astype(np.int32), base[:5].copy(), base.tolist()):
        with pytest.raises(ValueError, match="owning int16 array"):
            Transcript(config=t.config, columns=columns)


def test_sift_read_of_hand_built_counts(basis):
    # rounds counted by hand, through the fold and the reader that the
    # estimators share with the oracle: (i, j, bob_outcome, k, e) and count
    counts = {
        (0, 0, 1, 1, 1): 7,  # C1, Alice's bit 0: Bob differs, Eve guesses 0
        (0, 0, 0, 1, 0): 3,  # C1: Bob agrees, Eve guesses 1
        (2, 3, 0, 1, 1): 5,  # C2, Alice's bit 1: Bob differs, Eve guesses 0
        (4, 0, 1, 2, 0): 2,  # C2 (j - i = -4): Bob agrees, Eve guesses 1
        (1, 3, 1, 0, 0): 11,  # C3: not sifted
    }
    rows = [Round(*fields, 1) for fields, n in counts.items() for _ in range(n)]
    columns = np.array(rows, np.int16).T.copy()
    t = Transcript(config=config(basis, rounds=len(rows), eve=EveStrategy(kind="random")),
                   columns=columns)
    expected = np.zeros((5, 5, 2, 6, 3), np.int64)
    for (i, j, bob_outcome, k, e), n in counts.items():
        expected[i, j, bob_outcome, k + 1, e + 1] = n
    assert np.array_equal(t.cells, expected)
    by_bit, anticorrelated, guessed = protocol._sifted_counts(t.cells)
    assert by_bit == [[3, 7, 7, 3, 0], [5, 2, 5, 2, 0]]
    # per sifted (i, j), row-major: (0, 0) is the first, (2, 3) the 9th and
    # (4, 0) the 13th
    assert anticorrelated == [7, *[0] * 7, 5, *[0] * 6]
    assert guessed == [7, *[0] * 11, 2, 0, 0]
    stats = key_stats(t)
    assert stats.anticorr_fraction == 12 / 17
    assert (stats.p1, stats.sift_rate) == (7 / 17, 17 / 28)
    assert estimate_pe(t) == 9 / 17


def test_transcript_holds_draws_only(basis):
    # six int16 columns in one owning array: 12 bytes per round
    t = run_session(config(basis, rounds=1000, seed=5, mode=ENTANGLED, eve=EveStrategy(kind="random")))
    assert t.columns.dtype == np.int16 and t.columns.flags.owndata
    assert t.columns.nbytes / 1000 <= 16


def test_no_channel_without_eve(basis, monkeypatch):
    # rounds without Eve read basis.overlap alone and build no channel
    def refused(*args):
        raise AssertionError("a channel was built without Eve")

    monkeypatch.setattr(protocol, "build_channel", refused)
    cfg = config(basis, rounds=300)
    run_session(cfg)
    run_round(cfg, 0)
    assert cfg.channel is None


# round counts on both sides of every chunk boundary of the statistics
STATS_ROUNDS = (_STATS_CHUNK - 1, _STATS_CHUNK, _STATS_CHUNK + 1, 2 * _STATS_CHUNK + 1, 20_001)


@pytest.mark.parametrize("mode", [PREPARE_MEASURE, ENTANGLED])
@pytest.mark.parametrize(
    "eve",
    [NO_EVE, EveStrategy(kind="fixed", setting=1), EveStrategy(kind="random", resend="eigenstate")],
    ids=["absent", "fixed", "random"],
)
@pytest.mark.parametrize("sacrifice", [0.1, 0.5])
def test_statistics_match_reference_sift(basis, mode, eve, sacrifice):
    # the counts of Transcript.cells and of the sacrificed rounds give the
    # values of the sifted bits that a boolean mask gathers, to the last bit
    for rounds in STATS_ROUNDS:
        cfg = config(basis, rounds=rounds, seed=rounds, mode=mode, eve=eve, sacrifice=sacrifice)
        t = run_session(cfg)
        assert key_stats(t) == KeyStats(**reference.key_stats_fields(t)), rounds
        report = estimate_security(t)
        assert report == SecurityReport(**reference.estimate_security_fields(t)), rounds
        if eve.present:
            assert estimate_pe(t) == reference.estimate_pe(t), rounds
        else:
            with pytest.raises(ValueError, match="without Eve records"):
                estimate_pe(t)


@pytest.mark.parametrize(
    "mode,eve",
    [(PREPARE_MEASURE, NO_EVE), (PREPARE_MEASURE, EveStrategy(kind="fixed", setting=3)),
     (ENTANGLED, EveStrategy(kind="random", resend="eigenstate"))],
    ids=["prepare-absent", "prepare-fixed", "entangled-random"],
)
def test_cells_count_rounds_and_csv_lines(basis, mode, eve):
    # cells holds the rounds of each (i, j, bob_outcome, k + 1, e + 1), and its
    # flat index is the row of the line tail the CSV writer gives the round
    rounds = _STATS_CHUNK + 1
    t = run_session(config(basis, rounds=rounds, seed=4, mode=mode, eve=eve))
    expected = np.zeros((5, 5, 2, 6, 3), np.int64)
    for r in map(Round._make, t.columns.T.tolist()):
        expected[r.i, r.j, r.bob_outcome, r.eve_setting + 1, r.eve_outcome + 1] += 1
    assert np.array_equal(t.cells, expected)
    out = io.BytesIO()
    write_transcript_csv(t, out)
    tails = collections.Counter(line.split(b",", 1)[1] for line in out.getvalue().splitlines()[1:])
    assert sum(tails.values()) == rounds
    assert len(tails) == np.count_nonzero(t.cells)
    for tail, count in tails.items():
        i, j, _, bob_outcome, _, _, k, e, _ = tail.split(b",")
        i, j, bob_outcome, k, e = (int(f) if f else -1 for f in (i, j, bob_outcome, k, e))
        assert t.cells[i, j, bob_outcome, k + 1, e + 1] == count, tail


@pytest.mark.parametrize("rounds", [1, 8191, 8192, 8193, 20_001])
def test_total_attempts_exact(basis, rounds):
    # the int64 sum of the attempts column, up to int16's largest count
    attempts = np.random.default_rng(rounds).integers(1, 2**15, rounds)
    columns = np.zeros((len(Round._fields), rounds), np.int16)
    columns[5] = attempts
    t = Transcript(config=config(basis, rounds=rounds), columns=columns)
    assert t.total_attempts == sum(attempts.tolist())
    assert type(t.total_attempts) is int


def test_total_attempts_buffer_bounded(basis):
    # a whole-column int64 sum casts through a buffer of 8,192 rounds (64 KB)
    t = run_session(config(basis, rounds=20_000, seed=3, mode=ENTANGLED))
    t.total_attempts
    tracemalloc.start()
    try:
        t.total_attempts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 1024, peak


@pytest.mark.parametrize("rounds", [5_000, 20_000])
@pytest.mark.parametrize("sacrifice", [0.1, 0.5])
def test_statistics_working_set_bounded(basis, rounds, sacrifice):
    # key_stats, estimate_security and total_attempts, from a transcript whose
    # cells are not yet counted, hold no more beside the columns than the
    # session kernel's own working set: their passes are bounded by
    # _STATS_CHUNK, not the session length
    eve = EveStrategy(kind="random", resend="eigenstate")
    # the warm-up sacrifices at least 100 rounds, so that the subset pass
    # runs before the measurement too
    warm = run_session(config(basis, rounds=400, seed=0, mode=ENTANGLED, eve=eve, sacrifice=0.5))
    key_stats(warm)
    assert estimate_security(warm).sacrificed_count >= 100
    cfg = config(basis, rounds=rounds, seed=3, mode=ENTANGLED, eve=eve, sacrifice=sacrifice)
    cfg.channel  # built outside the measurement
    tracemalloc.start()
    try:
        t = run_session(cfg)
        session = tracemalloc.get_traced_memory()[1] - t.columns.nbytes
        tracemalloc.reset_peak()
        key_stats(t)
        estimate_security(t)
        t.total_attempts
        statistics = tracemalloc.get_traced_memory()[1] - t.columns.nbytes
    finally:
        tracemalloc.stop()
    assert statistics <= session, (statistics, session)
