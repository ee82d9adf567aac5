import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from conftest import D2_OVERLAP
from kcbs_qkd.adversary import EveStrategy, build_channel, eve_guess
from kcbs_qkd.kcbs import standard_basis
from kcbs_qkd.protocol import (
    PREPARE_MEASURE,
    SECURITY_THRESHOLD,
    ProtocolConfig,
    _attack_tables,
    attack_expectation,
    estimate_pe,
    estimate_security,
    run_session,
)
from kcbs_qkd.qutrit import RngStream
from reference import ForcedDraws, born, intercept, projector, sift

GOLDEN_ORACLE = pathlib.Path(__file__).parent / "golden" / "oracle.json"

FIXED_1 = EveStrategy(kind="fixed", setting=1)


# Exact oracle values, recomputed by hand from the overlap structure:
# q = distance-2 click probability = D2_OVERLAP^2 = 0.381966.
# For Eve fixed at k, preparations k-1, k, k+1 pass undisturbed (anticorr 1);
# the two distance-2 preparations each degrade to x = 0.745356, and Eve's
# per-preparation guess success is (2/3, 1/3, 2/3, y, y) with
# y = q/3 + (1-q)*2/3 = 0.539345.
Q = D2_OVERLAP**2
Y = Q / 3 + (1 - Q) * 2 / 3
EXPECTED_PE = (2 / 3 + 1 / 3 + 2 / 3 + 2 * Y) / 5
EXPECTED_KAB = 0.898142  # (3 + 2x)/5, x from the density-matrix enumeration


def test_strategy_validation():
    with pytest.raises(ValueError):
        EveStrategy(kind="fixed")
    with pytest.raises(ValueError):
        EveStrategy(kind="random", setting=2)
    # the resend label is checked for every kind, absent Eve's too
    for resend in ("teleport", None):
        for kwargs in (dict(kind="fixed", setting=1), dict(kind="random"), dict(kind="absent")):
            with pytest.raises(ValueError, match="unknown resend policy"):
                EveStrategy(resend=resend, **kwargs)
    # a setting that is not an int: run_session would truncate 2.5 to 2,
    # while run_round and attack_expectation fail on it
    for setting in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="int setting"):
            EveStrategy(kind="fixed", setting=setting)
    assert not EveStrategy().present


def test_eve_guess_rule():
    assert eve_guess(1) == 0
    assert eve_guess(0) == 1


def test_intercept_eigenstate_click(basis):
    resent, k, outcome = intercept(FIXED_1, basis.rays[1], basis, RngStream(3, 0))
    assert (k, outcome, eve_guess(outcome)) == (1, 1, 0)
    assert abs(abs(np.vdot(resent, basis.rays[1])) - 1) < 1e-12


def test_intercept_orthogonal_passthrough(basis):
    # ray 0 is orthogonal to projector 1: no click, state passes unchanged
    for r in range(20):
        resent, _, outcome = intercept(FIXED_1, basis.rays[0], basis, RngStream(4, r))
        assert outcome == 0
        assert eve_guess(outcome) == 1
        assert abs(abs(np.vdot(resent, basis.rays[0])) - 1) < 1e-12


def test_intercept_click_rate_distance_two(basis):
    n = 20_000
    clicks = sum(
        intercept(FIXED_1, basis.rays[3], basis, RngStream(6, r))[2]
        for r in range(n)
    )
    assert clicks / n == pytest.approx(Q, abs=4 * math.sqrt(Q * (1 - Q) / n))


def test_intercept_requires_eve(basis):
    with pytest.raises(ValueError):
        intercept(EveStrategy(), basis.rays[0], basis, RngStream(0, 0))


@pytest.mark.parametrize("resend", ["collapsed", "eigenstate"])
@pytest.mark.parametrize("which", ["basis", "complex_basis"])
def test_channel_matches_state_vector_reference(request, which, resend):
    # every channel entry against Born probabilities of the states that the
    # state-vector intercept() forwards under either of its resend rules; draw
    # 0.0 forces a click, 1.0 none.  The one channel is both rules'.  The
    # reference forms its projectors from the rays itself.
    pentagon = request.getfixturevalue(which)
    ch = build_channel(pentagon)
    assert pentagon.overlap.shape == (5, 5) and ch.branch.shape == (5, 5, 2)
    assert ch.click.shape == (5, 5, 2, 5)
    proj = [projector(ray) for ray in pentagon.rays]
    for i, ray in enumerate(pentagon.rays):
        for j in range(5):
            assert pentagon.overlap[i, j] == pytest.approx(born(ray, proj[j]), abs=1e-12)
        for k in range(5):
            p_click = born(ray, proj[k])
            strategy = EveStrategy(kind="fixed", setting=k, resend=resend)
            for e, p_e, draw in ((1, p_click, 0.0), (0, 1.0 - p_click, 1.0)):
                if p_e < 1e-15:  # a branch never sampled
                    assert ch.branch[i, k, e] == 0.0
                    assert not ch.click[i, k, e].any()
                    continue
                assert ch.branch[i, k, e] == pytest.approx(p_e, abs=1e-12)
                resent, _, outcome = intercept(strategy, ray, pentagon, ForcedDraws(draw))
                assert outcome == e
                for j in range(5):
                    assert ch.click[i, k, e, j] == pytest.approx(
                        born(resent, proj[j]), abs=1e-12
                    )


def test_oracle_matches_golden():
    # every field of every CLI strategy on the standard basis, bit for bit:
    # json round-trips floats exactly.  Both resend labels name one channel,
    # so each strategy has one row, its collapsed one
    golden = json.loads(GOLDEN_ORACLE.read_text())
    strategies = [(f"fixed:{k}", dict(kind="fixed", setting=k)) for k in range(5)]
    strategies.append(("random", dict(kind="random")))
    for resend in ("collapsed", "eigenstate"):
        for label, kwargs in strategies:
            exp = attack_expectation(EveStrategy(resend=resend, **kwargs), standard_basis())
            row = golden[f"{label} collapsed"]
            assert json.loads(json.dumps(dataclasses.asdict(exp))) == row, (label, resend)
    assert sorted(golden) == sorted(f"{label} collapsed" for label, _ in strategies)


@pytest.mark.parametrize("resend", ["collapsed", "eigenstate"])
@pytest.mark.parametrize("setting", [0, 1, 2, 3, 4, None], ids=[*map(str, range(5)), "random"])
def test_oracle_cell_table_matches_reference(basis, setting, resend):
    # the exact per-(i, j) table that the oracle reads, [Bob 0, Bob 1, Eve's
    # guess 0, 1, no Eve record], against the Born probabilities of the states
    # that the state-vector intercept() forwards under either of its resend
    # rules; draw 0.0 forces a click
    kind = "random" if setting is None else "fixed"
    _, table = _attack_tables(EveStrategy(kind=kind, setting=setting, resend=resend), basis)
    proj = [projector(ray) for ray in basis.rays]
    expected = np.zeros((5, 5, 5))
    w = 0.2 if setting is None else 1.0
    for i, ray in enumerate(basis.rays):
        for k in range(5) if setting is None else [setting]:
            strategy = EveStrategy(kind="fixed", setting=k, resend=resend)
            p_click = born(ray, proj[k])
            for e, p_e, draw in ((1, p_click, 0.0), (0, 1.0 - p_click, 1.0)):
                if p_e < 1e-15:  # a branch never sampled
                    continue
                resent, _, outcome = intercept(strategy, ray, basis, ForcedDraws(draw))
                assert outcome == e
                for j in range(5):
                    bob = born(resent, proj[j])
                    expected[i, j] += w * p_e * np.array([1 - bob, bob, e, 1 - e, 0.0])
    table = table.reshape(5, 5, 5)
    assert np.abs(table - expected).max() <= 1e-12
    # each (i, j) row has mass 1 for Bob and for Eve, and every round has an
    # Eve record
    assert np.abs(table[..., 0] + table[..., 1] - 1).max() <= 1e-15
    assert np.abs(table[..., 2] + table[..., 3] - 1).max() <= 1e-15
    assert not table[..., 4].any()


def test_oracle_reads_published_guess_rule(basis, monkeypatch):
    # the oracle orders Eve's outcomes by the guess rule that the estimators
    # read, so a rule that guesses her outcome itself turns p_E into 1 - p_E
    import kcbs_qkd.protocol as protocol

    strategies = [FIXED_1, EveStrategy(kind="random")]
    published = [attack_expectation(s, basis).pe_expected for s in strategies]
    try:
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "eve_guess", lambda outcome: outcome)
            protocol._sift_fold.cache_clear()
            attack_expectation.cache_clear()
            guessed = [attack_expectation(s, basis).pe_expected for s in strategies]
    finally:
        protocol._sift_fold.cache_clear()
        attack_expectation.cache_clear()
    assert guessed == pytest.approx([1 - pe for pe in published], abs=1e-12)


def test_oracle_fixed_collapsed(basis):
    exp = attack_expectation(FIXED_1, basis)
    assert exp.kab_expected == pytest.approx(EXPECTED_KAB, abs=1e-6)
    assert exp.pe_expected == pytest.approx(EXPECTED_PE, abs=1e-9)
    assert exp.pe_expected < exp.kab_expected  # P_B > P_E for this attack


def test_oracle_per_setting_confinement(basis):
    # disturbance is confined to the distance-2 preparations
    exp = attack_expectation(FIXED_1, basis)
    per_i = [
        sum(v for v in row if v is not None) / 3 for row in exp.anticorr_table
    ]
    for i in (0, 1, 2):
        assert per_i[i] == pytest.approx(1.0, abs=1e-12)
    for i in (3, 4):
        assert per_i[i] == pytest.approx((5 * EXPECTED_KAB - 3) / 2, abs=1e-5)


def test_oracle_dihedral_symmetry(basis):
    # relabeling the pentagon (rotation or reflection) applied to both the
    # strategy setting and the basis leaves the expectations unchanged
    from kcbs_qkd.kcbs import KcbsBasis, standard_vectors_unnormalized

    base = attack_expectation(FIXED_1, basis)
    vectors = standard_vectors_unnormalized()
    for sigma in [lambda i: (i + 1) % 5, lambda i: (-i) % 5, lambda i: (3 - i) % 5]:
        permuted = KcbsBasis([vectors[sigma(i)] for i in range(5)])
        k_new = next(i for i in range(5) if sigma(i) == 1)
        exp = attack_expectation(EveStrategy(kind="fixed", setting=k_new), permuted)
        assert exp.kab_expected == pytest.approx(base.kab_expected, abs=1e-12)
        assert exp.pe_expected == pytest.approx(base.pe_expected, abs=1e-12)


def test_oracle_random_strategy_matches_fixed_by_symmetry(basis):
    # uniform-setting Eve averages five dihedral copies of the fixed attack
    fixed = attack_expectation(FIXED_1, basis)
    rand = attack_expectation(EveStrategy(kind="random"), basis)
    assert rand.kab_expected == pytest.approx(fixed.kab_expected, abs=1e-12)
    assert rand.pe_expected == pytest.approx(fixed.pe_expected, abs=1e-12)


def test_oracle_eigenstate_resend_equivalent(basis):
    # rank-1 projectors make the click branches of both rules coincide, so
    # both labels name one channel and one oracle
    collapsed = attack_expectation(FIXED_1, basis)
    eigen = attack_expectation(EveStrategy(kind="fixed", setting=1, resend="eigenstate"), basis)
    assert eigen == collapsed


def test_oracle_kae_and_paper_form(basis):
    exp = attack_expectation(FIXED_1, basis)
    # Eve-context rounds (i in {0,1,2}) are undisturbed: perfect anticorr
    assert exp.kae_expected == pytest.approx(1.0, abs=1e-12)
    # published linear form (3/5) P01 + 1/5 with P01 = 2/3: reported only
    assert exp.paper_kae_linear_form == pytest.approx(0.6, abs=1e-12)


def test_oracle_requires_eve(basis):
    with pytest.raises(ValueError, match="present eavesdropper"):
        attack_expectation(EveStrategy(), basis)


def _session(basis, eve, rounds, seed):
    cfg = ProtocolConfig(
        mode=PREPARE_MEASURE,
        basis=basis,
        rounds=rounds,
        sacrifice_fraction=0.1,
        eve=eve,
        seed=seed,
    )
    return run_session(cfg)


def test_estimate_pe_against_oracle(basis):
    transcript = _session(basis, FIXED_1, 100_000, 99)
    pe = estimate_pe(transcript)
    sigma = math.sqrt(EXPECTED_PE * (1 - EXPECTED_PE) / (0.6 * 100_000))
    assert pe == pytest.approx(EXPECTED_PE, abs=4 * sigma)


def test_estimate_pe_requires_eve_records(basis):
    transcript = _session(basis, EveStrategy(), 500, 12)
    with pytest.raises(ValueError):
        estimate_pe(transcript)


def test_constant_guess_baseline(basis):
    # guessing a constant 1 against the ideal run succeeds 2/3 of the time
    transcript = _session(basis, EveStrategy(), 50_000, 5)
    alice, _, _ = sift(transcript)
    p = np.count_nonzero(alice == 1) / len(alice)
    assert p == pytest.approx(2 / 3, abs=3 * math.sqrt((2 / 3) * (1 / 3) / len(alice)))


@pytest.mark.parametrize(
    "eve",
    [
        FIXED_1,
        EveStrategy(kind="fixed", setting=3, resend="eigenstate"),
        EveStrategy(kind="random"),
    ],
)
def test_monte_carlo_matches_oracle(basis, eve):
    rounds = 100_000
    transcript = _session(basis, eve, rounds, seed=2718)
    exp = attack_expectation(eve, basis)
    alice, bob, _ = sift(transcript)
    n = len(alice)
    kab = np.count_nonzero(alice != bob) / n
    assert kab == pytest.approx(
        exp.kab_expected,
        abs=4 * math.sqrt(exp.kab_expected * (1 - exp.kab_expected) / n),
    )
    pe = estimate_pe(transcript)
    assert pe == pytest.approx(
        exp.pe_expected,
        abs=4 * math.sqrt(exp.pe_expected * (1 - exp.pe_expected) / n),
    )
    # verdict chain: the simulation verdict reproduces the oracle's
    security = estimate_security(transcript)
    oracle_verdict = "Secure" if exp.kab_expected > SECURITY_THRESHOLD else "Insecure"
    assert security.verdict == oracle_verdict
