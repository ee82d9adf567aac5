import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import APEX_CLICK, D2_OVERLAP
from kcbs_qkd import qutrit
from kcbs_qkd.kcbs import KcbsBasis, standard_vectors_unnormalized
from kcbs_qkd.qutrit import _LANES, RngStream, uniforms
from reference import (
    ForcedDraws,
    born,
    entangled_click_probability,
    entangled_collapse,
    measure,
    projector,
    state,
)

APEX = state([0.0, 0.0, 1.0])

# --- the basis's rays and projectors -----------------------------------------


def test_constructor_normalizes(basis):
    # each ray is divided by its norm, so a scaled pentagon is the same basis
    assert np.allclose(np.linalg.norm(basis.rays, axis=1), 1.0, rtol=0, atol=1e-12)
    scaled = KcbsBasis([2.0 * v for v in standard_vectors_unnormalized()])
    assert scaled == basis and hash(scaled) == hash(basis)
    assert np.array_equal(scaled.rays, basis.rays)


def test_zero_vector_rejected():
    vectors = standard_vectors_unnormalized()
    for tiny in ([0.0, 0.0, 1e-13], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="zero amplitude"):
            KcbsBasis([tiny, *vectors[1:]])


def test_self_overlap_is_one(basis):
    v0 = basis.rays[0]
    assert np.vdot(v0, v0) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert np.allclose(np.diag(basis.overlap), 1.0, rtol=0, atol=1e-12)


def test_neighbor_overlap_vanishes(basis):
    # cos(4pi/5) = -cos(pi/5) makes cyclic neighbors orthogonal
    ip = np.vdot(basis.rays[0], basis.rays[1])
    assert abs(ip) < 1e-12


def test_distance_two_overlap(basis):
    ip = np.vdot(basis.rays[1], basis.rays[3])
    assert ip.real == pytest.approx(D2_OVERLAP, abs=1e-9)
    assert ip.imag == pytest.approx(0.0, abs=1e-12)


def test_projector_from_basis_state():
    # the reference's projector of a ray, normalised first
    assert np.allclose(projector([2.0, 0.0, 0.0]), np.diag([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("i", range(5))
def test_projector_invariants(basis, complex_basis, i):
    for pentagon in (basis, complex_basis):
        m = pentagon.projectors[i]
        assert m.shape == (3, 3) and m.dtype == np.complex128
        assert np.max(np.abs(m @ m - m)) <= 1e-12
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        assert abs(np.trace(m).real - 1.0) <= 1e-12
        assert np.max(np.abs(m - projector(pentagon.rays[i]))) <= 1e-15


# --- the reference's Born rule and measurement -------------------------------


def test_born_eigenstate(basis):
    assert born(basis.rays[0], projector(basis.rays[0])) == pytest.approx(1.0, abs=1e-12)


def test_born_orthogonal(basis):
    assert born(basis.rays[0], projector(basis.rays[1])) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("i", range(5))
def test_born_apex_state(basis, i):
    assert born(APEX, projector(basis.rays[i])) == pytest.approx(APEX_CLICK, abs=1e-9)


@given(st.integers(0, 2**32), st.lists(st.floats(-1, 1), min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_born_complement_sums_to_one(seed, raw):
    amp = np.array(raw[:3]) + 1j * np.array(raw[3:])
    if np.linalg.norm(amp) < 1e-3:
        return
    psi = state(amp)
    rng = np.random.Generator(np.random.Philox(key=seed))
    p = projector(rng.normal(size=3) + 1j * rng.normal(size=3))
    p1 = born(psi, p)
    # complement probability computed directly from I - P
    p0 = np.vdot(psi, (np.eye(3) - p) @ psi).real
    assert p1 + p0 == pytest.approx(1.0, abs=1e-12)


def test_measure_deterministic_branches(basis):
    ray0 = basis.rays[0]
    outcome, post = measure(ray0, projector(ray0), RngStream(1, 0))
    assert outcome == 1
    assert abs(abs(np.vdot(post, ray0)) - 1.0) < 1e-12

    outcome, post = measure(ray0, projector(basis.rays[1]), RngStream(1, 1))
    assert outcome == 0
    # I - P_1 acts as the identity on the orthogonal ray 0
    assert abs(abs(np.vdot(post, ray0)) - 1.0) < 1e-12


def test_measure_reproducible(basis):
    p0 = projector(basis.rays[0])
    results = [measure(APEX, p0, RngStream(99, 5))[0] for _ in range(10)]
    assert len(set(results)) == 1


def test_measure_empirical_frequency(basis):
    n = 100_000
    p0 = projector(basis.rays[0])
    hits = sum(measure(APEX, p0, RngStream(2024, r))[0] for r in range(n))
    p = APEX_CLICK
    assert hits / n == pytest.approx(p, abs=4 * math.sqrt(p * (1 - p) / n))


# --- random streams ----------------------------------------------------------


def test_rng_streams_identical_and_independent():
    a = [RngStream(7, 3).uniform() for _ in range(1)]
    b = [RngStream(7, 3).uniform() for _ in range(1)]
    assert a == b
    assert RngStream(7, 3).uniform() != RngStream(7, 4).uniform()


@pytest.mark.parametrize("n", [0, 1, 2, 100, 255, 256, 257, 3_000, 65_535, 65_536, 65_537, 200_000])
def test_subset_is_permutation_prefix(n):
    # the narrowest unsigned permutation is Generator.permutation's, sorted,
    # and leaves the stream where permutation(n) leaves it
    rng = RngStream(17, stream_id=n)
    gen = np.random.Generator(np.random.Philox(key=np.array([17, n], np.uint64)))
    m = n // 3
    chosen = rng.subset(n, m)
    assert chosen.dtype == np.min_scalar_type(max(n - 1, 0))
    assert np.array_equal(chosen, np.sort(gen.permutation(n)[:m]))
    assert rng.uniform() == gen.random()
    assert rng.counter == n + 1


def test_rng_keys_above_two_to_the_63():
    # a key holding a value >= 2^63 must keep its low bits
    assert RngStream(2**63, 0).uniform() != RngStream(2**63 + 1, 0).uniform()
    assert RngStream(2**64 - 1, 0).uniform() != RngStream(0, 0).uniform()


PHILOX_KEYS = [(0, 0), (5, 7), (2**63 + 1, 3), (2**64 - 1, 2**64 - 1), (123456789, 999999)]


def test_uniforms_match_numpy_philox():
    # one key per call, against numpy's generator: draw w of block b is raw
    # output 4 (b - 1) + w, as RngStream.uniform turns it into a double
    for seed, stream_id in PHILOX_KEYS:
        raw = np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)).random_raw(12)
        for block in (1, 2, 3):
            drawn = uniforms(seed, np.array([stream_id], dtype=np.uint64), block)
            expected = (raw[4 * (block - 1):4 * block] >> 11) * 2.0**-53
            assert drawn.shape == (4, 1) and drawn[:, 0].tolist() == expected.tolist()
    # int blocks whose product with the round multiplier is wide, held to
    # numpy's counter and to the same block given per lane
    ids = np.array([0, 7, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
    for block in (2**32 + 3, 2**63, 2**64 - 1):
        drawn = uniforms(2**64 - 3, ids, block)
        for col, stream_id in enumerate(ids.tolist()):
            key = np.array([2**64 - 3, stream_id], dtype=np.uint64)
            counter = np.array([block - 1, 0, 0, 0], dtype=np.uint64)
            raw = np.random.Philox(key=key, counter=counter).random_raw(4)
            assert drawn[:, col].tolist() == ((raw >> 11) * 2.0**-53).tolist(), (block, col)
        per_lane = uniforms(2**64 - 3, ids, np.full(len(ids), block, np.uint64))
        assert per_lane.tolist() == drawn.tolist()
    # a block per lane, over as many lanes as one call takes
    ids = np.arange(_LANES, dtype=np.uint64)
    blocks = ids % np.uint64(3) + np.uint64(1)
    drawn = uniforms(2**63 + 5, ids, blocks)
    for col in (0, 1, 2, _LANES - 1):
        raw = np.random.Philox(key=np.array([2**63 + 5, col], dtype=np.uint64))
        expected = (raw.random_raw(4 * int(blocks[col]))[-4:] >> 11) * 2.0**-53
        assert drawn[:, col].tolist() == expected.tolist(), col


def test_uniforms_match_rng_stream():
    ids = np.array([0, 3, 2**64 - 1], dtype=np.uint64)
    drawn = np.concatenate([uniforms(2**63 + 5, ids, b) for b in (1, 2)])
    for col, stream_id in enumerate(ids.tolist()):
        rng = RngStream(2**63 + 5, stream_id)
        assert drawn[:, col].tolist() == [rng.uniform() for _ in range(8)]


IDS = np.array([0, 1, 2], np.uint64)


@pytest.mark.parametrize(
    "seed, ids, blocks",
    [
        (np.array([-1]), np.array([0], np.uint64), 1),
        (-1, np.array([0], np.uint64), 1),
        (2**64, np.array([0], np.uint64), 1),
        (2.0, np.array([0], np.uint64), 1),
        (True, np.array([0], np.uint64), 1),
        (1, np.array([0.7]), 1),
        (1, np.array([-1]), 1),
        (1, np.array([[0]], np.uint64), 1),
        (1, [0], 1),
        (1, np.arange(_LANES + 1, dtype=np.uint64), 1),
        (1, IDS, 2.5),
        (1, IDS, True),
        (1, IDS, -1),
        (1, IDS, 2**64),
        (1, IDS, np.array([1, 2, 3])),
        (1, IDS, np.array([1.5, 2, 3])),
        (1, IDS, np.array([[1, 2, 3]], np.uint64)),
        (1, IDS, [1, 2, 3]),
        (1, IDS, np.array([1, 2], np.uint64)),
    ],
    ids=["seed-array", "seed-negative", "seed-2^64", "seed-float", "seed-bool",
         "ids-float", "ids-int64", "ids-2d", "ids-list", "ids-too-many",
         "blocks-float", "blocks-bool", "blocks-negative", "blocks-2^64", "blocks-int64",
         "blocks-float-array", "blocks-2d", "blocks-list", "blocks-wrong-length"],
)
def test_uniforms_rejects_bad_keys(seed, ids, blocks):
    # a key or block is never coerced: an int64 -1 would be drawn as 2^64 - 1,
    # a float id 0.7 as stream 0 and a float block 2.5 as block 2
    with pytest.raises(ValueError, match="seed|stream ids|blocks"):
        uniforms(seed, ids, blocks)


# the lane counts, blocks and key words of the folded rounds' test: one and
# two lanes, odd and even widths up to a full call, and the entangled pool's
FOLD_LANES = (1, 2, 383, 496, _LANES - 1, _LANES)
FOLD_BLOCKS = (1, 2**32 + 3, 2**64 - 1)
FOLD_KEYS = (0, 2**63, 2**64 - 1)


def philox_block(seed, stream_id, block):
    """Block ``block`` of stream (seed, stream_id) from numpy's Philox, whose
    counter is incremented before each block is drawn."""
    key = np.array([seed, stream_id], np.uint64)
    counter = np.array([block - 1, 0, 0, 0], np.uint64)
    return (np.random.Philox(key=key, counter=counter).random_raw(4) >> 11) * 2.0**-53


@pytest.mark.parametrize("m", FOLD_LANES)
def test_uniforms_folded_rounds_match_philox(m):
    # every call starts from its known counter: an int block folds round 1
    # into one Python product, and a block per lane multiplies it per lane.
    # Both must be numpy's Philox, and equal for the same block
    rng = np.random.default_rng(2_600_000 + m)
    ids = rng.integers(0, 2**64, m, dtype=np.uint64, endpoint=False)
    ids[:3] = FOLD_KEYS[:min(m, 3)]
    lane_blocks = np.array(FOLD_BLOCKS, np.uint64)[rng.integers(0, len(FOLD_BLOCKS), m)]
    for seed in FOLD_KEYS:
        mixed = uniforms(seed, ids, lane_blocks)
        for block in FOLD_BLOCKS:
            drawn = uniforms(seed, ids, block)
            expected = [philox_block(seed, stream_id, block) for stream_id in ids.tolist()]
            assert drawn.T.tolist() == np.array(expected).tolist(), (seed, block)
            assert uniforms(seed, ids, np.full(m, block, np.uint64)).tolist() == drawn.tolist()
            lanes = lane_blocks == block
            assert mixed[:, lanes].tolist() == drawn[:, lanes].tolist(), (seed, block)


@pytest.mark.parametrize("m, figure", [(1, 2_937), (496, 42_565), (_LANES, 125_765)])
def test_uniforms_working_set_bounded(m, figure):
    # one call holds its result, its words and its scratch: per-call speed
    # is not bought with scratch.  The figures are BENCH_26.json's one-call
    # peaks for an int block, which both forms stay within; the seed's round
    # keys, built once per seed, are built before the measurement
    ids = np.arange(m, dtype=np.uint64)
    for blocks in (2, np.full(m, 2, np.uint64)):
        uniforms(5, ids, blocks)
        tracemalloc.start()
        try:
            uniforms(5, ids, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= figure, (m, type(blocks), peak)


def test_philox_multipliers_contiguous(monkeypatch):
    # the ufuncs run about 30% slower on a multiplier table sliced [:, :m] out
    # of a wider one or broadcast from shape (2, 1): every pass gets C-contiguous
    # (2, m) views, whatever its width m
    received = []

    def spy(m):
        tables = lane_tables(m)
        received.append(tables)
        return tables

    lane_tables = qutrit._lane_tables
    monkeypatch.setattr(qutrit, "_lane_tables", spy)
    for m in (1, 383, 384, _LANES):
        uniforms(5, np.arange(m, dtype=np.uint64), 1)
        mul, mul_hi, mul_lo = received.pop()
        assert not received
        for table in (mul, mul_hi, mul_lo):
            assert table.shape == (2, m) and table.flags.c_contiguous, m
        assert (mul == np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)).all()
        assert (mul_hi == mul >> np.uint64(32)).all() and (mul_lo == mul & np.uint64(0xFFFFFFFF)).all()


@pytest.mark.parametrize(
    "seed, stream_id",
    [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (2.5, 0), (0, 0.7), (True, 0)],
)
def test_rng_rejects_keys_outside_64_bits(seed, stream_id):
    # a key is an int in [0, 2^64): a float seed 2.5 would be drawn as seed 2
    with pytest.raises(ValueError, match="2\\^64"):
        RngStream(seed, stream_id)


ISOTROPIC = state(np.eye(3))


def test_entangled_click_probability(basis):
    n = 20_000
    p2 = projector(basis.rays[2])
    hits = sum(entangled_collapse(ISOTROPIC, p2, RngStream(5, r))[0] for r in range(n))
    assert hits / n == pytest.approx(1 / 3, abs=4 * math.sqrt((1 / 3) * (2 / 3) / n))


@pytest.mark.parametrize("i", range(5))
def test_entangled_collapse_steers_bob(basis, i):
    # the entangled kernel (run_round) takes Alice's click probability to be
    # 1/3 and Bob's state after a click to be ray i; hold both to the
    # reference for every ray of the real standard basis
    p = projector(basis.rays[i])
    assert entangled_click_probability(ISOTROPIC, p) == pytest.approx(1 / 3, abs=1e-12)
    outcome, bob = entangled_collapse(ISOTROPIC, p, ForcedDraws(0.0))
    assert outcome == 1
    assert abs(abs(np.vdot(bob, basis.rays[i])) - 1.0) < 1e-12


def test_entangled_product_state():
    psi = state([1, 0, 0, 0, 0, 0, 0, 0, 0])
    outcome, bob = entangled_collapse(psi, np.diag([1.0, 0.0, 0.0]), RngStream(0, 0))
    assert outcome == 1
    assert np.allclose(np.abs(bob), [1.0, 0.0, 0.0])


def test_entangled_negative_branch_aborts():
    psi = state([0, 0, 0, 1, 0, 0, 0, 0, 0])  # subsystem A in |1>
    outcome, bob = entangled_collapse(psi, np.diag([1.0, 0.0, 0.0]), RngStream(0, 0))
    assert outcome == 0
    assert bob is None
