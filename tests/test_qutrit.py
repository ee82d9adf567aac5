import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import APEX_CLICK
from kcbs_qkd.qutrit import (
    Projector,
    QutritState,
    RngStream,
    born_probability,
    projector_from_state,
)
from reference import (
    ForcedDraws,
    TwoQutritState,
    entangled_click_probability,
    entangled_collapse,
    measure,
)

APEX = QutritState([0.0, 0.0, 1.0])


def test_constructor_normalizes():
    s = QutritState([2.0, 0.0, 0.0])
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        QutritState([0.0, 0.0, 1e-13])


def test_self_overlap_is_one(basis):
    v0 = basis.source_vectors[0]
    assert np.vdot(v0.amplitudes, v0.amplitudes) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_neighbor_overlap_vanishes(basis):
    # cos(4pi/5) = -cos(pi/5) makes cyclic neighbors orthogonal
    ip = np.vdot(basis.source_vectors[0].amplitudes, basis.source_vectors[1].amplitudes)
    assert abs(ip) < 1e-12


def test_distance_two_overlap(basis):
    from conftest import D2_OVERLAP

    ip = np.vdot(basis.source_vectors[1].amplitudes, basis.source_vectors[3].amplitudes)
    assert ip.real == pytest.approx(D2_OVERLAP, abs=1e-9)
    assert ip.imag == pytest.approx(0.0, abs=1e-12)


def test_projector_from_basis_state():
    p = projector_from_state(QutritState([1.0, 0.0, 0.0]))
    assert np.allclose(p.matrix, np.diag([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("i", range(5))
def test_projector_invariants(basis, i):
    m = projector_from_state(basis.source_vectors[i]).matrix
    assert np.max(np.abs(m @ m - m)) <= 1e-12
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert abs(np.trace(m).real - 1.0) <= 1e-12


def test_born_eigenstate(basis):
    assert born_probability(basis.source_vectors[0], basis.projectors[0]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_born_orthogonal(basis):
    assert born_probability(basis.source_vectors[0], basis.projectors[1]) == pytest.approx(
        0.0, abs=1e-12
    )


@pytest.mark.parametrize("i", range(5))
def test_born_apex_state(basis, i):
    assert born_probability(APEX, basis.projectors[i]) == pytest.approx(
        APEX_CLICK, abs=1e-9
    )


@given(st.integers(0, 2**32), st.lists(st.floats(-1, 1), min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_born_complement_sums_to_one(seed, raw):
    amp = np.array(raw[:3]) + 1j * np.array(raw[3:])
    if np.linalg.norm(amp) < 1e-3:
        return
    state = QutritState(amp)
    rng = np.random.Generator(np.random.Philox(key=seed))
    direction = rng.normal(size=3) + 1j * rng.normal(size=3)
    p = projector_from_state(QutritState(direction))
    p1 = born_probability(state, p)
    # complement probability computed directly from I - P
    p0 = np.vdot(state.amplitudes, (np.eye(3) - p.matrix) @ state.amplitudes).real
    assert p1 + p0 == pytest.approx(1.0, abs=1e-12)


def test_measure_deterministic_branches(basis):
    rng = RngStream(1, 0)
    outcome, post = measure(basis.source_vectors[0], basis.projectors[0], rng)
    assert outcome == 1
    assert abs(abs(np.vdot(post.amplitudes, basis.source_vectors[0].amplitudes)) - 1.0) < 1e-12

    outcome, post = measure(basis.source_vectors[0], basis.projectors[1], RngStream(1, 1))
    assert outcome == 0
    # I - P_1 acts as the identity on the orthogonal ray 0
    assert abs(abs(np.vdot(post.amplitudes, basis.source_vectors[0].amplitudes)) - 1.0) < 1e-12


def test_measure_reproducible(basis):
    results = [
        measure(APEX, basis.projectors[0], RngStream(99, 5))[0] for _ in range(10)
    ]
    assert len(set(results)) == 1


def test_measure_empirical_frequency(basis):
    n = 100_000
    hits = sum(
        measure(APEX, basis.projectors[0], RngStream(2024, r))[0] for r in range(n)
    )
    p = APEX_CLICK
    assert hits / n == pytest.approx(p, abs=4 * math.sqrt(p * (1 - p) / n))


def test_rng_streams_identical_and_independent():
    a = [RngStream(7, 3).uniform() for _ in range(1)]
    b = [RngStream(7, 3).uniform() for _ in range(1)]
    assert a == b
    assert RngStream(7, 3).uniform() != RngStream(7, 4).uniform()


def test_rng_keys_above_two_to_the_63():
    # a key holding a value >= 2^63 must keep its low bits
    assert RngStream(2**63, 0).uniform() != RngStream(2**63 + 1, 0).uniform()
    assert RngStream(2**64 - 1, 0).uniform() != RngStream(0, 0).uniform()


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_rng_rejects_keys_outside_64_bits(seed, stream_id):
    with pytest.raises(ValueError, match="2\\^64"):
        RngStream(seed, stream_id)


ISOTROPIC = TwoQutritState(np.eye(3).reshape(-1) / math.sqrt(3))


def test_entangled_click_probability(basis):
    n = 20_000
    hits = sum(
        entangled_collapse(ISOTROPIC, basis.projectors[2], RngStream(5, r))[0]
        for r in range(n)
    )
    assert hits / n == pytest.approx(1 / 3, abs=4 * math.sqrt((1 / 3) * (2 / 3) / n))


@pytest.mark.parametrize("i", range(5))
def test_entangled_collapse_steers_bob(basis, i):
    # the entangled kernel (run_round) takes Alice's click probability to be
    # 1/3 and Bob's state after a click to be ray i; hold both to the
    # reference for every ray of the real standard basis
    p = basis.projectors[i]
    assert entangled_click_probability(ISOTROPIC, p) == pytest.approx(1 / 3, abs=1e-12)
    outcome, bob = entangled_collapse(ISOTROPIC, p, ForcedDraws(0.0))
    assert outcome == 1
    assert abs(abs(np.vdot(bob.amplitudes, basis.source_vectors[i].amplitudes)) - 1.0) < 1e-12


def test_entangled_product_state():
    psi = TwoQutritState([1, 0, 0, 0, 0, 0, 0, 0, 0])
    p = Projector(np.diag([1.0, 0.0, 0.0]))
    outcome, bob = entangled_collapse(psi, p, RngStream(0, 0))
    assert outcome == 1
    assert np.allclose(np.abs(bob.amplitudes), [1.0, 0.0, 0.0])


def test_entangled_negative_branch_aborts():
    psi = TwoQutritState([0, 0, 0, 1, 0, 0, 0, 0, 0])  # subsystem A in |1>
    p = Projector(np.diag([1.0, 0.0, 0.0]))
    outcome, bob = entangled_collapse(psi, p, RngStream(0, 0))
    assert outcome == 0
    assert bob is None
