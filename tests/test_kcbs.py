import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import APEX_CLICK, D2_OVERLAP
from kcbs_qkd.kcbs import (
    KcbsBasis,
    bounds,
    derived_anticorr_values,
    ktilde,
    standard_basis,
    standard_vectors_unnormalized,
)
from kcbs_qkd.qutrit import QutritState, born_probability

APEX = QutritState([0.0, 0.0, 1.0])


def k_anticorr(state, basis):
    """Anti-correlation form: the commuting exclusive pair (P_i, P_{i+1}) gives
    outcomes that differ with probability p_i + p_{i+1}."""
    probs = [born_probability(state, p) for p in basis.projectors]
    return sum(probs[i] + probs[(i + 1) % 5] for i in range(5)) / 5.0


def test_pentagon_orthogonality(basis):
    assert max(basis.pair_overlap(i, (i + 1) % 5) for i in range(5)) <= 1e-10


def test_distance_two_trace(basis):
    for i in range(5):
        assert basis.pair_overlap(i, (i + 2) % 5) == pytest.approx(
            D2_OVERLAP**2, abs=1e-9
        )


def test_projector_traces(basis):
    for p in basis.projectors:
        assert np.trace(p.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_degenerate_basis_rejected():
    v = standard_vectors_unnormalized()
    with pytest.raises(ValueError):
        KcbsBasis.from_vectors([v[0]] * 5)


def test_projectors_follow_rays(basis):
    # a basis holds its rays only: projectors that disagree with them (here
    # those of a relabelled pentagon) cannot be passed in
    v = standard_vectors_unnormalized()
    relabelled = KcbsBasis.from_vectors([v[(i + 1) % 5] for i in range(5)])
    with pytest.raises(TypeError):
        KcbsBasis(source_vectors=basis.source_vectors, projectors=relabelled.projectors)
    for ray, p in zip(basis.source_vectors, basis.projectors):
        assert np.array_equal(p.matrix, np.outer(ray.amplitudes, ray.amplitudes.conj()))
    # bases compare by their rays
    assert KcbsBasis.from_vectors(v) == basis
    assert relabelled != basis


def test_ktilde_apex(basis):
    assert ktilde(APEX, basis) == pytest.approx(math.sqrt(5) / 5, abs=1e-9)
    assert ktilde(APEX, basis) == pytest.approx(APEX_CLICK, abs=1e-9)


def test_ktilde_ray_state(basis):
    # P = (1, 0, t^2, t^2, 0) with t the distance-2 overlap
    expected = (1 + 2 * D2_OVERLAP**2) / 5
    assert ktilde(basis.source_vectors[0], basis) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.352786, abs=1e-6)


def test_apex_beats_noncontextual_bound(basis):
    assert ktilde(APEX, basis) > bounds().noncontextual_projector_form


def test_k_anticorr_apex(basis):
    assert k_anticorr(APEX, basis) == pytest.approx(2 / math.sqrt(5), abs=1e-9)


@given(st.lists(st.floats(-1, 1), min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_anticorr_is_twice_projector_form(raw):
    amp = np.array(raw[:3]) + 1j * np.array(raw[3:])
    if np.linalg.norm(amp) < 1e-3:
        return
    basis = standard_basis()
    state = QutritState(amp)
    assert k_anticorr(state, basis) == pytest.approx(2 * ktilde(state, basis), abs=1e-12)


def test_ktilde_supremum_random_states(basis):
    rng = np.random.Generator(np.random.Philox(key=31337))
    qmax = math.sqrt(5) / 5
    best = 0.0
    for _ in range(10_000):
        amp = rng.normal(size=3) + 1j * rng.normal(size=3)
        best = max(best, ktilde(QutritState(amp), basis))
    assert best <= qmax + 1e-9
    # the supremum is approached near the apex state
    assert ktilde(QutritState([0.01, 0.01, 1.0]), basis) > qmax - 1e-3


def test_maximally_mixed_anchor(basis):
    # averaging over any orthonormal basis gives the maximally mixed behavior:
    # mean ktilde = (1/3) * (1/5) * sum Tr(P_i) = 1/3
    states = [QutritState(e) for e in np.eye(3)]
    mean = sum(ktilde(s, basis) for s in states) / 3
    assert mean == pytest.approx(1 / 3, abs=1e-12)


def test_bounds_constants():
    b = bounds()
    assert b.noncontextual_projector_form == pytest.approx(0.4, abs=0)
    assert b.quantum_projector_form == pytest.approx(math.sqrt(5) / 5, abs=0)
    assert b.exclusivity_max == 0.5
    assert b.noncontextual_anticorr_form == pytest.approx(0.6, abs=0)
    assert b.quantum_anticorr_form == pytest.approx((4 * math.sqrt(5) - 5) / 5, abs=0)
    assert b.quantum_anticorr_form == pytest.approx(0.788854, abs=1e-6)
    assert b.algebraic_anticorr_max == 1.0


def test_derived_values_reported_not_asserted():
    derived = derived_anticorr_values()
    # deterministic-assignment oracle over the pentagon: adjacent vertices
    # never both 1, so at most 2 ones -> anticorr sum (p_i + p_{i+1}) hits 4
    best = 0
    for mask in range(32):
        vals = [(mask >> v) & 1 for v in range(5)]
        if any(vals[i] and vals[(i + 1) % 5] for i in range(5)):
            continue
        best = max(best, sum(vals[i] + vals[(i + 1) % 5] for i in range(5)))
    assert derived["noncontextual_anticorr_form"] == pytest.approx(best / 5, abs=0)
    assert derived["quantum_anticorr_form"] == pytest.approx(2 * math.sqrt(5) / 5, abs=0)
