import math

import numpy as np
import pytest

from kcbs_qkd.adversary import EveStrategy
from kcbs_qkd.kcbs import KcbsBasis, standard_basis
from kcbs_qkd.protocol import PREPARE_MEASURE, ProtocolConfig, Round, Transcript


@pytest.fixture(scope="session")
def basis():
    return standard_basis()


@pytest.fixture(scope="session")
def complex_basis(basis):
    """The standard pentagon under the unitary diag(1, 1, i): complex rays."""
    u = np.diag([1.0, 1.0, 1j])
    return KcbsBasis.from_vectors([u @ v.amplitudes for v in basis.source_vectors])


# Closed-form pentagon constants, evaluated independently of the package:
# neighbor rays orthogonal, distance-2 normalized overlap
# (cos(2pi/5) + cos(pi/5)) / (1 + cos(pi/5)) = 1/phi.
D2_OVERLAP = (math.cos(2 * math.pi / 5) + math.cos(math.pi / 5)) / (
    1 + math.cos(math.pi / 5)
)

# Born probability of each pentagon projector on (0, 0, 1):
# cos(pi/5) / (1 + cos(pi/5)) = 1/sqrt(5).
APEX_CLICK = math.cos(math.pi / 5) / (1 + math.cos(math.pi / 5))


def random_state_amplitudes(rng: np.random.Generator) -> np.ndarray:
    """A Haar-ish random qutrit amplitude vector (unnormalized)."""
    return rng.normal(size=3) + 1j * rng.normal(size=3)


def synthetic_transcript(basis, n_sifted, anticorr_fraction, n_c3=0):
    """A hand-built transcript with an exact anti-correlation fraction.

    ``n_sifted`` C2 rounds (Alice's bit 1), the correlated ones first, then
    ``n_c3`` out-of-context rounds; no Eve.
    """
    correlated = round(n_sifted * (1 - anticorr_fraction))  # Bob's bit 1 too
    rows = [Round(0, 1, 1 if r < correlated else 0, -1, -1, 1) for r in range(n_sifted)]
    rows += [Round(0, 2, 0, -1, -1, 1)] * n_c3
    cfg = ProtocolConfig(
        mode=PREPARE_MEASURE,
        basis=basis,
        rounds=len(rows),
        sacrifice_fraction=0.5,
        eve=EveStrategy(),
        seed=0,
    )
    columns = np.array(rows, dtype=np.int16).reshape(len(rows), len(Round._fields)).T.copy()
    return Transcript(config=cfg, columns=columns)
