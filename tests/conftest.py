import math

import numpy as np
import pytest

from kcbs_qkd.kcbs import KcbsBasis, standard_basis


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
