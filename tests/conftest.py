import math
from pathlib import Path

import numpy as np
import pytest

from kcbs_qkd.adversary import EveStrategy
from kcbs_qkd.kcbs import KcbsBasis, standard_basis
from kcbs_qkd.protocol import PREPARE_MEASURE, ProtocolConfig, Round, Transcript


# Byte-exact `simulate --rounds 5000` reports for each mode and Eve kind, and
# the sha256 of the Eve runs' CSV transcripts (tests/golden/transcripts.sha256).
# Regenerate them only for an intended change of the report or the draws.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CONFIGS = {
    "prepare_absent": ["--mode", "prepare", "--seed", "11"],
    "prepare_fixed1_collapsed": [
        "--mode", "prepare", "--seed", "12", "--eve", "fixed:1", "--resend", "collapsed",
    ],
    "prepare_random_eigenstate": [
        "--mode", "prepare", "--seed", "13", "--eve", "random", "--resend", "eigenstate",
    ],
    "entangled_absent": ["--mode", "entangled", "--seed", "14"],
    "entangled_fixed1_collapsed": [
        "--mode", "entangled", "--seed", "15", "--eve", "fixed:1", "--resend", "collapsed",
    ],
    "entangled_random_eigenstate": [
        "--mode", "entangled", "--seed", "16", "--eve", "random", "--resend", "eigenstate",
    ],
}


@pytest.fixture(scope="session")
def basis():
    return standard_basis()


@pytest.fixture(scope="session")
def complex_basis(basis):
    """The standard pentagon under the unitary diag(1, 1, i): complex rays."""
    u = np.diag([1.0, 1.0, 1j])
    return KcbsBasis([u @ v for v in basis.rays])


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


def synthetic_transcript(basis, n_sifted, anticorr_fraction, n_c3=0, seed=0):
    """A hand-built transcript with an exact anti-correlation fraction.

    ``n_sifted`` C2 rounds (Alice's bit 1), the correlated ones first, then
    ``n_c3`` out-of-context rounds; no Eve.  Its config sacrifices half of
    the sifted rounds, drawn from the stream (``seed``, rounds).
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
        seed=seed,
    )
    columns = np.array(rows, dtype=np.int16).reshape(len(rows), len(Round._fields)).T.copy()
    return Transcript(config=cfg, columns=columns)
