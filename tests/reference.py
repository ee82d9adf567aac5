"""State-vector reference model of the protocol's measurements, for the tests.

The package computes every probability of a round from the exact channel of
``adversary.build_channel``.  This module models the same physics
independently, one sampled state vector at a time, with its own Born rule:
a two-outcome projective measurement that collapses the state, Eve's
intercept-resend, and Alice's measurement on one half of an entangled pair.
States are plain normalised amplitude arrays, and projectors are formed here
from the basis's rays.  Of the package it reads only the sift and strategy
constants, the basis's rays, the random streams and the transcript types
(``test_exports`` checks this).  The tests hold the channel, the oracle and
the session kernel to it.  It also keeps the transcript CSV written row by
row through ``csv.writer``, which the package's columnar writer must match
byte for byte.
"""

from __future__ import annotations

import csv

import numpy as np

from kcbs_qkd.adversary import C3, FIXED, RESEND_EIGENSTATE, SIFT, EveStrategy
from kcbs_qkd.kcbs import KcbsBasis
from kcbs_qkd.protocol import Transcript
from kcbs_qkd.qutrit import RngStream

# the transcript CSV's header, spelled out here so that the writer's is checked
CSV_HEADER = (
    "index", "i", "j", "case", "bob_outcome", "alice_bit", "bob_bit",
    "eve_setting", "eve_outcome", "eve_guess",
)


class ForcedDraws:
    """A stand-in for RngStream whose every uniform draw is one fixed value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def uniform(self) -> float:
        return self.value


def state(amplitudes) -> np.ndarray:
    """A pure state as its normalised complex amplitude vector: 3 amplitudes
    for one qutrit, 9 for two, |jk> ordered with j = subsystem A."""
    amp = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    return amp / np.linalg.norm(amp)


def projector(ray) -> np.ndarray:
    """The rank-1 projector |v><v| of a ray, normalised first."""
    v = state(ray)
    return np.outer(v, v.conj())


def born(psi: np.ndarray, p: np.ndarray) -> float:
    """The Born probability <psi|P|psi> of a normalised state."""
    return float(np.vdot(psi, p @ psi).real)


def complement(p: np.ndarray) -> np.ndarray:
    """The matrix of the complementary outcome I - P (not itself rank 1)."""
    return np.eye(3, dtype=np.complex128) - p


def measure(psi: np.ndarray, p: np.ndarray, rng: RngStream) -> tuple[int, np.ndarray]:
    """Sample the two-outcome measurement {P, I-P} and collapse the state.

    Returns (outcome, post_state) where outcome 1 occurs with the Born
    probability of P.  The sampled branch always has positive probability, so
    the collapsed vector is normalizable.
    """
    outcome = 1 if rng.uniform() < born(psi, p) else 0
    branch = p if outcome == 1 else complement(p)
    return outcome, state(branch @ psi)


def entangled_click_probability(psi: np.ndarray, p: np.ndarray) -> float:
    """<psi| P (x) I |psi> = Tr(P rho_A) of a two-qutrit state, with
    rho_A = A A^dagger for the coefficient matrix A (rows = subsystem A)."""
    coeffs = psi.reshape(3, 3)
    return float(np.trace(p @ (coeffs @ coeffs.conj().T)).real)


def entangled_collapse(
    psi: np.ndarray, p: np.ndarray, rng: RngStream
) -> tuple[int, np.ndarray | None]:
    """Measure {P (x) I, (I-P) (x) I} on subsystem A of a two-qutrit state.

    On outcome 1 returns Bob's conditional reduced state, which is pure
    because P is rank 1.  On outcome 0 the round is aborted and None is
    returned in place of a state (the protocol only consumes the positive
    branch).
    """
    outcome = 1 if rng.uniform() < entangled_click_probability(psi, p) else 0
    if outcome == 0:
        return 0, None
    eigvals, eigvecs = np.linalg.eigh(p)
    v = eigvecs[:, int(np.argmax(eigvals))]
    # collapsed state is |v> (x) |b> with b proportional to v^dagger A
    return 1, state(v.conj() @ psi.reshape(3, 3))


def intercept(
    strategy: EveStrategy, in_flight: np.ndarray, basis: KcbsBasis, rng: RngStream
) -> tuple[np.ndarray, int, int]:
    """Eve measures the in-flight state and forwards a substitute.

    Returns (forwarded_state, setting, outcome).  The collapsed policy
    forwards the post-measurement state on either branch; the eigenstate
    policy forwards the ray of Eve's setting on a click and the collapsed
    state otherwise.  (For rank-1 projectors the click branches of the two
    policies coincide up to phase.)  Only the basis's rays are read.
    """
    if not strategy.present:
        raise ValueError("intercept requires a present eavesdropper")
    k = strategy.setting if strategy.kind == FIXED else rng.integer(5)
    outcome, resent = measure(in_flight, projector(basis.rays[k]), rng)
    if outcome == 1 and strategy.resend == RESEND_EIGENSTATE:
        resent = state(basis.rays[k])
    return resent, k, outcome


def write_transcript_csv_rows(t: Transcript, path: str) -> None:
    """The transcript CSV, one ``csv.writer`` row per round; unset bits
    render as empty fields, and Eve guesses 0 on a click, 1 otherwise."""
    names = ("C1", "C2", "C3")
    sift = SIFT.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for index, (i, j, bob_outcome, k, e, _) in enumerate(t.columns.T.tolist()):
            case = sift[i][j]  # on a sifted round also Alice's bit
            sifted, eve = case != C3, e >= 0
            writer.writerow(
                [index, i, j, names[case], bob_outcome,
                 case if sifted else "", bob_outcome if sifted else "",
                 k if eve else "", e if eve else "", 1 - e if eve else ""]
            )
