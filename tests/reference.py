"""State-vector reference model of the protocol's measurements, for the tests.

The package computes every probability of a round from the exact channel of
``adversary.build_channel``.  This module models the same physics
independently, one sampled state vector at a time: a two-outcome projective
measurement that collapses the state, Eve's intercept-resend, and Alice's
measurement on one half of an entangled pair.  The tests hold the channel,
the oracle and the session kernel to it.  It also keeps the transcript CSV
written row by row through ``csv.writer``, which the package's columnar
writer must match byte for byte.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from kcbs_qkd.adversary import C3, FIXED, RESEND_EIGENSTATE, SIFT, EveStrategy, eve_guess
from kcbs_qkd.kcbs import KcbsBasis
from kcbs_qkd.protocol import CSV_COLUMNS, Transcript
from kcbs_qkd.qutrit import Projector, QutritState, RngStream, born_probability


class ForcedDraws:
    """A stand-in for RngStream whose every uniform draw is one fixed value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def uniform(self) -> float:
        return self.value


@dataclass(frozen=True)
class TwoQutritState:
    """A normalized pure state of two qutrits, |jk> ordered with j = subsystem A."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128).reshape(9)
        object.__setattr__(self, "amplitudes", amp / np.linalg.norm(amp))


def complement(p: Projector) -> np.ndarray:
    """The matrix of the complementary outcome I - P (not itself rank 1)."""
    return np.eye(3, dtype=np.complex128) - p.matrix


def measure(
    state: QutritState, p: Projector, rng: RngStream
) -> tuple[int, QutritState]:
    """Sample the two-outcome measurement {P, I-P} and collapse the state.

    Returns (outcome, post_state) where outcome 1 occurs with the Born
    probability of P.  The sampled branch always has positive probability, so
    the collapsed vector is normalizable.
    """
    outcome = 1 if rng.uniform() < born_probability(state, p) else 0
    branch = p.matrix if outcome == 1 else complement(p)
    return outcome, QutritState(branch @ state.amplitudes)


def entangled_click_probability(psi: TwoQutritState, p: Projector) -> float:
    """<psi| P (x) I |psi> = Tr(P rho_A), with rho_A = A A^dagger for the
    coefficient matrix A (rows = subsystem A)."""
    coeffs = psi.amplitudes.reshape(3, 3)
    return float(
        min(max(np.trace(p.matrix @ (coeffs @ coeffs.conj().T)).real, 0.0), 1.0)
    )


def entangled_collapse(
    psi: TwoQutritState, p: Projector, rng: RngStream
) -> tuple[int, QutritState | None]:
    """Measure {P (x) I, (I-P) (x) I} on subsystem A of a two-qutrit state.

    On outcome 1 returns Bob's conditional reduced state, which is pure
    because P is rank 1.  On outcome 0 the round is aborted and None is
    returned in place of a state (the protocol only consumes the positive
    branch).
    """
    outcome = 1 if rng.uniform() < entangled_click_probability(psi, p) else 0
    if outcome == 0:
        return 0, None
    eigvals, eigvecs = np.linalg.eigh(p.matrix)
    v = eigvecs[:, int(np.argmax(eigvals))]
    # collapsed state is |v> (x) |b> with b proportional to v^dagger A
    return 1, QutritState(v.conj() @ psi.amplitudes.reshape(3, 3))


def intercept(
    strategy: EveStrategy, in_flight: QutritState, basis: KcbsBasis, rng: RngStream
) -> tuple[QutritState, int, int]:
    """Eve measures the in-flight state and forwards a substitute.

    Returns (forwarded_state, setting, outcome).  The collapsed policy
    forwards the post-measurement state on either branch; the eigenstate
    policy forwards the ray of Eve's setting on a click and the collapsed
    state otherwise.  (For rank-1 projectors the click branches of the two
    policies coincide up to phase.)
    """
    if not strategy.present:
        raise ValueError("intercept requires a present eavesdropper")
    k = strategy.setting if strategy.kind == FIXED else rng.integer(5)
    outcome, resent = measure(in_flight, basis.projectors[k], rng)
    if outcome == 1 and strategy.resend == RESEND_EIGENSTATE:
        resent = basis.source_vectors[k]
    return resent, k, outcome


def write_transcript_csv_rows(t: Transcript, path: str) -> None:
    """The transcript CSV, one ``csv.writer`` row per round; unset bits
    render as empty fields."""
    names = ("C1", "C2", "C3")
    sift = SIFT.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for index, (i, j, bob_outcome, k, e, _) in enumerate(t.columns.T.tolist()):
            case = sift[i][j]  # on a sifted round also Alice's bit
            sifted, eve = case != C3, e >= 0
            writer.writerow(
                [index, i, j, names[case], bob_outcome,
                 case if sifted else "", bob_outcome if sifted else "",
                 k if eve else "", e if eve else "", eve_guess(e) if eve else ""]
            )
