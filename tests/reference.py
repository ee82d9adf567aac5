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
byte for byte, and the key statistics computed from the sifted rounds'
bits, gathered by a boolean mask, which the package's counts must match.
"""

from __future__ import annotations

import csv
import math

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


def sift(t: Transcript) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alice's bit, Bob's bit and Eve's outcome on the sifted rounds, in
    round order, gathered by a boolean mask over the transcript's columns."""
    i, j, bob_outcome, _, eve_outcome, _ = t.columns
    case = SIFT.ravel().take(5 * i + j)  # on a sifted round Alice's bit
    keep = case != C3
    return case[keep], bob_outcome[keep], eve_outcome[keep]


def entropy_bits(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def mutual_information(x: np.ndarray, y: np.ndarray) -> float:
    """Plug-in mutual information of two bit arrays, in bits."""
    n = len(x)
    joint = [[np.count_nonzero((x == a) & (y == b)) for b in (0, 1)] for a in (0, 1)]
    total = 0.0
    for a in (0, 1):
        for b in (0, 1):
            p_ab = joint[a][b] / n
            if p_ab == 0.0:
                continue
            p_a = (joint[a][0] + joint[a][1]) / n
            p_b = (joint[0][b] + joint[1][b]) / n
            total += p_ab * math.log2(p_ab / (p_a * p_b))
    return max(total, 0.0)


def key_stats_fields(t: Transcript) -> dict:
    """The fields of ``protocol.KeyStats`` from the sifted bits."""
    alice, bob, _ = sift(t)
    n = len(alice)
    p1 = np.count_nonzero(alice) / n
    sift_rate = n / t.columns.shape[1]
    return {"sift_rate": sift_rate, "p0": 1.0 - p1, "p1": p1, "shannon": entropy_bits(p1),
            "key_rate_per_transmission": sift_rate * entropy_bits(p1),
            "anticorr_fraction": np.count_nonzero(alice != bob) / n}


def estimate_pe(t: Transcript) -> float:
    """The fraction of sifted rounds on which Eve's guess 1 - e is Alice's bit."""
    alice, _, eve_outcome = sift(t)
    return np.count_nonzero(1 - eve_outcome == alice) / len(alice)


def estimate_security_fields(t: Transcript) -> dict:
    """The fields of ``protocol.SecurityReport`` of a subset of at least 100
    sifted rounds, the config's fraction of them drawn from the stream
    (seed, rounds): K(A,B) against 5/8 with a 3-sigma halfwidth, floored at
    1/m."""
    cfg = t.config
    alice, bob, eve_outcome = sift(t)
    m = int(round(cfg.sacrifice_fraction * len(alice)))
    if m < 100:
        raise ValueError("the reference takes a subset of at least 100 rounds")
    chosen = RngStream(cfg.seed, stream_id=cfg.rounds).subset(len(alice), m)
    alice, bob, eve_outcome = alice[chosen], bob[chosen], eve_outcome[chosen]
    kab = np.count_nonzero(alice != bob) / m
    halfwidth = 1.0 / m if kab in (0.0, 1.0) else 3.0 * math.sqrt(kab * (1.0 - kab) / m)
    threshold = 5.0 / 8.0
    if kab - halfwidth > threshold:
        verdict = "Secure"
    elif kab + halfwidth < threshold:
        verdict = "Insecure"
    else:
        verdict = "Inconclusive"
    eve = cfg.eve.present
    return {"kab_estimate": kab, "confidence_halfwidth": halfwidth, "threshold": threshold,
            "verdict": verdict, "pe_estimate": estimate_pe(t) if eve else None,
            "mutual_info_ab": mutual_information(alice, bob),
            "mutual_info_ae": mutual_information(alice, 1 - eve_outcome) if eve else None,
            "sacrificed_count": m, "note": None}
