"""The QKD protocol state machine: rounds, sifting, key statistics, security.

Each round: Alice draws a setting i and transmits the corresponding pentagon
ray (prepare-and-measure) or steers it through an entangled pair (entangled
mode); the in-flight state passes through the adversary hook; Bob draws j,
measures {P_j, I - P_j} and announces j; the round is sifted into case C1
(settings equal), C2 (neighbors) or C3 (out of context, discarded from the
key but kept in the transcript).

Round r consumes only the random stream derived as (seed, stream_id = r), so
sessions are reproducible bit for bit and any round can be replayed alone.
Outcome probabilities come from the exact channel of ``adversary.build_channel``,
built once per config on first use.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adversary import ABSENT, FIXED, Channel, EveStrategy, build_channel, estimate_pe, eve_guess
from .kcbs import KcbsBasis
from .qutrit import NORM_TOL, RngStream

__all__ = [
    "PREPARE_MEASURE",
    "ENTANGLED",
    "SECURITY_THRESHOLD",
    "ProtocolConfig",
    "RoundRecord",
    "Transcript",
    "KeyStats",
    "SecurityReport",
    "run_round",
    "run_session",
    "key_stats",
    "estimate_security",
    "mutual_information",
    "write_transcript_csv",
]

PREPARE_MEASURE = "prepare_measure"
ENTANGLED = "entangled"

SECURITY_THRESHOLD = 5.0 / 8.0

CSV_COLUMNS = (
    "index",
    "i",
    "j",
    "case",
    "bob_outcome",
    "alice_bit",
    "bob_bit",
    "eve_setting",
    "eve_outcome",
    "eve_guess",
)


@dataclass(frozen=True)
class ProtocolConfig:
    mode: str
    basis: KcbsBasis
    rounds: int
    sacrifice_fraction: float
    eve: EveStrategy
    seed: int

    def __post_init__(self) -> None:
        if self.mode not in (PREPARE_MEASURE, ENTANGLED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 <= self.sacrifice_fraction <= 0.5:
            raise ValueError("sacrifice_fraction must lie in [0, 0.5]")
        if self.mode == ENTANGLED and any(
            np.max(np.abs(p.matrix.imag)) > NORM_TOL for p in self.basis.projectors
        ):
            # the entangled kernel assumes Bob holds ray i, which holds for
            # the isotropic pair only when the rays are real
            raise ValueError("entangled mode requires a real pentagon basis")

    @cached_property
    def channel(self) -> Channel:
        """The exact channel of this basis and resend policy, built on first use."""
        return build_channel(self.basis, self.eve.resend)

    @cached_property
    def _rows(self) -> tuple[list, list]:
        """``channel.overlap`` and ``channel.click`` as nested lists for the kernel."""
        return self.channel.overlap.tolist(), self.channel.click.tolist()


@dataclass(slots=True)
class RoundRecord:
    index: int
    alice_setting: int
    bob_setting: int
    bob_outcome: int
    sift_case: str
    alice_bit: int | None
    bob_bit: int | None
    eve_setting: int | None = None
    eve_outcome: int | None = None
    eve_guess: int | None = None
    attempts: int = 1  # entangled mode: Alice's draws until a positive click


@dataclass
class Transcript:
    config: ProtocolConfig
    rounds: list[RoundRecord]
    total_attempts: int


@dataclass(frozen=True)
class KeyStats:
    sift_rate: float
    p0: float
    p1: float
    shannon: float
    key_rate_per_transmission: float
    anticorr_fraction: float  # operational K(A,B) estimate = P(Bob guesses right)

    def to_json_dict(self) -> dict:
        return {
            "sift_rate": self.sift_rate,
            "p0": self.p0,
            "p1": self.p1,
            "shannon": self.shannon,
            "key_rate_per_transmission": self.key_rate_per_transmission,
            "anticorr_fraction": self.anticorr_fraction,
        }


@dataclass(frozen=True)
class SecurityReport:
    kab_estimate: float
    confidence_halfwidth: float
    threshold: float
    verdict: str  # Secure | Insecure | Inconclusive
    pe_estimate: float | None = None
    mutual_info_ab: float | None = None
    mutual_info_ae: float | None = None
    sacrificed_count: int = 0
    note: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "kab_estimate": self.kab_estimate,
            "confidence_halfwidth": self.confidence_halfwidth,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "pe_estimate": self.pe_estimate,
            "mutual_info_ab": self.mutual_info_ab,
            "mutual_info_ae": self.mutual_info_ae,
            "sacrificed_count": self.sacrificed_count,
            "note": self.note,
        }


def _sift_case(i: int, j: int) -> str:
    d = (j - i) % 5
    if d == 0:
        return "C1"
    if d in (1, 4):
        return "C2"
    return "C3"


def run_round(
    cfg: ProtocolConfig, round_index: int, rng: RngStream | None = None
) -> RoundRecord:
    """Execute one protocol round on its own derived random stream."""
    if rng is None:
        rng = RngStream(cfg.seed, stream_id=round_index)
    overlap, click = cfg._rows
    attempts = 1
    if cfg.mode == ENTANGLED:
        # Alice measures {P_i (x) I} on a fresh isotropic pair until she
        # clicks; each click has probability Tr(P_i)/3 = 1/3 exactly, and on
        # success Bob holds ray i (the config admits only real rays here),
        # as in prepare-and-measure.
        while True:
            i = rng.integer(5)
            if rng.uniform() < 1.0 / 3.0:
                break
            attempts += 1
    else:
        i = rng.integer(5)

    eve_setting = eve_outcome = eve_bit_guess = None
    eve = cfg.eve
    if eve.kind == ABSENT:
        j = rng.integer(5)
        p_click = overlap[i][j]
    else:
        k = eve.setting if eve.kind == FIXED else rng.integer(5)
        # Eve's P_k clicks on ray i as Bob's would: overlap[i][k]
        e = 1 if rng.uniform() < overlap[i][k] else 0
        eve_setting, eve_outcome, eve_bit_guess = k, e, eve_guess(e)
        j = rng.integer(5)
        p_click = click[i][k][e][j]

    bob_outcome = 1 if rng.uniform() < p_click else 0
    case = _sift_case(i, j)
    if case == "C3":
        alice_bit = bob_bit = None
    else:
        alice_bit = 0 if case == "C1" else 1
        bob_bit = bob_outcome
    return RoundRecord(
        index=round_index,
        alice_setting=i,
        bob_setting=j,
        bob_outcome=bob_outcome,
        sift_case=case,
        alice_bit=alice_bit,
        bob_bit=bob_bit,
        eve_setting=eve_setting,
        eve_outcome=eve_outcome,
        eve_guess=eve_bit_guess,
        attempts=attempts,
    )


def run_session(cfg: ProtocolConfig) -> Transcript:
    """Execute all rounds; output is bit-identical for a given config and seed."""
    records = [
        run_round(cfg, r, RngStream(cfg.seed, stream_id=r)) for r in range(cfg.rounds)
    ]
    return Transcript(
        config=cfg,
        rounds=records,
        total_attempts=sum(rec.attempts for rec in records),
    )


def _entropy_bits(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def key_stats(t: Transcript) -> KeyStats:
    """Sift-rate, bit frequencies, entropy and key rate over sifted rounds."""
    sifted = [rec for rec in t.rounds if rec.sift_case != "C3"]
    if not sifted:
        raise ValueError("no sifted rounds: cannot compute key statistics")
    n = len(sifted)
    ones = sum(rec.alice_bit for rec in sifted)
    p1 = ones / n
    p0 = 1.0 - p1
    shannon = _entropy_bits(p1)
    sift_rate = n / len(t.rounds)
    anticorr = sum(1 for rec in sifted if rec.alice_bit != rec.bob_bit) / n
    return KeyStats(
        sift_rate=sift_rate,
        p0=p0,
        p1=p1,
        shannon=shannon,
        key_rate_per_transmission=sift_rate * shannon,
        anticorr_fraction=anticorr,
    )


def mutual_information(x_bits, y_bits) -> float:
    """Plug-in empirical mutual information between two bit sequences, in bits."""
    x = list(x_bits)
    y = list(y_bits)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 100:
        raise ValueError("need at least 100 samples for a mutual-information estimate")
    n = len(x)
    joint = [[0, 0], [0, 0]]
    for a, b in zip(x, y):
        joint[a][b] += 1
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


def estimate_security(
    t: Transcript, sacrifice_fraction: float, rng: RngStream
) -> SecurityReport:
    """Sacrifice a uniform subset of sifted rounds and test K(A,B) > 5/8.

    Both parties publish their bits on the sacrificed subset; the verdict
    compares the observed anti-correlation fraction against the threshold
    with a 3-sigma normal halfwidth (floored at 1/m at the boundary values).
    Sacrificed rounds are excluded from the final key.
    """
    if not 0.0 <= sacrifice_fraction <= 1.0:
        raise ValueError("sacrifice_fraction must lie in [0, 1]")
    sifted = [rec for rec in t.rounds if rec.sift_case != "C3"]
    if not sifted:
        raise ValueError("no sifted rounds: cannot run a security test")
    m = int(round(sacrifice_fraction * len(sifted)))
    if m < 100:
        return SecurityReport(
            kab_estimate=float("nan"),
            confidence_halfwidth=float("nan"),
            threshold=SECURITY_THRESHOLD,
            verdict="Inconclusive",
            sacrificed_count=m,
            note=f"sacrificed subset too small ({m} < 100 sifted rounds)",
        )
    chosen = [sifted[idx] for idx in rng.subset(len(sifted), m)]
    kab = sum(1 for rec in chosen if rec.alice_bit != rec.bob_bit) / m
    if kab in (0.0, 1.0):
        halfwidth = 1.0 / m
    else:
        halfwidth = 3.0 * math.sqrt(kab * (1.0 - kab) / m)
    if kab - halfwidth > SECURITY_THRESHOLD:
        verdict = "Secure"
    elif kab + halfwidth < SECURITY_THRESHOLD:
        verdict = "Insecure"
    else:
        verdict = "Inconclusive"

    pe = None
    mi_ae = None
    if t.config.eve.present:
        pe = estimate_pe(t)
        mi_ae = mutual_information(
            [rec.alice_bit for rec in chosen], [rec.eve_guess for rec in chosen]
        )
    mi_ab = mutual_information(
        [rec.alice_bit for rec in chosen], [rec.bob_bit for rec in chosen]
    )
    return SecurityReport(
        kab_estimate=kab,
        confidence_halfwidth=halfwidth,
        threshold=SECURITY_THRESHOLD,
        verdict=verdict,
        pe_estimate=pe,
        mutual_info_ab=mi_ab,
        mutual_info_ae=mi_ae,
        sacrificed_count=m,
    )


def write_transcript_csv(t: Transcript, path: str) -> None:
    """One row per round; unset bits render as empty fields."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in t.rounds:
            writer.writerow(
                [
                    rec.index,
                    rec.alice_setting,
                    rec.bob_setting,
                    rec.sift_case,
                    rec.bob_outcome,
                    "" if rec.alice_bit is None else rec.alice_bit,
                    "" if rec.bob_bit is None else rec.bob_bit,
                    "" if rec.eve_setting is None else rec.eve_setting,
                    "" if rec.eve_outcome is None else rec.eve_outcome,
                    "" if rec.eve_guess is None else rec.eve_guess,
                ]
            )
    os.replace(tmp, path)
