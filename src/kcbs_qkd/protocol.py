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

A round is stored as what it drew, a ``Round``; a session's ``Transcript``
holds these as the columns of one int16 array.  Sift case, bits and Eve's
guess are derived from them through ``adversary.SIFT`` when needed.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .adversary import ABSENT, C3, FIXED, SIFT, Channel, EveStrategy, build_channel, estimate_pe, eve_guess
from .kcbs import KcbsBasis
from .qutrit import KEY_LIMIT, NORM_TOL, RngStream

__all__ = [
    "PREPARE_MEASURE",
    "ENTANGLED",
    "SECURITY_THRESHOLD",
    "ProtocolConfig",
    "Round",
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
_CSV_CHUNK = 4096  # rounds turned into Python rows at a time


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
        if not 0 <= self.seed < KEY_LIMIT:
            raise ValueError(f"seed {self.seed} outside [0, 2^64)")
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
        """The exact channel of this basis and Eve, built on first use."""
        return build_channel(self.basis, self.eve.resend if self.eve.present else None)

    @cached_property
    def _rows(self) -> tuple[list, list | None]:
        """``channel.overlap`` and ``channel.click`` as nested lists for the kernel."""
        click = self.channel.click.tolist() if self.eve.present else None
        return self.channel.overlap.tolist(), click


class Round(NamedTuple):
    """What one round drew; Eve's setting and outcome are -1 without Eve."""

    i: int
    j: int
    bob_outcome: int
    eve_setting: int
    eve_outcome: int
    attempts: int  # entangled mode: Alice's draws until a positive click


@dataclass
class Transcript:
    """Column r of ``columns``, one owning int16 array of shape (6, rounds),
    holds round r's ``Round``; its rows follow the ``Round`` fields."""

    config: ProtocolConfig
    columns: np.ndarray

    @property
    def total_attempts(self) -> int:
        return int(self.columns[5].sum())

    def sifted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Alice's bit, Bob's bit and Eve's outcome on the sifted rounds."""
        i, j, bob_outcome, _, eve_outcome, _ = self.columns
        case = SIFT[i, j]
        keep = case != C3
        return case[keep], bob_outcome[keep], eve_outcome[keep]


@dataclass(frozen=True)
class KeyStats:
    sift_rate: float
    p0: float
    p1: float
    shannon: float
    key_rate_per_transmission: float
    anticorr_fraction: float  # operational K(A,B) estimate = P(Bob guesses right)


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


def run_round(
    cfg: ProtocolConfig, round_index: int, rng: RngStream | None = None
) -> Round:
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

    eve = cfg.eve
    if eve.kind == ABSENT:
        k = e = -1
        j = rng.integer(5)
        p_click = overlap[i][j]
    else:
        k = eve.setting if eve.kind == FIXED else rng.integer(5)
        # Eve's P_k clicks on ray i as Bob's would: overlap[i][k]
        e = 1 if rng.uniform() < overlap[i][k] else 0
        j = rng.integer(5)
        p_click = click[i][k][e][j]

    bob_outcome = 1 if rng.uniform() < p_click else 0
    return Round(i, j, bob_outcome, k, e, attempts)


def run_session(cfg: ProtocolConfig) -> Transcript:
    """Execute all rounds; output is bit-identical for a given config and seed."""
    # int16 rows appended in place: a value that does not fit raises
    rows = array("h")
    for r in range(cfg.rounds):
        rows.extend(run_round(cfg, r, RngStream(cfg.seed, stream_id=r)))
    by_round = np.frombuffer(rows, dtype=np.int16).reshape(cfg.rounds, len(Round._fields))
    return Transcript(config=cfg, columns=by_round.T.copy())


def _entropy_bits(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def key_stats(t: Transcript) -> KeyStats:
    """Sift-rate, bit frequencies, entropy and key rate over sifted rounds."""
    alice, bob, _ = t.sifted()
    n = len(alice)
    if not n:
        raise ValueError("no sifted rounds: cannot compute key statistics")
    p1 = np.count_nonzero(alice) / n
    p0 = 1.0 - p1
    shannon = _entropy_bits(p1)
    sift_rate = n / t.columns.shape[1]
    anticorr = np.count_nonzero(alice != bob) / n
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
    x = np.asarray(x_bits)
    y = np.asarray(y_bits)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 100:
        raise ValueError("need at least 100 samples for a mutual-information estimate")
    if not (np.isin(x, (0, 1)).all() and np.isin(y, (0, 1)).all()):
        raise ValueError("mutual information takes sequences of bits 0 and 1")
    n = len(x)
    joint = np.bincount(2 * x + y, minlength=4).reshape(2, 2).tolist()
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
    alice, bob, eve_outcome = t.sifted()
    if not len(alice):
        raise ValueError("no sifted rounds: cannot run a security test")
    m = int(round(sacrifice_fraction * len(alice)))
    if m < 100:
        return SecurityReport(
            kab_estimate=float("nan"),
            confidence_halfwidth=float("nan"),
            threshold=SECURITY_THRESHOLD,
            verdict="Inconclusive",
            sacrificed_count=m,
            note=f"sacrificed subset too small ({m} < 100 sifted rounds)",
        )
    chosen = rng.subset(len(alice), m)
    alice, bob, eve_outcome = alice[chosen], bob[chosen], eve_outcome[chosen]
    kab = np.count_nonzero(alice != bob) / m
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
        mi_ae = mutual_information(alice, eve_guess(eve_outcome))
    mi_ab = mutual_information(alice, bob)
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


@contextlib.contextmanager
def _atomic_writer(path: str):
    """A text file that replaces ``path`` once written; removed on failure."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_transcript_csv(t: Transcript, path: str) -> None:
    """One row per round; unset bits render as empty fields."""
    names = ("C1", "C2", "C3")
    sift = SIFT.tolist()
    with _atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for start in range(0, t.columns.shape[1], _CSV_CHUNK):
            rows = t.columns[:, start:start + _CSV_CHUNK].T.tolist()
            for index, (i, j, bob_outcome, k, e, _) in enumerate(rows, start):
                case = sift[i][j]  # on a sifted round also Alice's bit
                sifted, eve = case != C3, e >= 0
                writer.writerow(
                    [index, i, j, names[case], bob_outcome,
                     case if sifted else "", bob_outcome if sifted else "",
                     k if eve else "", e if eve else "", eve_guess(e) if eve else ""]
                )
