"""Intercept-resend eavesdropper models and their exact expectation oracle.

Eve sits on the quantum channel, measures each in-flight state with one of
the pentagon projectors (a fixed setting or a fresh uniform one per round)
and forwards a substitute state.  Her guess of Alice's key bit is the
maximum-likelihood rule given the protocol's post-processing: a click means
her setting probably matched Alice's preparation (Alice writes 0 only when
settings match), no click means Alice most likely wrote 1.

``build_channel`` builds the exact intercept-resend channel of a pentagon basis
once, from explicit density matrices.  The session sampler draws from it and
``attack_expectation``, the exact oracle that validates every Monte-Carlo
estimate, sums over it.  The session statistics and the oracle share the sift
rule ``SIFT``; ``intercept`` is the state-vector reference that the tests
check the channel against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kcbs import KcbsBasis
from .qutrit import QutritState, RngStream

__all__ = [
    "ABSENT",
    "FIXED",
    "RANDOM",
    "RESEND_COLLAPSED",
    "RESEND_EIGENSTATE",
    "C3",
    "SIFT",
    "EveStrategy",
    "EveRecord",
    "Channel",
    "AttackExpectation",
    "build_channel",
    "intercept",
    "eve_guess",
    "estimate_pe",
    "attack_expectation",
]

ABSENT = "absent"
FIXED = "fixed"
RANDOM = "random"
RESEND_COLLAPSED = "collapsed"
RESEND_EIGENSTATE = "eigenstate"

# Sift case of Alice's setting i and Bob's setting j, by (j - i) % 5: equal
# settings are case C1, coded 0 (Alice writes 0), neighbours C2, coded 1
# (Alice writes 1), and the rest C3, coded 2 (out of context, discarded).  On a
# sifted round the case code is Alice's key bit.
C3 = 2
SIFT = np.array(
    [[(0, 1, C3, C3, 1)[(j - i) % 5] for j in range(5)] for i in range(5)], dtype=np.int8
)
SIFT.setflags(write=False)


@dataclass(frozen=True)
class EveStrategy:
    """Adversary configuration: measurement-setting policy and resend policy."""

    kind: str = ABSENT
    setting: int | None = None
    resend: str = RESEND_COLLAPSED

    def __post_init__(self) -> None:
        if self.kind not in (ABSENT, FIXED, RANDOM):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == FIXED:
            if self.setting is None or not 0 <= self.setting <= 4:
                raise ValueError("fixed strategy requires a setting in 0..4")
        elif self.setting is not None:
            raise ValueError(f"strategy {self.kind!r} takes no fixed setting")
        if self.kind != ABSENT and self.resend not in (
            RESEND_COLLAPSED,
            RESEND_EIGENSTATE,
        ):
            raise ValueError(f"unknown resend policy {self.resend!r}")

    @property
    def present(self) -> bool:
        return self.kind != ABSENT

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "setting": self.setting, "resend": self.resend}


@dataclass(frozen=True)
class EveRecord:
    """One round's intercept trace: setting, click outcome, key-bit guess."""

    setting: int
    outcome: int
    guess: int


def eve_guess(outcome: int) -> int:
    """Guess 0 on a click (settings likely matched), 1 otherwise."""
    return 1 - outcome


def intercept(
    strategy: EveStrategy,
    in_flight: QutritState,
    basis: KcbsBasis,
    rng: RngStream,
) -> tuple[QutritState, EveRecord]:
    """Measure the in-flight state and forward a substitute.

    CollapsedState forwards the post-measurement state on either branch;
    EigenstateOnClick forwards the basis ray of Eve's setting on a click and
    the collapsed state otherwise.  (For rank-1 projectors the click branches
    of the two policies coincide up to phase.)
    """
    if not strategy.present:
        raise ValueError("intercept requires a present eavesdropper")
    k = strategy.setting if strategy.kind == FIXED else rng.integer(5)
    projector = basis.projectors[k]
    amp = in_flight.amplitudes
    p_click = float(
        min(max(np.vdot(amp, projector.matrix @ amp).real, 0.0), 1.0)
    )
    outcome = 1 if rng.uniform() < p_click else 0
    if outcome == 1:
        if strategy.resend == RESEND_EIGENSTATE:
            resent = basis.source_vectors[k]
        else:
            resent = QutritState(projector.matrix @ amp)
    else:
        resent = QutritState(projector.complement_matrix @ amp)
    return resent, EveRecord(setting=k, outcome=outcome, guess=eve_guess(outcome))


@dataclass(frozen=True)
class Channel:
    """Exact Born-rule probabilities of one round, indexed by Alice's ray i,
    Eve's setting k, Eve's outcome e (1 = click) and Bob's setting j.

    overlap[i, j]     : P(Bob clicks | undisturbed ray i, setting j)
    branch[i, k, e]   : P(Eve's outcome e | ray i, setting k); 0 below 1e-15
    click[i, k, e, j] : P(Bob clicks | ray i, Eve's k and e, setting j);
                        0 on branches that branch[] sets to 0
    """

    resend: str | None
    overlap: np.ndarray
    branch: np.ndarray | None
    click: np.ndarray | None


def build_channel(basis: KcbsBasis, resend: str | None) -> Channel:
    """The intercept-resend channel of a basis under one resend policy, or
    the undisturbed channel (``overlap`` alone) when ``resend`` is None."""
    rays = [s.amplitudes for s in basis.source_vectors]
    overlap = np.array(
        [[float(abs(np.vdot(rays[i], rays[j])) ** 2) for j in range(5)] for i in range(5)]
    )
    if resend is None:
        return Channel(resend=None, overlap=overlap, branch=None, click=None)
    proj = [p.matrix for p in basis.projectors]
    stacked = np.stack(proj)
    identity = np.eye(3, dtype=np.complex128)
    branch = np.zeros((5, 5, 2))
    click = np.zeros((5, 5, 2, 5))
    for i in range(5):
        rho = np.outer(rays[i], rays[i].conj())
        for k in range(5):
            for e, m in ((1, proj[k]), (0, identity - proj[k])):
                p_branch = float(np.trace(m @ rho).real)
                if p_branch < 1e-15:
                    continue  # branch never sampled
                if e == 1 and resend == RESEND_EIGENSTATE:
                    rho_out = np.outer(rays[k], rays[k].conj())
                else:
                    rho_out = m @ rho @ m / p_branch
                branch[i, k, e] = p_branch
                click[i, k, e] = np.trace(stacked @ rho_out, axis1=1, axis2=2).real
    return Channel(resend=resend, overlap=overlap, branch=branch, click=click)


def estimate_pe(transcript) -> float:
    """Fraction of sifted rounds where Eve's guess matches Alice's key bit."""
    alice, _, eve_outcome = transcript.sifted()
    if (eve_outcome < 0).any():
        raise ValueError("transcript has sifted rounds without Eve records")
    if len(alice) == 0:
        raise ValueError("no sifted rounds with Eve records")
    return np.count_nonzero(eve_guess(eve_outcome) == alice) / len(alice)


@dataclass(frozen=True)
class AttackExpectation:
    """Exact expected statistics of an attack, from density-matrix enumeration.

    ``kab_expected`` and ``pe_expected`` pool over sifted rounds (Alice's
    setting uniform, Bob's uniform over the three in-context settings).
    ``kae_expected`` is the Alice-Eve analog of the Alice-Bob anti-correlation:
    it treats Eve's setting like Bob's and pools rounds where Eve's setting
    lies in Alice's context.  The linear-form value built from the published
    per-setting analysis is reported alongside, never asserted.
    """

    kab_expected: float
    pe_expected: float
    kae_expected: float
    paper_kae_linear_form: float
    anticorr_table: tuple  # [i][j]: P(alice != bob | i, j), None off context
    guess_table: tuple  # [i][j]: P(guess == alice | i, j), None off context

    def to_json_dict(self) -> dict:
        return {
            "kab_expected": self.kab_expected,
            "pe_expected": self.pe_expected,
            "kae_expected": self.kae_expected,
            "paper_kae_linear_form": self.paper_kae_linear_form,
            "anticorr_table": [list(row) for row in self.anticorr_table],
            "guess_table": [list(row) for row in self.guess_table],
        }


def attack_expectation(strategy: EveStrategy, channel: Channel) -> AttackExpectation:
    """Exact expected values of an intercept-resend attack (no sampling).

    Accumulates every Alice preparation, Eve setting/branch and Bob setting
    over ``channel``, which must be built for the strategy's resend policy,
    in (i, k, e, j) order.
    """
    if not strategy.present:
        raise ValueError("attack_expectation requires a present eavesdropper")
    if channel.resend != strategy.resend:
        raise ValueError(f"channel built for resend policy {channel.resend!r}")
    branch = channel.branch.tolist()
    click = channel.click.tolist()
    sift = SIFT.tolist()
    eve_settings = (
        [(strategy.setting, 1.0)]
        if strategy.kind == FIXED
        else [(k, 0.2) for k in range(5)]
    )

    anticorr = [[0.0 if sift[i][j] != C3 else None for j in range(5)] for i in range(5)]
    guess_tab = [[0.0 if sift[i][j] != C3 else None for j in range(5)] for i in range(5)]
    kae_num = 0.0
    kae_den = 0.0

    for i in range(5):
        for k, w_k in eve_settings:
            for e in (1, 0):
                weight = w_k * branch[i][k][e]  # 0 on branches the channel skips
                guess = eve_guess(e)
                for j in range(5):
                    alice = sift[i][j]  # Alice's key bit, or C3 off context
                    if alice == C3:
                        continue
                    p_click = click[i][k][e][j]
                    p_anti = p_click if alice == 0 else 1.0 - p_click
                    anticorr[i][j] += weight * p_anti
                    guess_tab[i][j] += weight * (1.0 if guess == alice else 0.0)
                # Alice-Eve anti-correlation: Eve in Bob's role
                alice_vs_eve = sift[i][k]
                if alice_vs_eve != C3:
                    kae_num += weight * (1.0 if e != alice_vs_eve else 0.0)
                    kae_den += weight

    kab = sum(anticorr[i][j] for i in range(5) for j in range(5) if anticorr[i][j] is not None) / 15.0
    pe = sum(guess_tab[i][j] for i in range(5) for j in range(5) if guess_tab[i][j] is not None) / 15.0
    kae = kae_num / kae_den if kae_den > 0 else 0.0

    # Published linear form: (3/5) * P01 + 1/5, with P01 the guess-success
    # probability when Eve's setting is one step from Alice's preparation.
    per_i = [
        sum(guess_tab[i][j] for j in range(5) if guess_tab[i][j] is not None) / 3.0
        for i in range(5)
    ]
    if strategy.kind == FIXED:
        k = strategy.setting
        p01 = per_i[(k - 1) % 5]
    else:
        p01 = max(per_i)
    paper_linear = 0.6 * p01 + 0.2

    return AttackExpectation(
        kab_expected=kab,
        pe_expected=pe,
        kae_expected=kae,
        paper_kae_linear_form=paper_linear,
        anticorr_table=tuple(tuple(row) for row in anticorr),
        guess_table=tuple(tuple(row) for row in guess_tab),
    )
