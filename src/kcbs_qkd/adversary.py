"""Intercept-resend eavesdropper models and their exact expectation oracle.

Eve sits on the quantum channel, measures each in-flight state with one of
the pentagon projectors (a fixed setting or a fresh uniform one per round)
and forwards a substitute state.  Her guess of Alice's key bit is the
published rule: a click reads as a match of her setting with Alice's
preparation (Alice writes 0 only when settings match), so she guesses 0, and
no click as 1.  It is not her best guess: it wins less often than always
guessing 1 (ROADMAP item 1).

``build_channel`` builds Eve's exact intercept-resend channel of a pentagon
basis from explicit density matrices of the basis's projectors, once per
(basis value, resend policy) and process; without Eve a round reads only
``basis.overlap``.  The session sampler draws from the channel, and
``attack_expectation``, the exact oracle that validates every Monte-Carlo
estimate, contracts the channel of its strategy's resend policy, once per
(strategy, basis) value.  Both results are read-only and shared by every
caller.  The session statistics and the oracle share the sift rule ``SIFT``.
The tests hold the channel to an independent state-vector model of the same
measurements, kept with them in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kcbs import KcbsBasis

__all__ = [
    "ABSENT",
    "FIXED",
    "RANDOM",
    "RESEND_COLLAPSED",
    "RESEND_EIGENSTATE",
    "C3",
    "SIFT",
    "EveStrategy",
    "Channel",
    "AttackExpectation",
    "build_channel",
    "eve_guess",
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
            setting = self.setting
            if not isinstance(setting, int) or isinstance(setting, bool) or not 0 <= setting <= 4:
                raise ValueError("fixed strategy requires an int setting in 0..4")
        elif self.setting is not None:
            raise ValueError(f"strategy {self.kind!r} takes no fixed setting")
        if self.resend not in (RESEND_COLLAPSED, RESEND_EIGENSTATE):
            raise ValueError(f"unknown resend policy {self.resend!r}")

    @property
    def present(self) -> bool:
        return self.kind != ABSENT


def eve_guess(outcome: int) -> int:
    """The published guess: 0 on a click, 1 otherwise.  It ignores Bob's
    announced setting and wins less often than a constant 1 (ROADMAP item 1)."""
    return 1 - outcome


@dataclass(frozen=True)
class Channel:
    """Exact Born-rule probabilities of one round with Eve, indexed by Alice's
    ray i, Eve's setting k, Eve's outcome e (1 = click) and Bob's setting j.

    branch[i, k, e]   : P(Eve's outcome e | ray i, setting k); 0 below 1e-15
    click[i, k, e, j] : P(Bob clicks | ray i, Eve's k and e, setting j);
                        0 on branches that branch[] sets to 0
    """

    resend: str
    branch: np.ndarray
    click: np.ndarray


# bounded, as a process may build channels of any number of bases
@lru_cache(maxsize=32)
def build_channel(basis: KcbsBasis, resend: str) -> Channel:
    """The intercept-resend channel of a basis under one resend policy.
    Built once per value of the basis (the bytes of its rays) and ``resend``;
    its arrays are read-only."""
    if resend not in (RESEND_COLLAPSED, RESEND_EIGENSTATE):
        raise ValueError(f"unknown resend policy {resend!r}")
    proj = basis.projectors
    identity = np.eye(3, dtype=np.complex128)
    branch = np.zeros((5, 5, 2))
    click = np.zeros((5, 5, 2, 5))
    for i in range(5):
        rho = proj[i]
        for k in range(5):
            for e, m in ((1, proj[k]), (0, identity - proj[k])):
                p_branch = float(np.trace(m @ rho).real)
                if p_branch < 1e-15:
                    continue  # branch never sampled
                if e == 1 and resend == RESEND_EIGENSTATE:
                    rho_out = proj[k]
                else:
                    rho_out = m @ rho @ m / p_branch
                branch[i, k, e] = p_branch
                click[i, k, e] = np.trace(proj @ rho_out, axis1=1, axis2=2).real
    branch.setflags(write=False)
    click.setflags(write=False)
    return Channel(resend=resend, branch=branch, click=click)


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


# bounded, as a process may ask for the oracle of any number of bases
@lru_cache(maxsize=32)
def attack_expectation(strategy: EveStrategy, basis: KcbsBasis) -> AttackExpectation:
    """Exact expected values of an intercept-resend attack (no sampling).

    Contracts the basis's channel under the strategy's resend policy over
    Eve's settings k and outcomes e (click first) for every Alice ray i and
    Bob setting j.  Sums keep the order k, then e, per cell and row-major
    order across cells, so every value is reproducible to the last bit.
    Computed once per value of the strategy and of the basis; the result is
    immutable.
    """
    if not strategy.present:
        raise ValueError("attack_expectation requires a present eavesdropper")
    channel = build_channel(basis, strategy.resend)
    if strategy.kind == FIXED:
        settings, w_k = [strategy.setting], 1.0
    else:
        settings, w_k = list(range(5)), 0.2
    outcomes = (1, 0)  # Eve's outcome e, click first, on the e axis below
    weight = w_k * channel.branch[:, settings, ::-1]  # [i, k, e]
    p_click = channel.click[:, settings, ::-1]  # [i, k, e, j]
    p_anti = np.where(SIFT[:, None, None, :] == 0, p_click, 1.0 - p_click)
    anticorr = np.zeros((5, 5))
    guess_ok = np.zeros((5, 5))
    for k in range(len(settings)):
        for n, e in enumerate(outcomes):
            w = weight[:, k, n, None]
            anticorr += w * p_anti[:, k, n]
            guess_ok += w * (SIFT == eve_guess(e))

    # Alice-Eve anti-correlation: Eve in Bob's role
    eve_ctx = SIFT[:, settings, None]
    in_eve_ctx = eve_ctx != C3
    kae_num = sum((weight * (in_eve_ctx & (np.array(outcomes) != eve_ctx))).ravel().tolist())
    kae_den = sum((weight * in_eve_ctx).ravel().tolist())

    in_ctx = SIFT != C3
    # Published linear form: (3/5) * P01 + 1/5, with P01 the guess-success
    # probability when Eve's setting is one step from Alice's preparation.
    per_i = [sum(row[ctx].tolist()) / 3.0 for row, ctx in zip(guess_ok, in_ctx)]
    p01 = per_i[(strategy.setting - 1) % 5] if strategy.kind == FIXED else max(per_i)

    def table(cells: np.ndarray) -> tuple:
        return tuple(
            tuple(v if c else None for v, c in zip(row, ctx))
            for row, ctx in zip(cells.tolist(), in_ctx.tolist())
        )

    return AttackExpectation(
        kab_expected=sum(anticorr[in_ctx].tolist()) / 15.0,
        pe_expected=sum(guess_ok[in_ctx].tolist()) / 15.0,
        kae_expected=kae_num / kae_den if kae_den > 0 else 0.0,
        paper_kae_linear_form=0.6 * p01 + 0.2,
        anticorr_table=table(anticorr),
        guess_table=table(guess_ok),
    )
