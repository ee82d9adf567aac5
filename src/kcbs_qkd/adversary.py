"""Intercept-resend eavesdropper models: the physics of Eve's attack.

Eve sits on the quantum channel, measures each in-flight state with one of
the pentagon projectors (a fixed setting or a fresh uniform one per round)
and forwards a substitute state.  Her guess of Alice's key bit is the
published rule: a click reads as a match of her setting with Alice's
preparation (Alice writes 0 only when settings match), so she guesses 0, and
no click as 1.  It is not her best guess: it wins less often than always
guessing 1 (ROADMAP item 1).

``build_channel`` builds Eve's exact intercept-resend channel of a pentagon
basis from explicit density matrices of the basis's projectors, once per
basis value and process.  She forwards the Lüders state of her outcome, on a
click her rank-1 projector itself, so both resend labels name this channel.
Without Eve a round reads only ``basis.overlap``.  The channel's read-only
arrays hold every probability that a round with Eve draws from, and the
oracle in ``protocol`` contracts them.  ``SIFT`` and ``eve_guess`` are read
by ``protocol`` alone, which turns rounds and probabilities into statistics.  The tests hold the
channel to an independent state-vector model of the same measurements, kept
with them in ``tests/reference.py``.
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
    "build_channel",
    "eve_guess",
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
    """Adversary configuration: setting policy, and a resend label (see ``build_channel``)."""

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

    branch: np.ndarray
    click: np.ndarray


# bounded, as a process may build channels of any number of bases
@lru_cache(maxsize=32)
def build_channel(basis: KcbsBasis) -> Channel:
    """The intercept-resend channel of a basis, with the Lüders collapse on
    both of Eve's outcomes.  Built once per value of the basis (the bytes of
    its rays); its arrays are read-only."""
    proj = basis.projectors
    identity = np.eye(3, dtype=np.complex128)
    weights = np.zeros((2, 5, 5))  # [e, i, k], so that branch[..., e] is contiguous
    click = np.zeros((5, 5, 2, 5))
    for i in range(5):
        rho = proj[i]
        for k in range(5):
            for e, m in ((1, proj[k]), (0, identity - proj[k])):
                p_branch = float(np.trace(m @ rho).real)
                if p_branch < 1e-15:
                    continue  # branch never sampled
                weights[e, i, k] = p_branch
                click[i, k, e] = np.trace(proj @ (m @ rho @ m / p_branch), axis1=1, axis2=2).real
    weights.setflags(write=False)  # and so its view, branch
    click.setflags(write=False)
    return Channel(branch=weights.transpose(1, 2, 0), click=click)
