"""The five-projector pentagon measurement scenario and its inequality forms.

The default basis is the standard explicit choice of five real qutrit rays
whose cyclic neighbors are orthogonal (the pentagon orthogonality structure).
The projector form (average probability of a click over the five settings) is
evaluated as ``ktilde``.  Constant bounds for it and for the anti-correlation
form over the five commuting neighbor pairs are exposed as a record, together
with the independently derived values where the two forms' published
constants disagree with the exclusivity identity (see
``derived_anticorr_values``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qutrit import Projector, QutritState, born_probability, projector_from_state

__all__ = [
    "KcbsBasis",
    "KcbsBounds",
    "standard_vectors_unnormalized",
    "standard_basis",
    "ktilde",
    "bounds",
    "derived_anticorr_values",
]

NEIGHBOR_TOL = 1e-10
NON_NEIGHBOR_MIN = 1e-6


def standard_vectors_unnormalized() -> list[np.ndarray]:
    """The five pentagon rays, exactly as printed (un-normalized)."""
    c = math.sqrt(math.cos(math.pi / 5))
    return [
        np.array([1.0, 0.0, c]),
        np.array([math.cos(4 * math.pi / 5), -math.sin(4 * math.pi / 5), c]),
        np.array([math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5), c]),
        np.array([math.cos(2 * math.pi / 5), -math.sin(2 * math.pi / 5), c]),
        np.array([math.cos(4 * math.pi / 5), math.sin(4 * math.pi / 5), c]),
    ]


@dataclass(frozen=True)
class KcbsBasis:
    """Five rank-1 projectors forming a pentagon of orthogonality relations.

    The projectors are derived from the rays, so the two cannot disagree.
    Construction validates the pentagon: cyclic neighbors orthogonal within
    1e-10, non-neighbors genuinely non-orthogonal (overlap above 1e-6).
    """

    source_vectors: tuple[QutritState, ...]
    projectors: tuple[Projector, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.source_vectors) != 5:
            raise ValueError("a pentagon basis needs exactly five vectors")
        object.__setattr__(
            self, "projectors", tuple(projector_from_state(s) for s in self.source_vectors)
        )
        for i in range(5):
            overlap = self.pair_overlap(i, (i + 1) % 5)
            if overlap > NEIGHBOR_TOL:
                raise ValueError(
                    f"vectors {i} and {(i + 1) % 5} not orthogonal (Tr={overlap:.3e})"
                )
            far = self.pair_overlap(i, (i + 2) % 5)
            if far <= NON_NEIGHBOR_MIN:
                raise ValueError(
                    f"vectors {i} and {(i + 2) % 5} unexpectedly orthogonal"
                )

    @classmethod
    def from_vectors(cls, vectors) -> "KcbsBasis":
        return cls(source_vectors=tuple(QutritState(v) for v in vectors))

    def pair_overlap(self, i: int, j: int) -> float:
        """Tr(P_i P_j), a real number in [0, 1]."""
        return float(
            np.trace(self.projectors[i].matrix @ self.projectors[j].matrix).real
        )


def standard_basis() -> KcbsBasis:
    """The pentagon basis built from the standard explicit rays."""
    return KcbsBasis.from_vectors(standard_vectors_unnormalized())


def ktilde(state: QutritState, basis: KcbsBasis) -> float:
    """Projector-form functional: the mean click probability over the pentagon."""
    return sum(born_probability(state, p) for p in basis.projectors) / 5.0


@dataclass(frozen=True)
class KcbsBounds:
    """Published constant bounds for both functional forms (closed form)."""

    noncontextual_projector_form: float = 2.0 / 5.0
    quantum_projector_form: float = math.sqrt(5.0) / 5.0
    exclusivity_max: float = 0.5
    noncontextual_anticorr_form: float = 3.0 / 5.0
    quantum_anticorr_form: float = (4.0 * math.sqrt(5.0) - 5.0) / 5.0
    algebraic_anticorr_max: float = 1.0


def bounds() -> KcbsBounds:
    return KcbsBounds()


def derived_anticorr_values() -> dict:
    """Anti-correlation constants implied by the identity k_anticorr = 2*ktilde.

    For the commuting exclusive pair (P_i, P_{i+1}) the outcomes differ with
    probability p_i + p_{i+1}, so the anti-correlation form over the five
    neighbor pairs is exactly twice the projector form.  That gives
    2 * (2/5) = 4/5 for deterministic assignments (a direct pentagon
    enumeration confirms it) and 2/sqrt(5) for the maximal quantum state.
    These differ from the published anti-correlation constants and are
    reported side by side with them, never asserted against simulation.
    """
    return {
        "noncontextual_anticorr_form": 4.0 / 5.0,
        "quantum_anticorr_form": 2.0 * math.sqrt(5.0) / 5.0,
    }
