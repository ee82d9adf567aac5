"""The five-projector pentagon measurement scenario and its inequality forms.

The default basis is the standard explicit choice of five real qutrit rays
whose cyclic neighbors are orthogonal (the pentagon orthogonality structure).
A ``KcbsBasis`` is the package's one model of it: the normalised rays and the
projectors and overlaps derived from them, as read-only arrays that the
session sampler, Eve's exact channel of ``adversary.build_channel`` and
``verify`` read.  The projector form (average probability of a click over the
five settings) of a state, given by its amplitudes, is evaluated as
``ktilde``.  Constant bounds for it and for the anti-correlation form over the
five commuting neighbor pairs are exposed as a record, together with the
independently derived values where the two forms' published constants
disagree with the exclusivity identity (see ``derived_anticorr_values``).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cache

import numpy as np

__all__ = [
    "NORM_TOL",
    "KcbsBasis",
    "KcbsBounds",
    "standard_vectors_unnormalized",
    "standard_basis",
    "ktilde",
    "bounds",
    "derived_anticorr_values",
]

NORM_TOL = 1e-12  # rays of a smaller norm are rejected
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


def _ray(vector) -> np.ndarray:
    """``vector`` as a normalised complex 3-vector: three finite amplitudes of
    norm at least ``NORM_TOL``, divided by that norm."""
    amp = np.asarray(vector, dtype=np.complex128).reshape(-1)
    if amp.shape != (3,):
        raise ValueError(f"expected 3 amplitudes, got shape {amp.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm = np.linalg.norm(amp)
    if not math.isfinite(norm):  # also where an amplitude is NaN or infinite
        raise ValueError(f"amplitudes {amp} or their norm are not finite")
    if norm < NORM_TOL:
        raise ValueError("cannot normalize a (near-)zero amplitude vector")
    return amp / norm


@dataclass(frozen=True, eq=False)
class KcbsBasis:
    """Five rank-1 projectors forming a pentagon of orthogonality relations.

    ``KcbsBasis(vectors)`` normalises five 3-vectors into ``rays`` (5, 3) and
    derives from them, once, ``projectors`` (5, 3, 3), P_i = |v_i><v_i|, and
    ``overlap`` (5, 5), Tr(P_i P_j) = |<v_i|v_j>|^2, so the three cannot
    disagree; all are read-only.  Construction validates the pentagon: cyclic
    neighbors orthogonal within 1e-10, non-neighbors genuinely non-orthogonal
    (overlap above 1e-6).  Bases compare and hash by the bytes of their rays.
    """

    vectors: InitVar
    rays: np.ndarray = field(init=False)
    projectors: np.ndarray = field(init=False, repr=False)
    overlap: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, vectors) -> None:
        rays = [_ray(v) for v in vectors]
        if len(rays) != 5:
            raise ValueError("a pentagon basis needs exactly five vectors")
        overlap = [[float(abs(np.vdot(a, b)) ** 2) for b in rays] for a in rays]
        for i in range(5):
            if overlap[i][(i + 1) % 5] > NEIGHBOR_TOL:
                raise ValueError(
                    f"vectors {i} and {(i + 1) % 5} not orthogonal "
                    f"(Tr={overlap[i][(i + 1) % 5]:.3e})"
                )
            if overlap[i][(i + 2) % 5] <= NON_NEIGHBOR_MIN:
                raise ValueError(
                    f"vectors {i} and {(i + 2) % 5} unexpectedly orthogonal"
                )
        arrays = {
            "rays": np.array(rays),
            "projectors": np.array([np.outer(v, v.conj()) for v in rays]),
            "overlap": np.array(overlap),
        }
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __eq__(self, other) -> bool:
        return isinstance(other, KcbsBasis) and self.rays.tobytes() == other.rays.tobytes()

    def __hash__(self) -> int:
        return hash(self.rays.tobytes())


@cache
def standard_basis() -> KcbsBasis:
    """The pentagon basis built from the standard explicit rays.  Built once
    per process; its arrays are read-only, so every caller shares it."""
    return KcbsBasis(standard_vectors_unnormalized())


def ktilde(amplitudes, basis: KcbsBasis) -> float:
    """Projector-form functional of the pure state with these amplitudes
    (normalised as the basis's rays are): the mean click probability
    |<v_i|psi>|^2 over the pentagon."""
    psi = _ray(amplitudes)
    return float(np.mean(abs(basis.rays.conj() @ psi) ** 2))


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
