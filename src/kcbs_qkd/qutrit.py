"""Qutrit pure states, rank-1 projectors, Born probabilities and random streams.

States are plain complex state vectors normalized at construction; projectors
are validated 3x3 Hermitian idempotents of trace one.  All randomness flows
through :class:`RngStream`, a thin wrapper around numpy's counter-based Philox
generator keyed by ``(seed, stream_id)``, so any round of a larger simulation
can be replayed in isolation.  Sampling a measurement and collapsing a state
live in the tests' state-vector reference (``tests/reference.py``); the
package samples from the exact channel of ``adversary.build_channel``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12

__all__ = [
    "NORM_TOL",
    "QutritState",
    "Projector",
    "RngStream",
    "inner_product",
    "projector_from_state",
    "born_probability",
]


@dataclass(frozen=True)
class QutritState:
    """A normalized pure state of a three-level system."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amp.shape != (3,):
            raise ValueError(f"expected 3 amplitudes, got shape {amp.shape}")
        norm = np.linalg.norm(amp)
        if norm < NORM_TOL:
            raise ValueError("cannot normalize a (near-)zero amplitude vector")
        amp = amp / norm
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def __eq__(self, other) -> bool:
        return isinstance(other, QutritState) and np.array_equal(
            self.amplitudes, other.amplitudes
        )


@dataclass(frozen=True)
class Projector:
    """A rank-1 orthogonal projector on the qutrit Hilbert space."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (3, 3):
            raise ValueError(f"projector matrix must be 3x3, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > NORM_TOL:
            raise ValueError("projector matrix is not Hermitian")
        if np.max(np.abs(m @ m - m)) > NORM_TOL:
            raise ValueError("projector matrix is not idempotent")
        if abs(np.trace(m).real - 1.0) > NORM_TOL:
            raise ValueError("projector is not rank 1 (trace != 1)")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass
class RngStream:
    """Counter-based random stream, reproducible across platforms.

    Wraps numpy's Philox generator keyed by ``(seed, stream_id)``.  Distinct
    stream ids give statistically independent streams; a simulation derives
    one stream per round (stream_id = round index).  ``counter`` tracks the
    number of uniform doubles drawn so far.
    """

    seed: int
    stream_id: int = 0
    counter: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF]
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self) -> float:
        """One double uniform on [0, 1)."""
        self.counter += 1
        return self._gen.random()

    def integer(self, upper: int) -> int:
        """Uniform integer in [0, upper), derived from one uniform draw."""
        return min(int(self.uniform() * upper), upper - 1)

    def subset(self, n: int, m: int) -> np.ndarray:
        """m distinct indices sampled uniformly from range(n), sorted."""
        self.counter += n
        return np.sort(self._gen.permutation(n)[:m])


def inner_product(a: QutritState, b: QutritState) -> complex:
    """<a|b> with a's amplitudes conjugated."""
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def projector_from_state(v: QutritState) -> Projector:
    """The rank-1 projector |v><v|."""
    return Projector(np.outer(v.amplitudes, v.amplitudes.conj()))


def born_probability(state: QutritState, p: Projector) -> float:
    """<state|P|state>, clamped to [0, 1]."""
    value = np.vdot(state.amplitudes, p.matrix @ state.amplitudes)
    return float(min(max(value.real, 0.0), 1.0))
