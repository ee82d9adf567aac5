"""Complex linear algebra for qutrit pure states, rank-1 projectors and sampling.

States are plain complex state vectors normalized at construction; projectors
are validated 3x3 Hermitian idempotents of trace one.  All randomness flows
through :class:`RngStream`, a thin wrapper around numpy's counter-based Philox
generator keyed by ``(seed, stream_id)``, so any round of a larger simulation
can be replayed in isolation.  These state-vector routines (with
``adversary.intercept``) are the reference the tests hold the exact channel to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12

__all__ = [
    "NORM_TOL",
    "QutritState",
    "Projector",
    "TwoQutritState",
    "RngStream",
    "inner_product",
    "projector_from_state",
    "born_probability",
    "measure",
    "entangled_collapse",
]


def _as_unit_vector(amplitudes, dim: int) -> np.ndarray:
    amp = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if amp.shape != (dim,):
        raise ValueError(f"expected {dim} amplitudes, got shape {amp.shape}")
    norm = np.linalg.norm(amp)
    if norm < NORM_TOL:
        raise ValueError("cannot normalize a (near-)zero amplitude vector")
    amp = amp / norm
    amp.setflags(write=False)
    return amp


@dataclass(frozen=True)
class QutritState:
    """A normalized pure state of a three-level system."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _as_unit_vector(self.amplitudes, 3))

    def __eq__(self, other) -> bool:
        return isinstance(other, QutritState) and np.array_equal(
            self.amplitudes, other.amplitudes
        )


@dataclass(frozen=True)
class TwoQutritState:
    """A normalized pure state of two qutrits, |jk> ordered with j = subsystem A."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _as_unit_vector(self.amplitudes, 9))


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

    @property
    def complement_matrix(self) -> np.ndarray:
        """The matrix of the complementary outcome I - P (not itself rank 1)."""
        return np.eye(3, dtype=np.complex128) - self.matrix


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


def measure(
    state: QutritState, p: Projector, rng: RngStream
) -> tuple[int, QutritState]:
    """Sample the two-outcome measurement {P, I-P} and collapse the state.

    Returns (outcome, post_state) where outcome 1 occurs with the Born
    probability of P.  The sampled branch always has positive probability, so
    the collapsed vector is normalizable.
    """
    prob = born_probability(state, p)
    outcome = 1 if rng.uniform() < prob else 0
    branch = p.matrix if outcome == 1 else p.complement_matrix
    return outcome, QutritState(branch @ state.amplitudes)


def entangled_collapse(
    psi: TwoQutritState, p: Projector, rng: RngStream
) -> tuple[int, QutritState | None]:
    """Measure {P (x) I, (I-P) (x) I} on subsystem A of a two-qutrit state.

    On outcome 1 returns Bob's conditional reduced state, which is pure
    because P is rank 1.  On outcome 0 the round is aborted and None is
    returned in place of a state (the protocol only consumes the positive
    branch).
    """
    coeffs = psi.amplitudes.reshape(3, 3)  # rows = subsystem A
    # <psi| P(x)I |psi> = Tr(P . A A^dagger) with A the coefficient matrix
    prob = float(
        min(max(np.trace(p.matrix @ (coeffs @ coeffs.conj().T)).real, 0.0), 1.0)
    )
    outcome = 1 if rng.uniform() < prob else 0
    if outcome == 0:
        return 0, None
    eigvals, eigvecs = np.linalg.eigh(p.matrix)
    v = eigvecs[:, int(np.argmax(eigvals))]
    # collapsed state is |v> (x) |b> with b proportional to v^dagger A
    return 1, QutritState(v.conj() @ coeffs)
