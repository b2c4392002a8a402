"""Real qutrit state algebra: Born probabilities and measurement channels.

Everything lives in real 3x3 symmetric matrices; the cycle realizations are
real, so no complex arithmetic is needed.  The non-selective measurement
channels built here serve as the independent oracle against the closed-form
sequence machinery in :mod:`ncycle.analytic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvariantBreachError

if TYPE_CHECKING:
    from .protocols import ProtocolId
    from .scenario import Scenario

SYM_TOL = 1e-12
PSD_TOL = -1e-10
PROB_CLAMP = 1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Symmetric, unit-trace, positive-semidefinite 3x3 real matrix."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=float)  # a copy: the caller's array stays writable
        if m.shape != (3, 3):
            raise InvariantBreachError(f"density matrix must be 3x3, got {m.shape}")
        if np.abs(m - m.T).max() > SYM_TOL:
            raise InvariantBreachError("density matrix is not symmetric")
        if abs(np.trace(m) - 1.0) > SYM_TOL:
            raise InvariantBreachError(f"density matrix trace {float(np.trace(m))!r} != 1")
        if np.linalg.eigvalsh(m).min() < PSD_TOL:
            raise InvariantBreachError("density matrix has a negative eigenvalue")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector of rank 1 or 2."""

    p: np.ndarray
    rank: int

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if self.rank not in (1, 2):
            raise InvariantBreachError(f"projector rank must be 1 or 2, got {self.rank}")
        if np.abs(p @ p - p).max() > SYM_TOL:
            raise InvariantBreachError("projector is not idempotent")
        if abs(np.trace(p) - self.rank) > SYM_TOL:
            raise InvariantBreachError(
                f"projector trace {float(np.trace(p))!r} != rank {self.rank}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True, eq=False)
class Channel:
    """Complete projective measurement: projectors summing to the identity."""

    kraus_list: tuple[Projector, ...]

    def __post_init__(self) -> None:
        total = sum(pr.p for pr in self.kraus_list)
        if np.abs(total - np.eye(3)).max() > SYM_TOL:
            raise InvariantBreachError("channel projectors do not sum to identity")


def pure_state(v: np.ndarray) -> DensityMatrix:
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-9:
        v = v / nrm
    return DensityMatrix(np.outer(v, v))


def handle_state() -> DensityMatrix:
    return pure_state(np.array([0.0, 0.0, 1.0]))


def maximally_mixed() -> DensityMatrix:
    return DensityMatrix(np.eye(3) / 3.0)


def random_pure_state(rng: np.random.Generator) -> DensityMatrix:
    """Rotation-invariant random pure state: three normals, normalized."""
    v = rng.normal(size=3)
    return pure_state(v)


def projector_onto(v: np.ndarray) -> Projector:
    v = np.asarray(v, dtype=float)
    return Projector(np.outer(v, v), rank=1)


def projector_complement(v: np.ndarray) -> Projector:
    v = np.asarray(v, dtype=float)
    return Projector(np.eye(3) - np.outer(v, v), rank=2)


def born_probability(state: DensityMatrix, proj: Projector) -> float:
    """trace(proj * state), clamped into [0, 1] if within 1e-10 of a boundary."""
    raw = float(np.sum(proj.p * state.m))
    if raw < -PROB_CLAMP or raw > 1.0 + PROB_CLAMP:
        raise InvariantBreachError(f"invariant breach: Born probability {raw!r}")
    return min(max(raw, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class AverageChannel:
    """Uniform mixture over a protocol's N measurements.

    Acts on raw matrices via :meth:`on_matrix` (the analytic module applies it
    to operators, which need not be states).
    """

    channels: tuple[Channel, ...]

    def on_matrix(self, m: np.ndarray) -> np.ndarray:
        out = np.zeros((3, 3))
        for ch in self.channels:
            for pr in ch.kraus_list:
                out += pr.p @ m @ pr.p
        return out / len(self.channels)


def average_protocol_channel(sc: "Scenario", protocol: "ProtocolId") -> AverageChannel:
    """rho -> (1/N) sum_i (non-selective measurement i of the protocol)."""
    from .protocols import measurement_set

    return AverageChannel(
        channels=tuple(measurement_set(sc, protocol, i) for i in range(sc.n))
    )
