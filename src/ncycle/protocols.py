"""Measurement protocols, inequality functionals, and violation verdicts.

Three protocols share the same single-observer statistics but disturb the
state differently in sequence:

* ``FULL``   -- the complete context measurement {a_i, b_i, a_{i+1}};
* ``A_ONLY`` -- the dichotomic coarse-graining {a_i, not a_i};
* ``B_ONLY`` -- the dichotomic coarse-graining {b_i, not b_i}.

The inequality functionals are evaluated as operators: sum of the |a_i><a_i|
projectors for the upper-bounded sum of a-probabilities, sum of |b_i><b_i|
for the lower-bounded sum of b-probabilities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvariantBreachError
from .quantum import Channel, projector_complement, projector_onto
from .scenario import Scenario

#: Slack applied on top of the classical bound when deciding a violation.
VIOLATION_EPS = 1e-9


class ProtocolId(enum.Enum):
    FULL = "full"
    A_ONLY = "a"
    B_ONLY = "b"


class InequalityId(enum.Enum):
    ALPHA = "alpha"  # sum <a_i>  <= (n-1)/2 noncontextually; violated from above
    BETA = "beta"    # sum <b_i>  >= 1 noncontextually; violated from below

    def bound(self, n: int) -> float:
        return (n - 1) / 2 if self is InequalityId.ALPHA else 1.0


@dataclass(frozen=True)
class Verdict:
    violates: bool
    margin: float  # signed distance past the bound; positive means violation


def evaluate(value: float, ineq: InequalityId, n: int) -> Verdict:
    """Violation verdict for a single player's inequality value."""
    bound = ineq.bound(n)
    margin = value - bound if ineq is InequalityId.ALPHA else bound - value
    return Verdict(violates=margin > VIOLATION_EPS, margin=margin)


@dataclass(frozen=True, eq=False)
class FunctionalOperator:
    """Sum of the N rank-1 projectors entering one inequality."""

    op: np.ndarray

    def value(self, state_matrix: np.ndarray) -> float:
        return float(np.sum(self.op * state_matrix))

    def sector_eigenvalues(self, handle: np.ndarray) -> tuple[float, float]:
        """(doubly degenerate in-plane eigenvalue, handle-axis eigenvalue).

        The cyclic symmetry forces the block spectrum lambda_0 (x2) + lambda_1
        with the handle as the nondegenerate eigenvector, so both follow from
        the handle expectation and the trace.
        """
        lam1 = float(handle @ self.op @ handle)
        lam0 = (float(np.trace(self.op)) - lam1) / 2.0
        return lam0, lam1


def measurement_set(sc: Scenario, protocol: ProtocolId, i: int) -> Channel:
    """The i-th measurement of a protocol, as a complete projective channel."""
    if not 0 <= i < sc.n:
        raise IndexError(f"measurement index {i} out of range for n={sc.n}")
    if protocol is ProtocolId.FULL:
        return Channel(
            kraus_list=(
                projector_onto(sc.a(i)),
                projector_onto(sc.b(i)),
                projector_onto(sc.a(i + 1)),
            )
        )
    if protocol is ProtocolId.A_ONLY:
        return Channel(
            kraus_list=(projector_onto(sc.a(i)), projector_complement(sc.a(i)))
        )
    return Channel(
        kraus_list=(projector_onto(sc.b(i)), projector_complement(sc.b(i)))
    )


def functional_operator(sc: Scenario, ineq: InequalityId) -> FunctionalOperator:
    vs = sc.a_vectors if ineq is InequalityId.ALPHA else sc.b_vectors
    op = np.einsum("ni,nj->ij", vs, vs)
    if abs(np.trace(op) - sc.n) > 1e-10:
        raise InvariantBreachError(
            f"functional operator trace {np.trace(op)!r} != n={sc.n}"
        )
    op.setflags(write=False)
    return FunctionalOperator(op=op)


def outcome_labels(n: int, protocol: ProtocolId, i: int) -> tuple[str, ...]:
    """Human-readable outcome names matching measurement_set slot order."""
    if protocol is ProtocolId.FULL:
        return (f"a{i}", f"b{i}", f"a{(i + 1) % n}")
    if protocol is ProtocolId.A_ONLY:
        return (f"a{i}", f"!a{i}")
    return (f"b{i}", f"!b{i}")


def estimator_weights(protocol: ProtocolId, ineq: InequalityId) -> np.ndarray:
    """Weights over one measurement's outcome slots, in measurement_set order.

    Contracted with each measurement's outcome distribution and summed over the
    n measurements, they give the inequality value."""
    if protocol is not ProtocolId.FULL:
        return np.array([1.0, 0.0])
    if ineq is InequalityId.ALPHA:
        return np.array([0.5, 0.0, 0.5])
    return np.array([0.0, 1.0, 0.0])
