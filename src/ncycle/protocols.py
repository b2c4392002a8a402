"""Measurement protocols, inequality functionals, and violation verdicts.

Three protocols share the same single-observer statistics but disturb the
state differently in sequence:

* ``FULL``   -- the complete context measurement {a_i, b_i, a_{i+1}};
* ``A_ONLY`` -- the dichotomic coarse-graining {a_i, not a_i};
* ``B_ONLY`` -- the dichotomic coarse-graining {b_i, not b_i}.

The inequality functionals are evaluated as operators: sum of the |a_i><a_i|
projectors for the upper-bounded sum of a-probabilities, sum of |b_i><b_i|
for the lower-bounded sum of b-probabilities.

Two tables are the one home of the protocol facts: ``SLOTS`` (which of
context i's outcome vectors each protocol projects onto) and ``WEIGHTS``
(the estimator weights of every valid protocol/inequality pairing).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import PairingError
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


#: Which of context i's outcome vectors (a_i, b_i, a_{i+1}), the columns of
#: ``Scenario.outcome_vectors()``, each protocol projects onto.  One slot means
#: a dichotomic measurement whose second outcome is the slot's complement.
SLOTS: dict[ProtocolId, tuple[int, ...]] = {
    ProtocolId.FULL: (0, 1, 2),
    ProtocolId.A_ONLY: (0,),
    ProtocolId.B_ONLY: (1,),
}

#: Weights over one measurement's outcomes, in ``SLOTS`` order with a
#: dichotomic complement last.  Contracted with each measurement's outcome
#: distribution and summed over the n measurements, they give the inequality
#: value.  The keys are the valid pairings, each protocol's default first: a
#: dichotomic protocol evaluates only the inequality of its own vectors
#: (Araujo et al., PRA 88, 022118 (2013)).
WEIGHTS: dict[tuple[ProtocolId, InequalityId], tuple[float, ...]] = {
    (ProtocolId.FULL, InequalityId.ALPHA): (0.5, 0.0, 0.5),
    (ProtocolId.FULL, InequalityId.BETA): (0.0, 1.0, 0.0),
    (ProtocolId.A_ONLY, InequalityId.ALPHA): (1.0, 0.0),
    (ProtocolId.B_ONLY, InequalityId.BETA): (1.0, 0.0),
}


def inequalities(protocol: ProtocolId) -> tuple[InequalityId, ...]:
    """The inequalities a protocol evaluates, its default first."""
    return tuple(ineq for p, ineq in WEIGHTS if p is protocol)


def check_pairing(protocol: ProtocolId, ineq: InequalityId) -> None:
    if (protocol, ineq) not in WEIGHTS:
        raise PairingError(
            f"pairing error: protocol {protocol.value!r} does not evaluate "
            f"inequality {ineq.value!r}"
        )


def slot_vectors(sc: Scenario, protocol: ProtocolId, i: int) -> list[np.ndarray]:
    """The outcome vectors of context i that the protocol projects onto."""
    context = (sc.a(i), sc.b(i), sc.a(i + 1))
    return [context[s] for s in SLOTS[protocol]]


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
    vs = slot_vectors(sc, protocol, i)
    kraus = [projector_onto(v) for v in vs]
    if len(vs) == 1:
        kraus.append(projector_complement(vs[0]))
    return Channel(kraus_list=tuple(kraus))


def functional_operator(sc: Scenario, ineq: InequalityId) -> FunctionalOperator:
    vs = sc.a_vectors if ineq is InequalityId.ALPHA else sc.b_vectors
    op = np.einsum("ni,nj->ij", vs, vs)
    op.setflags(write=False)
    return FunctionalOperator(op=op)


def outcome_labels(n: int, protocol: ProtocolId, i: int) -> tuple[str, ...]:
    """Human-readable outcome names matching measurement_set slot order."""
    context = (f"a{i}", f"b{i}", f"a{(i + 1) % n}")
    labels = tuple(context[s] for s in SLOTS[protocol])
    return labels + (f"!{labels[0]}",) if len(labels) == 1 else labels


def estimator_weights(protocol: ProtocolId, ineq: InequalityId) -> np.ndarray:
    """The ``WEIGHTS`` entry of a valid pairing, as an array."""
    check_pairing(protocol, ineq)
    return np.array(WEIGHTS[protocol, ineq])
