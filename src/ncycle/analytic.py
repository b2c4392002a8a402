"""Exact per-player inequality sequences, asymptotes, and K_max tables.

Three independent computation paths produce the same per-player values:

* :func:`protocol1_sequence` propagates the aggregated outcome-probability
  vector with the 3x3 bistochastic transition matrix (complete measurements);
* :func:`recurrence_sequence` uses the affine one-step relation
  ``value_k = slope * value_{k-1} + offset`` of the dichotomic protocols, with
  coefficients extracted from the average channel;
* :func:`channel_sequence` iterates the average measurement channel directly
  and traces against the functional operator (the oracle path).

All sequences contract geometrically onto the common asymptote n/3, so each
crossing point (K_max) is decided from the closed form in the first value and
the contraction factor, by bisection on the player count.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DecompositionFailureError,
    InvariantBreachError,
    PairingError,
    SymmetryBreachError,
)
from .protocols import (
    InequalityId,
    ProtocolId,
    check_pairing,
    estimator_weights,
    evaluate,
    functional_operator,
    inequalities,
    slot_vectors,
)
from .quantum import (
    DensityMatrix,
    average_protocol_channel,
    born_probability,
    handle_state,
    projector_onto,
    random_pure_state,
)
from .scenario import Scenario, build_scenario


@dataclass(frozen=True, eq=False)
class MarkovMatrix:
    """Bistochastic transition matrix of the complete-measurement protocol.

    Fully determined by the scalar ``t`` through the symmetry pattern
    ``[[t, 1-2t, t], [1-2t, 4t-1, 1-2t], [t, 1-2t, t]]``.  The pattern is
    symmetric with unit column sums for every t, so bistochastic with the
    uniform fixed point by construction; the one check, 1/3 < t < 1/2, makes
    every entry positive and the decay rate 6t - 2 lie in (0, 1).
    """

    t: float
    m: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        t = self.t
        if not 1.0 / 3.0 < t < 0.5:
            raise InvariantBreachError(f"t={float(t)!r} outside (1/3, 1/2)")
        e, d = 1 - 2 * t, 4 * t - 1
        m = np.array([[t, e, t], [e, d, e], [t, e, t]])
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @property
    def decay_rate(self) -> float:
        """Second-largest eigenvalue 6t - 2; the third eigenvalue is 0."""
        return 6.0 * self.t - 2.0


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Affine one-step coefficients of a dichotomic protocol.

    ``lambda0``/``lambda1`` are the block eigenvalues of the functional
    operator (in-plane doublet and handle axis).
    """

    slope: float
    offset: float
    lambda0: float
    lambda1: float

    @property
    def fixed_point(self) -> float:
        return self.offset / (1.0 - self.slope)


@dataclass(frozen=True, eq=False)
class SequenceResult:
    """Per-player inequality values with violation verdicts and crossing points.

    ``values[i]`` is player ``k = i + 1``.  ``kmax_fixed`` and ``kmax_uniform``
    describe the full geometric sequence, whatever the requested length: they
    are decided from ``values[0]`` and ``decay_rate`` alone.
    """

    n: int
    protocol: ProtocolId
    ineq: InequalityId
    values: tuple[float, ...]
    verdicts: tuple[bool, ...]
    kmax_fixed: int
    kmax_uniform: int
    asymptote: float
    decay_rate: float


def _t_from_scenario(sc: Scenario) -> float:
    """(1/n) sum_i <a_0, a_i>^2; lies strictly between 1/3 and 1/2 for n >= 5."""
    overlaps = sc.a_vectors @ sc.a_vectors[0]
    return float(np.sum(overlaps**2)) / sc.n


def markov_matrix(n: int) -> MarkovMatrix:
    """Build the t-patterned transition matrix and verify it against the
    definitional average of squared-overlap matrices for every anchor choice."""
    sc = build_scenario(n)
    mm = MarkovMatrix(_t_from_scenario(sc))
    worst = np.abs(_markov_from_overlaps(sc) - mm.m).max()
    if worst > 1e-10:
        raise SymmetryBreachError(
            f"symmetry breach: overlap-built transition matrix deviates by {worst:.3e}"
        )
    return mm


def _markov_from_overlaps(sc: Scenario) -> np.ndarray:
    """Overlap-built transition matrix for every anchor at once, shape (n, 3, 3).

    Entry [anchor, o, p] is (1/n) sum_i (u_{i,o} . u_{anchor,p})^2, where
    u_{i,o} are the outcome vectors (a_i, b_i, a_{i+1}) of context i.  The sum
    over i folds into S_o = sum_i u_{i,o} u_{i,o}^T, so each entry is the
    quadratic form u_{anchor,p}^T S_o u_{anchor,p}: O(n) work for all anchors.
    """
    u = sc.outcome_vectors()
    s = np.einsum("nok,nol->okl", u, u)
    return np.einsum("okl,apk,apl->aop", s, u, u) / sc.n


def context_probabilities(sc: Scenario, state: DensityMatrix, i: int) -> np.ndarray:
    """Outcome distribution (p(a_i), p(b_i), p(a_{i+1})) of context i."""
    p = np.array(
        [born_probability(state, projector_onto(v)) for v in slot_vectors(sc, ProtocolId.FULL, i)]
    )
    if abs(p.sum() - 1.0) > 1e-12:
        raise InvariantBreachError(f"context {i} probabilities sum to {float(p.sum())!r}")
    return p


def aggregate_probability_vector(sc: Scenario, state: DensityMatrix) -> np.ndarray:
    """Sum of the per-context distributions, each checked to sum to 1."""
    return sum(context_probabilities(sc, state, i) for i in range(sc.n))


def protocol1_sequence(
    sc: Scenario, ineq: InequalityId, initial: DensityMatrix, k_max: int
) -> SequenceResult:
    """Per-player values under the complete-measurement protocol.

    The first player's aggregated outcome vector comes from Born probabilities;
    later players follow by repeated application of the transition matrix, and
    each value is the contraction with the pairing's estimator weights.
    """
    if k_max < 1:
        raise InvariantBreachError(f"k_max must be >= 1, got {k_max}")
    mm = markov_matrix(sc.n)
    v = estimator_weights(ProtocolId.FULL, ineq)
    q = aggregate_probability_vector(sc, initial)
    values = []
    for _ in range(k_max):
        values.append(float(v @ q))
        q = mm.m @ q
    return _finish(sc.n, ProtocolId.FULL, ineq, values, mm.decay_rate)


def extract_recurrence(
    sc: Scenario, protocol: ProtocolId, ineq: InequalityId
) -> RecurrenceCoeffs:
    """Slope and offset of the affine relation trace(F Lambda(rho)) =
    slope * trace(F rho) + offset.

    The average channel is self-adjoint, so its image of the functional
    operator decomposes in span{F, identity}; the two block eigenvalue sectors
    give a 2x2 linear system for (slope, offset).  The result is cross-checked
    against the closed forms implied by the block spectrum:
    z = (2 lambda0^2 + lambda1^2)/n, u = n + z - 2(lambda0 + lambda1),
    slope = (z + u)/n, offset = 2 lambda0 lambda1 / n.
    """
    if protocol is ProtocolId.FULL:
        raise PairingError("pairing error: recurrence coefficients need a dichotomic protocol")
    check_pairing(protocol, ineq)
    fop = functional_operator(sc, ineq)
    lam0, lam1 = fop.sector_eigenvalues(sc.handle)
    lam = average_protocol_channel(sc, protocol)
    image = lam.on_matrix(fop.op)
    e1 = float(sc.handle @ image @ sc.handle)
    e0 = (float(np.trace(image)) - e1) / 2.0
    slope = (e0 - e1) / (lam0 - lam1)
    offset = e1 - slope * lam1
    residual = np.abs(image - slope * fop.op - offset * np.eye(3)).max()
    if residual > 1e-10:
        raise DecompositionFailureError(
            f"decomposition failure: channel image leaves span{{F, I}} by {residual:.3e}"
        )
    z = (2.0 * lam0**2 + lam1**2) / sc.n
    u = sc.n + z - 2.0 * (lam0 + lam1)
    if abs(slope - (z + u) / sc.n) > 1e-10 or abs(offset - 2.0 * lam0 * lam1 / sc.n) > 1e-10:
        raise InvariantBreachError(
            "extracted recurrence coefficients disagree with their closed forms"
        )
    if not 0.0 < slope < 1.0:
        raise InvariantBreachError(f"recurrence slope {float(slope)!r} is not in (0, 1)")
    return RecurrenceCoeffs(slope=slope, offset=offset, lambda0=lam0, lambda1=lam1)


def recurrence_sequence(
    sc: Scenario,
    protocol: ProtocolId,
    ineq: InequalityId,
    initial: DensityMatrix,
    k_max: int,
) -> SequenceResult:
    """Per-player values of a dichotomic protocol via the affine recurrence."""
    if k_max < 1:
        raise InvariantBreachError(f"k_max must be >= 1, got {k_max}")
    coeffs = extract_recurrence(sc, protocol, ineq)
    fop = functional_operator(sc, ineq)
    values = [fop.value(initial.m)]
    for _ in range(k_max - 1):
        values.append(coeffs.slope * values[-1] + coeffs.offset)
    return _finish(sc.n, protocol, ineq, values, coeffs.slope)


def exact_sequence(
    sc: Scenario,
    protocol: ProtocolId,
    ineq: InequalityId,
    initial: DensityMatrix,
    k_max: int,
) -> SequenceResult:
    """Per-player values from the protocol's exact engine: the transition
    matrix for the complete protocol, the affine recurrence otherwise."""
    if protocol is ProtocolId.FULL:
        return protocol1_sequence(sc, ineq, initial, k_max)
    return recurrence_sequence(sc, protocol, ineq, initial, k_max)


def channel_sequence(
    sc: Scenario,
    protocol: ProtocolId,
    ineq: InequalityId,
    initial: DensityMatrix,
    k_max: int,
) -> SequenceResult:
    """Oracle path: values[k] = trace(F Lambda^(k-1)(rho)) by direct iteration."""
    if k_max < 1:
        raise InvariantBreachError(f"k_max must be >= 1, got {k_max}")
    check_pairing(protocol, ineq)
    fop = functional_operator(sc, ineq)
    lam = average_protocol_channel(sc, protocol)
    m = initial.m
    values = []
    for _ in range(k_max):
        values.append(fop.value(m))
        m = lam.on_matrix(m)
    if protocol is ProtocolId.FULL:
        rate = markov_matrix(sc.n).decay_rate
    else:
        rate = extract_recurrence(sc, protocol, ineq).slope
    return _finish(sc.n, protocol, ineq, values, rate)


def _finish(
    n: int,
    protocol: ProtocolId,
    ineq: InequalityId,
    values: list[float],
    rate: float,
) -> SequenceResult:
    verdicts = [evaluate(v, ineq, n).violates for v in values]
    asym = n / 3.0
    d = values[0] - asym
    return SequenceResult(
        n=n,
        protocol=protocol,
        ineq=ineq,
        values=tuple(values),
        verdicts=tuple(verdicts),
        kmax_fixed=_last_violating(lambda k: asym + rate ** (k - 1) * d, ineq, n),
        kmax_uniform=_last_violating(
            lambda k: asym + d * (1.0 - rate**k) / (k * (1.0 - rate)), ineq, n
        ),
        asymptote=asym,
        decay_rate=rate,
    )


def _last_violating(value_at: Callable[[int], float], ineq: InequalityId, n: int) -> int:
    """Largest K whose ``value_at(K)`` violates, or 0 if K = 1 does not.

    ``value_at`` is player K's value ``n/3 + r^(K-1) d`` (fixed order) or the
    prefix mean of the first K of them (uniform order).  Both approach n/3
    monotonically when ``0 < r < 1``, which every engine's rate satisfies, so
    the violating K form a prefix.  Doubling K finds one that does not violate,
    and bisection then returns the K that violates while K + 1 does not.
    """

    def violates(k: int) -> bool:
        return evaluate(value_at(k), ineq, n).violates

    if not violates(1):
        return 0
    lo, hi = 1, 2
    while violates(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if violates(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class Table1Row:
    """K_max values for one cycle length: fixed player order and randomized
    order, for each protocol (fields end in its ``ProtocolId`` value).  Each is
    the max over the inequalities the protocol evaluates, so the complete
    protocol takes the worse of the two."""

    n: int
    fixed_full: int
    fixed_a: int
    fixed_b: int
    uniform_full: int
    uniform_a: int
    uniform_b: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (
            self.fixed_full,
            self.fixed_a,
            self.fixed_b,
            self.uniform_full,
            self.uniform_a,
            self.uniform_b,
        )


def table1(n_list) -> list[Table1Row]:
    """K_max table rows for the handle initial state."""
    rows = []
    for n in n_list:
        sc = build_scenario(n)
        h = handle_state()
        kmax = {}
        for p in ProtocolId:
            seqs = [exact_sequence(sc, p, ineq, h, k_max=1) for ineq in inequalities(p)]
            kmax[f"fixed_{p.value}"] = max(s.kmax_fixed for s in seqs)
            kmax[f"uniform_{p.value}"] = max(s.kmax_uniform for s in seqs)
        rows.append(Table1Row(n=n, **kmax))
    return rows


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of comparing the handle state's sequence against random states."""

    passed: bool
    worst_margin: float
    trials: int
    k_checked: int


def optimal_initial_state_check(
    sc: Scenario,
    protocol: ProtocolId,
    ineq: InequalityId,
    trials: int,
    seed: int,
) -> OptimalityReport:
    """Check that the handle state dominates random pure states at every player.

    For the upper-bounded inequality the handle value must be >= each sampled
    state's value at the same k (<= for the lower-bounded one), within 1e-10.
    A failure is reported, not raised.
    """
    if trials < 1:
        raise InvariantBreachError(f"trials must be >= 1, got {trials}")
    check_pairing(protocol, ineq)
    k_checked = 30
    rng = np.random.default_rng(seed)

    def seq(state: DensityMatrix) -> tuple[float, ...]:
        return exact_sequence(sc, protocol, ineq, state, k_checked).values

    handle_vals = np.array(seq(handle_state()))
    sign = 1.0 if ineq is InequalityId.ALPHA else -1.0
    worst = np.inf
    for _ in range(trials):
        trial_vals = np.array(seq(random_pure_state(rng)))
        worst = min(worst, float((sign * (handle_vals - trial_vals)).min()))
    return OptimalityReport(
        passed=worst >= -1e-10,
        worst_margin=worst,
        trials=trials,
        k_checked=k_checked,
    )
