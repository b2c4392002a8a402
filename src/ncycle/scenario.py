"""Odd N-cycle quantum realizations and their noncontextual bounds.

The realization places N unit vectors a_i on a regular cone around the z axis
so that adjacent vectors are orthogonal; b_i completes each context
{a_i, b_i, a_{i+1}} to an orthonormal basis.  Classical bounds are the exact
optimum over all deterministic outcome assignments (transfer matrix), never
the closed-form constants they are expected to equal.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvariantBreachError, UnsupportedScenarioError

ORTHO_TOL = 1e-12

#: Largest cycle length ``enumerate_classical_bounds`` accepts, the range
#: ``bounds`` supports until one range is chosen for every command.
MAX_ENUMERATION_N = 25

_HANDLE = np.array([0.0, 0.0, 1.0])
_HANDLE.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Quantum realization of an odd cycle of length ``n``.

    ``a_vectors`` and ``b_vectors`` are (n, 3) float arrays; ``handle`` is the
    symmetry-axis state (0, 0, 1) that maximally violates both inequalities.
    """

    n: int
    a_vectors: np.ndarray
    b_vectors: np.ndarray
    handle: np.ndarray

    def a(self, i: int) -> np.ndarray:
        return self.a_vectors[i % self.n]

    def b(self, i: int) -> np.ndarray:
        return self.b_vectors[i % self.n]

    def outcome_vectors(self) -> np.ndarray:
        """(n, 3, 3) stack whose row i is context i's outcome vectors
        (a_i, b_i, a_{i+1}), read from the stored vectors as they are."""
        a = self.a_vectors
        return np.stack([a, self.b_vectors, np.roll(a, -1, axis=0)], axis=1)


@dataclass(frozen=True)
class ClassicalBounds:
    """Noncontextual facet constants: exact optimum over all assignments (transfer matrix)."""

    alpha_bound: int
    beta_bound: int
    correlator_bound: int


def build_scenario(n: int) -> Scenario:
    """Construct the odd-n realization.

    a_i = K (cos(i*pi*(n-1)/n), sin(i*pi*(n-1)/n), sqrt(cos(pi/n))) with
    K = 1/sqrt(1 + cos(pi/n)).  b_i is the unit normal a_i x a_{i+1} of
    span{a_i, a_{i+1}}.  Its third component is K^2 sin(pi/n) > 0 (adjacent
    angles differ by pi(n-1)/n), so every b_i points upward with no sign fix;
    n * b_i[2] tends to pi/2 (checked for odd n up to 100001).
    """
    if n % 2 == 0 or n < 5:
        raise UnsupportedScenarioError(
            f"unsupported scenario: n must be odd and >= 5, got {n} "
            "(n=3 admits no quantum violation)"
        )
    k = 1.0 / math.sqrt(1.0 + math.cos(math.pi / n))
    z = k * math.sqrt(math.cos(math.pi / n))
    a = np.empty((n, 3))
    for i in range(n):
        theta = i * math.pi * (n - 1) / n
        a[i] = (k * math.cos(theta), k * math.sin(theta), z)
    b = np.empty((n, 3))
    for i in range(n):
        c = np.cross(a[i], a[(i + 1) % n])
        b[i] = c / np.linalg.norm(c)
    a.setflags(write=False)
    b.setflags(write=False)
    sc = Scenario(n=n, a_vectors=a, b_vectors=b, handle=_HANDLE)
    _validate(sc)
    return sc


def _validate(sc: Scenario) -> None:
    n, a, b = sc.n, sc.a_vectors, sc.b_vectors
    # the one check: each context, the columns of A, resolves the identity; A^T A - I has
    # the eigenvalues of A A^T - I, so no norm or overlap is then off by over 3 * ORTHO_TOL
    an = np.roll(a, -1, axis=0)
    s = (
        a[:, :, None] * a[:, None, :]
        + b[:, :, None] * b[:, None, :]
        + an[:, :, None] * an[:, None, :]
    )
    bad = np.flatnonzero(np.abs(s - np.eye(3)).max(axis=(1, 2)) > ORTHO_TOL)
    if bad.size:
        raise InvariantBreachError(
            f"context {bad[0]} of n={n} does not resolve the identity"
        )


def enumerate_classical_bounds(n: int) -> ClassicalBounds:
    """Exact optimum over all deterministic assignments of the length-n cycle
    (transfer matrix), exact over integers:

    * ``correlator_bound``: min of sum_i o_i * o_{i+1} over o_i in {-1, +1};
    * ``alpha_bound`` and ``beta_bound``: max of sum a_i and min of sum b_i
      over all 0/1 assignments to the 2n vertices {a_i} and {b_i} with exactly
      one true vertex per context {a_i, b_i, a_{i+1}}.  That forces
      b_i = (1 - a_i)(1 - a_{i+1}) and rules out adjacent true a's (the pair
      (1, 0) counts a_i, the pair (0, 0) counts b_i, and (1, 1) is left out).
    """
    if n % 2 == 0 or n < 3:
        raise UnsupportedScenarioError(
            f"unsupported scenario: classical bounds need odd n >= 3, got {n}"
        )
    if n > MAX_ENUMERATION_N:
        raise UnsupportedScenarioError(
            f"unsupported scenario: n={n} exceeds the cap n <= {MAX_ENUMERATION_N}"
        )
    alpha = _cycle_optimum(n, {(0, 0): 0, (0, 1): 0, (1, 0): 1}, max)
    beta = _cycle_optimum(n, {(0, 0): 1, (0, 1): 0, (1, 0): 0}, min)
    corr = _cycle_optimum(n, {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1}, min)
    return ClassicalBounds(alpha_bound=alpha, beta_bound=beta, correlator_bound=corr)


def _cycle_optimum(n: int, weights: dict[tuple[int, int], int], best: Callable[..., int]) -> int:
    """``best`` (max or min) of sum_i weights[x_i, x_{i+1}], indices mod n, over
    every x in {0,1}^n whose adjacent pairs are all keys of ``weights``: fix
    x_0, carry the best prefix sum for each value of x_i, then close the edge
    back to x_0, O(n) integer steps of a 2x2 transfer matrix.
    """
    totals = []
    for x0 in (0, 1):
        prefix = {x0: 0}
        for _ in range(n - 1):
            prefix = {
                q: best(s + weights[p, q] for p, s in prefix.items() if (p, q) in weights)
                for q in (0, 1)
                if any((p, q) in weights for p in prefix)
            }
        totals += [s + weights[p, x0] for p, s in prefix.items() if (p, x0) in weights]
    return best(totals)
