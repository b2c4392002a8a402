"""Shared fixtures and independent oracle helpers.

The oracle helpers rebuild quantities from the closed-form definitions with
plain ``math`` calls, deliberately not reusing the package's vector or channel
code, so tests compare two independent computation routes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ncycle import build_scenario, handle_state


def oracle_a_vectors(n: int) -> np.ndarray:
    """Closed-form realization vectors, built independently of the package."""
    k = 1.0 / math.sqrt(1.0 + math.cos(math.pi / n))
    out = np.empty((n, 3))
    for i in range(n):
        theta = i * math.pi * (n - 1) / n
        out[i] = (
            k * math.cos(theta),
            k * math.sin(theta),
            k * math.sqrt(math.cos(math.pi / n)),
        )
    return out


def oracle_handle_overlap_sq(n: int) -> float:
    """<a_i, handle>^2 from the closed form."""
    return math.cos(math.pi / n) / (1.0 + math.cos(math.pi / n))


def outer_projectors(vs: np.ndarray) -> np.ndarray:
    """``np.outer(v, v)`` of one vector, or a stack of it for each row of ``vs``."""
    if vs.ndim == 1:
        return np.outer(vs, vs)
    return np.stack([np.outer(v, v) for v in vs])


def cumulative_born(state: np.ndarray, vs: np.ndarray) -> list[float]:
    """Running sums of the Born probabilities of the rows of ``vs``, each
    clamped at 0, in the Python floats the scalar complete measurement adds."""
    sums, cum = [], 0.0
    for p in np.einsum("oi,ij,oj->o", vs, state, vs):
        cum += max(float(p), 0.0)
        sums.append(cum)
    return sums


def measure_full(state: np.ndarray, vs: np.ndarray, ps: np.ndarray, u: float):
    """The scalar complete measurement on the rows of ``vs`` (``ps[o]`` is row
    o's projector): the oracle of the sampler's state-index kernel."""
    sums = cumulative_born(state, vs)
    slot = next((o for o, cum in enumerate(sums) if u < cum), len(sums) - 1)
    return slot, ps[slot]


def random_mixed_matrix(seed: int) -> np.ndarray:
    """Random full-rank state via a normalized Wishart matrix."""
    g = np.random.default_rng(seed).normal(size=(3, 3))
    w = g @ g.T
    return w / np.trace(w)


@pytest.fixture
def pooled(monkeypatch):
    """Lower every sampler kernel's per-worker minimum to one player step, so a
    call with several workers really runs the process pool; the list records
    the worker count of each pool the calls start."""
    from ncycle import montecarlo

    monkeypatch.setattr(
        montecarlo, "POOL_MIN_STEPS", dict.fromkeys(montecarlo.POOL_MIN_STEPS, 1)
    )
    sizes: list[int] = []
    merge = montecarlo._merge_parallel

    def counted(cfg, ranges):
        sizes.append(len(ranges))
        return merge(cfg, ranges)

    monkeypatch.setattr(montecarlo, "_merge_parallel", counted)
    return sizes


@pytest.fixture(scope="session")
def sc5():
    return build_scenario(5)


@pytest.fixture(scope="session")
def sc7():
    return build_scenario(7)


@pytest.fixture(scope="session")
def sc9():
    return build_scenario(9)


@pytest.fixture(scope="session")
def handle():
    return handle_state()
