"""Randomness substrate shared by all samplers.

The paper relies on a handful of primitives:

* ``Binomial(j, r)`` / ``HyperGeo(k, a, b)`` draws (Alg. 1, Alg. 5;
  refs [21, 22] of the paper) — thin wrappers over NumPy's generator so
  every caller threads an explicit seeded ``numpy.random.Generator``.
* ``StochRound(x)`` — stochastic rounding (Sec. 4.1): ``⌊x⌋`` with
  probability ``⌈x⌉ − x`` and ``⌈x⌉`` with probability ``x − ⌊x⌋``; the
  unique mean-preserving two-point distribution on ``{⌊x⌋, ⌈x⌉}``
  (used in the proof of Thm 4.4).
* ``Sample(A, m)`` — uniform subset without replacement returning
  ``min(m, |A|)`` elements (Sec. 3).
* ``multivariate_hypergeometric_split`` — the Sec. 5.3 "distributed
  decisions" primitive: the master draws only per-worker delete/insert
  *counts* from the multivariate hypergeometric law, workers sample
  locally.
"""
from __future__ import annotations

import math
from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def make_rng(seed: int | None | np.random.Generator) -> np.random.Generator:
    """Coerce a seed (or an existing generator) into a ``Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def binomial(rng: np.random.Generator, n: int, p: float) -> int:
    """Number of successes in ``n`` independent trials at rate ``p``."""
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    return int(rng.binomial(n, p))


def hypergeometric(rng: np.random.Generator, k: int, a: int, b: int) -> int:
    """Draw from HyperGeo(k, a, b): # of 'a'-items in a size-``k`` uniform
    draw from ``a + b`` items (Alg. 5's ``HyperGeo``)."""
    if k <= 0 or a <= 0:
        return 0
    k = min(k, a + b)
    return int(rng.hypergeometric(a, b, k))


def stochastic_round(rng: np.random.Generator, x: float) -> int:
    """Mean-preserving rounding: E[StochRound(x)] == x."""
    if x < 0:
        raise ValueError(f"stochastic_round needs x >= 0, got {x}")
    lo = math.floor(x)
    frac = x - lo
    if frac <= 0.0:
        return lo
    return lo + (1 if rng.random() < frac else 0)


def sample_without_replacement(
    rng: np.random.Generator, items: Sequence[T], m: int
) -> list[T]:
    """Uniform sample of ``min(m, |items|)`` elements, no replacement.

    Mirrors the paper's ``Sample(A, m)``; ``m == 0`` (or an empty input)
    yields an empty list.
    """
    m = min(m, len(items))
    if m <= 0:
        return []
    idx = rng.choice(len(items), size=m, replace=False)
    return [items[i] for i in idx]


def multivariate_hypergeometric_split(
    rng: np.random.Generator, partition_sizes: Sequence[int], k: int
) -> list[int]:
    """How many of ``k`` globally-uniform picks land in each partition.

    This is the master-side computation of the paper's *distributed
    decisions* strategy (Sec. 5.3): choosing ``k`` distinct items
    uniformly from a population partitioned into blocks of the given
    sizes induces a multivariate hypergeometric law on per-block counts.
    """
    sizes = np.asarray(partition_sizes, dtype=np.int64)
    total = int(sizes.sum())
    if k > total:
        raise ValueError(f"cannot pick {k} items from population of {total}")
    if k <= 0:
        return [0] * len(sizes)
    return [int(c) for c in rng.multivariate_hypergeometric(sizes, k)]
