"""Latent fractional samples (Sec. 4.1 of the paper).

A latent sample ``L = (A, π, C)`` consists of a set ``A`` of ``⌊C⌋``
*full* items, a set ``π`` holding at most one *partial* item, and the
real-valued sample weight ``C``. A realized sample ``S`` is drawn from
``L`` via eq. (2): every full item is always included, the partial item
is included with probability ``frac(C)``, so ``E[|S|] = C`` (eq. (3)).

``A`` lives in a *reservoir*, which Algorithms 2 and 3 touch only
through these operations:

* ``count`` — ``|A|``, known without touching the items;
* ``insert_all(batch, sizes)`` — add a whole batch (``sizes`` are its
  per-partition row counts);
* ``insert_rows(rows)`` — add a few items;
* ``keep_random(k)`` — keep ``k`` uniform survivors;
* ``extract_one()`` — remove and return one uniform item;
* ``replace_random(m, batch, sizes)`` — replace ``m`` uniform items by
  ``m`` uniform items of the batch;
* ``clear()``.

``ListReservoir`` keeps them in a Python list for the serial sampler;
``repro.distributed.reservoir`` keeps them in Spark. Items are opaque
objects; neither the latent sample nor the list reservoir inspects them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.rng import sample_without_replacement


# Float tolerance of the weight tests: a C within EPS of an integer is
# integral (no partial item), and weights below EPS are zero.
EPS = 1e-9


def frac(x: float) -> float:
    """Fractional part ``x − ⌊x⌋``."""
    return x - math.floor(x)


def ifloor(x: float) -> int:
    """Floor with tolerance ``EPS``, so 3.9999999998 floors to 4."""
    return math.floor(x + EPS)


def ffrac(x: float) -> float:
    """Fractional part above ``ifloor(x)``, never negative."""
    return max(0.0, x - ifloor(x))


class ListReservoir:
    """Full items in a Python list. Every draw comes from ``rng``, the
    owning sampler's generator, so the reservoir's draws interleave with
    the sampler's own in one reproducible stream."""

    def __init__(self, items: Iterable[Any], rng: np.random.Generator):
        self.items = list(items)
        self.rng = rng

    @property
    def count(self) -> int:
        return len(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.items)

    def insert_all(self, batch: Sequence[Any], sizes: Sequence[int]) -> None:
        self.items.extend(batch)

    def insert_rows(self, rows: Sequence[Any]) -> None:
        self.items.extend(rows)

    def keep_random(self, k: int) -> None:
        # Draws even when k == count: a permutation that orders the list.
        self.items = sample_without_replacement(self.rng, self.items, k)

    def extract_one(self) -> Any | None:
        if not self.items:
            return None
        (i,) = self.rng.choice(len(self.items), size=1, replace=False)
        return self.items.pop(int(i))  # by index: duplicate items are safe

    def replace_random(self, m: int, batch: Sequence[Any], sizes: Sequence[int]) -> None:
        if m <= 0:
            return
        idx = self.rng.choice(len(self.items), size=m, replace=False)
        drop = set(int(i) for i in idx)
        kept = [x for i, x in enumerate(self.items) if i not in drop]
        self.items = kept + sample_without_replacement(self.rng, batch, m)

    def clear(self) -> None:
        self.items = []


@dataclass
class LatentSample:
    """Mutable latent sample ``(A, π, C)`` with the paper's invariants;
    ``full`` is the reservoir holding ``A``."""

    full: Any
    partial: Any | None = None
    weight: float = 0.0

    # ------------------------------------------------------------------
    # Invariants and views
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise if (A, π, C) violates Sec. 4.1's structural invariants:
        |A| == ⌊C⌋ and π nonempty iff C is non-integral."""
        if self.weight < -EPS:
            raise AssertionError(f"negative sample weight {self.weight}")
        if self.full.count != ifloor(self.weight):
            raise AssertionError(f"|A|={self.full.count} != floor(C)={ifloor(self.weight)}")
        has_frac = frac(self.weight + EPS) > 2 * EPS
        if has_frac and self.partial is None:
            raise AssertionError(f"C={self.weight} fractional but no partial item")
        if not has_frac and self.partial is not None:
            raise AssertionError(f"C={self.weight} integral but partial item present")

    @property
    def footprint(self) -> int:
        """Number of stored items; always ≤ ⌊C⌋ + 1."""
        return self.full.count + (1 if self.partial is not None else 0)

    def items(self) -> list[Any]:
        """All stored items (full items plus the partial one, if any)."""
        out = list(self.full)
        if self.partial is not None:
            out.append(self.partial)
        return out

    # ------------------------------------------------------------------
    # Realization (eq. (2))
    # ------------------------------------------------------------------
    def draw_partial(self, rng: np.random.Generator) -> bool:
        """Whether a realized sample includes the partial item: with
        probability ``frac(C)``. Draws only when there is a partial item."""
        f = frac(self.weight + EPS)
        return self.partial is not None and f > 2 * EPS and rng.random() < f

    def realize(self, rng: np.random.Generator) -> list[Any]:
        """Draw a realized sample ``S`` from ``L``: full items surely,
        the partial item with probability ``frac(C)``."""
        out = list(self.full)
        if self.draw_partial(rng):
            out.append(self.partial)
        return out
