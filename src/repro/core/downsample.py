"""Downsampling a latent sample (Algorithm 3 of the paper).

Given ``L = (A, π, C)`` and a target weight ``0 < C' < C``, produce
``L' = (A', π', C')`` such that every item's inclusion probability is
scaled by exactly ``C'/C`` (Theorem 4.1) — the unique scaling consistent
with uniform exponential decay of all weights (eq. (6)).

Four cases, following the paper's pseudocode and correctness proof:

1. ``⌊C'⌋ = 0`` — no full items retained. The old partial survives (as
   the partial of ``L'``) with probability ``frac(C)/C``; otherwise a
   uniformly random full item becomes the new partial and the old
   partial is ejected. ``A' = ∅``.
2. ``0 < ⌊C'⌋ = ⌊C⌋`` — no deletions. With probability
   ``1 − ρ``, where ``ρ = (1 − (C'/C)·frac(C)) / (1 − frac(C'))``,
   Swap1 promotes the old partial to full and demotes a random full
   item to partial.
3. ``0 < ⌊C'⌋ < ⌊C⌋`` — deletions occur. With probability
   ``(C'/C)·frac(C)`` the old partial is promoted to full alongside
   ``⌊C'⌋`` sampled full items (one of which becomes the new partial
   via Swap1); otherwise ``⌊C'⌋+1`` full items are sampled and one of
   them becomes the new partial via Move1 (old partial ejected).
4. Finally, if ``C'`` is integral the partial slot is cleared.

A target within EPS of C only sets C = C', with no draw: ``RTBS._advance``
relies on it when ``dt = 0`` or ``λ = 0``.

Swap1 is ``extract_one`` then ``insert_rows`` of the old partial; Move1
is ``extract_one`` alone. ``A`` is reached only through the reservoir
operations listed in ``repro.core.latent``, so this one function serves
the serial sampler and D-R-TBS alike.
"""
from __future__ import annotations

import numpy as np

from repro.core.latent import EPS, LatentSample, ffrac, ifloor


def downsample(L: LatentSample, target: float, rng: np.random.Generator) -> None:
    """Downsample ``L`` in place to sample weight ``target`` (= C')."""
    C = L.weight
    Cp = target
    if not (0.0 < Cp < C + EPS):
        raise ValueError(f"downsample target must satisfy 0 < C'={Cp} < C={C}")
    if Cp >= C - EPS:  # C' == C up to float noise: nothing to do
        L.weight = Cp
        return

    fC, fCp = ffrac(C), ffrac(Cp)
    kC, kCp = ifloor(C), ifloor(Cp)
    U = rng.random()
    A = L.full

    if kCp == 0:
        # Case 1: no full items retained.
        keep_prob = fC / C if fC > 0 else 0.0  # frac(C)/C; C<1 ⇒ prob 1
        if U > keep_prob:
            L.partial = A.extract_one()
        A.clear()
    elif kCp == kC:
        # Case 2: no deletions; requires a partial item (fC > 0).
        if L.partial is None:
            raise AssertionError(
                f"case ⌊C'⌋=⌊C⌋ needs a partial item (C={C}, C'={Cp})"
            )
        rho = (1.0 - (Cp / C) * fC) / (1.0 - fCp)
        if U > rho:
            _swap1(L)
    else:
        # Case 3: 0 < ⌊C'⌋ < ⌊C⌋.
        p_promote = (Cp / C) * fC
        if L.partial is not None and U <= p_promote:
            A.keep_random(kCp)
            _swap1(L)  # old partial becomes full, a sampled item → partial
        else:
            A.keep_random(kCp + 1)
            L.partial = A.extract_one()  # Move1: old partial ejected

    L.weight = Cp
    if ffrac(Cp) <= EPS:
        L.partial = None
        L.weight = float(kCp)
    L.check_invariants()


def _swap1(L: LatentSample) -> None:
    """``I ← Sample(A,1); A ← (A∖I) ∪ π; π ← I`` (π nonempty)."""
    new_partial = L.full.extract_one()
    L.full.insert_rows([L.partial])
    L.partial = new_partial
