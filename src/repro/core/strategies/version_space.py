"""Version-space information-gain strategy (§7 future work).

The paper's conclusions propose "lookahead strategies using probabilistic
graphical models" as the next step.  This strategy is the natural first
instance: place a **uniform prior over the candidate goal predicates**
(the non-nullable lattice nodes plus Ω — every goal is instance-
equivalent to one of them), maintain the *version space* of candidates
consistent with the sample, and ask the tuple whose answer splits the
space most evenly — i.e. maximise the Shannon information gain of the
question.

A candidate mask ``m`` is alive iff

* ``m ⊆ T(S+)``                       (selects every positive example), and
* ``m ⊄ T(t′)`` for every ``t′ ∈ S−`` (selects no negative example),

and for an informative class ``c`` the probability that the user answers
"+" under the uniform prior is ``p = |{alive m : m ⊆ T(c)}| / |alive|``.
The two degenerate values reprove the lemmas: ``p = 1`` iff ``c`` is
certain-positive and ``p = 0`` iff certain-negative (cross-validated in
the tests).

The version space can be exponential (§4.2); construction is capped and
the strategy falls back to L1S when the cap is hit.
"""

from __future__ import annotations

import math
import random

from ..lattice import LatticeTooLargeError, non_nullable_masks
from ..state import InferenceState
from .base import StatelessStrategy
from .lookahead import LookaheadSkylineStrategy

__all__ = ["VersionSpaceStrategy"]


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


class VersionSpaceStrategy(StatelessStrategy):
    """Maximise the Shannon information gain per question."""

    name = "IG"

    def __init__(self, max_candidates: int = 200_000):
        self.max_candidates = max_candidates
        self._candidates: list[int] | None = None
        self._candidates_index = None
        # Consulted statelessly (no observe lifecycle): its planner
        # rebuilds whenever the state moved since the last call.
        self._fallback = LookaheadSkylineStrategy(depth=1)

    def _candidate_masks(self, state: InferenceState) -> list[int] | None:
        """All candidate goal masks (cached per index); None when capped."""
        if self._candidates_index is state.index:
            return self._candidates
        try:
            masks = non_nullable_masks(
                state.index, cap=self.max_candidates
            )
        except LatticeTooLargeError:
            self._candidates = None
        else:
            masks.add(state.index.omega_mask)  # the all-negative goal
            self._candidates = sorted(masks)
        self._candidates_index = state.index
        return self._candidates

    def alive_candidates(self, state: InferenceState) -> list[int]:
        """The version space: candidates consistent with the sample."""
        masks = self._candidate_masks(state)
        if masks is None:
            raise LatticeTooLargeError(
                "candidate space exceeds the configured cap"
            )
        t_plus = state.t_plus_mask
        negatives = state.negative_masks
        return [
            m
            for m in masks
            if m & ~t_plus == 0
            and not any(m & ~negative == 0 for negative in negatives)
        ]

    def positive_probability(
        self, state: InferenceState, class_id: int
    ) -> float:
        """``P[user answers "+"]`` for the class under the uniform prior."""
        alive = self.alive_candidates(state)
        if not alive:
            raise ValueError("empty version space: inconsistent sample")
        mask = state.index[class_id].mask
        selecting = sum(1 for m in alive if m & ~mask == 0)
        return selecting / len(alive)

    def choose(self, state: InferenceState, rng: random.Random) -> int:
        informative = self._informative_or_raise(state)
        masks = self._candidate_masks(state)
        if masks is None:
            return self._fallback.choose(state, rng)
        alive = self.alive_candidates(state)
        total = len(alive)
        best_id = informative[0]
        best_gain = -1.0
        for class_id in informative:
            mask = state.index[class_id].mask
            selecting = sum(1 for m in alive if m & ~mask == 0)
            gain = _binary_entropy(selecting / total)
            if gain > best_gain:
                best_gain, best_id = gain, class_id
        return best_id
