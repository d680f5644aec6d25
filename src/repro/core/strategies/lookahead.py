"""Lookahead skyline strategies (L1S / L2S / LkS — Algorithms 4 and 6).

These strategies quantify how much of the lattice each candidate label
would prune.  For every informative class they compute ``entropy^k`` and
pick the class whose entropy is the skyline element with the largest
``min`` component — i.e. the best guaranteed pruning under the user's
worst answer, with the best optimistic pruning as tie-breaker.

The strategy is **stateful**: it owns an
:class:`~repro.core.planner.IncrementalLookaheadPlanner` that keeps the
lookahead matrices alive across steps and folds each observed label in
incrementally (the informative set only shrinks), instead of rebuilding
them from scratch on every ``propose``.  The planner covers *every*
depth — depth ≤ 2 fully incrementally, deeper lookaheads reusing the
maintained first-level matrices for their outermost branch — so no
depth silently bypasses cross-step state.  Proposals are bit-for-bit
identical to the from-scratch kernels of :mod:`repro.core.fast_lookahead`
and to the recursive pure-Python reference in :mod:`repro.core.entropy`
(property-tested against both); the planner itself degrades to the
from-scratch path on degenerate instances (see
:mod:`repro.core.planner`), and rebuilds whenever it is asked about a
state it did not witness.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from ..entropy import Entropy, best_skyline_entropy
from ..planner import IncrementalLookaheadPlanner
from ..state import InferenceState, StateDelta
from .base import Strategy

__all__ = ["LookaheadSkylineStrategy", "one_step_lookahead", "two_step_lookahead"]


class LookaheadSkylineStrategy(Strategy):
    """k-step lookahead skyline strategy (LkS)."""

    def __init__(self, depth: int = 1):
        if depth < 1:
            raise ValueError("lookahead depth must be >= 1")
        self.depth = depth
        self.name = f"L{depth}S"
        self._planner: IncrementalLookaheadPlanner | None = None
        #: Optional cross-session batching hook: given the in-sync
        #: planner, return its entropy table (produced by a shared
        #: :class:`~repro.core.kernel_batch.KernelBatchScheduler`) or
        #: ``None`` to decline — the per-session path then runs.  The
        #: server installs this; forks inherit it so speculative
        #: branches ride the same batches.
        self.entropy_router: (
            Callable[
                [IncrementalLookaheadPlanner], dict[int, Entropy] | None
            ]
            | None
        ) = None
        self._primed: (
            tuple[InferenceState, int, dict[int, Entropy]] | None
        ) = None
        #: The skyline entropy of the last proposal — the per-session
        #: event feed reports it as the session's entropy trajectory.
        self._last_entropy: Entropy | None = None

    # --- lifecycle -----------------------------------------------------------

    def observe(self, delta: StateDelta, state: InferenceState) -> None:
        """Fold one recorded label into the planner's caches."""
        planner = self._planner
        if planner is None:
            return
        if not planner.tracks(state) or not planner.advance(delta, state):
            # The state moved in a way the planner did not witness (a
            # resync, a different session, a replayed snapshot) — drop
            # the caches; the next propose rebuilds them.
            self._planner = None

    def fork(
        self, state: InferenceState, twin_state: InferenceState
    ) -> "LookaheadSkylineStrategy":
        twin = type(self)(depth=self.depth)
        planner = self._planner
        if planner is not None and planner.in_sync(state):
            twin._planner = planner.copy(twin_state)
        twin.entropy_router = self.entropy_router
        twin._last_entropy = self._last_entropy
        return twin

    def progress(self) -> dict[str, object] | None:
        """Planner mode plus the last chosen skyline entropy (the
        structured progress delta streamed per session).  Infinite
        entropy components serialise as ``None``."""
        planner = self._planner
        entropy = self._last_entropy
        return {
            "depth": self.depth,
            "mode": planner.mode if planner is not None else None,
            "entropy": (
                [v if math.isfinite(v) else None for v in entropy]
                if entropy is not None
                else None
            ),
        }

    def planner_for(
        self, state: InferenceState
    ) -> IncrementalLookaheadPlanner:
        """The in-sync planner for ``state``, (re)built when stale —
        public so a batching layer can export its matrices."""
        planner = self._planner
        if planner is None or not planner.in_sync(state):
            planner = IncrementalLookaheadPlanner(state, self.depth)
            self._planner = planner
        return planner

    # --- proposal ------------------------------------------------------------

    def prime_entropies(
        self, state: InferenceState, entropies: dict[int, Entropy]
    ) -> None:
        """Install a one-shot entropy table for the next ``propose`` on
        exactly this state at its current interaction count — how the
        server hands a batch-produced result to the ordinary proposal
        path.  Consumed (or invalidated) by the next ``_entropies``."""
        self._primed = (state, state.interaction_count, entropies)

    def _entropies(self, state: InferenceState) -> dict[int, Entropy]:
        primed = self._primed
        if primed is not None:
            self._primed = None
            primed_state, primed_count, table = primed
            if (
                primed_state is state
                and primed_count == state.interaction_count
            ):
                return table
        planner = self.planner_for(state)
        router = self.entropy_router
        if router is not None:
            table = router(planner)
            if table is not None:
                return table
        return planner.entropies()

    def propose(self, state: InferenceState, rng: random.Random) -> int:
        informative = self._informative_or_raise(state)
        entropies: dict[int, Entropy] = self._entropies(state)
        best = best_skyline_entropy(entropies.values())
        self._last_entropy = best
        # Deterministic tie-break: first class (canonical order) achieving
        # the chosen entropy.
        for class_id in informative:
            if entropies[class_id] == best:
                return class_id
        raise AssertionError("best entropy must belong to some class")


def one_step_lookahead() -> LookaheadSkylineStrategy:
    """The paper's L1S (Algorithm 4)."""
    return LookaheadSkylineStrategy(depth=1)


def two_step_lookahead() -> LookaheadSkylineStrategy:
    """The paper's L2S (Algorithm 6)."""
    return LookaheadSkylineStrategy(depth=2)
