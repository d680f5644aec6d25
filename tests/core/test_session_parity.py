"""Incremental-vs-from-scratch parity over full interactive sessions.

The planner refactor must be invisible end-to-end: for every strategy,
the sequence of proposed questions (and therefore the inferred
predicate) of a session driven through the observe/propose lifecycle
must be identical to the from-scratch per-step computation — across
answer polarities (adversarial all-negative and random oracles), and
across the packed-word boundary (Ω ∈ {63, 64, 65}).
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    InferenceSession,
    Label,
    LookaheadSkylineStrategy,
    SignatureIndex,
)
from repro.core.entropy import entropy_k_of_class
from repro.core.fast_lookahead import entropies_for_informative
from repro.core.oracle import Oracle
from repro.core.strategies import (
    BottomUpStrategy,
    RandomStrategy,
    TopDownStrategy,
)

from ..conftest import make_random_instance


class ScratchLookahead(LookaheadSkylineStrategy):
    """Every step from scratch through the vectorised kernels, with no
    cross-step planner."""

    def _entropies(self, state):
        return entropies_for_informative(state, self.depth)


class ReferenceLookahead(LookaheadSkylineStrategy):
    """Every step through the recursive pure-Python reference."""

    def _entropies(self, state):
        return {
            class_id: entropy_k_of_class(state, class_id, self.depth)
            for class_id in state.informative_class_ids()
        }


class AdversarialOracle(Oracle):
    """Always answers negative — the longest consistent session."""

    def label(self, tuple_pair):
        return Label.NEGATIVE


class CoinOracle(Oracle):
    """Seeded random answers, independent of the tuple asked."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def label(self, tuple_pair):
        return self._rng.choice([Label.POSITIVE, Label.NEGATIVE])


def _question_sequence(instance, index, strategy, oracle, seed):
    session = InferenceSession(
        instance, strategy, oracle, index=index, seed=seed
    )
    asked = []
    while not session.is_finished():
        question = session.propose()
        asked.append(question.class_id)
        label = oracle.label(question.tuple_pair)
        session.answer(question.question_id, label)
    return asked, session.state.result_mask()


def _small_instance(seed, left_arity=None, right_arity=None):
    rng = random.Random(seed)
    return make_random_instance(
        rng,
        left_arity=left_arity or rng.randrange(1, 4),
        right_arity=right_arity or rng.randrange(1, 4),
        rows=rng.randrange(3, 9),
        values=rng.randrange(2, 5),
    )


ORACLES = {
    "adversarial": lambda seed: AdversarialOracle(),
    "random": CoinOracle,
}


class TestLookaheadSequenceParity:
    @pytest.mark.parametrize("oracle_kind", sorted(ORACLES))
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_incremental_equals_scratch(self, depth, oracle_kind, seed):
        instance = _small_instance(seed)
        index = SignatureIndex(instance, backend="python")
        make_oracle = ORACLES[oracle_kind]
        incremental = _question_sequence(
            instance,
            index,
            LookaheadSkylineStrategy(depth=depth),
            make_oracle(seed),
            seed,
        )
        scratch = _question_sequence(
            instance,
            index,
            ScratchLookahead(depth=depth),
            make_oracle(seed),
            seed,
        )
        assert incremental == scratch
        if depth <= 2 and len(index) <= 12:
            reference = _question_sequence(
                instance,
                index,
                ReferenceLookahead(depth=depth),
                make_oracle(seed),
                seed,
            )
            assert incremental == reference

    @pytest.mark.parametrize("left,right", [(7, 9), (8, 8), (5, 13)])
    @pytest.mark.parametrize("oracle_kind", sorted(ORACLES))
    def test_word_boundary_omegas(self, left, right, oracle_kind):
        """Ω ∈ {63, 64, 65}: parity must hold across the packed-word
        boundary for both lookahead depths."""
        instance = _small_instance(
            left * right, left_arity=left, right_arity=right
        )
        assert len(instance.omega) in (63, 64, 65)
        index = SignatureIndex(instance, backend="python")
        make_oracle = ORACLES[oracle_kind]
        for depth in (1, 2):
            incremental = _question_sequence(
                instance,
                index,
                LookaheadSkylineStrategy(depth=depth),
                make_oracle(depth),
                depth,
            )
            scratch = _question_sequence(
                instance,
                index,
                ScratchLookahead(depth=depth),
                make_oracle(depth),
                depth,
            )
            assert incremental == scratch


class TestStatelessStrategiesUnchanged:
    """The lifecycle refactor must not perturb the stateless strategies:
    driving them through observe/propose yields the same sequence as
    consulting ``choose`` on a bare state."""

    @pytest.mark.parametrize(
        "make_strategy",
        [RandomStrategy, BottomUpStrategy, TopDownStrategy],
        ids=lambda s: s.__name__,
    )
    @pytest.mark.parametrize("oracle_kind", sorted(ORACLES))
    @pytest.mark.parametrize("seed", [1, 13])
    def test_session_equals_bare_state(
        self, make_strategy, oracle_kind, seed
    ):
        from repro.core.state import InferenceState

        instance = _small_instance(seed)
        index = SignatureIndex(instance, backend="python")
        make_oracle = ORACLES[oracle_kind]
        via_session, _ = _question_sequence(
            instance, index, make_strategy(), make_oracle(seed), seed
        )

        state = InferenceState(index)
        strategy = make_strategy()
        rng = random.Random(seed)
        oracle = make_oracle(seed)
        bare = []
        while state.has_informative():
            class_id = strategy.choose(state, rng)
            bare.append(class_id)
            label = oracle.label(index[class_id].representative)
            state.record(class_id, label)
        assert via_session == bare


class TestDepth3PlannerRouting:
    """Regression for the depth > 2 bypass: LkS(depth=3) must run
    through the planner lifecycle (cross-step state), not silently fall
    back to stateless recomputation."""

    def test_depth3_keeps_planner_in_sync(self):
        instance = _small_instance(3)
        index = SignatureIndex(instance, backend="python")
        strategy = LookaheadSkylineStrategy(depth=3)
        oracle = AdversarialOracle()
        session = InferenceSession(
            instance, strategy, oracle, index=index, seed=0
        )
        steps = 0
        while not session.is_finished():
            question = session.propose()
            assert strategy._planner is not None
            assert strategy._planner.in_sync(session.state)
            assert strategy._planner.depth == 3
            session.answer(question.question_id, Label.NEGATIVE)
            # the observe lifecycle advanced the planner — same object,
            # still synced, no rebuild
            if not session.is_finished():
                assert strategy._planner is not None
                assert strategy._planner.in_sync(session.state)
            steps += 1
        assert steps > 1
