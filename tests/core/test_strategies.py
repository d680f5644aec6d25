"""Strategy-specific behaviour (Algorithms 2, 3, 4, 6 + OPT)."""

import random

import pytest

from repro.core import (
    Label,
    PerfectOracle,
    run_inference,
)
from repro.core.entropy import entropy_k_of_class
from repro.core.state import InferenceState
from repro.core.strategies import (
    BottomUpStrategy,
    LookaheadSkylineStrategy,
    NoInformativeTupleError,
    OptimalStrategy,
    RandomStrategy,
    TopDownStrategy,
    default_strategies,
    one_step_lookahead,
    strategy_by_name,
    two_step_lookahead,
)
from repro.relational import JoinPredicate


@pytest.fixture()
def fresh_state(example21_index):
    return InferenceState(example21_index)


class ReferenceLookahead(LookaheadSkylineStrategy):
    """Lookahead through the recursive pure-Python reference."""

    def _entropies(self, state):
        return {
            class_id: entropy_k_of_class(state, class_id, self.depth)
            for class_id in state.informative_class_ids()
        }


class TestBottomUp:
    def test_first_pick_is_empty_signature(self, example21, fresh_state):
        """§4.3: BU asks (t3,u1) — the tuple with T = ∅ — first."""
        e = example21
        cid = BottomUpStrategy().choose(fresh_state, random.Random(0))
        assert fresh_state.index[cid].representative == (e.t3, e.u1)

    def test_second_pick_after_negative_is_singleton(
        self, example21, fresh_state
    ):
        """§4.3: after a negative answer BU moves to {(A1,B3)} = (t2,u1)."""
        e = example21
        first = BottomUpStrategy().choose(fresh_state, random.Random(0))
        fresh_state.record(first, Label.NEGATIVE)
        second = BottomUpStrategy().choose(fresh_state, random.Random(0))
        assert fresh_state.index[second].representative == (e.t2, e.u1)

    def test_positive_on_empty_ends_inference(self, example21, fresh_state):
        """§4.3: a positive on the ∅ node prunes the whole lattice."""
        first = BottomUpStrategy().choose(fresh_state, random.Random(0))
        fresh_state.record(first, Label.POSITIVE)
        assert not fresh_state.has_informative()

    def test_raises_when_nothing_informative(self, example21, fresh_state):
        first = BottomUpStrategy().choose(fresh_state, random.Random(0))
        fresh_state.record(first, Label.POSITIVE)
        with pytest.raises(NoInformativeTupleError):
            BottomUpStrategy().choose(fresh_state, random.Random(0))


class TestTopDown:
    def test_first_pick_is_maximal(self, fresh_state):
        cid = TopDownStrategy().choose(fresh_state, random.Random(0))
        assert cid in fresh_state.index.maximal_class_ids

    def test_switches_to_bottom_up_after_positive(
        self, example21, fresh_state
    ):
        e = example21
        strategy = TopDownStrategy()
        first = strategy.choose(fresh_state, random.Random(0))
        fresh_state.record(first, Label.POSITIVE)
        if fresh_state.has_informative():
            second = strategy.choose(fresh_state, random.Random(0))
            informative = fresh_state.informative_class_ids()
            min_size = min(
                fresh_state.index[cid].size for cid in informative
            )
            assert fresh_state.index[second].size == min_size

    def test_all_negatives_visit_only_maximal_classes(
        self, example21, fresh_state
    ):
        strategy = TopDownStrategy()
        asked = []
        while fresh_state.has_informative():
            cid = strategy.choose(fresh_state, random.Random(0))
            asked.append(cid)
            fresh_state.record(cid, Label.NEGATIVE)
        assert set(asked) <= set(fresh_state.index.maximal_class_ids)
        assert len(asked) == len(fresh_state.index.maximal_class_ids)


class TestLookahead:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            LookaheadSkylineStrategy(depth=0)

    def test_names(self):
        assert one_step_lookahead().name == "L1S"
        assert two_step_lookahead().name == "L2S"
        assert LookaheadSkylineStrategy(depth=3).name == "L3S"

    def test_vectorised_and_reference_choose_identically(
        self, example21, fresh_state
    ):
        """The two code paths must pick the same class at every depth."""
        for depth in (1, 2):
            fast = LookaheadSkylineStrategy(depth=depth)
            slow = ReferenceLookahead(depth=depth)
            assert fast.choose(fresh_state, random.Random(0)) == (
                slow.choose(fresh_state, random.Random(0))
            )

    def test_l1s_first_pick_on_example21(self, example21, fresh_state):
        """§4.4 reports the L1S tie set {(t1,u3), (t2,u1)}; with the
        corrected Figure 5 arithmetic the unique winner is (t2,u1)."""
        e = example21
        cid = one_step_lookahead().choose(fresh_state, random.Random(0))
        assert fresh_state.index[cid].representative == (e.t2, e.u1)

    def test_l2s_terminates_in_three_more_after_walkthrough(
        self, example21, example21_index
    ):
        """Following §4.4: from S = {((t1,u3),+), ((t3,u1),−)} labeling
        (t2,u1) positive ends the inference immediately."""
        e = example21
        state = InferenceState(example21_index)
        state.record(
            example21_index.class_of_tuple((e.t1, e.u3)).class_id,
            Label.POSITIVE,
        )
        state.record(
            example21_index.class_of_tuple((e.t3, e.u1)).class_id,
            Label.NEGATIVE,
        )
        cid = two_step_lookahead().choose(state, random.Random(0))
        # entropy2 of (t2,u1) is (3,3); all other informative tuples have
        # strictly worse guaranteed gain, so L2S picks it.
        assert example21_index[cid].representative == (e.t2, e.u1)


class TestRandom:
    def test_seed_determinism(self, fresh_state):
        first = RandomStrategy().choose(fresh_state, random.Random(4))
        second = RandomStrategy().choose(fresh_state, random.Random(4))
        assert first == second

    def test_only_informative_choices(self, example21, fresh_state):
        strategy = RandomStrategy()
        rng = random.Random(0)
        while fresh_state.has_informative():
            cid = strategy.choose(fresh_state, rng)
            assert cid in fresh_state.informative_class_ids()
            fresh_state.record(cid, Label.NEGATIVE)


class TestOptimal:
    def test_worst_case_at_most_every_practical_strategy(self, example21):
        """The minimax value is a lower bound on every strategy's
        worst-case interaction count over all goals."""
        e = example21
        optimal = OptimalStrategy()
        from repro.core import SignatureIndex

        index = SignatureIndex(e.instance, backend="python")
        opt_value = optimal.worst_case_interactions(index)
        from repro.core import non_nullable_predicates

        goals = non_nullable_predicates(index) + [
            JoinPredicate(e.instance.omega)
        ]
        for strategy in default_strategies():
            worst = max(
                run_inference(
                    e.instance,
                    strategy,
                    PerfectOracle(e.instance, goal),
                    index=index,
                    seed=0,
                ).interactions
                for goal in goals
            )
            assert worst >= opt_value, strategy.name

    def test_optimal_achieves_its_value(self, example21):
        """Running OPT against every goal never exceeds the minimax value."""
        e = example21
        from repro.core import SignatureIndex, non_nullable_predicates

        index = SignatureIndex(e.instance, backend="python")
        optimal = OptimalStrategy()
        opt_value = optimal.worst_case_interactions(index)
        goals = non_nullable_predicates(index) + [
            JoinPredicate(e.instance.omega)
        ]
        worst = max(
            run_inference(
                e.instance,
                optimal,
                PerfectOracle(e.instance, goal),
                index=index,
                seed=0,
            ).interactions
            for goal in goals
        )
        assert worst == opt_value

    def test_class_limit(self, example21):
        optimal = OptimalStrategy(max_classes=2)
        from repro.core import SignatureIndex

        index = SignatureIndex(example21.instance, backend="python")
        with pytest.raises(ValueError):
            optimal.worst_case_interactions(index)


class TestStrategyFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("RND", RandomStrategy),
            ("BU", BottomUpStrategy),
            ("TD", TopDownStrategy),
            ("OPT", OptimalStrategy),
            ("L1S", LookaheadSkylineStrategy),
            ("L2S", LookaheadSkylineStrategy),
            ("l2s", LookaheadSkylineStrategy),
        ],
    )
    def test_by_name(self, name, cls):
        assert isinstance(strategy_by_name(name), cls)

    def test_lookahead_depth_parsed(self):
        assert strategy_by_name("L3S").depth == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            strategy_by_name("SUPER")
        with pytest.raises(ValueError):
            strategy_by_name("LxS")

    def test_default_strategies_roster(self):
        names = [s.name for s in default_strategies()]
        assert names == ["RND", "BU", "TD", "L1S", "L2S"]
