"""The version-space information-gain strategy (§7 future work)."""

import random

import pytest

from repro.core import (
    Label,
    LookaheadSkylineStrategy,
    PerfectOracle,
    SignatureIndex,
    VersionSpaceStrategy,
    run_inference,
    strategy_by_name,
)
from repro.core.lattice import LatticeTooLargeError
from repro.core.state import InferenceState
from repro.relational import Instance, JoinPredicate, Relation

from ..conftest import make_random_instance


class TestVersionSpace:
    def test_initial_space_is_all_non_nullable_plus_omega(
        self, example21_index
    ):
        from repro.core import non_nullable_masks

        state = InferenceState(example21_index)
        strategy = VersionSpaceStrategy()
        alive = set(strategy.alive_candidates(state))
        expected = non_nullable_masks(example21_index) | {
            example21_index.omega_mask
        }
        assert alive == expected

    def test_positive_label_prunes_non_subsets(
        self, example21, example21_index
    ):
        e = example21
        state = InferenceState(example21_index)
        strategy = VersionSpaceStrategy()
        cid = example21_index.class_of_tuple((e.t2, e.u1)).class_id
        state.record(cid, Label.POSITIVE)
        mask = example21_index[cid].mask
        for candidate in strategy.alive_candidates(state):
            assert candidate & ~mask == 0

    def test_negative_label_prunes_subsets(
        self, example21, example21_index
    ):
        e = example21
        state = InferenceState(example21_index)
        strategy = VersionSpaceStrategy()
        cid = example21_index.class_of_tuple((e.t1, e.u3)).class_id
        state.record(cid, Label.NEGATIVE)
        mask = example21_index[cid].mask
        for candidate in strategy.alive_candidates(state):
            assert candidate & ~mask != 0  # not a subset


class TestProbabilityMatchesCertainty:
    """p = 1 iff certain-positive and p = 0 iff certain-negative — the
    version space reproves Lemmas 3.3/3.4 under a uniform prior."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_on_random_states(self, seed):
        rng = random.Random(seed)
        instance = make_random_instance(
            rng, left_arity=2, right_arity=2, rows=5, values=3
        )
        index = SignatureIndex(instance, backend="python")
        state = InferenceState(index)
        strategy = VersionSpaceStrategy()
        for _ in range(rng.randrange(0, 4)):
            informative = state.informative_class_ids()
            if not informative:
                break
            state.record(
                rng.choice(informative),
                rng.choice([Label.POSITIVE, Label.NEGATIVE]),
            )
        for cls in index:
            p = strategy.positive_probability(state, cls.class_id)
            assert (p == 1.0) == state.is_certain_positive(cls.class_id)
            assert (p == 0.0) == state.is_certain_negative(cls.class_id)


class TestInference:
    @pytest.mark.parametrize(
        "goal_pairs",
        [(), (("A2", "B3"),), (("A1", "B1"), ("A2", "B3"))],
    )
    def test_recovers_goals_on_example21(self, example21, goal_pairs):
        e = example21
        goal = e.theta(*goal_pairs)
        result = run_inference(
            e.instance,
            VersionSpaceStrategy(),
            PerfectOracle(e.instance, goal),
            seed=0,
        )
        assert result.matches_goal(e.instance, goal)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        instance = make_random_instance(
            rng, left_arity=2, right_arity=3, rows=6, values=3
        )
        goal = JoinPredicate(
            rng.sample(instance.omega, rng.randrange(0, 3))
        )
        result = run_inference(
            instance,
            VersionSpaceStrategy(),
            PerfectOracle(instance, goal),
            seed=seed,
        )
        assert result.matches_goal(instance, goal)

    def test_factory_name(self):
        assert isinstance(strategy_by_name("IG"), VersionSpaceStrategy)

    def test_competitive_with_lookahead_on_average(self, example21):
        """Not a strict claim — just that IG is in the same league as
        L1S on the running example across all size-1 goals."""
        e = example21
        from repro.core import SignatureIndex, predicates_of_size

        index = SignatureIndex(e.instance, backend="python")
        goals = predicates_of_size(index, 1)
        totals = {}
        for name in ("IG", "L1S"):
            totals[name] = sum(
                run_inference(
                    e.instance,
                    strategy_by_name(name),
                    PerfectOracle(e.instance, goal),
                    index=index,
                    seed=0,
                ).interactions
                for goal in goals
            )
        assert totals["IG"] <= totals["L1S"] * 1.5


class TestCapFallback:
    def test_falls_back_to_l1s_when_capped(self):
        left = Relation.build("R", [f"A{i}" for i in range(8)], [(0,) * 8])
        right = Relation.build(
            "P", [f"B{i}" for i in range(3)], [(0, 0, 0), (1, 1, 1)]
        )
        instance = Instance(left, right)
        strategy = VersionSpaceStrategy(max_candidates=10)
        goal = JoinPredicate([instance.omega[0]])
        result = run_inference(
            instance,
            strategy,
            PerfectOracle(instance, goal),
            seed=0,
        )
        assert result.matches_goal(instance, goal)
        # Capped, IG asks exactly what plain L1S asks.
        l1s = run_inference(
            instance,
            LookaheadSkylineStrategy(depth=1),
            PerfectOracle(instance, goal),
            seed=0,
        )
        assert result.history == l1s.history

    def test_alive_candidates_raises_when_capped(self):
        left = Relation.build("R", [f"A{i}" for i in range(8)], [(0,) * 8])
        right = Relation.build(
            "P", [f"B{i}" for i in range(3)], [(0, 0, 0)]
        )
        instance = Instance(left, right)
        index = SignatureIndex(instance, backend="python")
        strategy = VersionSpaceStrategy(max_candidates=10)
        with pytest.raises(LatticeTooLargeError):
            strategy.alive_candidates(InferenceState(index))
