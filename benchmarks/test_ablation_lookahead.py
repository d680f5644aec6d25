"""Ablation: lookahead depth k = 1, 2, 3 (LkS).

§4.4 stops at k = 2 "as a good trade-off between keeping a relatively low
computation time and minimizing the number of interactions"; this
ablation measures that trade-off: interactions should (weakly) improve
with k while time grows sharply (k = 3 has no vectorised path).
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    LookaheadSkylineStrategy,
    PerfectOracle,
    SignatureIndex,
    run_inference,
    sample_goal_of_size,
)
from repro.core.entropy import entropy_k_of_class
from repro.data import SyntheticConfig, generate_synthetic

#: Small configuration so the exponential k = 3 stays feasible.
CONFIG = SyntheticConfig(2, 3, 20, 20)


class ReferenceLookahead(LookaheadSkylineStrategy):
    """Lookahead through the recursive pure-Python reference."""

    def _entropies(self, state):
        return {
            class_id: entropy_k_of_class(state, class_id, self.depth)
            for class_id in state.informative_class_ids()
        }


def _draw(goal_size: int):
    rng = random.Random(9)
    while True:
        instance = generate_synthetic(CONFIG, seed=rng.randrange(2**31))
        index = SignatureIndex(instance)
        goal = sample_goal_of_size(index, goal_size, rng)
        if goal is not None:
            return instance, index, goal


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_lookahead_depth(benchmark, depth):
    instance, index, goal = _draw(goal_size=2)
    strategy = LookaheadSkylineStrategy(depth=depth)
    benchmark.group = "ablation-lookahead-depth"

    def run():
        return run_inference(
            instance,
            strategy,
            PerfectOracle(instance, goal),
            index=index,
            seed=0,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.matches_goal(instance, goal)
    benchmark.extra_info["interactions"] = result.interactions
    benchmark.extra_info["classes"] = len(index)


@pytest.mark.parametrize("vectorised", [True, False])
def test_l2s_vectorised_vs_reference(benchmark, vectorised):
    """The NumPy path vs the straightforward implementation — same
    questions, very different cost (this gap explains why our absolute
    L2S times undercut the paper's 56–74 s; the reference lands in the
    paper's regime on comparable instances)."""
    instance, index, goal = _draw(goal_size=2)
    lookahead = LookaheadSkylineStrategy if vectorised else ReferenceLookahead
    strategy = lookahead(depth=2)
    benchmark.group = "ablation-lookahead-vectorisation"

    def run():
        return run_inference(
            instance,
            strategy,
            PerfectOracle(instance, goal),
            index=index,
            seed=0,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.matches_goal(instance, goal)
    benchmark.extra_info["interactions"] = result.interactions
