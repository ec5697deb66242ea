"""Tests for repro.core.spread (exact sigma_cd evaluation)."""

import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.credit import TimeDecayCredit
from repro.core.params import learn_influenceability
from repro.core.spread import CDSpreadEvaluator, sigma_cd
from repro.data.actionlog import ActionLog
from repro.graphs.digraph import SocialGraph
from repro.runtime import EXECUTOR_ENV_VAR, Executor
from repro.store.serialize import dump_payload

from tests.helpers import naive_sigma_cd, random_instance


def full_walk_kappa(evaluator, seeds):
    """The reference ``kappa``: every event of every compiled action."""
    seed_set = set(seeds)
    totals = {}
    for compiled_action in evaluator._compiled:
        gamma_s = {}
        for user, incoming in compiled_action:
            if user in seed_set:
                credit = 1.0
            else:
                credit = 0.0
                for influencer, gamma in incoming:
                    source = gamma_s.get(influencer, 0.0)
                    if source > 0.0 and gamma > 0.0:
                        credit += source * gamma
            gamma_s[user] = credit
            if credit > 0.0:
                totals[user] = totals.get(user, 0.0) + credit
    return {
        user: total / evaluator._activity[user] for user, total in totals.items()
    }


def assert_matches_full_walk(evaluator, seeds):
    expected = full_walk_kappa(evaluator, seeds)
    kappa = evaluator.kappa(seeds)
    assert kappa == expected
    assert pickle.dumps(kappa) == pickle.dumps(expected)
    spread = evaluator.spread(seeds)
    assert type(spread) is float
    assert pickle.dumps(spread) == pickle.dumps(sum(expected.values(), 0.0))


@st.composite
def small_logs(draw, max_nodes=9, max_actions=6):
    """A random social graph and a log in which not every node is active."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    graph = SocialGraph()
    for node in range(num_nodes):
        graph.add_node(node)
    for source in range(num_nodes):
        for target in range(num_nodes):
            if source != target and rng.random() < 0.4:
                graph.add_edge(source, target)
    log = ActionLog()
    for index in range(draw(st.integers(min_value=1, max_value=max_actions))):
        participants = rng.sample(range(num_nodes), rng.randint(1, num_nodes - 1))
        time = 0.0
        for user in participants:
            time += rng.choice([0.0, 0.5, 1.0, 2.0])  # ties included
            log.add(user, f"a{index}", time)
    return graph, log


def _kappa_in_worker(item):
    evaluator, seeds = item
    shipped_index = "_occurrences" in vars(evaluator)
    return shipped_index, pickle.dumps(
        (evaluator.kappa(seeds), evaluator.spread(seeds))
    )


class TestPaperExample:
    def test_single_seed_v(self, toy):
        # kappa: v=1, w=1, t=0.5, z=0.5, u=0.75 (s unreachable) = 3.75.
        assert sigma_cd(toy.graph, toy.log, ["v"]) == pytest.approx(3.75)

    def test_seed_set_v_z(self, toy):
        # Section 4 computes Gamma_{{v,z},u} = 0.875;
        # total = v(1) + z(1) + w(1) + t(0.5) + u(0.875) = 4.375.
        assert sigma_cd(toy.graph, toy.log, ["v", "z"]) == pytest.approx(4.375)

    def test_kappa_values(self, toy):
        evaluator = CDSpreadEvaluator(toy.graph, toy.log)
        kappa = evaluator.kappa(["v", "z"])
        assert kappa["u"] == pytest.approx(0.875)
        assert kappa["t"] == pytest.approx(0.5)
        assert kappa["v"] == 1.0
        assert kappa["z"] == 1.0
        assert "s" not in kappa  # no credit flows from the seed set to s

    def test_empty_seed_set(self, toy):
        assert sigma_cd(toy.graph, toy.log, []) == 0.0

    def test_all_seeds(self, toy):
        # Every log user as seed: spread = number of active users.
        everyone = ["v", "s", "w", "t", "z", "u"]
        assert sigma_cd(toy.graph, toy.log, everyone) == pytest.approx(6.0)


class TestEvaluator:
    def test_candidates_are_log_users(self, toy):
        evaluator = CDSpreadEvaluator(toy.graph, toy.log)
        assert set(evaluator.candidates()) == {"v", "s", "w", "t", "z", "u"}

    def test_activity(self, toy):
        evaluator = CDSpreadEvaluator(toy.graph, toy.log)
        assert evaluator.activity("v") == 1
        assert evaluator.activity("stranger") == 0

    def test_seed_outside_log_contributes_zero(self, toy):
        baseline = sigma_cd(toy.graph, toy.log, ["v"])
        with_stranger = sigma_cd(toy.graph, toy.log, ["v", "stranger"])
        assert with_stranger == pytest.approx(baseline)

    def test_action_subset(self, flixster_mini):
        actions = list(flixster_mini.log.actions())[:5]
        evaluator = CDSpreadEvaluator(
            flixster_mini.graph, flixster_mini.log, actions=actions
        )
        seeds = evaluator.candidates()[:3]
        assert evaluator.spread(seeds) >= 0.0

    def test_time_decay_credit_supported(self, flixster_mini):
        params = learn_influenceability(flixster_mini.graph, flixster_mini.log)
        evaluator = CDSpreadEvaluator(
            flixster_mini.graph, flixster_mini.log, credit=TimeDecayCredit(params)
        )
        seeds = evaluator.candidates()[:5]
        uniform = CDSpreadEvaluator(flixster_mini.graph, flixster_mini.log)
        # Time-decayed credits are <= uniform credits pointwise.
        assert evaluator.spread(seeds) <= uniform.spread(seeds) + 1e-9


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_recursion(self, seed):
        graph, log = random_instance(seed, num_nodes=7, num_actions=4)
        seeds = [0, 3]
        expected = naive_sigma_cd(graph, log, seeds)
        assert sigma_cd(graph, log, seeds) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5, 9))
    def test_monotone_on_random_instances(self, seed):
        graph, log = random_instance(seed)
        evaluator = CDSpreadEvaluator(graph, log)
        small = evaluator.spread([0])
        larger = evaluator.spread([0, 1])
        assert larger >= small - 1e-12


class TestOccurrenceIndex:
    """``kappa`` walks only seed-touched actions, byte-identical to a full walk."""

    @given(
        data=small_logs(),
        seed_lists=st.lists(
            st.lists(st.integers(min_value=0, max_value=11), max_size=8),
            max_size=4,
        ),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_full_walk(self, data, seed_lists):
        graph, log = data
        evaluator = CDSpreadEvaluator(graph, log)
        # Ids 9-11 never act; random lists repeat ids.
        for seeds in [[], [11, 10], evaluator.candidates(), *seed_lists]:
            assert_matches_full_walk(evaluator, seeds)

    def test_matches_full_walk_on_flixster(self, flixster_mini):
        evaluator = CDSpreadEvaluator(flixster_mini.graph, flixster_mini.log)
        candidates = evaluator.candidates()
        rng = random.Random(3)
        for size in (1, 3, 10, 40):
            assert_matches_full_walk(evaluator, rng.sample(candidates, size))
        assert_matches_full_walk(evaluator, candidates)

    def test_payload_bytes_unchanged_by_a_query(self, flixster_mini):
        evaluator = CDSpreadEvaluator(flixster_mini.graph, flixster_mini.log)
        before = dump_payload(evaluator)
        evaluator.kappa(evaluator.candidates()[:3])
        assert "_occurrences" in vars(evaluator)
        assert dump_payload(evaluator) == before

    def test_extend_after_a_query_builds_its_own_index(self, flixster_mini):
        graph, log = flixster_mini.graph, flixster_mini.log
        actions = list(log.actions())
        half = len(actions) // 2
        base = CDSpreadEvaluator(graph, log, actions=actions[:half])
        late = [
            user for user in CDSpreadEvaluator(
                graph, log, actions=actions[half:]
            ).candidates()
            if base.activity(user) == 0
        ]
        seeds = base.candidates()[:5] + late[:5]
        assert late
        base_kappa = pickle.dumps(base.kappa(seeds))
        extended = base.extend(graph, log, actions=actions[half:])
        fresh = CDSpreadEvaluator(graph, log)
        assert pickle.dumps(extended.kappa(seeds)) == pickle.dumps(
            fresh.kappa(seeds)
        )
        assert pickle.dumps(base.kappa(seeds)) == base_kappa

    def test_concurrent_first_queries_see_a_complete_index(self, flixster_mini):
        built = CDSpreadEvaluator(flixster_mini.graph, flixster_mini.log)
        seeds = built.candidates()[-4:]  # late in the build order
        expected = pickle.dumps(full_walk_kappa(built, seeds))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                evaluator = pickle.loads(pickle.dumps(built))  # no index yet
                barrier = threading.Barrier(8)
                results = []

                def query():
                    barrier.wait(timeout=30)
                    results.append(pickle.dumps(evaluator.kappa(seeds)))

                threads = [threading.Thread(target=query) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * 8
        finally:
            sys.setswitchinterval(interval)

    def test_identical_under_the_process_executor(
        self, flixster_mini, monkeypatch
    ):
        evaluator = CDSpreadEvaluator(flixster_mini.graph, flixster_mini.log)
        candidates = evaluator.candidates()
        seed_sets = [candidates[:1], candidates[5:8], candidates[::7], ["x"]]
        evaluator.kappa(seed_sets[0])  # the index exists before pickling
        serial = [
            pickle.dumps((evaluator.kappa(s), evaluator.spread(s)))
            for s in seed_sets
        ]
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
        with Executor(None, max_workers=2) as executor:
            assert executor.kind == "process"
            shipped = executor.map(
                _kappa_in_worker, [(evaluator, s) for s in seed_sets]
            )
        assert [payload for _, payload in shipped] == serial
        assert not any(index for index, _ in shipped)
