"""Offline selection: the paper's two hot paths through ``run_experiment``.

Config ``cd`` runs the credit-distribution maximizer and CELF over the
exact sigma_cd oracle (``celf(model=cd)``); config ``mc`` runs CELF
over the Monte-Carlo IC oracle and RIS.  Both use the k-grid
[5, 10, 25] and 50 simulations, on the NumPy backend and the serial
executor.
"""

from __future__ import annotations

import gc

from common import clock
from repro.obs import trace as obs_trace

KS = [5, 10, 25]
SIMULATIONS = 50

CONFIGS = {
    "cd": ["cd", {"name": "celf", "params": {"model": "cd"}, "label": "celf_cd"}],
    "mc": [{"name": "celf", "params": {"model": "ic"}, "label": "celf_ic"}, "ris"],
}


def make_config(name: str, seed: int, dataset_seed: int):
    from repro.api import ExperimentConfig

    return ExperimentConfig(
        dataset="flixster",
        scale="small",
        dataset_seed=dataset_seed,
        selectors=CONFIGS[name],
        ks=KS,
        num_simulations=SIMULATIONS,
        backend="numpy",
        executor="serial",
        seed=seed,
    )


def warm_up() -> None:
    """Run both configs once on the ``mini`` preset, untimed.

    The first run in a process pays one-time costs (lazy imports,
    first use of each NumPy kernel) that a user running many configs
    pays once; the timed iterations should not include them.
    """
    from repro.api import ExperimentConfig, run_experiment

    for selectors in CONFIGS.values():
        run_experiment(ExperimentConfig(
            dataset="flixster", scale="mini", selectors=selectors, ks=[2],
            num_simulations=20, backend="numpy", executor="serial",
        ))


def _answers(result) -> list:
    """The part of a result that must repeat byte for byte."""
    return [
        (run.label, repr(list(run.selection.seeds)), repr(run.curve))
        for run in result.runs
    ]


class OfflineStage:
    """Runs the two configs; keeps their wall times and answers."""

    def __init__(self, dataset, seed: int, dataset_seed: int) -> None:
        self.dataset = dataset
        self.configs = {
            name: make_config(name, seed, dataset_seed) for name in CONFIGS
        }
        self.walls: dict[str, list[float]] = {name: [] for name in CONFIGS}
        self.answers: dict[str, list] = {name: [] for name in CONFIGS}
        self.results: dict[str, object] = {}

    def run(self, name: str) -> None:
        """One timed ``run_experiment`` of config ``name``."""
        from repro.api import run_experiment

        gc.collect()
        started = clock()
        with obs_trace.span(f"bench.offline.{name}"):
            result = run_experiment(self.configs[name], dataset=self.dataset)
        self.walls[name].append(clock() - started)
        self.answers[name].append(_answers(result))
        self.results[name] = result

    def check(self, outcome) -> None:
        """Answers repeat, match an independent sigma_cd, and cd == celf(cd)."""
        from repro.api import SelectionContext
        from repro.data.split import train_test_split

        for name, answers in self.answers.items():
            outcome.count(sum(len(answer) for answer in answers))
            outcome.check(
                all(answer == answers[0] for answer in answers),
                f"offline {name}: seeds or curves differ across iterations",
            )
        config = self.configs["cd"]
        train, _ = train_test_split(self.dataset.log, every=config.split_every)
        evaluator = SelectionContext(
            self.dataset.graph, train, seed=config.seed, backend="numpy"
        ).cd_evaluator()
        for name, result in self.results.items():
            for run in result.runs:
                for k, value in run.curve:
                    expected = evaluator.spread(run.selection.seeds[:k])
                    outcome.check(
                        value == expected,
                        f"offline {name}/{run.label}: sigma_cd({k}) = {value!r}, "
                        f"independent recomputation {expected!r}",
                    )
        cd_runs = {run.label: run for run in self.results["cd"].runs}
        outcome.check(
            cd_runs["cd"].selection.seeds == cd_runs["celf_cd"].selection.seeds
            and cd_runs["cd"].curve == cd_runs["celf_cd"].curve,
            "offline cd: cd and celf(model=cd) disagree on seeds or curve",
        )

    def oracle_calls(self) -> dict[str, int]:
        calls = {}
        for result in self.results.values():
            for run in result.runs:
                if run.label.startswith("celf_"):
                    calls[run.label] = int(run.selection.oracle_calls)
        return calls

    def stage_seconds(self) -> dict[str, float]:
        """Pipeline stage wall time of the last iteration, both configs."""
        totals: dict[str, float] = {}
        for result in self.results.values():
            for key, value in result.timings.items():
                stage = key[:-2] if key.endswith("_s") else key
                totals[stage] = totals.get(stage, 0.0) + value
        return totals
