"""The benchmark's workloads: which scenes are planned, with which budgets.

A workload turns ``--seed`` into a fixed list of attempts, each a scene
document (JSON text) plus the planner seed to plan it with. The planner
sees only these documents. Every attempt is bounded by deterministic
budgets (``node_budget``, ``max_iterations``); ``time_budget`` is set far
above any attempt's run time so that it never decides an outcome, and the
benchmark flags any attempt that runs past it.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import clutter

# ``time_budget`` for every attempt, in seconds. The search only checks it
# between iterations, and enumeration ignores it, so it is a flag here, not
# a bound: an attempt that runs past it makes the run incorrect.
TIME_BUDGET_S = 60.0

SUITE_EXTRA = Path("scenarios/extra/conflict_partial.json")


@dataclass(frozen=True)
class Attempt:
    label: str          # scenario name or generated-scene index
    scene_text: str
    planner_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, Path], list[Attempt]]
    planner: dict = field(default_factory=dict)   # PlannerConfig overrides
    # spans that must be nonzero on this workload (checked by the tests)
    stress: tuple = ()
    # listed in BENCHMARK.json: its gated metrics are steady across seeds
    listed: bool = True

    def attempts(self, seed: int, root: Path) -> list[Attempt]:
        return self.build(random.Random(f"{self.name}:{seed}"), root)

    def config_kwargs(self, planner_seed: int) -> dict:
        return {"time_budget": TIME_BUDGET_S, **self.planner, "seed": planner_seed}


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _suite(rng, root):
    # The 8 shipped scenarios plus the grounding-conflict fixture, x 30
    # planner seeds: ~4 ms per plan, so a pass takes 1-2 s. With an
    # odd number of scenarios the median falls inside one scenario's times,
    # not in the gap between two of them.
    paths = sorted((root / "scenarios").glob("*.json")) + [root / SUITE_EXTRA]
    seeds = [_seed(rng) for _ in range(30)]
    return [Attempt(p.stem, p.read_text(), s) for s in seeds for p in paths]


def _grasp_sym(rng, root):
    # grasp_count 4: the goal's 16 grasp-pair handovers are all blocked, so
    # the MIP enumerates grasp duplicates of one two-step plan (~1 s each).
    # Three scenes keep a pass near 3 s.
    return [Attempt(f"g{i}", _json(clutter.blocked_handover(rng, grasp_count=4)),
                    _seed(rng))
            for i in range(3)]


def _dense_g1(rng, root):
    # Random 20-30-disc strips: about 45% end no_initial_skeletons and 50%
    # all_branches_pruned, after MIPs proved infeasible. A pass of 80 scenes
    # takes 4-10 s.
    return [Attempt(f"d{i}", _json(clutter.generate(rng, (20, 30), (1, 2), 1)),
                    _seed(rng))
            for i in range(80)]


# a 0.3 m square inside pick_chain's goal zone, still reached only by R2
SMALL_GOAL = (1.5, 0.5, 1.8, 0.8)


def _crowded_goals(rng, root):
    # Every disc (or all but one) goes to the small goal square: later
    # placements and sweeps crowd out earlier ones, so grounding restarts
    # and rejections take ~70% of the time and most scenes end
    # all_branches_pruned. Three planner seeds per scene vary the sampling.
    scenes = [_json(clutter.generate(rng, (3, 4), (3, 4), 1, SMALL_GOAL))
              for _ in range(80)]
    seeds = [_seed(rng) for _ in range(3)]
    return [Attempt(f"c{i}", text, s) for s in seeds for i, text in enumerate(scenes)]


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


WORKLOADS = (
    Workload(
        "suite",
        "the shipped scenarios over many planner seeds: real use with known "
        "answers; facts, MIP and grounding all take a share",
        _suite,
        stress=("facts", "taskgraph", "mip.compile", "mip.solve", "grounding",
                "validator"),
    ),
    Workload(
        "grasp_sym",
        "5-disc blocked-handover scenes at grasp_count 4: MIP solve on "
        "grasp-duplicate skeletons is nearly all the time",
        _grasp_sym,
        stress=("mip.solve", "mip.enumerate"),
    ),
    Workload(
        "dense_g1",
        "20-30-disc clutter at grasp_count 1 with 1-2 goals: root and child "
        "MIPs proved infeasible give the heavy tail",
        _dense_g1,
        # t_max 3: at the default 4, one 60-scene pass took up to 100 s
        planner={"t_max": 3, "max_iterations": 20, "node_budget": 20000},
        stress=("facts", "mip.solve", "grounding.placement"),
        listed=False,
    ),
    Workload(
        "crowded_goals",
        "3-4 discs, 3-4 of them goals into one small region: grounding restarts "
        "and placement rejections do most of the work",
        _crowded_goals,
        stress=("grounding", "grounding.placement", "grounding.trajectory"),
        listed=False,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
