"""Skeleton-level tree search.

The tree's nodes store sequences of grounded joint actions; each edge stores
a task skeleton proposed to be grounded in front of its tail node's sequence.
Iterations select an unevaluated edge by upper confidence bound, ground its
skeleton, and either return a finished plan, expand the tree with new
skeletons for the grounding conflicts, or prune the edge on failure.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from . import mip
from .facts import FactSet, compute_facts
from .grounding import Failure, Full, Partial, ground
from .mip import BudgetExceeded, TaskSkeleton, TimeBudgetExceeded, enumerate_skeletons
from .plans import Plan, moved_objects
from .scene import Scene
from .taskgraph import build_cmtg
from .validator import validate_plan


class SearchError(RuntimeError):
    """Internal consistency failure (e.g. an emitted plan fails validation)."""


@dataclass
class PlannerConfig:
    c: float = 1.0
    alpha: float = 1.0
    t_max: int = 4
    k_max: int = 10
    max_iterations: int = 200
    time_budget: float = 60.0
    seed: int = 0
    node_budget: int = mip.DEFAULT_NODE_BUDGET
    exhaust: bool = False

    def __post_init__(self):
        # written as "not (in range)" so that NaN is out of range too; an
        # infinite c or alpha makes the UCB NaN, but time_budget=inf is no deadline
        if not (0 <= self.c < math.inf and 0 <= self.alpha < math.inf):
            raise ValueError("c and alpha must be finite and nonnegative")
        if not (self.t_max >= 1 and self.k_max >= 1 and self.node_budget >= 1):
            raise ValueError("t_max, k_max and node_budget must be >= 1")
        if not (self.max_iterations >= 0 and self.time_budget >= 0):
            raise ValueError("max_iterations and time_budget must be nonnegative")


@dataclass
class SearchNode:
    id: int
    stored_steps: tuple = ()     # grounded joint actions accumulated so far
    visits: int = 0
    children: list = field(default_factory=list)  # edge ids
    open_edges: int = 0          # children not yet exhausted


@dataclass
class SearchEdge:
    id: int
    skeleton: TaskSkeleton
    prior: float
    head: int | None = None
    value: float = 0.0
    visits: int = 0
    evaluated: bool = False
    exhausted: bool = False      # grounding failed, or its head has no open edge


@dataclass(frozen=True)
class NoPlan:
    reason: str                  # no_initial_skeletons | all_branches_pruned
    iterations: int              # | budget_exhausted | solver_budget | time_budget
    tree_size: int

    def to_doc(self) -> dict:
        return {"no_plan": self.reason, "iterations": self.iterations,
                "tree_size": self.tree_size}


def ucb(node: SearchNode, edge: SearchEdge, c: float) -> float:
    return (edge.value / (edge.visits + 1)
            + c * edge.prior * math.sqrt(node.visits) / (edge.visits + 1))


def backpropagate(path, r: float) -> None:
    """path is a root-to-edge alternation: [(node, edge), ...].

    When the last edge is exhausted, each node on the way up loses an open
    edge, and a node left with none exhausts the edge above it.
    """
    exhausted = path[-1][1].exhausted
    for node, edge in reversed(path):
        node.visits += 1
        edge.visits += 1
        edge.value += r
        if exhausted:
            edge.exhausted = True
            node.open_edges -= 1
            exhausted = node.open_edges == 0


def reward(outcome, new_skeletons, alpha: float) -> float:
    if isinstance(outcome, Failure):
        return 0.0
    if isinstance(outcome, Full):
        return 1.0 + alpha / len(moved_objects(outcome.steps))
    # partial
    if not new_skeletons:
        return 0.0
    best = min(new_skeletons, key=lambda sk: (sk.makespan, len(sk.moved_objects)))
    grounded_len = len(outcome.steps)
    grounded_objs = len(moved_objects(outcome.steps))
    return (grounded_len / (grounded_len + best.makespan)
            + alpha / (grounded_objs + len(best.moved_objects)))


class _Tree:
    def __init__(self):
        self.nodes: dict[int, SearchNode] = {}
        self.edges: dict[int, SearchEdge] = {}

    def new_node(self, stored_steps=()) -> SearchNode:
        node = SearchNode(id=len(self.nodes), stored_steps=tuple(stored_steps))
        self.nodes[node.id] = node
        return node

    def new_edge(self, tail: SearchNode, skeleton: TaskSkeleton) -> SearchEdge:
        prior = 1.0 / len(skeleton.moved_objects)
        edge = SearchEdge(id=len(self.edges), skeleton=skeleton, prior=prior)
        self.edges[edge.id] = edge
        tail.children.append(edge.id)
        tail.open_edges += 1
        return edge


def plan(scene: Scene, cfg: PlannerConfig = PlannerConfig(), trace=None,
         facts: FactSet | None = None):
    """Search for a valid plan. Returns a Plan or a NoPlan report.

    ``cfg.time_budget`` counts from entry and is checked between iterations
    and before each skeleton solve; a single solve or grounding is not
    interrupted. ``facts``, when given, must be ``compute_facts(scene)``.
    Facts are computed as the task graphs read them, so those a caller has
    already read, for a dump, are not computed again.
    """
    deadline = time.monotonic() + cfg.time_budget
    if not scene.goal:
        raise ValueError("scene has an empty goal specification")
    if trace is None:
        trace = []

    def emit(line: str):
        trace.append(line)

    if scene.goal_satisfied():
        return Plan(steps=())

    if facts is None:
        facts = compute_facts(scene)
    tree = _Tree()
    best_plan: Plan | None = None
    iterations = 0

    def give_up(reason: str):
        """The best plan so far (exhaustive runs only), else a NoPlan report."""
        if best_plan is not None:
            return best_plan
        return NoPlan(reason, iterations, len(tree.nodes))

    def expand(node: SearchNode, conflicts) -> str | None:
        """Add an edge from ``node`` for each skeleton that moves
        ``conflicts``, which its stored steps leave unmoved. Returns the stop
        reason when enumeration runs out of a budget."""
        graph = build_cmtg(conflicts, facts, scene,
                           excluded=moved_objects(node.stored_steps))
        try:
            skeletons = enumerate_skeletons(graph, cfg.t_max, cfg.k_max,
                                            cfg.node_budget, deadline=deadline)
        except BudgetExceeded:
            return "solver_budget"
        except TimeBudgetExceeded:
            return "time_budget"
        for sk in skeletons:
            tree.new_edge(node, sk)
        return None

    root = tree.new_node()
    stop = expand(root, scene.goal_objects())
    if stop:
        return give_up(stop)
    if not root.children:
        return NoPlan("no_initial_skeletons", 0, 1)

    for iteration in range(1, cfg.max_iterations + 1):
        if time.monotonic() > deadline:
            return give_up("time_budget")
        if not root.open_edges:
            return give_up("all_branches_pruned")
        iterations = iteration

        # selection: descend by max UCB over non-exhausted edges
        node = root
        path = []
        edge = None
        while True:
            candidates = [tree.edges[e] for e in node.children
                          if not tree.edges[e].exhausted]
            edge = max(candidates, key=lambda e: (ucb(node, e, cfg.c), -e.id))
            path.append((node, edge))
            if not edge.evaluated:
                break
            node = tree.nodes[edge.head]

        # evaluation
        rng = random.Random(f"{cfg.seed}:{edge.id}")
        outcome = ground(edge.skeleton, node.stored_steps, scene, rng)
        edge.evaluated = True

        if isinstance(outcome, Full):
            candidate = Plan(steps=outcome.steps)
            report = validate_plan(scene, candidate)
            if not report.ok:
                raise SearchError(
                    "grounded plan failed validation: "
                    + "; ".join(v.message for v in report.violations))
            r = reward(outcome, None, cfg.alpha)
            emit(f"iter={iteration} edge={edge.id} outcome=full reward={r:.6f}")
            head = tree.new_node(outcome.steps)
            edge.exhausted = True           # a plan ends here
            edge.head = head.id
            backpropagate(path, r)
            head.visits += 1
            if not cfg.exhaust:
                return candidate
            if best_plan is None or ((candidate.motion_cost, candidate.makespan)
                                     < (best_plan.motion_cost, best_plan.makespan)):
                best_plan = candidate
            continue

        if isinstance(outcome, Failure):
            edge.exhausted = True
            emit(f"iter={iteration} edge={edge.id} outcome=failure reward=0.000000")
            backpropagate(path, 0.0)
            continue

        # partial: expand with skeletons for the conflict set
        head = tree.new_node(outcome.steps)
        edge.head = head.id
        stop = expand(head, outcome.conflicts)
        if stop:
            return give_up(stop)
        if not head.children:
            edge.exhausted = True
        r = reward(outcome, [tree.edges[e].skeleton for e in head.children], cfg.alpha)
        emit(f"iter={iteration} edge={edge.id} outcome=partial reward={r:.6f} "
             f"children={len(head.children)}")
        backpropagate(path, r)
        head.visits += 1

    return give_up("budget_exhausted")
