"""Skeleton-level tree search.

Each node of the tree holds a task skeleton, proposed to be grounded in front
of its parent's sequence of grounded joint actions, and, once that grounding
returns a partial plan, the longer sequence it grounded. The root holds no
skeleton and the empty sequence. A node also holds the statistics of the move
from its parent into it. Iterations descend from the root by upper confidence
bound to a node not yet grounded, ground its skeleton, and either return a
finished plan, expand the tree with new skeletons for the grounding
conflicts, or prune the node on failure; every outcome is then valued,
traced and backpropagated along one path. A grounded node is exhausted once
every child of it is, so a grounding that adds no child (a plan, a failure,
or conflicts with no skeleton) exhausts its node at once; the search gives
up when the root is.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import random
import time

from . import mip
from .facts import compute_facts
from .grounding import Failure, Full, Partial, ground
from .mip import BudgetExceeded, TaskSkeleton, TimeBudgetExceeded, enumerate_skeletons
from .plans import Plan, moved_objects
from .record import Record
from .scene import Scene
from .taskgraph import build_cmtg
from .validator import validate_plan


class SearchError(RuntimeError):
    """A planner fault: an internal check failed during the search, or while
    building a dump of its facts, task graph or model."""


@contextlib.contextmanager
def internal_checks():
    """Raise a ``ValueError`` from inside as a ``SearchError``: on a scene and
    config that passed their checks, a failed check is a planner fault."""
    try:
        yield
    except ValueError as e:
        raise SearchError(f"internal check failed: {e}") from e


class PlannerConfig(Record):
    __slots__ = ("c", "alpha", "t_max", "k_max", "max_iterations", "time_budget", "seed",
                 "node_budget", "exhaust")

    def __init__(self, c: float = 1.0, alpha: float = 1.0, t_max: int = 4, k_max: int = 10,
                 max_iterations: int = 200, time_budget: float = 60.0, seed: int = 0,
                 node_budget: int = mip.DEFAULT_NODE_BUDGET, exhaust: bool = False):
        if not all(isinstance(n, int) for n in (t_max, k_max, max_iterations, node_budget)):
            raise ValueError("t_max, k_max, max_iterations and node_budget must be integers")
        # written as "not (in range)" so that NaN is out of range too; an
        # infinite c or alpha makes the UCB NaN, but time_budget=inf is no deadline
        if not (0 <= c < math.inf and 0 <= alpha < math.inf):
            raise ValueError("c and alpha must be finite and nonnegative")
        if not (t_max >= 1 and k_max >= 1 and node_budget >= 1):
            raise ValueError("t_max, k_max and node_budget must be >= 1")
        if not (max_iterations >= 0 and time_budget >= 0):
            raise ValueError("max_iterations and time_budget must be nonnegative")
        self.c = c
        self.alpha = alpha
        self.t_max = t_max
        self.k_max = k_max
        self.max_iterations = max_iterations
        self.time_budget = time_budget
        self.seed = seed
        self.node_budget = node_budget
        self.exhaust = exhaust


class SearchNode:
    __slots__ = ("id", "skeleton", "steps", "children", "value", "visits", "exhausted")

    def __init__(self, id: int | None, skeleton: TaskSkeleton | None, steps: tuple | None):
        self.id = id                # None at the root
        self.skeleton = skeleton    # None at the root
        self.steps = steps          # grounded joint actions so far; None until grounded
        self.children = []
        self.value = 0.0            # value and visits of the move from the parent
        self.visits = 0
        self.exhausted = False      # grounded, and all its children are


class NoPlan(Record):
    __slots__ = ("reason", "iterations", "tree_size")

    def __init__(self, reason: str, iterations: int, tree_size: int):
        self.reason = reason            # no_initial_skeletons | all_branches_pruned
        self.iterations = iterations    # | budget_exhausted | solver_budget | time_budget
        self.tree_size = tree_size

    def to_doc(self) -> dict:
        return {"no_plan": self.reason, "iterations": self.iterations,
                "tree_size": self.tree_size}


def ucb(parent_visits: int, node: SearchNode, c: float) -> float:
    prior = 1 / len(node.skeleton.moved_objects)
    return (node.value / (node.visits + 1)
            + c * prior * math.sqrt(parent_visits) / (node.visits + 1))


def backpropagate(path, r: float) -> None:
    """path is the list of nodes from the root to the one just grounded.

    On the way up, a node is exhausted once every child of it is. The node
    just grounded meets that at once when its grounding added no child: a
    plan, a failure, or a partial plan whose conflicts have no skeleton.
    """
    for node in reversed(path):
        node.visits += 1
        node.value += r
        if all(child.exhausted for child in node.children):
            node.exhausted = True


def reward(outcome, new_skeletons, alpha: float) -> float:
    if isinstance(outcome, Failure):
        return 0.0
    if isinstance(outcome, Full):
        return 1.0 + alpha / len(moved_objects(outcome.steps))
    # partial
    if not new_skeletons:
        return 0.0
    best = new_skeletons[0]  # enumeration yields the cheapest first
    grounded_len = len(outcome.steps)
    grounded_objs = len(moved_objects(outcome.steps))
    return (grounded_len / (grounded_len + best.makespan)
            + alpha / (grounded_objs + len(best.moved_objects)))


def plan(scene: Scene, cfg: PlannerConfig = PlannerConfig(), trace=None):
    """Search for a plan that moves ``scene.unmet_goals()``: a Plan or a NoPlan report.

    ``cfg.time_budget`` counts from entry and is checked between iterations
    and before each skeleton solve; a single solve or grounding is not
    interrupted.

    Every stop but a plan is ``give_up``'s: ``BudgetExceeded`` or
    ``TimeBudgetExceeded`` from below is ``solver_budget`` or ``time_budget``.
    A ``ValueError`` after the goal check is a planner fault: ``SearchError``.
    """
    deadline = time.monotonic() + cfg.time_budget
    if not scene.goal:
        raise ValueError("scene has an empty goal specification")
    if trace is None:
        trace = []
    targets = scene.unmet_goals()
    if not targets:
        return Plan(steps=())

    facts = compute_facts(scene)
    node_ids = itertools.count()
    tree_size = 1                   # the root, plus a node per partial grounding
    best_plan: Plan | None = None
    iterations = 0

    def give_up(reason: str):
        """The best plan so far (exhaustive runs only), else a NoPlan report."""
        if best_plan is not None:
            return best_plan
        return NoPlan(reason, iterations, tree_size)

    def expand(node: SearchNode, conflicts) -> None:
        """Add a child to ``node`` for each skeleton that moves ``conflicts``,
        which its steps leave unmoved. A budget that enumeration runs out of
        raises through to ``plan``'s one handler."""
        graph = build_cmtg(conflicts, facts, scene, excluded=moved_objects(node.steps))
        skeletons = enumerate_skeletons(graph, cfg.t_max, cfg.k_max,
                                        cfg.node_budget, deadline=deadline)
        node.children += [SearchNode(next(node_ids), sk, None) for sk in skeletons]

    root = SearchNode(None, None, ())
    with internal_checks():
        try:
            expand(root, targets)
            if not root.children:
                return give_up("no_initial_skeletons")
            for iteration in range(1, cfg.max_iterations + 1):
                if time.monotonic() > deadline:
                    return give_up("time_budget")
                if root.exhausted:
                    return give_up("all_branches_pruned")
                iterations = iteration

                # selection: descend by max UCB over non-exhausted children
                # until a node not yet grounded
                path = [root]
                while (parent := path[-1]).steps is not None:
                    path.append(max((n for n in parent.children if not n.exhausted),
                                    key=lambda n: (ucb(parent.visits, n, cfg.c), -n.id)))
                node = path[-1]

                # evaluation
                rng = random.Random(f"{cfg.seed}:{node.id}")
                outcome = ground(node.skeleton, path[-2].steps, scene, rng)
                if isinstance(outcome, Full):
                    candidate = Plan(steps=outcome.steps)
                    report = validate_plan(scene, candidate)
                    if not report.ok:
                        raise SearchError(
                            "grounded plan failed validation: "
                            + "; ".join(v.message for v in report.violations))
                children = ""
                if isinstance(outcome, Partial):
                    # expand with skeletons for the conflict set
                    node.steps = outcome.steps
                    tree_size += 1
                    expand(node, outcome.conflicts)
                    children = f" children={len(node.children)}"
                r = reward(outcome, [n.skeleton for n in node.children], cfg.alpha)
                # the trace names a node "edge", for the move into it
                trace.append(f"iter={iteration} edge={node.id} "
                             f"outcome={type(outcome).__name__.lower()} reward={r:.6f}{children}")
                backpropagate(path, r)

                if isinstance(outcome, Full):
                    if not cfg.exhaust:
                        return candidate
                    if best_plan is None or ((candidate.motion_cost, candidate.makespan)
                                             < (best_plan.motion_cost, best_plan.makespan)):
                        best_plan = candidate
        except BudgetExceeded:
            return give_up("solver_budget")
        except TimeBudgetExceeded:
            return give_up("time_budget")
    return give_up("budget_exhausted")
