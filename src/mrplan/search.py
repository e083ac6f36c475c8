"""Skeleton-level tree search.

The tree's nodes store sequences of grounded joint actions; each edge stores
a task skeleton proposed to be grounded in front of its tail node's sequence.
A node holds its edges, and an edge holds its head node once its grounding
returns a partial plan. Iterations select an unevaluated edge by upper
confidence bound, ground its skeleton, and either return a finished plan,
expand the tree with new skeletons for the grounding conflicts, or prune the
edge on failure. An edge is exhausted when its grounding ends in a plan or a
failure, or when every child of its head is exhausted; the search gives up
when every child of the root is.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import random
import time

from . import mip
from .facts import FactSet, compute_facts
from .grounding import Failure, Full, ground
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
    __slots__ = ("stored_steps", "visits", "children")

    def __init__(self, stored_steps: tuple = ()):
        self.stored_steps = stored_steps  # grounded joint actions accumulated so far
        self.visits = 0
        self.children = []                # SearchEdges


class SearchEdge:
    __slots__ = ("id", "skeleton", "prior", "head", "value", "visits", "exhausted")

    def __init__(self, id: int, skeleton: TaskSkeleton, prior: float):
        self.id = id
        self.skeleton = skeleton
        self.prior = prior
        self.head = None        # a SearchNode, set when grounding returns a Partial
        self.value = 0.0
        self.visits = 0
        self.exhausted = False  # a plan or a failure, or all its head's children are


class NoPlan(Record):
    __slots__ = ("reason", "iterations", "tree_size")

    def __init__(self, reason: str, iterations: int, tree_size: int):
        self.reason = reason            # no_initial_skeletons | all_branches_pruned
        self.iterations = iterations    # | budget_exhausted | solver_budget | time_budget
        self.tree_size = tree_size

    def to_doc(self) -> dict:
        return {"no_plan": self.reason, "iterations": self.iterations,
                "tree_size": self.tree_size}


def ucb(node: SearchNode, edge: SearchEdge, c: float) -> float:
    return (edge.value / (edge.visits + 1)
            + c * edge.prior * math.sqrt(node.visits) / (edge.visits + 1))


def backpropagate(path, r: float) -> None:
    """path is a root-to-edge alternation: [(node, edge), ...].

    On the way up, an edge is exhausted once every child of its head is,
    which a head with no children meets at once.
    """
    for node, edge in reversed(path):
        node.visits += 1
        edge.visits += 1
        edge.value += r
        if edge.head is not None and all(e.exhausted for e in edge.head.children):
            edge.exhausted = True


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


def plan(scene: Scene, cfg: PlannerConfig = PlannerConfig(), trace=None,
         facts: FactSet | None = None):
    """Search for a valid plan. Returns a Plan or a NoPlan report.

    ``cfg.time_budget`` counts from entry and is checked between iterations
    and before each skeleton solve; a single solve or grounding is not
    interrupted. ``facts``, when given, must be ``compute_facts(scene)``.
    Facts are computed as the task graphs read them, so those a caller has
    already read, for a dump, are not computed again.

    Every stop but a plan is ``give_up``'s: ``BudgetExceeded`` or
    ``TimeBudgetExceeded`` from below is ``solver_budget`` or ``time_budget``.
    A ``ValueError`` after the goal check is a planner fault: ``SearchError``.
    """
    deadline = time.monotonic() + cfg.time_budget
    if not scene.goal:
        raise ValueError("scene has an empty goal specification")
    if trace is None:
        trace = []

    if scene.goal_satisfied():
        return Plan(steps=())

    if facts is None:
        facts = compute_facts(scene)
    edge_ids = itertools.count()
    tree_size = 1                   # the root, plus a head per partial grounding
    best_plan: Plan | None = None
    iterations = 0

    def give_up(reason: str):
        """The best plan so far (exhaustive runs only), else a NoPlan report."""
        if best_plan is not None:
            return best_plan
        return NoPlan(reason, iterations, tree_size)

    def expand(node: SearchNode, conflicts) -> None:
        """Add an edge from ``node`` for each skeleton that moves
        ``conflicts``, which its stored steps leave unmoved. A budget that
        enumeration runs out of raises through to ``plan``'s one handler."""
        graph = build_cmtg(conflicts, facts, scene,
                           excluded=moved_objects(node.stored_steps))
        skeletons = enumerate_skeletons(graph, cfg.t_max, cfg.k_max,
                                        cfg.node_budget, deadline=deadline)
        node.children += [SearchEdge(next(edge_ids), sk, prior=1.0 / len(sk.moved_objects))
                          for sk in skeletons]

    root = SearchNode()
    with internal_checks():
        try:
            expand(root, scene.goal_objects())
            if not root.children:
                return give_up("no_initial_skeletons")
            for iteration in range(1, cfg.max_iterations + 1):
                if time.monotonic() > deadline:
                    return give_up("time_budget")
                if all(e.exhausted for e in root.children):
                    return give_up("all_branches_pruned")
                iterations = iteration

                # selection: descend by max UCB over non-exhausted edges; of those,
                # the ones with a head are exactly the evaluated ones
                node = root
                path = []
                while True:
                    edge = max((e for e in node.children if not e.exhausted),
                               key=lambda e: (ucb(node, e, cfg.c), -e.id))
                    path.append((node, edge))
                    if edge.head is None:
                        break
                    node = edge.head

                # evaluation
                rng = random.Random(f"{cfg.seed}:{edge.id}")
                outcome = ground(edge.skeleton, node.stored_steps, scene, rng)

                if isinstance(outcome, Full):
                    candidate = Plan(steps=outcome.steps)
                    report = validate_plan(scene, candidate)
                    if not report.ok:
                        raise SearchError(
                            "grounded plan failed validation: "
                            + "; ".join(v.message for v in report.violations))
                    r = reward(outcome, None, cfg.alpha)
                    trace.append(f"iter={iteration} edge={edge.id} outcome=full reward={r:.6f}")
                    edge.exhausted = True           # a plan ends here
                    backpropagate(path, r)
                    if not cfg.exhaust:
                        return candidate
                    if best_plan is None or ((candidate.motion_cost, candidate.makespan)
                                             < (best_plan.motion_cost, best_plan.makespan)):
                        best_plan = candidate
                    continue

                if isinstance(outcome, Failure):
                    edge.exhausted = True
                    trace.append(f"iter={iteration} edge={edge.id} "
                                 "outcome=failure reward=0.000000")
                    backpropagate(path, 0.0)
                    continue

                # partial: expand with skeletons for the conflict set
                head = edge.head = SearchNode(outcome.steps)
                tree_size += 1
                expand(head, outcome.conflicts)
                r = reward(outcome, [e.skeleton for e in head.children], cfg.alpha)
                trace.append(f"iter={iteration} edge={edge.id} outcome=partial reward={r:.6f} "
                             f"children={len(head.children)}")
                backpropagate(path, r)
                head.visits += 1
        except BudgetExceeded:
            return give_up("solver_budget")
        except TimeBudgetExceeded:
            return give_up("time_budget")
    return give_up("budget_exhausted")
