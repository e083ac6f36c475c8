"""0-1 integer program over a manipulation task graph.

For a horizon T, binary variables X[t, a] are declared for every action
edge a of the graph. X[t, a] = 1 means action a runs at some step >= t, so
the execution step of a selected action is sum_t X[t, a]. Variables are
numbered by t, then canonical action: X[t, a_i] is variable
``model.var(t, i) = (t - 1) * n + i`` for n actions. The objective counts
the selected actions, sum_a X[1, a]. A block edge (a, M) is indicated by
its action's column X[t, a], so family (2), block indicators mirror their
action, holds by substitution. The other families enforce: (1) monotone
step indicators, (3) non-target objects move only when they block a
selected action, (4)-(7) per-robot capacity and per-step progress, (8) all
targets move, (9) blockers of selected actions move, (10) each object moves
at most once, (11) pick-blockers move strictly earlier, (12) place-blockers
move no later (big-M linearization, M = T + 1).

A model stores its horizon, the task graph, its exclusion cuts and the
search ``solve`` runs on it. The rows, the solver and skeleton extraction
read the graph as ``taskgraph.make_graph`` built it, by position; there is
no index. The base rows are built on the first read of
``MipModel.constraints`` and the cut rows on each read, and the variable
names and objective on each read of ``var_names`` and ``objective``:
``--dump-mip`` and the row-fidelity tests read them. ``solve`` never does:
a ``mrplan.closure.Search`` solves the task graph they encode and returns
the step of each action their lexicographically least optimal assignment
selects, which determines it: X[t, a] = 1 exactly when a is selected and
its step is >= t. The model keeps that search, so a solve after its
answer is cut goes on from where the last one stopped. All arithmetic is
integral.
"""
from __future__ import annotations

import time
from collections import Counter

# BudgetExceeded is raised by the solver and is part of this module's interface
from .closure import BudgetExceeded, Search
from .record import Record
from .taskgraph import CMTG

DEFAULT_NODE_BUDGET = 10 ** 6


class TimeBudgetExceeded(Exception):
    """The planner's deadline passed before a skeleton solve started."""


class LinearConstraint(Record):
    __slots__ = ("coeffs", "sense", "rhs", "label")

    def __init__(self, coeffs: tuple, sense: str, rhs: int, label: str):
        self.coeffs = coeffs  # ((var_index, coefficient), ...)
        self.sense = sense    # '<=', '>=' or '=='
        self.rhs = rhs
        self.label = label


class MipModel:
    __slots__ = ("T", "graph", "cuts", "_rows", "_search")

    def __init__(self, T: int, graph: CMTG):
        self.T = T
        self.graph = graph
        self.cuts = []          # excluded action sets (frozensets)
        self._rows = None       # the base rows, once read
        self._search = None     # the running Search of the last solve

    def var(self, t: int, i: int) -> int:
        """Index of X[t, action i]."""
        return (t - 1) * len(self.graph.action_nodes) + i

    @property
    def num_vars(self) -> int:
        return self.T * len(self.graph.action_nodes)

    @property
    def var_names(self) -> list[str]:
        """Name per variable index; built on each read."""
        return [f"Xa_t{t}_{a.obj}_a{i}" for t in range(1, self.T + 1)
                for i, a in enumerate(self.graph.action_nodes)]

    @property
    def objective(self) -> dict:
        """var index -> coefficient (minimize); built on each read."""
        return {self.var(1, i): 1 for i in range(len(self.graph.action_nodes))}

    @property
    def constraints(self) -> list[LinearConstraint]:
        """Rows (1)-(12), built on first read, then one ``excl_<n>`` row per
        exclusion cut in the order the cuts were added, built on each read."""
        if self._rows is None:
            self._rows = _model_rows(self)
        base = len(self._rows)
        return self._rows + [_cut_row(self, cut, f"excl_{base + j}")
                             for j, cut in enumerate(self.cuts)]

    def dumps_lp(self) -> str:
        """Model in LP text format (minimize / subject to / binary)."""
        names = self.var_names

        def term(c, v):
            sign = "+" if c >= 0 else "-"
            return f"{sign} {abs(c)} {names[v]}"
        lines = ["Minimize"]
        obj = " ".join(term(c, v) for v, c in sorted(self.objective.items()))
        lines.append(f" obj: {obj or '0'}")
        lines.append("Subject To")
        sense_txt = {"<=": "<=", ">=": ">=", "==": "="}
        for i, con in enumerate(self.constraints):
            lhs = " ".join(term(c, v) for v, c in con.coeffs) or "0"
            name = con.label or f"c{i}"
            lines.append(f" {name}: {lhs} {sense_txt[con.sense]} {con.rhs}")
        if names:
            lines += ["Binary", " " + " ".join(names)]
        lines.append("End")
        return "\n".join(lines) + "\n"


class TaskSkeleton(Record):
    """Per step, each robot that acts -> its action; a handover maps both of
    its robots to it, and a robot that waits is absent. ``moved_objects``,
    the objects the steps move, is derived from them in ``__init__``."""
    __slots__ = ("steps", "_moved_objects")

    def __init__(self, steps: tuple):
        self.steps = steps  # tuple of dict robot -> action
        self._moved_objects = frozenset(a.obj for step in steps for a in step.values())

    @property
    def moved_objects(self) -> frozenset:
        return self._moved_objects

    @property
    def makespan(self) -> int:
        return len(self.steps)


def compile_model(graph: CMTG, T: int) -> MipModel:
    """The model at horizon T; its rows are built on first read of
    ``constraints``."""
    if T < 1:
        raise ValueError("horizon must be >= 1")
    return MipModel(T=T, graph=graph)


def _model_rows(model: MipModel) -> list[LinearConstraint]:
    """Constraint families (1) and (3)-(12) of ``model``, in dump order."""
    g, T, var = model.graph, model.T, model.var
    n = len(g.action_nodes)
    rows: list[LinearConstraint] = []

    def add(coeffs: dict, sense: str, rhs: int, label: str):
        rows.append(LinearConstraint(tuple(sorted(coeffs.items())), sense, rhs, label))

    # block edges (action, object, kind) in the graph's order; a block
    # edge's indicator is its action's column
    block_edges = ([(i, o, "pick") for i in range(n) for o in g.pick[i]]
                   + [(i, o, "place") for i in range(n) for o in g.place[i]])
    blocked_by = [[] for _ in g.object_nodes]   # the actions each object blocks
    for i, o, _ in block_edges:
        blocked_by[o].append(i)
    edges_of_robot = [[i for i in range(n) if r in g.robots_of[i]]
                      for r in range(len(g.robots))]

    big_m = T + 1

    # (1) monotone step indicators
    for i in range(n):
        for t in range(1, T):
            add({var(t, i): 1, var(t + 1, i): -1}, ">=", 0,
                f"mono_t{t}_e{i}")
    # (3) non-targets move only to unblock a selected action
    for o, m in enumerate(g.object_nodes):
        if m in g.targets:
            continue
        for t in range(1, T + 1):
            rhs_terms = Counter()
            rhs_terms.subtract(var(t, b) for b in blocked_by[o])
            for i in g.acts[o]:
                coeffs = rhs_terms.copy()
                coeffs[var(t, i)] += 1
                add(coeffs, "<=", 0, f"gate_t{t}_{m}_e{i}")
    # (4) per-robot capacity at the last step
    for r, edges in zip(g.robots, edges_of_robot):
        add({var(T, i): 1 for i in edges}, "<=", 1, f"cap_T_{r}")
    # (5) progress at the last step
    add({var(T, i): 1 for i in range(n)}, ">=", 1, "prog_T")
    # (6) per-robot capacity at every step
    for r, edges in zip(g.robots, edges_of_robot):
        for t in range(1, T):
            coeffs = {var(t, i): 1 for i in edges}
            for i in edges:
                coeffs[var(t + 1, i)] = coeffs.get(var(t + 1, i), 0) - 1
            add(coeffs, "<=", 1, f"cap_t{t}_{r}")
    # (7) progress at every step
    for t in range(1, T):
        coeffs = {var(t, i): 1 for i in range(n)}
        for i in range(n):
            coeffs[var(t + 1, i)] = coeffs.get(var(t + 1, i), 0) - 1
        add(coeffs, ">=", 1, f"prog_t{t}")
    # (8) every target is moved
    for o, m in enumerate(g.object_nodes):
        if m in g.targets:
            add({var(1, i): 1 for i in g.acts[o]}, "==", 1, f"target_{m}")
    # (9) blockers of selected actions are moved
    for j, (a, o, kind) in enumerate(block_edges):
        coeffs = Counter(var(1, i) for i in g.acts[o])
        coeffs[var(1, a)] -= 1
        add(coeffs, ">=", 0, f"unblock_b{j}")
    # (10) each object moved at most once
    for o, m in enumerate(g.object_nodes):
        if g.acts[o]:
            add({var(1, i): 1 for i in g.acts[o]}, "<=", 1, f"once_{m}")
    # (11)/(12) precedence, big-M linearized:
    #   X[1,a]=1  =>  sum_t X[t,a] >= sum over M's action edges of sum_t X[t] (+1)
    for j, (a, o, kind) in enumerate(block_edges):
        coeffs = Counter()
        for t in range(1, T + 1):
            coeffs[var(t, a)] += 1
            coeffs.subtract(var(t, i) for i in g.acts[o])
        coeffs[var(1, a)] -= big_m
        strict = 1 if kind == "pick" else 0
        add(coeffs, ">=", strict - big_m, f"prec_{kind}_b{j}")
    return rows


def _cut_row(model: MipModel, selected: frozenset, label: str) -> LinearConstraint:
    """The row that forbids selecting exactly the action edges ``selected``."""
    coeffs = tuple((model.var(1, i), -1 if i in selected else 1)
                   for i in range(len(model.graph.action_nodes)))
    return LinearConstraint(tuple(sorted(coeffs)), ">=", 1 - len(selected), label)


def solve(model: MipModel, budget: int = DEFAULT_NODE_BUDGET):
    """The step of each action the lexicographically least optimal
    assignment selects (0 before 1, in variable order), keyed by canonical
    action index, or the string 'infeasible'. Raises BudgetExceeded.

    The steps determine the assignment, X[t, a] = 1 exactly when a is
    selected and its step is >= t, and their count is the objective.

    The model keeps its running search. When its cuts grew by exactly the
    answers that search returned, as ``enumerate_skeletons`` grows them, the
    search resumes after its last answer; otherwise a fresh search starts
    from the root. Either way the answer is the same. One node is one call
    of the set search or of the schedule search; ``budget`` bounds the nodes
    this call walks, counted from the model's previous answer, with the root
    counted once. After BudgetExceeded the next call starts afresh.
    """
    search = model._search
    if search is None or search.cuts != set(model.cuts):
        search = Search(model.graph, model.T, model.cuts)
    model._search = None        # a walk the budget cut short cannot go on
    steps = search.next(budget)
    model._search = search
    return "infeasible" if steps is None else steps


def extract_skeleton(steps: dict, model: MipModel) -> TaskSkeleton:
    """The skeleton ``solve`` returned as ``steps``: each selected action at
    its step, under each of its robots."""
    actions = model.graph.action_nodes
    by_step: list[dict] = [{} for _ in range(model.T)]
    for i, step in steps.items():
        for r in actions[i].robots:
            by_step[step - 1][r] = actions[i]
    return TaskSkeleton(steps=tuple(by_step))


def longest_horizon(graph: CMTG, T_max: int) -> int:
    """The longest horizon up to ``T_max`` that can hold a skeleton of
    ``graph``: no step is empty and no object moves twice, so no horizon
    longer than the number of objects with an action has one."""
    return min(T_max, sum(1 for acts in graph.acts if acts))


def enumerate_skeletons(graph: CMTG, T_max: int, K_max: int, budget: int,
                        deadline: float | None = None) -> list[TaskSkeleton]:
    """Up to ``K_max`` distinct task skeletons, by increasing horizon up to
    ``T_max``; the search passes its ``PlannerConfig``'s limits.

    Each solve's action selection is cut from all later solves, so no two
    skeletons select the same actions. Every horizon's model lists the
    graph's actions in the same canonical order, so all of them share one
    cut list. Actions are grasp classes, so skeletons differ in which robots
    move which objects where. Each horizon's model runs one search over
    closed action sets, checking each that fits for a schedule; each solve
    resumes it after the previous skeleton, and no model's rows are built.
    Raises BudgetExceeded when a solve exceeds ``budget`` nodes (calls of
    its set or schedule search, from the previous skeleton at its horizon
    on), and TimeBudgetExceeded when a solve would start after
    ``deadline`` (a ``time.monotonic()`` value).
    """
    skeletons: list[TaskSkeleton] = []
    cuts: list[frozenset] = []
    for T in range(1, longest_horizon(graph, T_max) + 1):
        model = compile_model(graph, T)
        model.cuts = cuts
        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeBudgetExceeded("time budget passed during skeleton enumeration")
            res = solve(model, budget)
            if res == "infeasible":
                break
            skeletons.append(extract_skeleton(res, model))
            if len(skeletons) >= K_max:
                return skeletons
            cuts.append(frozenset(res))
    return skeletons
