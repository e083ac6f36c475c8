"""Independent brute-force oracle for the 0-1 model.

Used only by tests. Feasibility is decided by literal quantified-logic loops
over the twelve constraint families (no coefficient maps shared with the
implementation), and the optimum is found by exhaustive enumeration over all
(action-choice, step) schedules.
"""
from __future__ import annotations

import itertools
import random

from mrplan.mip import TaskSkeleton
from mrplan.plans import PartiallyGroundedAction
from mrplan.taskgraph import CMTG, make_graph


def blocks_of(graph: CMTG) -> dict:
    """``graph`` as ``make_graph`` takes it: action -> (pick blockers, place
    blockers), by name."""
    names = graph.object_nodes
    return {a: ({names[o] for o in p}, {names[o] for o in q})
            for a, p, q in zip(graph.action_nodes, graph.pick, graph.place)}


class OracleVars:
    """X values keyed the same way the formulas index them."""

    def __init__(self, graph: CMTG, T: int):
        self.graph = graph
        self.T = T
        # the graph lists its actions and block edges in canonical order
        self.action_edges = [(a.obj, a) for a in graph.action_nodes]
        self.block_edges = ([(a, m, "pick") for a, m in graph.block_pick_edges]
                            + [(a, m, "place") for a, m in graph.block_place_edges])
        self.xa = {}  # (t, action_edge_index) -> 0/1
        self.xb = {}  # (t, block_edge_index) -> 0/1

    def vector(self):
        """Flat assignment in the implementation's canonical variable order:
        X[t, action edge] by t, then action. The model has no block columns."""
        return tuple(self.xa[(t, i)] for t in range(1, self.T + 1)
                     for i in range(len(self.action_edges)))

    @classmethod
    def from_vector(cls, graph: CMTG, T: int, vec):
        """Each block indicator is read as its action's step indicator."""
        v = cls(graph, T)
        k = 0
        for t in range(1, T + 1):
            for i in range(len(v.action_edges)):
                v.xa[(t, i)] = vec[k]
                k += 1
        action_index = {a: i for i, (_, a) in enumerate(v.action_edges)}
        for t in range(1, T + 1):
            for j, (a, _, _) in enumerate(v.block_edges):
                v.xb[(t, j)] = v.xa[(t, action_index[a])]
        return v

    @classmethod
    def from_schedule(cls, graph: CMTG, T: int, schedule):
        """schedule: {obj: (action, step)} for the moved objects."""
        v = cls(graph, T)
        chosen_step = {}
        for obj, (action, step) in schedule.items():
            chosen_step[action] = step
        for t in range(1, T + 1):
            for i, (m, a) in enumerate(v.action_edges):
                v.xa[(t, i)] = 1 if a in chosen_step and t <= chosen_step[a] else 0
            for j, (a, m, kind) in enumerate(v.block_edges):
                v.xb[(t, j)] = 1 if a in chosen_step and t <= chosen_step[a] else 0
        return v


def assignment(model, steps) -> tuple:
    """The flat 0/1 vector of ``mip.solve``'s action -> step answer:
    X[t, a] = 1 exactly when a is selected and its step is >= t."""
    return tuple(int(i in steps and steps[i] >= t) for t in range(1, model.T + 1)
                 for i in range(len(model.graph.action_nodes)))


def decode_skeleton(vector, model) -> TaskSkeleton:
    """The skeleton a flat 0/1 vector encodes: each selected action at step
    sum_t X[t, a], under each of its robots. Asserts that the vector is a
    schedule: monotone indicators, no robot twice in a step, no empty step."""
    T = model.T
    steps: list[dict] = [{} for _ in range(T)]
    for i, a in enumerate(model.graph.action_nodes):
        col = [vector[model.var(t, i)] for t in range(1, T + 1)]
        assert all(col[t] >= col[t + 1] for t in range(T - 1)), \
            f"non-monotone step indicators for action on {a.obj}"
        k = sum(col)
        if k == 0:
            continue
        step = steps[k - 1]
        for r in a.robots:
            assert r not in step, f"robot {r} assigned twice at step {k}"
            step[r] = a
    assert all(steps), "solution leaves an empty step"
    return TaskSkeleton(steps=tuple(steps))


def rows_satisfied(model, vector) -> bool:
    """Every compiled row holds at the flat assignment ``vector``."""
    for con in model.constraints:
        lhs = sum(c * vector[v] for v, c in con.coeffs)
        ok = (lhs <= con.rhs if con.sense == "<="
              else lhs >= con.rhs if con.sense == ">=" else lhs == con.rhs)
        if not ok:
            return False
    return True


def oracle_feasible(v: OracleVars) -> bool:
    """Literal evaluation of the twelve constraint families."""
    graph, T = v.graph, v.T
    AE, BE = v.action_edges, v.block_edges
    xa, xb = v.xa, v.xb
    objects = sorted(graph.object_nodes)
    robots = sorted({r for a in graph.action_nodes for r in a.robots})
    edges_of_obj = {m: [i for i, (m2, _) in enumerate(AE) if m2 == m]
                    for m in objects}

    # (1) monotone
    for i in range(len(AE)):
        for t in range(1, T):
            if not xa[(t, i)] >= xa[(t + 1, i)]:
                return False
    # (2) block mirrors action
    for j, (a, m, kind) in enumerate(BE):
        i = next(i for i, (_, a2) in enumerate(AE) if a2 == a)
        for t in range(1, T + 1):
            if xa[(t, i)] != xb[(t, j)]:
                return False
    # (3) non-targets only move to unblock
    for m in objects:
        if m in graph.targets:
            continue
        for i in edges_of_obj[m]:
            for t in range(1, T + 1):
                incoming = sum(xb[(t, j)] for j, (_, m2, _) in enumerate(BE)
                               if m2 == m)
                if not xa[(t, i)] <= incoming:
                    return False
    # (4) robot capacity at T
    for r in robots:
        if sum(xa[(T, i)] for i, (_, a) in enumerate(AE) if r in a.robots) > 1:
            return False
    # (5) progress at T
    if sum(xa[(T, i)] for i in range(len(AE))) < 1:
        return False
    # (6) robot capacity at every step
    for r in robots:
        for t in range(1, T):
            lhs = sum(xa[(t, i)] for i, (_, a) in enumerate(AE) if r in a.robots)
            rhs = sum(xa[(t + 1, i)] for i, (_, a) in enumerate(AE) if r in a.robots)
            if not lhs <= 1 + rhs:
                return False
    # (7) progress at every step
    for t in range(1, T):
        lhs = sum(xa[(t, i)] for i in range(len(AE)))
        rhs = sum(xa[(t + 1, i)] for i in range(len(AE)))
        if not lhs >= 1 + rhs:
            return False
    # (8) targets moved
    for m in sorted(graph.targets):
        if sum(xa[(1, i)] for i in edges_of_obj.get(m, [])) != 1:
            return False
    # (9) blockers of selected actions moved
    for j, (a, m, kind) in enumerate(BE):
        if not sum(xa[(1, i)] for i in edges_of_obj[m]) >= xb[(1, j)]:
            return False
    # (10) each object at most once
    for m in objects:
        if sum(xa[(1, i)] for i in edges_of_obj[m]) > 1:
            return False
    # (11)/(12) precedence implications
    for j, (a, m, kind) in enumerate(BE):
        if xb[(1, j)] == 1:
            lhs = sum(xb[(t, j)] for t in range(1, T + 1))
            rhs = sum(xa[(t, i)] for i in edges_of_obj[m]
                      for t in range(1, T + 1))
            need = rhs + 1 if kind == "pick" else rhs
            if not lhs >= need:
                return False
    return True


def enumerate_schedules(graph: CMTG, T: int):
    """Every (action-choice, step) schedule, feasible or not."""
    objects = sorted(graph.object_nodes)
    options = []
    for m in objects:
        options.append([None] + [(a, step) for a in graph.action_nodes if a.obj == m
                                 for step in range(1, T + 1)])
    for combo in itertools.product(*options):
        schedule = {m: choice for m, choice in zip(objects, combo)
                    if choice is not None}
        yield schedule


def oracle_minimum(graph: CMTG, T: int):
    """Minimum number of moved objects over feasible schedules, or None."""
    best = None
    for schedule in enumerate_schedules(graph, T):
        v = OracleVars.from_schedule(graph, T, schedule)
        if oracle_feasible(v):
            if best is None or len(schedule) < best:
                best = len(schedule)
    return best


def random_cmtg(rng: random.Random, max_objects: int = 6,
                max_actions: int = 8, pick_p: float = 0.15,
                place_p: float = 0.10, robots=("A", "B")) -> CMTG:
    """A random graph: each (action, other object) pair is a pick block with
    probability ``pick_p``, else a place block with probability ``place_p``."""
    n_obj = rng.randint(1, max_objects)
    objects = [f"O{k}" for k in range(n_obj)]
    robots = list(robots)
    blocks = {}
    n_act = rng.randint(1, max_actions)
    for k in range(n_act):
        obj = rng.choice(objects)
        if rng.random() < 0.25 and len(robots) > 1:
            r1, r2 = rng.sample(robots, 2)
        else:
            r1 = r2 = rng.choice(robots)
        a = PartiallyGroundedAction(obj=obj, region=f"re{rng.randint(0, 1)}",
                                    pick_robot=r1, place_robot=r2,
                                    grasp_pick=0.0)
        if a in blocks:
            continue
        pick, place = blocks[a] = set(), set()
        for b in objects:
            if b == obj:
                continue
            roll = rng.random()
            if roll < pick_p:
                pick.add(b)
            elif roll < pick_p + place_p:
                place.add(b)
    movable = sorted({a.obj for a in blocks})
    n_targets = rng.randint(1, max(1, min(2, len(movable))))
    return make_graph(rng.sample(movable, n_targets), blocks)


def loads_cmtg(text: str) -> CMTG:
    """The graph that ``CMTG.dumps`` wrote as ``text``. Its objects follow
    from the targets, actions and blockers, so object lines are skipped."""
    targets, actions, blocks = (), [], {}
    for line in text.splitlines():
        kind, *rest = line.split()
        if kind == "targets":
            targets = rest
        elif kind == "action":
            f = dict(field.split("=") for field in rest)
            a = PartiallyGroundedAction(f["obj"], f["region"], f["pick"], f["place"],
                                        float(f["g_pick"]))
            actions.append(a)
            blocks[a] = (set(), set())
        elif kind in ("block_pick_edge", "block_place_edge"):
            blocks[actions[int(rest[0][1:])]][kind == "block_place_edge"].add(rest[2])
    return make_graph(targets, blocks)
