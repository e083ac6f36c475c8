"""0-1 integer program over a manipulation task graph.

For a horizon T, binary variables X[t, a] are declared for every action
edge a of the graph. X[t, a] = 1 means action a runs at some step >= t, so
the execution step of a selected action is sum_t X[t, a]. A block edge
(a, M) is indicated by its action's column X[t, a], so family (2), block
indicators mirror their action, holds by substitution. The other families
enforce: (1) monotone step indicators, (3) non-target objects move only
when they block a selected action, (4)-(7) per-robot capacity and per-step
progress, (8) all targets move, (9) blockers of selected actions move,
(10) each object moves at most once, (11) pick-blockers move strictly
earlier, (12) place-blockers move no later (big-M linearization,
M = T + 1).

The solver is an exact depth-first branch-and-bound over the binaries with
unit constraint propagation; all arithmetic is integral.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .taskgraph import CMTG

DEFAULT_NODE_BUDGET = 10 ** 6


class BudgetExceeded(Exception):
    """Solver node limit hit before proving optimality or infeasibility."""


class ConsistencyError(ValueError):
    """A solution does not fit the model it claims to solve."""


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple  # ((var_index, coefficient), ...)
    sense: str     # '<=', '>=' or '=='
    rhs: int
    label: str = ""


@dataclass
class MipModel:
    T: int
    var_names: list            # canonical: X[t, action edge], by t, then action
    objective: dict            # var_index -> coefficient (minimize)
    constraints: list = field(default_factory=list)
    # bookkeeping for extraction
    action_edges: list = field(default_factory=list)   # [(obj, action)]
    block_edges: list = field(default_factory=list)    # [(action, obj, kind)]
    act_var: dict = field(default_factory=dict)        # (t, edge_i) -> var index

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def add(self, coeffs: dict, sense: str, rhs: int, label: str = ""):
        items = tuple(sorted(coeffs.items()))
        self.constraints.append(LinearConstraint(items, sense, rhs, label))

    def dumps_lp(self) -> str:
        """Model in LP text format (minimize / subject to / binary)."""
        def term(c, v):
            sign = "+" if c >= 0 else "-"
            return f"{sign} {abs(c)} {self.var_names[v]}"
        lines = ["Minimize"]
        obj = " ".join(term(c, v) for v, c in sorted(self.objective.items()))
        lines.append(f" obj: {obj or '0'}")
        lines.append("Subject To")
        sense_txt = {"<=": "<=", ">=": ">=", "==": "="}
        for i, con in enumerate(self.constraints):
            lhs = " ".join(term(c, v) for v, c in con.coeffs) or "0"
            name = con.label or f"c{i}"
            lines.append(f" {name}: {lhs} {sense_txt[con.sense]} {con.rhs}")
        lines.append("Binary")
        lines.append(" " + " ".join(self.var_names))
        lines.append("End")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MipSolution:
    assignment: tuple          # value per var index
    objective_value: int


@dataclass(frozen=True)
class TaskSkeleton:
    """Sequence of per-step robot -> action assignments (None = wait)."""
    steps: tuple               # tuple of dict robot -> action | None
    moved_objects: frozenset

    def structure_key(self) -> tuple:
        return tuple(
            tuple(sorted(a.key() for a in {v for v in step.values() if v is not None}))
            for step in self.steps)

    @property
    def makespan(self) -> int:
        return len(self.steps)


def compile_model(graph: CMTG, T: int) -> MipModel:
    if T < 1:
        raise ValueError("horizon must be >= 1")
    actions = graph.sorted_actions()
    a_index = {a: i for i, a in enumerate(actions)}
    action_edges = [(a.obj, a) for a in actions]
    block_edges = ([(a, m, "pick") for a, m in sorted(
                        graph.block_pick_edges, key=lambda e: (e[0].key(), e[1]))]
                   + [(a, m, "place") for a, m in sorted(
                        graph.block_place_edges, key=lambda e: (e[0].key(), e[1]))])

    var_names: list[str] = []
    act_var = {}
    # X[1, action edge] first, in canonical order: this is the branch order
    for t in range(1, T + 1):
        for i, (m, a) in enumerate(action_edges):
            act_var[(t, i)] = len(var_names)
            var_names.append(f"Xa_t{t}_{m}_a{a_index[a]}")

    objective = {act_var[(1, i)]: 1 for i in range(len(action_edges))}
    model = MipModel(T=T, var_names=var_names, objective=objective,
                     action_edges=action_edges, block_edges=block_edges,
                     act_var=act_var)

    objects = graph.sorted_objects()
    robots = sorted({r for a in actions for r in a.robots})
    edges_of_obj = {m: [i for i, (m2, _) in enumerate(action_edges) if m2 == m]
                    for m in objects}
    # the actions each object blocks, once per block edge; a block edge's
    # indicator is its action's column
    blocked_by = {m: [a_index[a] for a, m2, _ in block_edges if m2 == m]
                  for m in objects}
    edges_of_robot = {r: [i for i, (_, a) in enumerate(action_edges) if r in a.robots]
                      for r in robots}

    big_m = T + 1

    # (1) monotone step indicators
    for i in range(len(action_edges)):
        for t in range(1, T):
            model.add({act_var[(t, i)]: 1, act_var[(t + 1, i)]: -1}, ">=", 0,
                      f"mono_t{t}_e{i}")
    # (3) non-targets move only to unblock a selected action
    for m in objects:
        if m in graph.targets:
            continue
        for t in range(1, T + 1):
            rhs_terms = Counter()
            rhs_terms.subtract(act_var[(t, b)] for b in blocked_by[m])
            for i in edges_of_obj[m]:
                coeffs = rhs_terms.copy()
                coeffs[act_var[(t, i)]] += 1
                model.add(coeffs, "<=", 0, f"gate_t{t}_{m}_e{i}")
    # (4) per-robot capacity at the last step
    for r in robots:
        coeffs = {act_var[(T, i)]: 1 for i in edges_of_robot[r]}
        model.add(coeffs, "<=", 1, f"cap_T_{r}")
    # (5) progress at the last step
    model.add({act_var[(T, i)]: 1 for i in range(len(action_edges))}, ">=", 1,
              "prog_T")
    # (6) per-robot capacity at every step
    for r in robots:
        for t in range(1, T):
            coeffs = {act_var[(t, i)]: 1 for i in edges_of_robot[r]}
            for i in edges_of_robot[r]:
                coeffs[act_var[(t + 1, i)]] = coeffs.get(act_var[(t + 1, i)], 0) - 1
            model.add(coeffs, "<=", 1, f"cap_t{t}_{r}")
    # (7) progress at every step
    for t in range(1, T):
        coeffs = {act_var[(t, i)]: 1 for i in range(len(action_edges))}
        for i in range(len(action_edges)):
            coeffs[act_var[(t + 1, i)]] = coeffs.get(act_var[(t + 1, i)], 0) - 1
        model.add(coeffs, ">=", 1, f"prog_t{t}")
    # (8) every target is moved
    for m in sorted(graph.targets):
        model.add({act_var[(1, i)]: 1 for i in edges_of_obj[m]}, "==", 1,
                  f"target_{m}")
    # (9) blockers of selected actions are moved
    for j, (a, m, kind) in enumerate(block_edges):
        coeffs = Counter(act_var[(1, i)] for i in edges_of_obj[m])
        coeffs[act_var[(1, a_index[a])]] -= 1
        model.add(coeffs, ">=", 0, f"unblock_b{j}")
    # (10) each object moved at most once
    for m in objects:
        if edges_of_obj[m]:
            model.add({act_var[(1, i)]: 1 for i in edges_of_obj[m]}, "<=", 1,
                      f"once_{m}")
    # (11)/(12) precedence, big-M linearized:
    #   X[1,a]=1  =>  sum_t X[t,a] >= sum over M's action edges of sum_t X[t] (+1)
    for j, (a, m, kind) in enumerate(block_edges):
        coeffs = Counter()
        for t in range(1, T + 1):
            coeffs[act_var[(t, a_index[a])]] += 1
            coeffs.subtract(act_var[(t, i)] for i in edges_of_obj[m])
        coeffs[act_var[(1, a_index[a])]] -= big_m
        strict = 1 if kind == "pick" else 0
        model.add(coeffs, ">=", strict - big_m, f"prec_{kind}_b{j}")
    return model


# ---------------------------------------------------------------------------
# Solver


def _bounds(con: LinearConstraint, values) -> tuple[int, int]:
    lo = hi = 0
    for v, c in con.coeffs:
        val = values[v]
        if val < 0:
            if c > 0:
                hi += c
            else:
                lo += c
        else:
            lo += c * val
            hi += c * val
    return lo, hi


def _violated(sense: str, lo: int, hi: int, rhs: int) -> bool:
    if sense == ">=":
        return hi < rhs
    if sense == "<=":
        return lo > rhs
    return hi < rhs or lo > rhs


def solve(model: MipModel, budget: int = DEFAULT_NODE_BUDGET):
    """Optimal solution, or the string 'infeasible'. Raises BudgetExceeded."""
    n = model.num_vars
    values = [-1] * n
    occurs: list[list[LinearConstraint]] = [[] for _ in range(n)]
    for con in model.constraints:
        for v, _ in con.coeffs:
            occurs[v].append(con)

    best_obj = [None]
    best_assign = [None]
    nodes = [0]

    def propagate(trail: list) -> bool:
        queue = list(model.constraints)
        while queue:
            con = queue.pop()
            lo, hi = _bounds(con, values)
            if _violated(con.sense, lo, hi, con.rhs):
                return False
            for v, c in con.coeffs:
                if values[v] >= 0:
                    continue
                clo = min(0, c)
                chi = max(0, c)
                forced = None
                for val in (0, 1):
                    nlo = lo - clo + c * val
                    nhi = hi - chi + c * val
                    if _violated(con.sense, nlo, nhi, con.rhs):
                        forced = 1 - val
                        break
                if forced is not None:
                    nlo = lo - clo + c * forced
                    nhi = hi - chi + c * forced
                    if _violated(con.sense, nlo, nhi, con.rhs):
                        return False  # both values impossible
                    values[v] = forced
                    trail.append(v)
                    queue.extend(occurs[v])
        return True

    def lower_bound() -> int:
        return sum(c for v, c in model.objective.items() if values[v] == 1)

    def dfs() -> None:
        nodes[0] += 1
        if nodes[0] > budget:
            raise BudgetExceeded(f"node budget {budget} exceeded")
        if best_obj[0] is not None and lower_bound() >= best_obj[0]:
            return
        branch = next((v for v in range(n) if values[v] < 0), None)
        if branch is None:
            obj = lower_bound()
            if best_obj[0] is None or obj < best_obj[0]:
                best_obj[0] = obj
                best_assign[0] = tuple(values)
            return
        for val in (0, 1):
            values[branch] = val
            trail = [branch]
            if propagate(trail):
                dfs()
            for v in trail:
                values[v] = -1

    trail0: list[int] = []
    if propagate(trail0):
        dfs()
    if best_assign[0] is None:
        return "infeasible"
    return MipSolution(assignment=best_assign[0], objective_value=best_obj[0])


def extract_skeleton(solution: MipSolution, graph: CMTG, T: int,
                     robot_names=None, *, model: MipModel) -> TaskSkeleton:
    if robot_names is None:
        robot_names = sorted({r for a in graph.action_nodes for r in a.robots})
    steps: list[dict] = [{r: None for r in robot_names} for _ in range(T)]
    moved = set()
    for i, (m, a) in enumerate(model.action_edges):
        col = [solution.assignment[model.act_var[(t, i)]] for t in range(1, T + 1)]
        if any(col[t] < col[t + 1] for t in range(T - 1)):
            raise ConsistencyError(f"non-monotone step indicators for action on {m}")
        k = sum(col)
        if k == 0:
            continue
        step = steps[k - 1]
        for r in a.robots:
            if step[r] is not None:
                raise ConsistencyError(f"robot {r} assigned twice at step {k}")
            step[r] = a
        moved.add(m)
    steps = [s for s in steps if any(v is not None for v in s.values())]
    if len(steps) != T:
        raise ConsistencyError("solution leaves an empty step")
    return TaskSkeleton(steps=tuple(steps), moved_objects=frozenset(moved))


def _exclusion_cut(model: MipModel, selected: set) -> None:
    """Forbid re-selecting exactly the action set ``selected`` (edge indices)."""
    coeffs = {}
    rhs = 1 - len(selected)
    for i in range(len(model.action_edges)):
        v = model.act_var[(1, i)]
        coeffs[v] = -1 if i in selected else 1
    model.add(coeffs, ">=", rhs, f"excl_{len(model.constraints)}")


def enumerate_skeletons(graph: CMTG, T_max: int = 4, K_max: int = 10,
                        budget: int = DEFAULT_NODE_BUDGET,
                        robot_names=None) -> list[TaskSkeleton]:
    """Up to ``K_max`` distinct task skeletons, by increasing horizon.

    Each solve's action selection is cut from all later solves, so no two
    skeletons select the same actions or share a ``structure_key``. Actions
    are grasp classes, so skeletons differ in which robots move which
    objects where. Raises BudgetExceeded when a solve exceeds ``budget``.
    """
    if not graph.targets:
        return []
    skeletons: list[TaskSkeleton] = []
    # action-selection sets, by action-edge index: every horizon's model
    # lists the graph's actions in the same canonical order
    cuts: list[set] = []
    for T in range(1, T_max + 1):
        model = compile_model(graph, T)
        for cut in cuts:
            _exclusion_cut(model, cut)
        while True:
            res = solve(model, budget)
            if res == "infeasible":
                break
            sk = extract_skeleton(res, graph, T, robot_names, model=model)
            selection = {i for i in range(len(model.action_edges))
                         if res.assignment[model.act_var[(1, i)]] == 1}
            cuts.append(selection)
            _exclusion_cut(model, selection)
            skeletons.append(sk)
            if len(skeletons) >= K_max:
                return skeletons
    return skeletons
