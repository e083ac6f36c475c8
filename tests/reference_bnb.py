"""Row-level branch and bound: the reference the graph-level solver is
checked against.

Used only by tests. It reads nothing but ``model.constraints`` and
``model.objective``: a depth-first search over the binaries in variable
order, 0 before 1, with unit propagation over every row at every node. It
keeps a solution only when it is strictly better than the incumbent, so it
returns the lexicographically least optimal assignment.
"""
from __future__ import annotations

from mrplan.mip import DEFAULT_NODE_BUDGET, BudgetExceeded, LinearConstraint, MipModel


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
    """The optimal assignment, a 0/1 value per variable index, or the string
    'infeasible'. Raises BudgetExceeded."""
    n = model.num_vars
    objective = model.objective
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
        return sum(c for v, c in objective.items() if values[v] == 1)

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
    return best_assign[0]
