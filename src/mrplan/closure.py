"""The skeleton solver: closed action sets, then a schedule check.

``mip.solve`` hands this module the task graph its rows encode, read as
``make_graph`` built it (by position, actions in canonical order), and gets
back the step of each action selected by the lexicographically least
optimal assignment of those rows, without building them. The steps
determine the assignment: X[t, a] = 1 exactly when a is selected and its
step is >= t. The method is logic-based Benders decomposition (Hooker &
Ottosson, Math. Prog. 96, 2003):

* rows (3) and (8)-(10) say that the selected actions are one per moved
  object, closed under "blockers of a selected action move", with every
  target moved and no other object. The master enumerates such sets by
  size, then lexicographically (0 before 1 over canonical actions),
  skipping exclusion cuts. It prunes with the objects that must move, the
  steps they take of each robot that all of an object's remaining actions
  use, |S| >= T because no step is empty, and the longest chain of pick
  blockers, which must fit in T;
* rows (1), (4)-(7), (11) and (12) say that the set has a schedule over
  steps 1..T. For each set that has one, a depth-first search in the
  rows' branch order (X[t, a] by t, then canonical action, 0 first) finds
  its first schedule.

A ``Search`` walks one horizon's sets once and yields an answer per set
that has a schedule, cutting it as it goes. Cuts are tested only at a
leaf, so the walk's order does not depend on them: resuming after an
answer gives what a fresh search with that answer cut would give, and
exclusion cuts (Balas & Jeroslow, SIAM J. Appl. Math. 23, 1972) are needed
only across horizons.

One node is one call of the set search or of the schedule search.
"""
from __future__ import annotations

from .taskgraph import CMTG


class BudgetExceeded(Exception):
    """Solver node limit hit before proving optimality or infeasibility."""


_UNDECIDED, _UNMOVED = -2, -1


class Search:
    """One horizon: closed action sets, each with its first schedule.

    Objects are decided in sorted order, each either unmoved or moved by one
    of its actions, tried last canonical action first: that visits action
    sets in lexicographic order, 0 before 1. ``need[o]`` counts why object o
    must move (it is a target, or blocks a chosen action); a complete choice
    is closed when exactly the objects with a need move. ``cuts`` starts as
    the action sets no answer may select and gains each answer.
    """

    def __init__(self, graph: CMTG, T: int, cuts):
        self.graph = graph
        self.T = T
        self.nodes = 0
        self.limit = 0
        self.cuts = set(cuts)
        self.choice = [_UNDECIDED if acts else _UNMOVED for acts in graph.acts]
        self.need = [1 if m in graph.targets else 0 for m in graph.object_nodes]
        self.use = [0] * len(graph.robots)
        self.order = [o for o, acts in enumerate(graph.acts) if acts]
        self.size = 0                # actions chosen so far
        self.k = 0                   # the set size this pass looks for
        self.answers = self.run()

    def next(self, budget: int):
        """The step of each action selected by the lexicographically least
        optimal assignment that no cut excludes, keyed by action in
        canonical order, or None when there is none. Its keys are the
        selection, and the steps determine the assignment. Raises
        BudgetExceeded after ``budget`` more nodes; the search cannot go on
        after that."""
        self.limit = self.nodes + budget
        return next(self.answers, None)

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExceeded(f"node limit {self.limit} exceeded")

    def run(self):
        """The step per selected action of each answer, in order."""
        self.tick()
        if any(n and self.choice[o] == _UNMOVED for o, n in enumerate(self.need)):
            return
        bounds = self.reach()
        if bounds is None:
            return
        for k in range(max(bounds[0], self.T), bounds[1] + 1):
            self.k = k
            yield from self.sets(0, bounds)

    def usable(self, i: int) -> bool:
        """No blocker of action i stays unmoved and its robots have a free step."""
        for r in self.graph.robots_of[i]:
            if self.use[r] >= self.T:
                return False
        for b in self.graph.blockers[i]:
            if self.choice[b] == _UNMOVED:
                return False
        return True

    def reach(self):
        """(fewest, most, idle): bounds on the actions a closed completion of
        the current choices selects, and the undecided objects that no
        completion moves; None when no completion can have a schedule.

        Lower bounds on each object's step (its longest chain of blockers,
        pick blockers strictly earlier) rule out actions that cannot run by
        step T. The objects that must move, and the blockers all their
        remaining actions share, are then counted against the size and
        against each robot's T steps. It runs at every node, so it is written
        with loops rather than generator expressions.
        """
        graph, T, choice, need, use = self.graph, self.T, self.choice, self.need, self.use
        pick, place, blockers = graph.pick, graph.place, graph.blockers
        robots_of = graph.robots_of
        never = T + 1
        options = {}        # object -> the actions it may still move by
        for o in self.order:
            c = choice[o]
            if c >= 0:
                options[o] = (c,)
            elif c == _UNDECIDED:
                options[o] = [i for i in graph.acts[o] if self.usable(i)]
        depth = [never] * len(choice)
        for o, opts in options.items():
            if opts:
                depth[o] = 1
        changed = True
        while changed:
            changed = False
            for o, opts in options.items():
                best = never
                for i in opts:
                    d = 1
                    for p in pick[i]:
                        if depth[p] >= d:
                            d = depth[p] + 1
                    for q in place[i]:
                        if depth[q] > d:
                            d = depth[q]
                    if d < best:
                        best = d
                if best != depth[o]:
                    depth[o] = best
                    changed = True
        undecided = []
        for o, opts in options.items():
            if choice[o] >= 0:
                if depth[o] > T:
                    return None
                continue
            undecided.append(o)
            fit = []
            for i in opts:
                for p in pick[i]:
                    if depth[p] >= T:
                        break
                else:
                    for q in place[i]:
                        if depth[q] > T:
                            break
                    else:
                        fit.append(i)
            options[o] = fit
        # an object without a need moves only if a remaining action of an
        # object that can still move lists it as a blocker
        idle = set()
        while True:
            wanted = set()
            for o in undecided:
                if o not in idle:
                    for i in options[o]:
                        wanted |= blockers[i]
            more = False
            for o in undecided:
                if not need[o] and o not in wanted and o not in idle:
                    idle.add(o)
                    more = True
            if not more:
                break
        for o in options:
            if choice[o] >= 0 and not need[o] and o not in wanted:
                return None
        # objects that must move: those with a need, and every blocker that
        # all of a must-move object's remaining actions share
        must = [o for o in undecided if need[o]]
        seen = set(must)
        forced_use = [0] * len(graph.robots)
        for o in must:
            opts = options[o]
            if not opts:
                return None
            shared = blockers[opts[0]]
            for i in opts[1:]:
                shared = shared & blockers[i]
            for b in shared:
                if choice[b] == _UNDECIDED and b not in seen:
                    seen.add(b)
                    must.append(b)
            for r in robots_of[opts[0]]:
                for i in opts[1:]:
                    if r not in robots_of[i]:
                        break
                else:
                    forced_use[r] += 1
        used = 0
        for r, u in enumerate(use):
            if u + forced_use[r] > T:
                return None
            used += u
        free = len(graph.robots) * T - used
        movable = 0
        for o in undecided:
            if options[o] and o not in idle:
                movable += 1
        # every further action takes at least one robot step
        return self.size + len(must), self.size + min(movable, free), idle

    def take(self, i: int, sign: int) -> None:
        graph = self.graph
        self.choice[graph.obj_of[i]] = i if sign > 0 else _UNDECIDED
        self.size += sign
        for r in graph.robots_of[i]:
            self.use[r] += sign
        for b in graph.blockers[i]:
            self.need[b] += sign

    def sets(self, pos: int, bounds=None):
        """Depth-first over the objects from ``order[pos]`` on: each closed
        set of exactly ``k`` actions that has a schedule. ``bounds`` is
        ``reach()`` of the current choices, when the caller has it; a
        complete choice goes to its leaf without one."""
        self.tick()
        if bounds is None and pos < len(self.order):
            bounds = self.reach()
            if bounds is None or not bounds[0] <= self.k <= bounds[1]:
                return
        # objects that can no longer move stay unmoved without a branch
        start = pos
        while pos < len(self.order) and self.order[pos] in bounds[2]:
            self.choice[self.order[pos]] = _UNMOVED
            pos += 1
        yield from self.branch(pos)
        for o in self.order[start:pos]:
            self.choice[o] = _UNDECIDED

    def branch(self, pos: int):
        if pos == len(self.order):
            yield from self.leaf()
            return
        o = self.order[pos]
        if not self.need[o]:
            self.choice[o] = _UNMOVED
            yield from self.sets(pos + 1)
            self.choice[o] = _UNDECIDED
        for i in reversed(self.graph.acts[o]):
            if not self.usable(i):
                continue
            self.take(i, 1)
            yield from self.sets(pos + 1)
            self.take(i, -1)

    def leaf(self):
        """Every object decided: the set's first schedule, if the set is
        closed, has k actions and is not cut; the set is then cut."""
        if self.size != self.k:
            return
        selection = []
        for o in self.order:
            c = self.choice[o]
            if c >= 0:
                if not self.need[o]:
                    return
                selection.append(c)
        if self.cuts and frozenset(selection) in self.cuts:
            return
        # objects, and so their actions, are in canonical order
        steps = self.schedule(selection)
        if steps is not None:
            self.cuts.add(frozenset(selection))
            yield steps

    def schedule(self, selection: list):
        """The first step per action in branch order, or None.

        Level t decides X[t, a] for every action a still open (step >= t-1),
        by canonical action, 0 (step t-1) before 1 (step >= t). Step bounds
        [lo, hi] check each precedence as soon as it can fail; both ends of
        a pair are exact once its later action is fixed.
        """
        graph, T, choice = self.graph, self.T, self.choice
        lo = dict.fromkeys(selection, 1)
        hi = dict.fromkeys(selection, T)
        # (action, 1 for a pick block, 0 for a place block): the actions that
        # must run before a, and those a must run before
        preds = {a: [] for a in selection}
        succs = {a: [] for a in selection}
        for a in selection:
            for strict, objs in ((1, graph.pick[a]), (0, graph.place[a])):
                for m in objs:
                    preds[a].append((choice[m], strict))
                    succs[choice[m]].append((a, strict))
        busy = [set() for _ in range(T + 1)]
        count = [0] * (T + 1)

        def can_fix(a, s):
            if not busy[s].isdisjoint(graph.robots_of[a]):
                return False
            for b, strict in preds[a]:
                if s < lo[b] + strict:
                    return False
            for y, strict in succs[a]:
                if hi[y] < s + strict:
                    return False
            return True

        def can_defer(a, t):
            for y, strict in succs[a]:
                if hi[y] < t + strict:
                    return False
            return True

        def decide(t, open_, j, later):
            self.tick()
            if j == len(open_):
                if count[t - 1] == 0:
                    return False
                return t > T or decide(t + 1, later, 0, [])
            a = open_[j]
            rest = len(open_) - j - 1
            old = lo[a], hi[a]
            # X[t, a] = 0: a runs at step t-1; steps t..T still need an action each
            if len(later) + rest >= T - t + 1:
                lo[a] = hi[a] = t - 1
                if can_fix(a, t - 1):
                    busy[t - 1].update(graph.robots_of[a])
                    count[t - 1] += 1
                    if decide(t, open_, j + 1, later):
                        return True
                    busy[t - 1].difference_update(graph.robots_of[a])
                    count[t - 1] -= 1
                lo[a], hi[a] = old
            # X[t, a] = 1: a runs at step t or later
            if t <= T and (count[t - 1] or rest) and can_defer(a, t):
                lo[a] = t
                later.append(a)
                if decide(t, open_, j + 1, later):
                    return True
                later.pop()
                lo[a] = old[0]
            return False

        return dict(lo) if decide(2, selection, 0, []) else None
