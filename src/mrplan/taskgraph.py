"""Manipulation task graph: which actions can move which objects, and which
objects block those actions.

The graph is bipartite. Object nodes and action nodes are connected by
action edges (object -> action that moves it). An action node stands for a
grasp-equivalence class: grasps that no model row can tell apart share one
node, and grounding picks the grasp. Block-pick edges (action ->
object) record objects whose current pose intersects the pick sweep;
block-place edges (only for actions that deliver a goal object) record
objects intersecting the goal-place sweep the fact phase chose.

``build_cmtg`` walks a worklist from the targets, adding each referenced
object's action classes once, and hands them to ``make_graph``. That is
the one constructor: it sorts once and returns the graph in canonical
positional form. Objects are sorted by name and actions in canonical
(field) order; every other field lists positions into those, so the
solver and the model rows read the graph as it is.
"""
from __future__ import annotations

import math

from .facts import FactSet
from .plans import PartiallyGroundedAction
from .record import Record
from .scene import Scene


class CMTG(Record):
    """Collaborative manipulation task graph, by position."""
    __slots__ = ("targets", "object_nodes", "action_nodes", "robots", "obj_of",
                 "robots_of", "pick", "place", "blockers", "acts")

    def __init__(self, targets: frozenset, object_nodes: tuple, action_nodes: tuple,
                 robots: tuple, obj_of: tuple, robots_of: tuple, pick: tuple,
                 place: tuple, blockers: tuple, acts: tuple):
        self.targets = targets            # names
        self.object_nodes = object_nodes  # sorted names
        self.action_nodes = action_nodes  # canonical order
        self.robots = robots              # sorted names of the robots the actions use
        self.obj_of = obj_of              # action -> object
        self.robots_of = robots_of        # action -> robots
        self.pick = pick                  # action -> objects that pick-block it, ascending
        self.place = place                # action -> objects that place-block it, ascending
        self.blockers = blockers          # action -> frozenset of pick and place blockers
        self.acts = acts                  # object -> its actions, ascending

    @property
    def block_pick_edges(self) -> list:
        """(action, object) pairs, by action, then object."""
        return [(a, self.object_nodes[o])
                for a, objs in zip(self.action_nodes, self.pick) for o in objs]

    @property
    def block_place_edges(self) -> list:
        """(action, object) pairs, by action, then object."""
        return [(a, self.object_nodes[o])
                for a, objs in zip(self.action_nodes, self.place) for o in objs]

    def dumps(self) -> str:
        lines = [" ".join(["targets", *sorted(self.targets)])]
        lines += [f"object {m}" for m in self.object_nodes]
        for a in self.action_nodes:
            lines.append(
                "action obj={obj} region={region} pick={pick} place={place} "
                "g_pick={gp:.6f} g_place={gp:.6f}".format(
                    obj=a.obj, region=a.region, pick=a.pick_robot,
                    place=a.place_robot, gp=a.grasp_pick))
        lines += [f"action_edge {a.obj} -> a{i}" for i, a in enumerate(self.action_nodes)]
        for kind, blocked in (("pick", self.pick), ("place", self.place)):
            lines += [f"block_{kind}_edge a{i} -> {self.object_nodes[o]}"
                      for i, objs in enumerate(blocked) for o in objs]
        return "\n".join(lines) + "\n"


def make_graph(targets, blocks: dict) -> CMTG:
    """The graph of ``targets`` and the actions of ``blocks``, which maps
    each action to its (pick blockers, place blockers), sets of object
    names. Its objects are the targets, the actions' objects and the
    blockers."""
    targets = frozenset(targets)
    items = sorted(blocks.items())    # distinct actions: blockers are never compared
    actions = tuple(a for a, _ in items)
    names = set(targets)
    for a, (pick, place) in items:
        names.add(a.obj)
        names.update(pick, place)
    objects = tuple(sorted(names))
    robots = tuple(sorted({r for a in actions for r in a.robots}))
    o_index = {m: k for k, m in enumerate(objects)}
    r_index = {r: k for k, r in enumerate(robots)}
    pick = tuple(tuple(sorted([o_index[m] for m in p])) for _, (p, _) in items)
    place = tuple(tuple(sorted([o_index[m] for m in q])) for _, (_, q) in items)
    obj_of = tuple(o_index[a.obj] for a in actions)
    acts: list[list] = [[] for _ in objects]
    for i, o in enumerate(obj_of):
        acts[o].append(i)
    return CMTG(targets=targets, object_nodes=objects, action_nodes=actions, robots=robots,
                obj_of=obj_of,
                robots_of=tuple(tuple(r_index[r] for r in a.robots) for a in actions),
                pick=pick, place=place,
                blockers=tuple(frozenset(p + q) for p, q in zip(pick, place)),
                acts=tuple(map(tuple, acts)))


def _candidate_actions(obj: str, facts: FactSet, scene: Scene) -> list[tuple]:
    """One (action, pick blockers, place blockers) per grasp-equivalence class.

    A class is every grasp that moves ``obj`` to its target region with the
    same robots and the same blockers; no model row can tell its members
    apart. The representative holds the member whose grasp point lies
    nearest the pick robot's base (ties, to 1e-9 m, broken by angle) and
    lists all members in that order. A handover places at its pick grasp;
    place and handover facts carry no grasp, and only a goal pair has place
    blockers.
    """
    region = scene.target_region_of(obj)
    robots = sorted(scene.robots)
    picks, places, handovers = facts.picks(obj), facts.places(obj, region), facts.handovers(obj)
    classes: dict[tuple, list[float]] = {}
    for g in scene.grasp_angles():
        for r1 in robots:
            pick = picks.get((obj, g, r1))
            if pick is None:
                continue
            for r2 in robots:
                if r2 != r1 and (obj, r1, r2) not in handovers:
                    continue
                place = places.get((obj, region, r2))
                if place is not None:
                    classes.setdefault((r1, r2, pick, place), []).append(g)
    out = []
    for (r1, r2, pick, place), grasps in classes.items():
        base = scene.robots[r1].base
        grasps.sort(key=lambda g: (round(math.dist(base, scene.grasp_point(obj, g)), 9), g))
        out.append((PartiallyGroundedAction(obj, region, r1, r2, grasps[0], tuple(grasps)),
                    pick, place))
    return out


def build_cmtg(targets, facts: FactSet, scene: Scene,
               excluded=frozenset()) -> CMTG:
    """The targets, their action classes and, transitively, the blockers of
    those actions with theirs. An already-moved (``excluded``) object can
    never be cleared again, so any action it blocks is left out."""
    targets = frozenset(targets)
    excluded = frozenset(excluded)
    if targets & excluded:
        raise ValueError("targets and excluded objects overlap")
    blocks: dict = {}
    seen = set(targets)
    todo = list(targets)
    while todo:
        for action, pick, place in _candidate_actions(todo.pop(), facts, scene):
            blockers = pick | place
            if blockers & excluded:
                continue
            blocks[action] = (pick, place)
            todo += blockers - seen
            seen |= blockers
    return make_graph(targets, blocks)
