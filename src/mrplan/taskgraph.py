"""Manipulation task graph: which actions can move which objects, and which
objects block those actions.

The graph is bipartite. Object nodes and action nodes are connected by
action edges (object -> action that moves it). An action node stands for a
grasp-equivalence class: grasps that no model row can tell apart share one
node, and grounding picks the grasp. Block-pick edges (action ->
object) record objects whose current pose intersects the pick sweep;
block-place edges (only for actions that deliver a goal object) record
objects intersecting the goal-place sweep the fact phase chose. The graph
is built by a recursion that adds each referenced object at most once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .facts import FactSet, occluders_of
from .plans import PartiallyGroundedAction
from .scene import Scene


@dataclass
class CMTG:
    """Collaborative manipulation task graph."""
    targets: frozenset = frozenset()
    object_nodes: set = field(default_factory=set)
    action_nodes: set = field(default_factory=set)
    action_edges: set = field(default_factory=set)       # (object, action)
    block_pick_edges: set = field(default_factory=set)   # (action, object)
    block_place_edges: set = field(default_factory=set)  # (action, object)

    def sorted_actions(self) -> list[PartiallyGroundedAction]:
        return sorted(self.action_nodes, key=lambda a: a.key())

    def sorted_objects(self) -> list[str]:
        return sorted(self.object_nodes)

    def actions_moving(self, obj: str) -> list[PartiallyGroundedAction]:
        return sorted((a for m, a in self.action_edges if m == obj),
                      key=lambda a: a.key())

    def dumps(self) -> str:
        lines = [f"targets {' '.join(sorted(self.targets))}"]
        for m in self.sorted_objects():
            lines.append(f"object {m}")
        for a in self.sorted_actions():
            lines.append(
                "action obj={obj} region={region} pick={pick} place={place} "
                "g_pick={gp:.6f} g_place={gpl:.6f}".format(
                    obj=a.obj, region=a.region, pick=a.pick_robot,
                    place=a.place_robot, gp=a.grasp_pick, gpl=a.grasp_place))
        actions = self.sorted_actions()
        index = {a: i for i, a in enumerate(actions)}
        for m, a in sorted(self.action_edges, key=lambda e: (e[0], e[1].key())):
            lines.append(f"action_edge {m} -> a{index[a]}")
        for a, m in sorted(self.block_pick_edges, key=lambda e: (e[0].key(), e[1])):
            lines.append(f"block_pick_edge a{index[a]} -> {m}")
        for a, m in sorted(self.block_place_edges, key=lambda e: (e[0].key(), e[1])):
            lines.append(f"block_place_edge a{index[a]} -> {m}")
        return "\n".join(lines) + "\n"


def _candidate_actions(obj: str, facts: FactSet, scene: Scene) -> list[tuple]:
    """One (action, pick blockers, place blockers) per grasp-equivalence class.

    A class is every grasp that moves ``obj`` to its target region with the
    same robots and the same blockers; no model row can tell its members
    apart. The representative holds the member whose grasp point lies
    nearest the pick robot's base (ties, to 1e-9 m, broken by angle) and
    lists all members in that order. A handover places at its pick grasp;
    place and handover facts carry no grasp.
    """
    goal_objects = set(scene.goal_objects())
    region = scene.target_region_of(obj)
    classes: dict[tuple, list[float]] = {}
    for (m, g, r1) in sorted(facts.reachable_pick):
        if m != obj:
            continue
        place_robots = [r1]
        if obj in goal_objects:
            place_robots += [r2 for r2 in sorted(scene.robots)
                             if (obj, r1, r2) in facts.enable_goal_handover]
        for r2 in place_robots:
            if (obj, region, r2) not in facts.reachable_place:
                continue
            pick, place = occluders_of(facts, PartiallyGroundedAction(
                obj, region, r1, r2, g, g), goal_objects)
            classes.setdefault((r1, r2, frozenset(pick), frozenset(place)), []).append(g)
    out = []
    for (r1, r2, pick, place), grasps in classes.items():
        base = scene.robots[r1].base
        grasps.sort(key=lambda g: (round(math.dist(base, scene.grasp_point(obj, g)), 9), g))
        out.append((PartiallyGroundedAction(obj, region, r1, r2, grasps[0], grasps[0],
                                            tuple(grasps)), pick, place))
    return out


def add_object(obj: str, graph: CMTG, facts: FactSet, scene: Scene,
               excluded: frozenset = frozenset()) -> None:
    """Add ``obj``, its action classes and (recursively) their blockers."""
    if obj in graph.object_nodes:
        return
    graph.object_nodes.add(obj)
    for action, pick_blockers, place_blockers in _candidate_actions(obj, facts, scene):
        # an already-moved object can never be cleared again, so any action it
        # blocks is unusable
        if (pick_blockers | place_blockers) & excluded:
            continue
        graph.action_nodes.add(action)
        graph.action_edges.add((obj, action))
        for b in sorted(pick_blockers):
            graph.block_pick_edges.add((action, b))
            add_object(b, graph, facts, scene, excluded)
        for b in sorted(place_blockers):
            graph.block_place_edges.add((action, b))
            add_object(b, graph, facts, scene, excluded)


def build_cmtg(targets, facts: FactSet, scene: Scene,
               excluded=frozenset()) -> CMTG:
    targets = frozenset(targets)
    excluded = frozenset(excluded)
    if targets & excluded:
        raise ValueError("targets and excluded objects overlap")
    graph = CMTG(targets=targets)
    for t in sorted(targets):
        add_object(t, graph, facts, scene, excluded)
    return graph
