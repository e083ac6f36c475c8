"""Phase 1: occlusion / reachability / handover facts for a scene.

Facts carry a grasp only where the geometry reads one: the pick sweep runs
from the robot's base to the grasp point, so pick facts are per grasp,
while place, goal-place and handover facts are the same for every grasp
and carry none. Trajectories are straight corridors; for each goal
placement we look for a candidate whose corridor and footprint are clear of
all movables, and otherwise keep the one with the fewest movable occluders
and record those occluders.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .geometry import Corridor, Pose, collides, shape_inside_rect, swept_corridor
from .scene import Scene

PLACE_GRID = 5  # candidate placements per region axis for the place certificate


class FactLookupError(KeyError):
    """An action references predicate instances that were never computed."""


@dataclass
class FactSet:
    occludes_pick: set = field(default_factory=set)        # (M1, M2, g, R)
    occludes_goal_place: set = field(default_factory=set)  # (M1, M2, Re, R)
    reachable_pick: set = field(default_factory=set)       # (M, g, R)
    reachable_place: set = field(default_factory=set)      # (M, Re, R)
    enable_goal_handover: set = field(default_factory=set)  # (M, R1, R2)

    def to_records(self) -> list[dict]:
        recs = []
        for m, g, r in sorted(self.reachable_pick):
            recs.append({"predicate": "reachable_pick", "object": m, "grasp": g, "robot": r})
        for m, re, r in sorted(self.reachable_place):
            recs.append({"predicate": "reachable_place", "object": m, "region": re,
                         "robot": r})
        for m1, m2, g, r in sorted(self.occludes_pick):
            recs.append({"predicate": "occludes_pick", "occluder": m1, "object": m2,
                         "grasp": g, "robot": r})
        for m1, m2, re, r in sorted(self.occludes_goal_place):
            recs.append({"predicate": "occludes_goal_place", "occluder": m1, "object": m2,
                         "region": re, "robot": r})
        for m, r1, r2 in sorted(self.enable_goal_handover):
            recs.append({"predicate": "enable_goal_handover", "object": m,
                         "pick_robot": r1, "place_robot": r2})
        return recs

    def dumps(self) -> str:
        return json.dumps(self.to_records(), indent=2, sort_keys=True) + "\n"


def place_candidates(scene: Scene, region_name: str, obj: str) -> list[Pose]:
    """Region center plus a fixed grid of candidate placement poses."""
    rect = scene.regions[region_name].rect
    inset = scene.movables[obj].shape.circumradius
    x0, x1 = rect.xmin + inset, rect.xmax - inset
    y0, y1 = rect.ymin + inset, rect.ymax - inset
    if x0 > x1 or y0 > y1:
        return []
    cx, cy = rect.center
    cands = [Pose(cx, cy)]
    n = PLACE_GRID
    for iy in range(n):
        for ix in range(n):
            x = x0 + (x1 - x0) * ix / (n - 1)
            y = y0 + (y1 - y0) * iy / (n - 1)
            p = Pose(x, y)
            if (p.x, p.y) != (cx, cy):
                cands.append(p)
    return [p for p in cands
            if shape_inside_rect(scene.movables[obj].shape, p, rect)]


def _avoids_fixed(scene: Scene, cor: Corridor) -> bool:
    return not any(collides(cor, fp) for fp in scene.fixed)


def compute_facts(scene: Scene) -> FactSet:
    facts = FactSet()
    goal_objects = set(scene.goal_objects())
    angles = scene.grasp_angles()
    robot_names = sorted(scene.robots)

    # pick reachability and pick occlusions, per grasp
    for obj in sorted(scene.movables):
        for rname in robot_names:
            robot = scene.robots[rname]
            for g in angles:
                gp = scene.grasp_point(obj, g)
                if not robot.in_reach(gp):
                    continue
                cor = scene.pick_corridor(rname, obj, g)
                if not _avoids_fixed(scene, cor):
                    continue
                facts.reachable_pick.add((obj, g, rname))
                for occ in scene.movables_hit([cor], exclude=(obj,)):
                    facts.occludes_pick.add((occ, obj, g, rname))

    # place reachability (all regions) and goal-place occlusions (goal pairs)
    goal_pairs = {(m, re) for m, re in scene.goal}
    for obj in sorted(scene.movables):
        shape = scene.movables[obj].shape
        for re in sorted(scene.regions):
            for rname in robot_names:
                robot = scene.robots[rname]
                width = scene.transfer_width(rname, obj)
                valid = []
                for p in place_candidates(scene, re, obj):
                    if not robot.in_reach(p.xy):
                        continue
                    cor = swept_corridor(robot.base, p.xy, width)
                    if not _avoids_fixed(scene, cor):
                        continue
                    valid.append((p, cor))
                if not valid:
                    continue
                facts.reachable_place.add((obj, re, rname))
                if (obj, re) not in goal_pairs:
                    continue
                # two-stage choice: fewest movable occluders, earliest candidate
                best = None
                for p, cor in valid:
                    occ = scene.movables_hit([cor, (shape, p)], exclude=(obj,))
                    if best is None or len(occ) < len(best):
                        best = occ
                    if not best:
                        break
                for occ in best:
                    facts.occludes_goal_place.add((occ, obj, re, rname))

    # handover enablement, goal objects only
    for obj in sorted(goal_objects):
        m = scene.movables[obj]
        for r1 in robot_names:
            for r2 in robot_names:
                if r1 == r2:
                    continue
                h = scene.handover_point(r1, r2)
                if not (scene.robots[r1].in_reach(h) and scene.robots[r2].in_reach(h)):
                    continue
                carry = swept_corridor(m.pose.xy, h, scene.transfer_width(r1, obj))
                reach = swept_corridor(scene.robots[r2].base, h,
                                       scene.robots[r2].gripper_width)
                if _avoids_fixed(scene, carry) and _avoids_fixed(scene, reach):
                    facts.enable_goal_handover.add((obj, r1, r2))
    return facts


def occluders_of(facts: FactSet, action, goal_objects) -> tuple[set, set]:
    """Pick and place blockers of a partially grounded action."""
    if (action.obj, action.grasp_pick, action.pick_robot) not in facts.reachable_pick:
        raise FactLookupError(
            f"no reachable_pick fact for {action.obj} with {action.pick_robot}")
    pick = {m1 for (m1, m2, g, r) in facts.occludes_pick
            if m2 == action.obj and g == action.grasp_pick and r == action.pick_robot}
    place = set()
    if action.obj in goal_objects:
        place = {m1 for (m1, m2, re, r) in facts.occludes_goal_place
                 if m2 == action.obj and re == action.region and r == action.place_robot}
    return pick, place
