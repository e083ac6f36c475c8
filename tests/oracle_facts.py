"""Straightforward reference for ``mrplan.facts.compute_facts``.

Used only by tests. It tests every place candidate for every robot, with
the candidate grid rebuilt per robot and no early stop or reach pruning,
so the planner's pruned fact phase can be checked against it record for
record. It builds its corridors with ``Corridor`` directly, and tests pick
and handover sweeps against the other robots' bases with its own distance
test, so it does not share ``mrplan.motion``'s sweep layout or base
predicate with the code it checks. It reads the handover pairs from the
scene's ``handover_points`` field, each in both orders, not from
``Scene.handover_pairs``: a pair the scene does not list never hands over.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from mrplan.facts import PLACE_GRID, FactSet
from mrplan.geometry import (EPS, Corridor, Pose, collides, point_segment_distance,
                             shape_inside_rect)


@dataclass
class OracleFacts:
    """A ``FactSet``'s full view, held in plain containers filled up front.
    The records and the dump are ``FactSet``'s, read from these fields."""
    reachable_pick: dict = field(default_factory=dict)
    reachable_place: dict = field(default_factory=dict)
    enable_goal_handover: set = field(default_factory=set)
    occludes_pick = FactSet.occludes_pick
    occludes_goal_place = FactSet.occludes_goal_place
    to_records = FactSet.to_records
    dumps = FactSet.dumps


def place_candidates(scene, region_name, obj):
    """Region center plus a fixed grid of candidate placement poses."""
    rect = scene.regions[region_name]
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
            if (ix, iy) == (n // 2, n // 2):
                continue  # the grid's middle point is the center, listed first
            x = x0 + (x1 - x0) * ix / (n - 1)
            y = y0 + (y1 - y0) * iy / (n - 1)
            cands.append(Pose(x, y))
    return [p for p in cands
            if shape_inside_rect(scene.movables[obj].shape, p, rect)]


def avoids_fixed(scene, cor):
    return not any(collides(cor, fp) for fp in scene.fixed)


def covers_other_base(scene, robot, cor):
    """``robot``'s sweep ``cor`` runs over another robot's base."""
    return any(point_segment_distance(other.base, cor.a, cor.b) < cor.width / 2 - EPS
               for name, other in scene.robots.items() if name != robot)


def compute_facts(scene) -> OracleFacts:
    facts = OracleFacts()
    goal_objects = set(scene.goal_objects())
    angles = scene.grasp_angles()
    robot_names = sorted(scene.robots)

    for obj in sorted(scene.movables):
        for rname in robot_names:
            robot = scene.robots[rname]
            for g in angles:
                gp = scene.grasp_point(obj, g)
                if not robot.in_reach(gp):
                    continue
                cor = Corridor(robot.base, gp, robot.gripper_width)
                if not avoids_fixed(scene, cor) or covers_other_base(scene, rname, cor):
                    continue
                facts.reachable_pick[(obj, g, rname)] = frozenset(
                    scene.movables_hit([cor], exclude=(obj,)))

    goal_pairs = set(scene.goal.items())
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
                    cor = Corridor(robot.base, p.xy, width)
                    if not avoids_fixed(scene, cor):
                        continue
                    valid.append((p, cor))
                if not valid:
                    continue
                if (obj, re) not in goal_pairs:
                    facts.reachable_place[(obj, re, rname)] = frozenset()
                    continue
                # fewest movable occluders, earliest candidate
                best = None
                for p, cor in valid:
                    occ = scene.movables_hit([cor, (shape, p)], exclude=(obj,))
                    if best is None or len(occ) < len(best):
                        best = occ
                facts.reachable_place[(obj, re, rname)] = frozenset(best)

    pairs = [(r1, r2, h) for (a, b), h in scene.handover_points.items()
             for r1, r2 in ((a, b), (b, a))]
    for obj in sorted(goal_objects):
        m = scene.movables[obj]
        for r1, r2, h in pairs:
            if not (scene.robots[r1].in_reach(h) and scene.robots[r2].in_reach(h)):
                continue
            carry = Corridor(m.pose.xy, h, scene.transfer_width(r1, obj))
            reach = Corridor(scene.robots[r2].base, h, scene.robots[r2].gripper_width)
            if all(avoids_fixed(scene, cor) and not covers_other_base(scene, r, cor)
                   for r, cor in ((r1, carry), (r2, reach))):
                facts.enable_goal_handover.add((obj, r1, r2))
    return facts
