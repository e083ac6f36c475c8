"""Robot sweeps: the one layout of every straight move a robot makes.

Conventions (desk scale): a robot is a fixed base with a reach annulus,
and every move is a straight capsule (``Corridor``).

* ``gripper_sweep``: the empty gripper from the robot's base to a point,
  of width ``gripper_width``. It is the pick sweep (to the grasp point) and
  a handover's receive (to the handover point).
* ``carry_sweep``: the robot carrying an object from one point to another,
  of width ``Scene.transfer_width`` (gripper width plus object diameter),
  so it covers the carried object. It is the single transfer (start pose to
  placement), a handover's carry (start pose to handover point) and
  delivery (handover point to placement), and the fact phase's place
  certificate (base to candidate placement).

The fact phase (``mrplan.facts``) tests these sweeps and grounding
(``build_moves``) executes them, so a pick or handover fact certifies a
sweep that grounding lays out. The place certificate does not: grounding
never carries from the base, so it tests each carry it lays out itself.
Facts and grounding ask one rule of a sweep, ``sweep_clear``: it hits no
given obstacle and covers no other robot's base; the validator composes
that test itself. A handover splits the transfer at the point the scene
lists for the pair (``Scene.handover_point``); the partners' corridors may
overlap only inside its neighbourhood (``trim_for_handover``). The
same-step corridors of two robots may not collide, partners' corridors
trimmed around their handover point first (``robot_clashes``); grounding
and the validator both ask this one predicate. Only the pick robot's
gripper sweep, to the grasp point, depends on the grasp.
"""
from __future__ import annotations

import itertools
import math

from .geometry import Corridor, Pose, collides_any
from .plans import PartiallyGroundedAction, RobotMove, Trajectory
from .scene import Scene


def gripper_sweep(scene: Scene, robot: str, to: tuple[float, float]) -> Corridor:
    """The empty gripper's sweep from ``robot``'s base to ``to``."""
    r = scene.robots[robot]
    return Corridor(r.base, to, r.gripper_width)


def carry_sweep(scene: Scene, robot: str, obj: str, frm: tuple[float, float],
                to: tuple[float, float]) -> Corridor:
    """``robot``'s sweep carrying ``obj`` from ``frm`` to ``to``."""
    return Corridor(frm, to, scene.transfer_width(robot, obj))


def bases_crossed(scene: Scene, robot: str, cor: Corridor) -> list[str]:
    """The other robots, in name order, whose base ``robot``'s sweep covers."""
    return [other for other, r in scene.robots_by_name
            if other != robot and cor.contains_point(r.base)]


def sweep_clear(scene: Scene, robot: str, cor: Corridor, obstacles) -> bool:
    """``robot``'s sweep hits none of ``obstacles`` and no other robot's base."""
    return not (collides_any(cor, obstacles) or bases_crossed(scene, robot, cor))


def build_moves(scene: Scene, action: PartiallyGroundedAction, obj_pose: Pose,
                placement: Pose) -> dict[str, RobotMove]:
    """Grounded per-robot moves for one action: trajectories with corridors."""
    pick, obj = action.pick_robot, action.obj
    gp = scene.grasp_point(obj, action.grasp_pick, pose=obj_pose)
    pick_traj = Trajectory(waypoints=(Pose(*scene.robots[pick].base), Pose(*gp)),
                           corridor=gripper_sweep(scene, pick, gp))
    if not action.is_handover:
        place_traj = Trajectory(
            waypoints=(obj_pose, placement),
            corridor=carry_sweep(scene, pick, obj, obj_pose.xy, placement.xy))
        return {pick: RobotMove(action, placement, pick_traj, place_traj)}

    place = action.place_robot
    h = scene.handover_point(pick, place)
    carry_traj = Trajectory(waypoints=(obj_pose, Pose(*h)),
                            corridor=carry_sweep(scene, pick, obj, obj_pose.xy, h))
    reach_traj = Trajectory(waypoints=(Pose(*scene.robots[place].base), Pose(*h)),
                            corridor=gripper_sweep(scene, place, h))
    deliver_traj = Trajectory(waypoints=(Pose(*h), placement),
                              corridor=carry_sweep(scene, place, obj, h, placement.xy))
    return {
        pick: RobotMove(action, placement, pick_traj, carry_traj),
        place: RobotMove(action, placement, reach_traj, deliver_traj),
    }


def points_close(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return math.hypot(a[0] - b[0], a[1] - b[1]) <= 1e-6


def trim_for_handover(scene: Scene, mv: RobotMove) -> list:
    """Corridors of a handover participant, trimmed around the handover point.

    The handover neighbourhood of a pair is the disc around its handover
    point whose radius is the wider of the two robots' grippers. Each
    corridor with an end at the point loses that radius plus its own half
    width at that end, so its end cap stays inside the neighbourhood; a
    corridor trimmed away entirely is dropped."""
    a = mv.action
    h = scene.handover_point(a.pick_robot, a.place_robot)
    radius = max(scene.robots[a.pick_robot].gripper_width,
                 scene.robots[a.place_robot].gripper_width)
    cors = (cor.trimmed(h, radius + cor.half_width)
            if points_close(cor.a, h) or points_close(cor.b, h) else cor
            for cor in mv.all_corridors())
    return [cor for cor in cors if cor is not None]


def robot_clashes(scene: Scene, moves: dict[str, RobotMove]):
    """Yield ``(r1, r2, handover)`` for each robot pair, in
    ``itertools.combinations(sorted(moves), 2)`` order, whose same-step
    corridors collide. ``handover`` is True for partners, the two robots that
    hold one action; they are compared trimmed around its handover point."""
    for r1, r2 in itertools.combinations(sorted(moves), 2):
        handover = moves[r1].action == moves[r2].action
        if handover:
            cs1 = trim_for_handover(scene, moves[r1])
            cs2 = trim_for_handover(scene, moves[r2])
        else:
            cs1 = moves[r1].all_corridors()
            cs2 = moves[r2].all_corridors()
        if any(collides_any(c1, cs2) for c1 in cs1):
            yield r1, r2, handover
