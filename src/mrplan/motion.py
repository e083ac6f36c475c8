"""Construction of swept corridors for grounded pick-and-place actions.

Conventions (desk scale): a robot is a fixed base with a reach annulus.
The pick sweep is a straight capsule from the base to the grasp point,
of width gripper_width. The transfer sweep is a straight capsule from the
object's pose to its destination, of width gripper_width + object diameter,
so it covers the carried object. A handover splits the transfer at the
pair's handover point; the partners' corridors may overlap only near it.
"""
from __future__ import annotations

import math

from .geometry import Pose, swept_corridor
from .plans import PartiallyGroundedAction, RobotMove, Trajectory
from .scene import Scene


def build_moves(scene: Scene, action: PartiallyGroundedAction, obj_pose: Pose,
                placement: Pose) -> dict[str, RobotMove]:
    """Grounded per-robot moves for one action: trajectories with corridors."""
    gp = scene.grasp_point(action.obj, action.grasp_pick, pose=obj_pose)
    r_pick = scene.robots[action.pick_robot]
    base_pick = Pose(*r_pick.base)
    pick_traj = Trajectory(
        waypoints=(base_pick, Pose(*gp)),
        corridors=(swept_corridor(r_pick.base, gp, r_pick.gripper_width),),
    )
    transfer_w_pick = scene.transfer_width(action.pick_robot, action.obj)
    if not action.is_handover:
        place_traj = Trajectory(
            waypoints=(obj_pose, placement),
            corridors=(swept_corridor(obj_pose.xy, placement.xy, transfer_w_pick),),
        )
        return {action.pick_robot: RobotMove(action, "single", placement,
                                             pick_traj, place_traj)}

    h = scene.handover_point(action.pick_robot, action.place_robot)
    r_place = scene.robots[action.place_robot]
    carry_traj = Trajectory(
        waypoints=(obj_pose, Pose(*h)),
        corridors=(swept_corridor(obj_pose.xy, h, transfer_w_pick),),
    )
    reach_traj = Trajectory(
        waypoints=(Pose(*r_place.base), Pose(*h)),
        corridors=(swept_corridor(r_place.base, h, r_place.gripper_width),),
    )
    transfer_w_place = scene.transfer_width(action.place_robot, action.obj)
    deliver_traj = Trajectory(
        waypoints=(Pose(*h), placement),
        corridors=(swept_corridor(h, placement.xy, transfer_w_place),),
    )
    return {
        action.pick_robot: RobotMove(action, "pick", placement, pick_traj, carry_traj),
        action.place_robot: RobotMove(action, "place", placement, reach_traj, deliver_traj),
    }


def endpoints_reachable(scene: Scene, action: PartiallyGroundedAction,
                        obj_pose: Pose, placement: Pose) -> bool:
    """Annulus checks for grasp point, placement and handover point."""
    gp = scene.grasp_point(action.obj, action.grasp_pick, pose=obj_pose)
    if not scene.robots[action.pick_robot].in_reach(gp):
        return False
    if not scene.robots[action.place_robot].in_reach(placement.xy):
        return False
    if action.is_handover:
        h = scene.handover_point(action.pick_robot, action.place_robot)
        if not scene.robots[action.pick_robot].in_reach(h):
            return False
        if not scene.robots[action.place_robot].in_reach(h):
            return False
    return True


def points_close(a: tuple[float, float], b: tuple[float, float],
                 tol: float = 1e-6) -> bool:
    return math.hypot(a[0] - b[0], a[1] - b[1]) <= tol


def partner_pairs(moves: dict[str, RobotMove]) -> set[frozenset]:
    """Robot pairs that hand an object over among one joint action's moves."""
    return {frozenset(mv.action.robots) for mv in moves.values()
            if mv.action.is_handover}


def trim_for_handover(scene: Scene, mv: RobotMove) -> list:
    """Corridors of a handover participant, trimmed around the handover point."""
    a = mv.action
    h = scene.handover_point(a.pick_robot, a.place_robot)
    radius = scene.handover_radius(a.pick_robot, a.place_robot)
    out = []
    for cor in mv.all_corridors():
        if points_close(cor.a, h) or points_close(cor.b, h):
            end = cor.a if points_close(cor.a, h) else cor.b
            trimmed = cor.trimmed(end, radius + cor.half_width)
            if trimmed is not None:
                out.append(trimmed)
        else:
            out.append(cor)
    return out
