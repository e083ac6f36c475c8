"""Actions, joint actions and plan documents.

Plan documents are JSON; their format is ``schemas/plan.schema.json``.
``mrplan.schemas.load`` reads them, refusing a number that is not finite.
``loads_plan`` also refuses a robot that is not in ``robots`` (the scene's)
or is listed twice in a step, and a record whose ``role`` or
``grasp_place`` is not the one its action implies: both are written from
it.
"""
from __future__ import annotations

import json

from . import schemas
from .geometry import Corridor, Pose
from .record import Record


class PlanError(ValueError):
    """Plan document is malformed or references unknown entities."""


class PartiallyGroundedAction(Record):
    """Pick-and-place without placement/trajectory information.

    A handover is an action whose pick and place robots differ; the two
    robots meet at the scene's handover point for that pair.

    A task-graph action stands for its grasp-equivalence class: ``grasps``
    lists the class's grasp angles, nearest to the pick robot first, and
    grounding tries them in that order. They take no part in identity or
    order: actions sort by their other fields, the canonical action order.
    ``grasp_pick`` is the action's one grasp, from pick to place.
    """
    __slots__ = ("obj", "region", "pick_robot", "place_robot", "grasp_pick", "grasps")
    _fields = __slots__[:-1]

    def __init__(self, obj: str, region: str, pick_robot: str, place_robot: str,
                 grasp_pick: float, grasps: tuple = ()):
        self.obj = obj
        self.region = region
        self.pick_robot = pick_robot
        self.place_robot = place_robot
        self.grasp_pick = grasp_pick
        self.grasps = grasps

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) < other._key(other)

    @property
    def is_handover(self) -> bool:
        return self.pick_robot != self.place_robot

    @property
    def robots(self) -> tuple[str, ...]:
        if self.is_handover:
            return (self.pick_robot, self.place_robot)
        return (self.pick_robot,)

    def role(self, robot: str) -> str:
        """``robot``'s part: single, or the pick or place side of a handover."""
        return ("single" if not self.is_handover
                else "pick" if robot == self.pick_robot else "place")


class Trajectory(Record):
    """One straight leg: ``corridor`` sweeps from one waypoint to the other."""
    __slots__ = ("waypoints", "corridor")

    def __init__(self, waypoints: tuple[Pose, Pose], corridor: Corridor):
        self.waypoints = waypoints
        self.corridor = corridor


class RobotMove(Record):
    """One robot's slot in a grounded joint action, in ``action.role(robot)``."""
    __slots__ = ("action", "placement", "pick_traj", "place_traj")

    def __init__(self, action: PartiallyGroundedAction, placement: Pose,
                 pick_traj: Trajectory, place_traj: Trajectory):
        self.action = action
        self.placement = placement
        self.pick_traj = pick_traj
        self.place_traj = place_traj

    def all_corridors(self) -> tuple[Corridor, Corridor]:
        return (self.pick_traj.corridor, self.place_traj.corridor)


class GroundedJointAction(Record):
    """Assignment of every robot to a move or a wait for one time step."""
    __slots__ = ("moves",)

    def __init__(self, moves: dict[str, RobotMove]):
        self.moves = moves  # absent robots wait

    def moved_objects(self) -> set[str]:
        return {mv.action.obj for mv in self.moves.values()}

    def placements(self) -> dict[str, Pose]:
        return {mv.action.obj: mv.placement for mv in self.moves.values()}


def moved_objects(steps) -> set[str]:
    """Objects moved by any of the grounded joint actions ``steps``."""
    return set().union(*(step.moved_objects() for step in steps))


class Plan(Record):
    __slots__ = ("steps",)

    def __init__(self, steps: tuple[GroundedJointAction, ...]):
        self.steps = steps

    @property
    def makespan(self) -> int:
        return len(self.steps)

    @property
    def motion_cost(self) -> int:
        return len(moved_objects(self.steps))


# ---------------------------------------------------------------------------
# JSON serialization


def _pose_doc(p: Pose) -> dict:
    return {"x": p.x, "y": p.y, "theta": p.theta}


def _traj_doc(t: Trajectory) -> dict:
    c = t.corridor
    return {
        "waypoints": [_pose_doc(w) for w in t.waypoints],
        "corridors": [{"a": list(c.a), "b": list(c.b), "width": c.width}],
    }


def _parse_traj(d: dict) -> Trajectory:
    p, q = d["waypoints"]
    c, = d["corridors"]
    return Trajectory(waypoints=(Pose.from_doc(p), Pose.from_doc(q)),
                      corridor=Corridor(tuple(c["a"]), tuple(c["b"]), c["width"]))


def plan_to_doc(plan: Plan, robot_names) -> dict:
    steps = []
    for step in plan.steps:
        recs = []
        for r in sorted(robot_names):
            if r not in step.moves:
                recs.append({"robot": r, "type": "wait"})
                continue
            mv = step.moves[r]
            a = mv.action
            recs.append({
                "robot": r,
                "type": "pick_place",
                "role": a.role(r),
                "object": a.obj,
                "region": a.region,
                "pick_robot": a.pick_robot,
                "place_robot": a.place_robot,
                "grasp_pick": a.grasp_pick,
                "grasp_place": a.grasp_pick,
                "placement": _pose_doc(mv.placement),
                "pick_traj": _traj_doc(mv.pick_traj),
                "place_traj": _traj_doc(mv.place_traj),
            })
        steps.append(recs)
    return {"steps": steps, "makespan": plan.makespan, "motion_cost": plan.motion_cost}


def dumps_plan(plan: Plan, robot_names) -> str:
    return json.dumps(plan_to_doc(plan, robot_names), indent=2, sort_keys=True) + "\n"


def loads_plan(text: str, robots) -> Plan:
    doc = schemas.load("plan", text, PlanError)
    steps = []
    for t, recs in enumerate(doc["steps"], start=1):
        moves, seen = {}, set()
        for rec in recs:
            robot = rec["robot"]
            if robot not in robots:
                raise PlanError(f"step {t}: unknown robot {robot!r}")
            if robot in seen:
                raise PlanError(f"step {t}: robot {robot} has more than one record")
            seen.add(robot)
            if rec["type"] == "wait":
                continue
            action = PartiallyGroundedAction(
                obj=rec["object"], region=rec["region"],
                pick_robot=rec["pick_robot"], place_robot=rec["place_robot"],
                grasp_pick=rec["grasp_pick"])
            if rec["grasp_place"] != action.grasp_pick:
                raise PlanError(f"step {t}: {robot} has grasp_place {rec['grasp_place']!r} "
                                f"in a move of {action.obj} picked at {action.grasp_pick!r}")
            # the validator refuses a robot that is not part of its action
            role = action.role(robot)
            if robot in action.robots and rec["role"] != role:
                raise PlanError(f"step {t}: {robot} has role {rec['role']!r} in a "
                                f"{role!r} move of {action.obj}")
            moves[robot] = RobotMove(
                action=action, placement=Pose.from_doc(rec["placement"]),
                pick_traj=_parse_traj(rec["pick_traj"]),
                place_traj=_parse_traj(rec["place_traj"]))
        steps.append(GroundedJointAction(moves=moves))
    plan = Plan(steps=tuple(steps))
    if doc["makespan"] != plan.makespan:
        raise PlanError(f"makespan field {doc['makespan']} != number of steps {plan.makespan}")
    if doc["motion_cost"] != plan.motion_cost:
        raise PlanError(
            f"motion_cost field {doc['motion_cost']} != distinct moved objects {plan.motion_cost}")
    return plan


def load_plan(path, robots) -> Plan:
    return loads_plan(schemas.read("plan", path, PlanError), robots)
