"""Independent plan validity checker.

Replays a plan step by step on a copy of the scene and checks:
  (i)   all same-step swept corridors are pairwise collision-free across
        robots and collision-free w.r.t. fixed obstacles, the current poses
        of all non-manipulated objects, and the other robots' base points;
  (ii)  placements lie entirely inside their target regions, are
        collision-free, and pick/place endpoints are within reach; each
        trajectory starts and ends where ``motion.build_moves`` lays it out
        on the replayed poses (base, grasp point, current pose, placement);
  (iii) handover corridors of both partners meet at the handover point and
        do not overlap outside the handover neighbourhood;
plus monotonicity (each object moved at most once) and goal satisfaction.
A plan that names unknown entities, fills one slot of a handover, gives a
move a role other than its action's, gives a handover's two sides
different placements, or lists corridors that are not the sweeps of its
waypoints raises PlanError.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import EPS, collides, shape_inside_rect
from .motion import bases_crossed, partner_pairs, points_close, trim_for_handover
from .plans import Plan, PlanError, RobotMove
from .scene import Scene

CONDITIONS = ("condition_i", "condition_ii", "condition_iii", "monotonicity", "goal")


@dataclass(frozen=True)
class Violation:
    code: str
    step: int | None
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def condition_results(self) -> dict[str, bool]:
        failed = {v.code for v in self.violations}
        return {c: c not in failed for c in CONDITIONS}

    def add(self, code: str, step: int | None, message: str):
        self.violations.append(Violation(code, step, message))

    def to_doc(self) -> dict:
        return {
            "ok": self.ok,
            "conditions": self.condition_results(),
            "violations": [
                {"code": v.code, "step": v.step, "message": v.message}
                for v in self.violations
            ],
        }


def _check_structure(scene: Scene, plan: Plan):
    for j, step in enumerate(plan.steps, start=1):
        for robot, mv in step.moves.items():
            a = mv.action
            if robot not in scene.robots:
                raise PlanError(f"step {j}: unknown robot {robot!r}")
            if a.obj not in scene.movables:
                raise PlanError(f"step {j}: unknown object {a.obj!r}")
            if a.region not in scene.regions:
                raise PlanError(f"step {j}: unknown region {a.region!r}")
            if a.pick_robot not in scene.robots or a.place_robot not in scene.robots:
                raise PlanError(f"step {j}: unknown robot in action for {a.obj}")
            if robot not in a.robots:
                raise PlanError(f"step {j}: robot {robot} holds an action it is not part of")
            role = ("single" if not a.is_handover
                    else "pick" if robot == a.pick_robot else "place")
            if mv.role != role:
                raise PlanError(f"step {j}: {robot} has role {mv.role!r} in a "
                                f"{role!r} move of {a.obj}")
            _check_sweep(j, robot, "pick_traj", mv.pick_traj,
                         scene.robots[robot].gripper_width)
            _check_sweep(j, robot, "place_traj", mv.place_traj,
                         scene.transfer_width(robot, a.obj))
        # a handover must occupy both of its robots' slots
        for robot, mv in step.moves.items():
            a = mv.action
            if a.is_handover:
                other = a.place_robot if robot == a.pick_robot else a.pick_robot
                partner = step.moves.get(other)
                if partner is None or partner.action != a:
                    raise PlanError(
                        f"step {j}: handover of {a.obj} does not occupy both robot slots")
                if partner.placement != mv.placement:
                    raise PlanError(
                        f"step {j}: the two sides of the handover of {a.obj} "
                        f"disagree on its placement")


def _check_sweep(j: int, robot: str, name: str, traj, min_width: float):
    """A trajectory is the sweep of its waypoints: one corridor per leg, at
    least ``min_width`` wide, running from each waypoint to the next."""
    legs = list(zip(traj.waypoints, traj.waypoints[1:]))
    if len(traj.corridors) != len(legs):
        raise PlanError(f"step {j}: {robot} {name} has {len(traj.corridors)} corridors "
                        f"for {len(legs)} waypoint legs")
    for (p, q), cor in zip(legs, traj.corridors):
        if not (points_close(cor.a, p.xy) and points_close(cor.b, q.xy)):
            raise PlanError(f"step {j}: {robot} {name} corridor does not join its waypoints")
        if cor.width < min_width - EPS:
            raise PlanError(f"step {j}: {robot} {name} corridor is narrower than "
                            f"{min_width:g}")


def _endpoint_faults(scene: Scene, robot: str, mv: RobotMove, poses) -> list[str]:
    """Trajectory ends that are not where ``motion.build_moves`` puts them:
    every pick sweep starts at the robot's base and the picking robot's ends
    at the grasp point; the carry starts at the object's current pose (single
    move or handover pick side) and the delivery ends at the placement
    (single move or handover place side)."""
    a = mv.action
    faults = []
    if not points_close(mv.pick_traj.waypoints[0].xy, scene.robots[robot].base):
        faults.append(f"pick trajectory of {robot} does not start at its base")
    if robot == a.pick_robot:
        gp = scene.grasp_point(a.obj, a.grasp_pick, pose=poses[a.obj])
        if not points_close(mv.pick_traj.waypoints[-1].xy, gp):
            faults.append(f"pick trajectory of {robot} does not end at the grasp "
                          f"point of {a.obj}")
        if not points_close(mv.place_traj.waypoints[0].xy, poses[a.obj].xy):
            faults.append(f"carry of {a.obj} by {robot} does not start at its "
                          f"current pose")
    if robot == a.place_robot:
        if not points_close(mv.place_traj.waypoints[-1].xy, mv.placement.xy):
            faults.append(f"carry of {a.obj} by {robot} does not end at its placement")
    return faults


def validate_plan(scene: Scene, plan: Plan) -> ValidationReport:
    _check_structure(scene, plan)
    report = ValidationReport()
    poses = {name: m.pose for name, m in scene.movables.items()}
    moved_before: set[str] = set()

    for j, step in enumerate(plan.steps, start=1):
        manipulated = step.moved_objects()
        # monotonicity
        for obj in sorted(manipulated):
            if obj in moved_before:
                report.add("monotonicity", j, f"object {obj} moved more than once")

        pairs = partner_pairs(step.moves)
        robots = sorted(step.moves)

        # (i) corridors vs static world
        for robot in robots:
            mv = step.moves[robot]
            for cor in mv.all_corridors():
                for k, (shape, pose) in enumerate(scene.fixed):
                    if collides(cor, (shape, pose)):
                        report.add("condition_i", j,
                                   f"corridor of {robot} hits fixed obstacle {k}")
                for name in sorted(scene.movables):
                    if name in manipulated:
                        continue
                    m = scene.movables[name]
                    if collides(cor, (m.shape, poses[name])):
                        report.add("condition_i", j,
                                   f"corridor of {robot} hits object {name}")
                for other in bases_crossed(scene, robot, cor):
                    report.add("condition_i", j,
                               f"corridor of {robot} sweeps over base of {other}")

        # (i)/(iii) cross-robot corridor overlap
        for i1 in range(len(robots)):
            for i2 in range(i1 + 1, len(robots)):
                r1, r2 = robots[i1], robots[i2]
                if frozenset((r1, r2)) in pairs:
                    cs1 = trim_for_handover(scene, step.moves[r1])
                    cs2 = trim_for_handover(scene, step.moves[r2])
                    code = "condition_iii"
                    msg = (f"handover corridors of {r1} and {r2} overlap outside "
                           f"the handover neighbourhood")
                else:
                    cs1 = step.moves[r1].all_corridors()
                    cs2 = step.moves[r2].all_corridors()
                    code = "condition_i"
                    msg = f"corridors of {r1} and {r2} collide"
                if any(collides(c1, c2) for c1 in cs1 for c2 in cs2):
                    report.add(code, j, msg)

        # (ii) placements, from each move's place side
        placements = [(step.moves[r].action, step.moves[r]) for r in robots
                      if r == step.moves[r].action.place_robot]
        for a, mv in placements:
            shape = scene.movables[a.obj].shape
            region = scene.regions[a.region]
            if not shape_inside_rect(shape, mv.placement, region.rect):
                report.add("condition_ii", j,
                           f"placement of {a.obj} is not inside region {a.region}")
            for k, (fshape, fpose) in enumerate(scene.fixed):
                if collides((shape, mv.placement), (fshape, fpose)):
                    report.add("condition_ii", j,
                               f"placement of {a.obj} hits fixed obstacle {k}")
            for name in sorted(scene.movables):
                if name in manipulated:
                    continue
                m = scene.movables[name]
                if collides((shape, mv.placement), (m.shape, poses[name])):
                    report.add("condition_ii", j,
                               f"placement of {a.obj} hits object {name}")
            if not scene.robots[a.place_robot].in_reach(mv.placement.xy):
                report.add("condition_ii", j,
                           f"placement of {a.obj} is out of reach of {a.place_robot}")
            gp = scene.grasp_point(a.obj, a.grasp_pick, pose=poses[a.obj])
            if not scene.robots[a.pick_robot].in_reach(gp):
                report.add("condition_ii", j,
                           f"grasp point of {a.obj} is out of reach of {a.pick_robot}")
        for robot in robots:
            for msg in _endpoint_faults(scene, robot, step.moves[robot], poses):
                report.add("condition_ii", j, msg)
        for i1 in range(len(placements)):
            for i2 in range(i1 + 1, len(placements)):
                a1, mv1 = placements[i1]
                a2, mv2 = placements[i2]
                s1 = scene.movables[a1.obj].shape
                s2 = scene.movables[a2.obj].shape
                if collides((s1, mv1.placement), (s2, mv2.placement)):
                    report.add("condition_ii", j,
                               f"placements of {a1.obj} and {a2.obj} overlap")

        # (iii) handover geometry
        seen_handover = set()
        for robot in robots:
            a = step.moves[robot].action
            if not a.is_handover or a in seen_handover:
                continue
            seen_handover.add(a)
            h = scene.handover_point(a.pick_robot, a.place_robot)
            carry = step.moves[a.pick_robot].place_traj.corridors[-1]
            reach = step.moves[a.place_robot].pick_traj.corridors[-1]
            if not (points_close(carry.a, h) or points_close(carry.b, h)):
                report.add("condition_iii", j,
                           f"carry corridor for {a.obj} does not reach the handover point")
            if not (points_close(reach.a, h) or points_close(reach.b, h)):
                report.add("condition_iii", j,
                           f"receive corridor for {a.obj} does not reach the handover point")
            for rname in (a.pick_robot, a.place_robot):
                if not scene.robots[rname].in_reach(h):
                    report.add("condition_iii", j,
                               f"handover point for {a.obj} is out of reach of {rname}")

        for a, mv in placements:
            poses[a.obj] = mv.placement
        moved_before |= manipulated

    if not scene.goal_satisfied(poses):
        unmet = [
            (obj, re) for obj, re in scene.goal
            if not shape_inside_rect(scene.movables[obj].shape, poses[obj],
                                     scene.regions[re].rect)
        ]
        for obj, re in unmet:
            report.add("goal", None, f"object {obj} does not end inside region {re}")
    return report
