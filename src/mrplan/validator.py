"""Independent plan validity checker.

Replays a plan step by step on a copy of the scene and checks:
  (i)   all same-step swept corridors are pairwise collision-free across
        robots and collision-free w.r.t. fixed obstacles, the current poses
        of all non-manipulated objects, and the other robots' base points;
  (ii)  placements lie entirely inside their target regions and are
        collision-free; each move's two legs run as its role lays them out
        on the replayed poses, each ending within the robot's reach:

          role     pick leg (gripper)       carry leg
          single   base -> grasp point      current pose -> placement
          pick     base -> grasp point      current pose -> handover point
          place    base -> handover point   handover point -> placement

  (iii) a fault of (ii) at the handover point is a (iii) fault, as is an
        overlap of partners' corridors outside the handover neighbourhood;
plus monotonicity (each object moved at most once) and goal satisfaction.
It tests every corridor and placement itself, against each step's world
(fixed obstacles, then unmoved objects at their replayed poses), with one
``geometry.collides_any`` query each; only on a hit does it walk the world
to name what was hit. It derives the legs' ends with its own arithmetic,
never with the layout grounding executes (``motion.build_moves``). Besides
the collision kernel, it shares with grounding the bases a sweep covers
(``motion.bases_crossed``), the robot pairs that clash
(``motion.robot_clashes``), the tolerance of a point match
(``motion.points_close``), a grasp point (``Scene.grasp_point``, a pick
leg's end), the width of a carry (``Scene.transfer_width``, the narrowest
carry corridor ``_check_sweep`` accepts) and a pair's handover point
(``Scene.handover_point``), but not ``motion.sweep_clear``: it composes
condition (i) itself, so a fault in that rule shows as a violation.
A plan that names unknown entities, gives a robot an action it is not part
of, hands over between robots the scene lists no handover point for, fills
one slot of a handover, gives a handover's two sides different placements,
has a move whose action holds other than one grasp, or a grasp angle that
is not finite, or has a corridor that is not the sweep of its two
waypoints or whose width is NaN or narrower than the sweep's raises
PlanError; no other layer checks a plan built in code. A move's role is
its action's, and each record's robot, a wait's too, is one of the
scene's; ``plans.loads_plan`` refuses a plan document that says otherwise.
"""
from __future__ import annotations

import itertools
import math

from .geometry import EPS, collides, collides_any, shape_inside_rect
from .motion import bases_crossed, points_close, robot_clashes
from .plans import Plan, PlanError, RobotMove
from .record import Record
from .scene import Scene

CONDITIONS = ("condition_i", "condition_ii", "condition_iii", "monotonicity", "goal")


class Violation(Record):
    __slots__ = ("code", "step", "message")

    def __init__(self, code: str, step: int | None, message: str):
        self.code = code
        self.step = step
        self.message = message


class ValidationReport:
    __slots__ = ("violations",)

    def __init__(self):
        self.violations = []

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
            if a.is_handover and (a.pick_robot, a.place_robot) not in scene.handover_pairs:
                raise PlanError(f"step {j}: robots {a.pick_robot} and {a.place_robot} "
                                "have no handover point")
            if robot not in a.robots:
                raise PlanError(f"step {j}: robot {robot} holds an action it is not part of")
            if len(a.grasps) != 1:
                raise PlanError(f"step {j}: {robot} holds {len(a.grasps)} grasps, not one")
            if not math.isfinite(a.grasp_pick):
                raise PlanError(f"step {j}: {robot} grasp_pick {a.grasp_pick!r} is not finite")
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
    """A trajectory is the sweep of its two waypoints: its corridor runs from
    the first to the second and is at least ``min_width`` wide."""
    (p, q), cor = traj.waypoints, traj.corridor
    if not (points_close(cor.a, p.xy) and points_close(cor.b, q.xy)):
        raise PlanError(f"step {j}: {robot} {name} corridor does not join its waypoints")
    if not cor.width >= min_width - EPS:  # NaN fails it
        raise PlanError(f"step {j}: {robot} {name} corridor is narrower than "
                        f"{min_width:g}")


def _leg_faults(scene: Scene, robot: str, mv: RobotMove, poses):
    """Yield ``(code, message)`` for each fault in the two legs of ``robot``'s
    move, laid out by its role as the module's table says: a leg's first
    waypoint is its start, its second its end, and its end is in the robot's
    reach. A fault at the handover point is condition (iii), any
    other condition (ii)."""
    a, r = mv.action, scene.robots[robot]
    base = (r.base, "its base", "condition_ii")
    grasp = (scene.grasp_point(a.obj, a.grasp_pick, pose=poses[a.obj]),
             f"the grasp point of {a.obj}", "condition_ii")
    current = (poses[a.obj].xy, "its current pose", "condition_ii")
    placement = (mv.placement.xy, "its placement", "condition_ii")
    if a.is_handover:
        h = (scene.handover_point(a.pick_robot, a.place_robot), "the handover point",
             "condition_iii")
    role = a.role(robot)
    if role == "single":
        legs = (base, grasp), (current, placement)
    elif role == "pick":
        legs = (base, grasp), (current, h)
    else:
        legs = (base, h), (h, placement)
    names = f"pick trajectory of {robot}", f"carry of {a.obj} by {robot}"
    for leg, traj, (start, end) in zip(names, (mv.pick_traj, mv.place_traj), legs):
        first, last = traj.waypoints
        for verb, at, (p, where, code) in (("start", first, start), ("end", last, end)):
            if not points_close(at.xy, p):
                yield code, f"{leg} does not {verb} at {where}"
        p, where, code = end
        if not r.in_reach(p):
            yield code, f"{leg} ends out of reach at {where}"


def validate_plan(scene: Scene, plan: Plan) -> ValidationReport:
    _check_structure(scene, plan)
    report = ValidationReport()
    poses = {name: m.pose for name, m in scene.movables.items()}
    moved_before: set[str] = set()
    fixed = [(f"fixed obstacle {k}", vol) for k, vol in enumerate(scene.fixed)]

    for j, step in enumerate(plan.steps, start=1):
        manipulated = step.moved_objects()
        # monotonicity
        for obj in sorted(manipulated & moved_before):
            report.add("monotonicity", j, f"object {obj} moved more than once")

        robots = sorted(step.moves)
        # the static world: fixed obstacles, then the unmoved objects where they are
        world = fixed + [(f"object {name}", (scene.movables[name].shape, poses[name]))
                         for name in sorted(scene.movables) if name not in manipulated]
        volumes = [vol for _, vol in world]

        # (i) corridors vs static world
        for robot in robots:
            for cor in step.moves[robot].all_corridors():
                if collides_any(cor, volumes):
                    for label, vol in world:
                        if collides(cor, vol):
                            report.add("condition_i", j, f"corridor of {robot} hits {label}")
                for other in bases_crossed(scene, robot, cor):
                    report.add("condition_i", j,
                               f"corridor of {robot} sweeps over base of {other}")

        # (i)/(iii) cross-robot corridor overlap
        for r1, r2, handover in robot_clashes(scene, step.moves):
            if handover:
                report.add("condition_iii", j, f"handover corridors of {r1} and {r2} "
                                               f"overlap outside the handover neighbourhood")
            else:
                report.add("condition_i", j, f"corridors of {r1} and {r2} collide")

        # (ii) placements, from each move's place side
        placements = [(step.moves[r].action, step.moves[r]) for r in robots
                      if r == step.moves[r].action.place_robot]
        for a, mv in placements:
            shape = scene.movables[a.obj].shape
            if not shape_inside_rect(shape, mv.placement, scene.regions[a.region]):
                report.add("condition_ii", j,
                           f"placement of {a.obj} is not inside region {a.region}")
            if collides_any((shape, mv.placement), volumes):
                for label, vol in world:
                    if collides((shape, mv.placement), vol):
                        report.add("condition_ii", j, f"placement of {a.obj} hits {label}")
        # (ii)/(iii) where each leg starts and ends, and its reach
        for robot in robots:
            for code, msg in _leg_faults(scene, robot, step.moves[robot], poses):
                report.add(code, j, msg)
        for (a1, mv1), (a2, mv2) in itertools.combinations(placements, 2):
            if collides((scene.movables[a1.obj].shape, mv1.placement),
                        (scene.movables[a2.obj].shape, mv2.placement)):
                report.add("condition_ii", j,
                           f"placements of {a1.obj} and {a2.obj} overlap")

        poses.update(step.placements())
        moved_before |= manipulated

    for obj, re in scene.goal.items():
        if not shape_inside_rect(scene.movables[obj].shape, poses[obj], scene.regions[re]):
            report.add("goal", None, f"object {obj} does not end inside region {re}")
    return report
