"""Phase 1: occlusion / reachability / handover facts for a scene.

Every sweep a fact tests is laid out by ``mrplan.motion``, whose docstring
states the conventions. Grounding executes the pick sweep and a handover's
carry and receive, so pick and handover facts certify what grounding will
do: each such sweep passes ``motion.sweep_clear`` with the fixed obstacles.
A place fact's carry runs from the robot's base to a candidate, which
grounding never runs: it carries from the start pose or the handover point
to a placement it samples, and tests that carry itself. Facts carry a grasp
only where the geometry reads one: the pick sweep runs from the robot's
base to the grasp point, so pick facts are per grasp, while place,
goal-place and handover facts carry none. A pick fact's grasp point is in
the robot's reach, and the movables its gripper sweep hits are its
occluders. Grounding lays that sweep out again at the object's start pose
and does not test it again. Only the pairs ``Scene.handover_pairs`` lists,
in either order, can hold handover facts.

Place facts test candidate placements: the region centre first, then a
PLACE_GRID x PLACE_GRID grid inset by the object's circumradius, row by
row; the inset keeps every candidate's footprint inside the region. A
candidate is valid for a robot when it lies in the robot's reach annulus
and its transfer sweep from the base clears the fixed obstacles. Each
(object, region) list is built once and shared by the robots, and each
robot tests it only until its answer is known:

* ``reachable_place`` needs one valid candidate, so for a non-goal pair
  the first valid candidate settles it;
* for a goal pair we keep the earliest valid candidate with the fewest
  movable occluders and record those occluders, so the scan stops at the
  first valid candidate with none. A candidate's occluders are the movables
  its carry hits: the carry's end cap, of half width the gripper's half
  width plus the object's circumradius, covers the placed footprint.

``compute_facts`` computes nothing up front. Its ``FactSet`` computes an
object's pick facts (``picks``), a goal object's handover facts
(``handovers``) and an (object, region) pair's place facts (``places``)
when first read, then keeps them, so a plan computes facts only for what
its task graphs read; no read order changes a fact. Each occlusion fact
is keyed by the sweep it tests: ``reachable_pick`` maps (object, grasp,
robot) to the movables the gripper sweep hits, and ``reachable_place``
maps (object, region, robot) to the goal-place occluders, none for a
non-goal pair. ``occludes_pick`` and ``occludes_goal_place`` list the
same facts as (occluder, object, ...) records. These full views and
``dumps`` fill every object and region first.
"""
from __future__ import annotations

import json

from .geometry import Pose, Rect, collides_any
from .motion import carry_sweep, gripper_sweep, sweep_clear
from .scene import Scene

PLACE_GRID = 5  # candidate placements per region axis for the place certificate


class FactSet:
    """A scene's facts: ``picks(M)``, ``places(M, Re)`` and ``handovers(M)``
    hold the full view's entries for M (and Re), computed when first read."""

    __slots__ = ("scene", "_pick", "_place", "_handover")

    def __init__(self, scene: Scene):
        self.scene = scene
        self._pick = {}         # obj -> _picks(scene, obj)
        self._place = {}        # (obj, region) -> _places(scene, obj, region)
        self._handover = {}     # obj -> _handovers(scene, obj)

    def picks(self, obj: str) -> dict:
        if obj not in self._pick:
            self._pick[obj] = _picks(self.scene, obj)
        return self._pick[obj]

    def places(self, obj: str, region: str) -> dict:
        if (obj, region) not in self._place:
            self._place[obj, region] = _places(self.scene, obj, region)
        return self._place[obj, region]

    def handovers(self, obj: str) -> set:
        if obj not in self._handover:
            self._handover[obj] = _handovers(self.scene, obj)
        return self._handover[obj]

    @property
    def reachable_pick(self) -> dict:
        return {k: v for m in sorted(self.scene.movables) for k, v in self.picks(m).items()}

    @property
    def reachable_place(self) -> dict:
        return {k: v for m in sorted(self.scene.movables)
                for re in sorted(self.scene.regions) for k, v in self.places(m, re).items()}

    @property
    def enable_goal_handover(self) -> set:
        return {k for m in self.scene.goal_objects() for k in self.handovers(m)}

    @property
    def occludes_pick(self) -> frozenset:
        """(M1, M2, g, R): M1 lies on R's gripper sweep to M2's grasp g."""
        return frozenset((occ, m, g, r) for (m, g, r), hit in self.reachable_pick.items()
                         for occ in hit)

    @property
    def occludes_goal_place(self) -> frozenset:
        """(M1, M2, Re, R): M1 occludes R's goal place of M2 in Re."""
        return frozenset((occ, m, re, r) for (m, re, r), hit in self.reachable_place.items()
                         for occ in hit)

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


def _grid(rect: Rect, inset: float) -> list[tuple[float, float]]:
    """Candidate placement points for a shape of circumradius ``inset``: the
    region centre, then a PLACE_GRID x PLACE_GRID grid inset by ``inset``,
    row by row, without its middle point, which is the centre up to
    rounding; ``[]`` when nothing fits. The shape placed at any of them lies
    inside ``rect``, because no point of it is farther than its circumradius
    from its centre."""
    x0, x1 = rect.xmin + inset, rect.xmax - inset
    y0, y1 = rect.ymin + inset, rect.ymax - inset
    if x0 > x1 or y0 > y1:
        return []
    n = PLACE_GRID
    xs = [x0 + (x1 - x0) * i / (n - 1) for i in range(n)]
    ys = [y0 + (y1 - y0) * i / (n - 1) for i in range(n)]
    mid = n // 2
    return [rect.center] + [(x, y) for j, y in enumerate(ys) for i, x in enumerate(xs)
                            if (i, j) != (mid, mid)]


def place_candidates(scene: Scene, region_name: str, obj: str) -> list[Pose]:
    """Candidate placement poses for ``obj`` in the region, in the order
    ``compute_facts`` tests them."""
    return [Pose(x, y) for x, y in
            _grid(scene.regions[region_name], scene.movables[obj].shape.circumradius)]


def compute_facts(scene: Scene) -> FactSet:
    return FactSet(scene)


def _picks(scene: Scene, obj: str) -> dict:
    """Pick reachability and pick occlusions of ``obj``, per grasp: a pick
    whose gripper sweep covers another robot's base is left out."""
    facts = {}
    angles = scene.grasp_angles()
    for rname, robot in scene.robots_by_name:
        for g in angles:
            gp = scene.grasp_point(obj, g)
            if not robot.in_reach(gp):
                continue
            cor = gripper_sweep(scene, rname, gp)
            if not sweep_clear(scene, rname, cor, scene.fixed):
                continue
            facts[(obj, g, rname)] = frozenset(scene.movables_hit([cor], exclude=(obj,)))
    return facts


def _places(scene: Scene, obj: str, re: str) -> dict:
    """Place reachability of ``obj`` in ``re``, goal-place occlusions too."""
    facts = {}
    points = _grid(scene.regions[re], scene.movables[obj].shape.circumradius)
    goal_pair = scene.goal.get(obj) == re
    for rname, robot in scene.robots_by_name:
        # None until a candidate is valid; then the occluders of the
        # earliest valid candidate with the fewest of them
        best = None
        for xy in points:
            if not robot.in_reach(xy):
                continue
            cor = carry_sweep(scene, rname, obj, robot.base, xy)
            if collides_any(cor, scene.fixed):
                continue
            if not goal_pair:
                best = []
                break
            occ = scene.movables_hit([cor], exclude=(obj,))
            if best is None or len(occ) < len(best):
                best = occ
            if not best:
                break
        if best is not None:
            facts[(obj, re, rname)] = frozenset(best)
    return facts


def _handovers(scene: Scene, obj: str) -> set:
    """Handover enablement of ``obj`` by each listed pair, none unless it is a
    goal object: both robots reach the point, and the giver's carry and the
    receiver's reach are clear."""
    if obj not in scene.goal:
        return set()
    start = scene.movables[obj].pose.xy
    return {(obj, r1, r2) for (r1, r2), h in scene.handover_pairs.items()
            if scene.robots[r1].in_reach(h) and scene.robots[r2].in_reach(h)
            and sweep_clear(scene, r1, carry_sweep(scene, r1, obj, start, h), scene.fixed)
            and sweep_clear(scene, r2, gripper_sweep(scene, r2, h), scene.fixed)}
