"""World model: regions, robots, movable/fixed objects, scene loading.

The module holds the world and what more than one layer derives from it.
A rule with one user lives with that user: placements are drawn by
``grounding.find_placements``, and the handover neighbourhood is
``motion.trim_for_handover``'s.

``Scene.__init__``, and so ``replace``, is the one gate for a scene's
values, whether a document or code built it; the constructors of its
parts check nothing. It refuses a number that is not finite, a coordinate
or length beyond ``LIMIT``, a length that is not positive and an empty
reach or region, then a scene that breaks a world invariant, naming the
first faulty part. A scene knows each region, movable and robot by its
dict key; its goal maps each goal object to its goal region, and
``unmet_goals`` lists the goal objects a plan must move.

Scene documents are JSON (``schemas/scene.schema.json``, bounded by
``LIMIT``); ``mrplan.schemas.load`` refuses a number that is not finite
and a repeated key. ``loads_scene`` refuses only what its dicts cannot
carry: a name that two regions, movables or robots share, before the
``Scene``'s checks; after them, a malformed or repeated ``handover_points``
key and a goal that lists an object twice.

A ``Scene`` derives its constant tables once, in ``__init__``: its robots
in name order, its movables in name order with their start volumes, its
grasp angles, and each listed handover pair's point in both orders: no
other pair hands over. ``robots_by_name``, ``grasp_angles``,
``handover_pairs`` and ``movables_hit`` read the tables. ``grasp_point``
and ``transfer_width`` compute their one formula each time the fact phase,
grounding or the validator reads them, so a movable costs no table entry
per grasp or per robot.
"""
from __future__ import annotations

import math

from . import schemas
from .geometry import (Disc, Pose, Rect, Rectangle, Shape, collides, collides_any,
                       shape_inside_rect)
from .record import Record

DEFAULT_GRASP_COUNT = 8
LIMIT = 1e4  # metres: the bound on every scene coordinate and length


class SceneError(ValueError):
    """Scene document is malformed or violates a world invariant."""


class Robot(Record):
    __slots__ = ("base", "reach_min", "reach_max", "gripper_width")

    def __init__(self, base: tuple[float, float], reach_min: float,
                 reach_max: float, gripper_width: float):
        self.base = base
        self.reach_min = reach_min
        self.reach_max = reach_max
        self.gripper_width = gripper_width

    def in_reach(self, p: tuple[float, float]) -> bool:
        d = math.hypot(p[0] - self.base[0], p[1] - self.base[1])
        return self.reach_min <= d <= self.reach_max


class Movable(Record):
    __slots__ = ("shape", "pose", "home_region")

    def __init__(self, shape: Shape, pose: Pose, home_region: str):
        self.shape = shape
        self.pose = pose
        self.home_region = home_region


class Scene(Record):
    __slots__ = ("regions", "fixed", "movables", "robots", "handover_points",
                 "grasp_count", "goal",
                 "_robots", "_movables", "_grasp_angles", "_handover_points")

    def __init__(self, regions: dict[str, Rect], fixed: list[tuple[Shape, Pose]],
                 movables: dict[str, Movable], robots: dict[str, Robot],
                 handover_points: dict[tuple[str, str], tuple[float, float]],
                 grasp_count: int, goal: dict[str, str]):
        self.regions = regions
        self.fixed = fixed
        self.movables = movables
        self.robots = robots
        self.handover_points = handover_points
        self.grasp_count = grasp_count
        self.goal = goal  # object -> goal region
        self._robots = tuple(sorted(robots.items()))
        self._movables = tuple((name, (m.shape, m.pose)) for name, m in sorted(movables.items()))
        self._check_invariants()
        self._grasp_angles = tuple(2.0 * math.pi * i / grasp_count for i in range(grasp_count))
        self._handover_points = dict(sorted((pair, h) for (r1, r2), h in handover_points.items()
                                            for pair in ((r1, r2), (r2, r1))))

    @property
    def robots_by_name(self) -> tuple[tuple[str, Robot], ...]:
        """``(name, robot)`` for every robot, in name order."""
        return self._robots

    def grasp_angles(self) -> tuple[float, ...]:
        return self._grasp_angles

    def goal_objects(self) -> list[str]:
        return sorted(self.goal)

    def unmet_goals(self) -> list[str]:
        """The goal objects outside their goal region at their start poses, in
        name order: the objects a plan must move."""
        return [obj for obj, (shape, pose) in self._movables if obj in self.goal
                and not shape_inside_rect(shape, pose, self.regions[self.goal[obj]])]

    def target_region_of(self, obj: str) -> str:
        """Goal region for goal objects, home region otherwise."""
        return self.goal.get(obj, self.movables[obj].home_region)

    @property
    def handover_pairs(self) -> dict[tuple[str, str], tuple[float, float]]:
        """``(giver, receiver) -> point``: each listed pair, both orders, sorted."""
        return self._handover_points

    def handover_point(self, r1: str, r2: str) -> tuple[float, float]:
        return self._handover_points[r1, r2]

    def grasp_point(self, obj: str, angle: float,
                    pose: Pose | None = None) -> tuple[float, float]:
        """Approach point on the object's circumscribed circle for a grasp
        angle, at ``pose`` or else at the object's start pose."""
        m = self.movables[obj]
        if pose is None:
            pose = m.pose
        r = m.shape.circumradius
        return (pose.x + r * math.cos(angle), pose.y + r * math.sin(angle))

    def transfer_width(self, robot: str, obj: str) -> float:
        """Width of ``robot``'s sweep carrying ``obj``: its gripper plus the
        object's diameter."""
        return self.robots[robot].gripper_width + 2.0 * self.movables[obj].shape.circumradius

    def movables_hit(self, volumes, exclude=()) -> list[str]:
        """Movables outside ``exclude`` that any of ``volumes`` hits at their
        start poses, in name order."""
        return [name for name, vol in self._movables
                if name not in exclude and collides_any(vol, volumes)]

    def _check_invariants(self):
        # the values first (movables and robots in name order); each test fails on NaN
        for name, r in self.regions.items():
            _bounded(f"region {name}", r.xmin, r.ymin, r.xmax, r.ymax)
            if r.xmax <= r.xmin or r.ymax <= r.ymin:
                raise SceneError(f"region {name}: rectangle must have positive area")
        solids = [(f"fixed obstacle {i}", *solid) for i, solid in enumerate(self.fixed)]
        for what, shape, pose in solids + [(f"movable {n}", *vol) for n, vol in self._movables]:
            lengths = (shape.radius,) if isinstance(shape, Disc) else (shape.half_w, shape.half_h)
            _bounded(what, pose.x, pose.y, pose.theta, *lengths)
            if min(lengths) <= 0.0:
                kind = "disc radius" if len(lengths) == 1 else "rectangle extents"
                raise SceneError(f"{what}: {kind} must be positive")
        for name, r in self._robots:
            _bounded(f"robot {name}", *r.base, r.reach_min, r.reach_max, r.gripper_width)
            if not 0.0 <= r.reach_min < r.reach_max:
                raise SceneError(f"robot {name}: need 0 <= reach_min < reach_max")
            if r.gripper_width <= 0.0:
                raise SceneError(f"robot {name}: gripper_width must be positive")
        for (r1, r2), h in self.handover_points.items():
            _bounded(f"handover point {r1},{r2}", *h)
        _bounded("grasp_count", self.grasp_count)
        if self.grasp_count < 1:
            raise SceneError("grasp_count must be >= 1")
        for name, m in self.movables.items():
            if m.home_region not in self.regions:
                raise SceneError(f"movable {name}: unknown home_region {m.home_region!r}")
            if not shape_inside_rect(m.shape, m.pose, self.regions[m.home_region]):
                raise SceneError(
                    f"movable {name} does not lie inside its home region {m.home_region}")
        # the first movable in name order that overlaps a later one or a
        # fixed obstacle is refused, with its first such partner in name order
        later = _overlapping_later(self._movables)
        for name, vol in self._movables:
            if name in later:
                raise SceneError(f"movables {name} and {min(later[name])} overlap at load")
            if collides_any(vol, self.fixed):
                raise SceneError(f"movable {name} overlaps a fixed obstacle at load")
        for obj, re in self.goal.items():
            if obj not in self.movables:
                raise SceneError(f"goal references unknown object {obj!r}")
            if re not in self.regions:
                raise SceneError(f"goal references unknown region {re!r}")
        first = {}  # each pair, either order -> the order listed first
        for (r1, r2) in self.handover_points:
            if r1 not in self.robots or r2 not in self.robots:
                raise SceneError(f"handover point references unknown robots ({r1}, {r2})")
            if r1 == r2:
                raise SceneError(f"handover point key '{r1},{r2}' pairs robot {r1} with itself")
            if first.setdefault(frozenset((r1, r2)), (r1, r2)) != (r1, r2):
                raise SceneError(f"handover points list robots {r1} and {r2} twice")


def _bounded(what: str, *values: float):
    for v in values:
        if not -LIMIT <= v <= LIMIT:
            raise SceneError(f"{what}: {v!r} is not a finite number within ±{LIMIT:g}")


def _overlapping_later(movables) -> dict[str, list[str]]:
    """For each of the ``(name, (shape, pose))`` movables, in name order,
    that overlaps a later one: the later names it overlaps.

    Sort and sweep: the boxes, each centre plus and minus its shape's
    circumradius, are sorted by their low edge along the axis on which the
    centres spread widest. A box is compared only with the later boxes whose
    low edge is not past its high edge, and ``collides`` runs only when the
    two boxes meet on the other axis too. Boxes that merely touch are
    tested, so no overlap is missed.
    """
    if not movables:
        return {}
    xs = [pose.x for _, (_, pose) in movables]
    ys = [pose.y for _, (_, pose) in movables]
    along_x = max(xs) - min(xs) >= max(ys) - min(ys)
    boxes = []  # (low, high) along the sweep axis, (low, high) across it, rank
    for rank, (_, (shape, pose)) in enumerate(movables):
        r = shape.circumradius
        u, v = (pose.x, pose.y) if along_x else (pose.y, pose.x)
        boxes.append((u - r, u + r, v - r, v + r, rank))
    boxes.sort()
    later: dict[str, list[str]] = {}
    for i, (_, hi, lo_v, hi_v, rank) in enumerate(boxes):
        for j in range(i + 1, len(boxes)):
            lo2, _, lo2_v, hi2_v, rank2 = boxes[j]
            if lo2 > hi:
                break
            if lo2_v > hi_v or lo_v > hi2_v:
                continue
            (na, a), (nb, b) = movables[min(rank, rank2)], movables[max(rank, rank2)]
            if collides(a, b):
                later.setdefault(na, []).append(nb)
    return later


# ---------------------------------------------------------------------------
# loading


def _parse_shape(d: dict) -> Shape:
    if d["type"] == "disc":
        return Disc(radius=d["radius"])
    return Rectangle(half_w=d["half_w"], half_h=d["half_h"])


def loads_scene(text: str) -> Scene:
    doc = schemas.load("scene", text, SceneError)
    names = [item["name"] for kind in ("regions", "movables", "robots") for item in doc[kind]]
    if len(names) != len(set(names)):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise SceneError(f"duplicate entity names: {dup}")

    regions = {r["name"]: Rect(*r["rect"]) for r in doc["regions"]}
    fixed = [(_parse_shape(f["shape"]), Pose.from_doc(f["pose"])) for f in doc.get("fixed", [])]
    movables = {m["name"]: Movable(_parse_shape(m["shape"]), Pose.from_doc(m["pose"]),
                                   m["home_region"]) for m in doc["movables"]}
    robots = {r["name"]: Robot(tuple(r["base"]), r["reach_min"], r["reach_max"],
                               r["gripper_width"]) for r in doc["robots"]}
    # what the dicts drop is refused after the Scene's checks, in document order
    handover_points, dropped = {}, []
    for key, pt in doc.get("handover_points", {}).items():
        pair = tuple(name.strip() for name in key.split(","))
        if len(pair) != 2 or not all(pair):
            dropped.append(f"handover point key {key!r} is not two comma-separated robot names")
        elif pair in handover_points:
            dropped.append(f"handover points list robots {pair[0]} and {pair[1]} twice")
        else:
            handover_points[pair] = (pt[0], pt[1])
    goal_objs = [obj for obj, _ in doc.get("goal", [])]
    if dup := sorted({o for o in goal_objs if goal_objs.count(o) > 1}):
        dropped.append(f"goal lists objects more than once: {dup}")
    # the schema takes 2.0 as an integer; range() does not
    scene = Scene(regions=regions, fixed=fixed, movables=movables, robots=robots,
                  handover_points=handover_points,
                  grasp_count=int(doc.get("grasp_count", DEFAULT_GRASP_COUNT)),
                  goal=dict(doc.get("goal", [])))
    if dropped:
        raise SceneError(dropped[0])
    return scene


def load_scene(path) -> Scene:
    return loads_scene(schemas.read("scene", path, SceneError))

