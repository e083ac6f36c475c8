"""World model: regions, robots, movable/fixed objects, scene loading.

Scene documents are JSON; their format is ``schemas/scene.schema.json``.
``mrplan.schemas.load`` reads them, refusing a number that is not finite.
``loads_scene`` also refuses a scene in which two regions, movables or
robots share a name, ``handover_points`` keys that are not two
comma-separated robot names, pair a robot with itself or list a pair twice
(in either order), and a goal that lists an object more than once. A
``Scene``'s goal maps each goal object to its goal region, and
``unmet_goals`` is the one list of the goal objects a plan must move.
"""
from __future__ import annotations

import math

from . import schemas
from .geometry import (Disc, Pose, Rect, Rectangle, Shape, collides, collides_any,
                       shape_inside_rect)
from .record import Record

DEFAULT_GRASP_COUNT = 8
PLACEMENT_ATTEMPTS = 100


class SceneError(ValueError):
    """Scene document is malformed or violates a world invariant."""


class Region(Record):
    __slots__ = ("name", "rect")

    def __init__(self, name: str, rect: Rect):
        self.name = name
        self.rect = rect


class Robot(Record):
    __slots__ = ("name", "base", "reach_min", "reach_max", "gripper_width")

    def __init__(self, name: str, base: tuple[float, float], reach_min: float,
                 reach_max: float, gripper_width: float):
        if not (0.0 <= reach_min < reach_max):
            raise SceneError(f"robot {name}: need 0 <= reach_min < reach_max")
        if gripper_width <= 0.0:
            raise SceneError(f"robot {name}: gripper_width must be positive")
        self.name = name
        self.base = base
        self.reach_min = reach_min
        self.reach_max = reach_max
        self.gripper_width = gripper_width

    def in_reach(self, p: tuple[float, float]) -> bool:
        d = math.hypot(p[0] - self.base[0], p[1] - self.base[1])
        return self.reach_min <= d <= self.reach_max


class Movable(Record):
    __slots__ = ("name", "shape", "pose", "home_region")

    def __init__(self, name: str, shape: Shape, pose: Pose, home_region: str):
        self.name = name
        self.shape = shape
        self.pose = pose
        self.home_region = home_region

    @property
    def diameter(self) -> float:
        return 2.0 * self.shape.circumradius


class Scene(Record):
    __slots__ = ("regions", "fixed", "movables", "robots", "handover_points",
                 "grasp_count", "goal")

    def __init__(self, regions: dict[str, Region], fixed: list[tuple[Shape, Pose]],
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
        self._check_invariants()

    # -- derived quantities ------------------------------------------------

    def grasp_angles(self) -> list[float]:
        k = self.grasp_count
        return [2.0 * math.pi * i / k for i in range(k)]

    def goal_objects(self) -> list[str]:
        return sorted(self.goal)

    def unmet_goals(self) -> list[str]:
        """The goal objects outside their goal region at their start poses, in
        name order: the objects a plan must move."""
        return [obj for obj, m in sorted(self.movables.items()) if obj in self.goal
                and not shape_inside_rect(m.shape, m.pose, self.regions[self.goal[obj]].rect)]

    def target_region_of(self, obj: str) -> str:
        """Goal region for goal objects, home region otherwise."""
        return self.goal.get(obj, self.movables[obj].home_region)

    def handover_point(self, r1: str, r2: str) -> tuple[float, float]:
        key = (r1, r2) if (r1, r2) in self.handover_points else (r2, r1)
        if key in self.handover_points:
            return self.handover_points[key]
        b1, b2 = self.robots[r1].base, self.robots[r2].base
        return (0.5 * (b1[0] + b2[0]), 0.5 * (b1[1] + b2[1]))

    def handover_radius(self, r1: str, r2: str) -> float:
        return max(self.robots[r1].gripper_width, self.robots[r2].gripper_width)

    def grasp_point(self, obj: str, angle: float,
                    pose: Pose | None = None) -> tuple[float, float]:
        """Approach point on the object's circumscribed circle for a grasp angle."""
        m = self.movables[obj]
        p = pose if pose is not None else m.pose
        r = m.shape.circumradius
        return (p.x + r * math.cos(angle), p.y + r * math.sin(angle))

    def transfer_width(self, robot: str, obj: str) -> float:
        return self.robots[robot].gripper_width + self.movables[obj].diameter

    def movables_hit(self, volumes, exclude=()) -> list[str]:
        """Movables outside ``exclude`` that any of ``volumes`` hits at their
        start poses, in name order."""
        return [name for name, m in sorted(self.movables.items())
                if name not in exclude and collides_any((m.shape, m.pose), volumes)]

    # -- invariants ----------------------------------------------------------

    def _check_invariants(self):
        if self.grasp_count < 1:
            raise SceneError("grasp_count must be >= 1")
        for m in self.movables.values():
            if m.home_region not in self.regions:
                raise SceneError(f"movable {m.name}: unknown home_region {m.home_region!r}")
            if not shape_inside_rect(m.shape, m.pose, self.regions[m.home_region].rect):
                raise SceneError(
                    f"movable {m.name} does not lie inside its home region {m.home_region}")
        items = sorted(self.movables.values(), key=lambda m: m.name)
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                if collides((a.shape, a.pose), (b.shape, b.pose)):
                    raise SceneError(f"movables {a.name} and {b.name} overlap at load")
            if collides_any((a.shape, a.pose), self.fixed):
                raise SceneError(f"movable {a.name} overlaps a fixed obstacle at load")
        for obj, re in self.goal.items():
            if obj not in self.movables:
                raise SceneError(f"goal references unknown object {obj!r}")
            if re not in self.regions:
                raise SceneError(f"goal references unknown region {re!r}")
        for (r1, r2) in self.handover_points:
            if r1 not in self.robots or r2 not in self.robots:
                raise SceneError(f"handover point references unknown robots ({r1}, {r2})")


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

    regions = {}
    for r in doc["regions"]:
        xmin, ymin, xmax, ymax = r["rect"]
        try:
            regions[r["name"]] = Region(r["name"], Rect(xmin, ymin, xmax, ymax))
        except ValueError as e:
            raise SceneError(f"region {r['name']}: {e}") from e
    fixed = [(_parse_shape(f["shape"]), Pose.from_doc(f["pose"])) for f in doc.get("fixed", [])]
    movables = {}
    for m in doc["movables"]:
        movables[m["name"]] = Movable(m["name"], _parse_shape(m["shape"]),
                                      Pose.from_doc(m["pose"]), m["home_region"])
    robots = {}
    for r in doc["robots"]:
        robots[r["name"]] = Robot(r["name"], tuple(r["base"]), r["reach_min"],
                                  r["reach_max"], r["gripper_width"])
    handover_points = {}
    for key, pt in doc.get("handover_points", {}).items():
        pair = tuple(name.strip() for name in key.split(","))
        if len(pair) != 2 or not all(pair):
            raise SceneError(f"handover point key {key!r} is not two comma-separated robot names")
        if pair[0] == pair[1]:
            raise SceneError(f"handover point key {key!r} pairs robot {pair[0]} with itself")
        if pair in handover_points or pair[::-1] in handover_points:
            raise SceneError(f"handover points list robots {pair[0]} and {pair[1]} twice")
        handover_points[pair] = (pt[0], pt[1])
    goal_objs = [obj for obj, _ in doc.get("goal", [])]
    dup = sorted({o for o in goal_objs if goal_objs.count(o) > 1})
    if dup:
        raise SceneError(f"goal lists objects more than once: {dup}")
    goal = dict(doc.get("goal", []))
    # the schema takes 2.0 as an integer; range() does not
    grasp_count = int(doc.get("grasp_count", DEFAULT_GRASP_COUNT))
    return Scene(
        regions=regions,
        fixed=fixed,
        movables=movables,
        robots=robots,
        handover_points=handover_points,
        grasp_count=grasp_count,
        goal=goal,
    )


def load_scene(path) -> Scene:
    return loads_scene(schemas.read("scene", path, SceneError))


# ---------------------------------------------------------------------------
# placement sampling


def sample_placement(region: Region, shape: Shape, forbidden, rng,
                     robot: Robot) -> Pose | None:
    """Rejection-sample a pose for ``shape`` fully inside ``region``, with its
    centre in ``robot``'s reach, clear of every forbidden volume.
    ``forbidden`` entries are (Shape, Pose) pairs or Corridors. Returns None
    after ``PLACEMENT_ATTEMPTS`` rejections.
    """
    rect = region.rect
    for _ in range(PLACEMENT_ATTEMPTS):
        x = rng.uniform(rect.xmin, rect.xmax)
        y = rng.uniform(rect.ymin, rect.ymax)
        theta = 0.0 if isinstance(shape, Disc) else rng.uniform(0.0, 2.0 * math.pi)
        pose = Pose(x, y, theta)
        if not shape_inside_rect(shape, pose, rect):
            continue
        if not robot.in_reach(pose.xy):
            continue
        if collides_any((shape, pose), forbidden):
            continue
        return pose
    return None
