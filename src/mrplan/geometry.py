"""2D geometry primitives: poses, shapes, capsule corridors, collision tests.

All lengths are in meters, angles in radians. Boundary contact within
EPS does not count as a collision, so tangent configurations are stable.

The collision kernel is ``collides_any(vol, volumes)``: does ``vol``
overlap any of ``volumes``? It dispatches on ``vol``'s type once per call
and stops at the first hit. A ``Corridor`` derives its half width and its
segment (start point, direction, squared length) once, in ``__init__``;
the corridor-vs-disc test, in either argument order, calls
``_segment_distance`` on that segment, as ``point_segment_distance`` does.
A corridor-corridor pair whose segments' axis-aligned boxes lie at least
the two half widths apart along x or y is rejected without
``segment_segment_distance``. The reject is exact: the box gap is a lower
bound on the segments' distance, and the rounding of either side (a few
ulps of the coordinates, ~2e-12 m at the 1e4 m that ``scene.LIMIT`` allows)
is far below the EPS that the exact test subtracts. The bound also keeps
a squared length finite: past ~1e154 m it is inf, every distance NaN and
every collision test false. Every one-against-many test in the package goes
through the kernel; ``collides(a, b)`` is its one-volume case, so each
pair test has one definition.
"""
from __future__ import annotations

import math

from .record import Record

EPS = 1e-9

TWO_PI = 2.0 * math.pi


def norm_angle(theta: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    return theta % TWO_PI


class Pose(Record):
    __slots__ = ("x", "y", "theta")

    def __init__(self, x: float, y: float, theta: float = 0.0):
        self.x = x
        self.y = y
        self.theta = norm_angle(theta)

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)

    @classmethod
    def from_doc(cls, d: dict) -> Pose:
        """A pose from a scene or plan document; ``theta`` defaults to 0."""
        return cls(d["x"], d["y"], d.get("theta", 0.0))


class Disc(Record):
    __slots__ = ("radius",)

    def __init__(self, radius: float):
        self.radius = radius

    @property
    def circumradius(self) -> float:
        return self.radius


class Rectangle(Record):
    __slots__ = ("half_w", "half_h")

    def __init__(self, half_w: float, half_h: float):
        self.half_w = half_w
        self.half_h = half_h

    @property
    def circumradius(self) -> float:
        return math.hypot(self.half_w, self.half_h)


Shape = Disc | Rectangle


class Rect(Record):
    """Axis-aligned rectangle given by min/max corners."""
    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float):
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    def contains_point(self, p: tuple[float, float], margin: float = 0.0) -> bool:
        return (self.xmin + margin <= p[0] <= self.xmax - margin
                and self.ymin + margin <= p[1] <= self.ymax - margin)


class Corridor(Record):
    """Capsule: a segment inflated by width/2. Zero-length segments are discs.

    ``__init__`` derives the half width and the segment as its start point,
    direction and squared length, which every distance to it reads."""
    __slots__ = ("a", "b", "width", "_half_width", "_seg")

    def __init__(self, a: tuple[float, float], b: tuple[float, float], width: float):
        if width <= 0.0:
            raise ValueError("corridor width must be positive")
        self.a = a
        self.b = b
        self.width = width
        self._half_width = 0.5 * width
        self._seg = _segment(a, b)

    @property
    def half_width(self) -> float:
        return self._half_width

    def contains_point(self, p: tuple[float, float]) -> bool:
        return _segment_distance(self._seg, p[0], p[1]) < self._half_width - EPS

    def trimmed(self, end: tuple[float, float], amount: float) -> "Corridor | None":
        """Shorten the endpoint nearer to `end` by `amount`.

        Returns None when the whole segment is trimmed away.
        """
        ax, ay = self.a
        bx, by = self.b
        if math.hypot(bx - end[0], by - end[1]) < math.hypot(ax - end[0], ay - end[1]):
            keep, cut = (ax, ay), (bx, by)
            flipped = False
        else:
            keep, cut = (bx, by), (ax, ay)
            flipped = True
        seg = math.hypot(cut[0] - keep[0], cut[1] - keep[1])
        if seg <= amount:
            return None
        t = (seg - amount) / seg
        new_cut = (keep[0] + t * (cut[0] - keep[0]), keep[1] + t * (cut[1] - keep[1]))
        if flipped:
            return Corridor(new_cut, keep, self.width)
        return Corridor(keep, new_cut, self.width)


# ---------------------------------------------------------------------------
# distance helpers


def _segment(a, b) -> tuple:
    """The segment from ``a`` to ``b`` as (ax, ay, dx, dy, squared length)."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    return (ax, ay, dx, dy, dx * dx + dy * dy)


def _segment_distance(seg, px, py) -> float:
    ax, ay, dx, dy, d2 = seg
    if d2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / d2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def point_segment_distance(p, a, b) -> float:
    return _segment_distance(_segment(a, b), p[0], p[1])


def _orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def _on_seg(a, b, c):
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))


def _segments_intersect(p1, p2, p3, p4) -> bool:
    o1, o2 = _orient(p1, p2, p3), _orient(p1, p2, p4)
    o3, o4 = _orient(p3, p4, p1), _orient(p3, p4, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_seg(p1, p2, p3):
        return True
    if o2 == 0 and _on_seg(p1, p2, p4):
        return True
    if o3 == 0 and _on_seg(p3, p4, p1):
        return True
    if o4 == 0 and _on_seg(p3, p4, p2):
        return True
    return False


def segment_segment_distance(a1, a2, b1, b2) -> float:
    if _segments_intersect(a1, a2, b1, b2):
        return 0.0
    return min(
        point_segment_distance(a1, b1, b2),
        point_segment_distance(a2, b1, b2),
        point_segment_distance(b1, a1, a2),
        point_segment_distance(b2, a1, a2),
    )


def _boxes_apart(c1: Corridor, c2: Corridor, gap: float) -> bool:
    """True when the two segments' axis-aligned boxes lie ``gap`` or more
    apart along x or along y: then so do the segments."""
    (ax, ay), (bx, by) = c1.a, c1.b
    (cx, cy), (dx, dy) = c2.a, c2.b
    return (min(cx, dx) - max(ax, bx) >= gap or min(ax, bx) - max(cx, dx) >= gap
            or min(cy, dy) - max(ay, by) >= gap or min(ay, by) - max(cy, dy) >= gap)


def _rect_corners(shape: Rectangle, pose: Pose):
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    out = []
    for sx, sy in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
        lx, ly = sx * shape.half_w, sy * shape.half_h
        out.append((pose.x + c * lx - s * ly, pose.y + s * lx + c * ly))
    return out


def _to_local(pose: Pose, p):
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    dx, dy = p[0] - pose.x, p[1] - pose.y
    return (c * dx + s * dy, -s * dx + c * dy)


def _disc_rect(radius, cpose, rect: Rectangle, rpose) -> bool:
    lx, ly = _to_local(rpose, (cpose.x, cpose.y))
    qx = max(abs(lx) - rect.half_w, 0.0)
    qy = max(abs(ly) - rect.half_h, 0.0)
    return math.hypot(qx, qy) < radius - EPS


def _rect_rect(s1: Rectangle, p1: Pose, s2: Rectangle, p2: Pose) -> bool:
    # separating-axis test on both rectangles' edge normals
    c1, c2 = _rect_corners(s1, p1), _rect_corners(s2, p2)
    for corners, pose, shape in ((c2, p1, s1), (c1, p2, s2)):
        cos_t, sin_t = math.cos(pose.theta), math.sin(pose.theta)
        lo_x = hi_x = lo_y = hi_y = None
        for p in corners:
            dx, dy = p[0] - pose.x, p[1] - pose.y
            lx = cos_t * dx + sin_t * dy
            ly = -sin_t * dx + cos_t * dy
            lo_x = lx if lo_x is None else min(lo_x, lx)
            hi_x = lx if hi_x is None else max(hi_x, lx)
            lo_y = ly if lo_y is None else min(lo_y, ly)
            hi_y = ly if hi_y is None else max(hi_y, ly)
        if hi_x <= -shape.half_w + EPS or lo_x >= shape.half_w - EPS:
            return False
        if hi_y <= -shape.half_h + EPS or lo_y >= shape.half_h - EPS:
            return False
    return True


def _segment_rect_distance(a, b, rect: Rectangle, pose: Pose) -> float:
    la, lb = _to_local(pose, a), _to_local(pose, b)
    hw, hh = rect.half_w, rect.half_h
    inside = lambda p: -hw <= p[0] <= hw and -hh <= p[1] <= hh
    if inside(la) or inside(lb):
        return 0.0
    edges = [((-hw, -hh), (hw, -hh)), ((hw, -hh), (hw, hh)),
             ((hw, hh), (-hw, hh)), ((-hw, hh), (-hw, -hh))]
    best = math.inf
    for e1, e2 in edges:
        d = segment_segment_distance(la, lb, e1, e2)
        if d == 0.0:
            return 0.0
        best = min(best, d)
    return best


def collides_any(vol, volumes) -> bool:
    """True iff ``vol`` overlaps any of ``volumes`` with positive area.

    ``vol`` and each of ``volumes`` is a (Shape, Pose) pair or a Corridor.
    The scan stops at the first hit. Touching at a measure-zero boundary is
    non-colliding (EPS tolerance).
    """
    if isinstance(vol, Corridor):
        a, b, hw, seg = vol.a, vol.b, vol._half_width, vol._seg
        for v in volumes:
            if isinstance(v, Corridor):
                reach = hw + v._half_width
                if (not _boxes_apart(vol, v, reach)
                        and segment_segment_distance(a, b, v.a, v.b) < reach - EPS):
                    return True
                continue
            shape, pose = v
            if not isinstance(shape, Disc):
                if _segment_rect_distance(a, b, shape, pose) < hw - EPS:
                    return True
                continue
            if _segment_distance(seg, pose.x, pose.y) < hw + shape.radius - EPS:
                return True
        return False
    shape, pose = vol
    if not isinstance(shape, Disc):
        for v in volumes:
            if isinstance(v, Corridor):
                if _segment_rect_distance(v.a, v.b, shape, pose) < v._half_width - EPS:
                    return True
            elif isinstance(v[0], Disc):
                if _disc_rect(v[0].radius, v[1], shape, pose):
                    return True
            elif _rect_rect(shape, pose, v[0], v[1]):
                return True
        return False
    r, px, py = shape.radius, pose.x, pose.y
    for v in volumes:
        if isinstance(v, Corridor):
            if _segment_distance(v._seg, px, py) < v._half_width + r - EPS:
                return True
            continue
        s2, p2 = v
        if isinstance(s2, Disc):
            if math.hypot(px - p2.x, py - p2.y) < r + s2.radius - EPS:
                return True
        elif _disc_rect(r, pose, s2, p2):
            return True
    return False


def collides(a, b) -> bool:
    """True iff two solids overlap with positive area: ``collides_any``'s
    one-volume case."""
    return collides_any(a, (b,))


def shape_inside_rect(shape: Shape, pose: Pose, rect: Rect) -> bool:
    """True iff the placed shape lies entirely inside the axis-aligned rect."""
    if isinstance(shape, Disc):
        return rect.contains_point((pose.x, pose.y), margin=shape.radius - EPS)
    return all(rect.contains_point(c, margin=-EPS) for c in _rect_corners(shape, pose))
