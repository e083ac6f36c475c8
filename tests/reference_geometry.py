"""Pairwise collision test: the reference ``geometry.collides_any`` and
``geometry.collides`` are checked against.

Used only by tests. A verbatim copy of the pairwise ``collides`` the package
had before its one-against-many kernel, with every helper it calls: each
pair of volumes re-dispatches on both argument types and goes through the
helpers below. The kernel must give the same answer on every pair, in both
argument orders, since plans, traces and dumps depend on each decision.
"""
from __future__ import annotations

import math

from mrplan.geometry import EPS, Corridor, Disc, Pose, Rectangle, Shape


def point_segment_distance(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / d2
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _segments_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if v > 0:
            return 1
        if v < 0:
            return -1
        return 0

    def on_seg(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
    o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_seg(p1, p2, p3):
        return True
    if o2 == 0 and on_seg(p1, p2, p4):
        return True
    if o3 == 0 and on_seg(p3, p4, p1):
        return True
    if o4 == 0 and on_seg(p3, p4, p2):
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


def _disc_disc(r1, p1, r2, p2) -> bool:
    return math.hypot(p1.x - p2.x, p1.y - p2.y) < r1 + r2 - EPS


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


def _corridor_shape(cor: Corridor, shape: Shape, pose: Pose) -> bool:
    if isinstance(shape, Disc):
        return point_segment_distance((pose.x, pose.y), cor.a, cor.b) \
            < cor.half_width + shape.radius - EPS
    return _segment_rect_distance(cor.a, cor.b, shape, pose) < cor.half_width - EPS


def _corridor_corridor(c1: Corridor, c2: Corridor) -> bool:
    return segment_segment_distance(c1.a, c1.b, c2.a, c2.b) \
        < c1.half_width + c2.half_width - EPS


def collides(a, b) -> bool:
    """True iff two solids overlap with positive area.

    Each argument is either a (Shape, Pose) pair or a Corridor. Touching at a
    measure-zero boundary is non-colliding (EPS tolerance).
    """
    a_cor, b_cor = isinstance(a, Corridor), isinstance(b, Corridor)
    if a_cor and b_cor:
        return _corridor_corridor(a, b)
    if a_cor:
        return _corridor_shape(a, b[0], b[1])
    if b_cor:
        return _corridor_shape(b, a[0], a[1])
    s1, p1 = a
    s2, p2 = b
    if isinstance(s1, Disc) and isinstance(s2, Disc):
        return _disc_disc(s1.radius, p1, s2.radius, p2)
    if isinstance(s1, Disc):
        return _disc_rect(s1.radius, p1, s2, p2)
    if isinstance(s2, Disc):
        return _disc_rect(s2.radius, p2, s1, p1)
    return _rect_rect(s1, p1, s2, p2)
