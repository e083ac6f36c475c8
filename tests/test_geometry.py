"""Geometry primitives, checked against Monte-Carlo membership oracles and,
for the collision kernel, against the pairwise reference in
``reference_geometry``."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_geometry as ref
from mrplan.geometry import (EPS, Corridor, Disc, Pose, Rect, Rectangle, collides,
                             collides_any, shape_inside_rect)
from mrplan.motion import carry_sweep
from mrplan.scene import Movable, Robot, Scene

# ---------------------------------------------------------------------------
# membership oracle (independent of the implementation's distance math)


def point_in_shape(p, shape, pose: Pose) -> bool:
    if isinstance(shape, Disc):
        return math.hypot(p[0] - pose.x, p[1] - pose.y) <= shape.radius
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    dx, dy = p[0] - pose.x, p[1] - pose.y
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return abs(lx) <= shape.half_w and abs(ly) <= shape.half_h


def point_in_corridor(p, cor: Corridor) -> bool:
    (ax, ay), (bx, by) = cor.a, cor.b
    dx, dy = bx - ax, by - ay
    len2 = dx * dx + dy * dy
    t = 0.0 if len2 == 0.0 else min(1.0, max(0.0, ((p[0] - ax) * dx + (p[1] - ay) * dy) / len2))
    return math.hypot(p[0] - (ax + t * dx), p[1] - (ay + t * dy)) <= cor.half_width


def point_in(p, volume) -> bool:
    if isinstance(volume, Corridor):
        return point_in_corridor(p, volume)
    shape, pose = volume
    return point_in_shape(p, shape, pose)


def mc_overlap(a, b, rng, n=20000, box=3.0):
    """True if random sampling finds a point inside both volumes."""
    for _ in range(n):
        p = (rng.uniform(-box, box), rng.uniform(-box, box))
        if point_in(p, a) and point_in(p, b):
            return True
    return False


# ---------------------------------------------------------------------------


def test_pose_theta_normalized():
    assert Pose(0, 0, 2 * math.pi + 0.5).theta == pytest.approx(0.5)
    assert Pose(0, 0, -0.5).theta == pytest.approx(2 * math.pi - 0.5)


def test_unit_discs_far_apart_do_not_collide():
    a = (Disc(1.0), Pose(0, 0))
    b = (Disc(1.0), Pose(3, 0))
    assert not collides(a, b)


def test_identical_rectangles_collide():
    r = (Rectangle(0.2, 0.1), Pose(0.3, 0.4, 0.7))
    assert collides(r, r)


def test_disc_vs_corridor_example_matches_oracle():
    disc = (Disc(0.1), Pose(1, 0))
    cor = Corridor((0, 0), (2, 0), 0.1)
    assert collides(disc, cor)
    assert mc_overlap(disc, cor, random.Random(0))


def test_boundary_touch_is_not_a_collision():
    a = (Disc(0.5), Pose(0, 0))
    b = (Disc(0.5), Pose(1.0, 0))
    assert not collides(a, b)
    assert collides(a, (Disc(0.5), Pose(1.0 - 1e-6, 0)))


def test_degenerate_corridor_is_a_disc():
    cor = Corridor((0, 0), (0, 0), 0.2)
    assert cor.contains_point((0.09, 0))
    assert not cor.contains_point((0.11, 0))


def test_pick_corridor_contains_midpoint_obstacle():
    cor = Corridor((0, 0), (0.5, 0.5), 0.1)
    obstacle = (Disc(0.05), Pose(0.25, 0.25))
    assert collides(cor, obstacle)
    assert mc_overlap(cor, obstacle, random.Random(2))


def test_corridor_trimmed():
    cor = Corridor((0, 0), (1, 0), 0.2)
    t = cor.trimmed((1, 0), 0.3)
    assert t.b == pytest.approx((0.7, 0.0))
    assert t.a == (0, 0)
    assert cor.trimmed((1, 0), 2.0) is None


def test_shape_inside_rect():
    rect = Rect(0, 0, 1, 1)
    assert shape_inside_rect(Disc(0.2), Pose(0.5, 0.5), rect)
    assert not shape_inside_rect(Disc(0.2), Pose(0.1, 0.5), rect)
    assert shape_inside_rect(Rectangle(0.1, 0.1), Pose(0.5, 0.5, 0.3), rect)


shapes = st.one_of(
    st.builds(Disc, st.floats(0.05, 0.5)),
    st.builds(Rectangle, st.floats(0.05, 0.5), st.floats(0.05, 0.5)))
# a few shared points, so corridors often share an endpoint or have none
# (a == b), and shapes sit on corridor endpoints
SHARED = ((0.0, 0.0), (0.5, 0.5), (1.0, -0.5), (-0.5, 1.0))
points = st.one_of(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), st.sampled_from(SHARED))
poses = st.one_of(st.builds(Pose, st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 6.2)),
                  st.builds(lambda p, th: Pose(*p, th), st.sampled_from(SHARED),
                            st.floats(0, 6.2)))
corridors = st.one_of(
    st.builds(Corridor, points, points, st.floats(0.02, 0.6)),
    st.builds(lambda p, w: Corridor(p, p, w), points, st.floats(0.02, 0.6)))
volumes = st.one_of(st.tuples(shapes, poses), corridors)
# corridors anywhere in a 2 km square: mostly far apart
far = st.floats(-1000, 1000)
far_corridors = st.builds(Corridor, st.tuples(far, far), st.tuples(far, far),
                          st.floats(0.02, 0.6))


def shrunk(vol):
    """``vol`` with its boundary moved 1e-6 inwards."""
    if isinstance(vol, Corridor):
        return Corridor(vol.a, vol.b, vol.width - 2e-6)
    shape, pose = vol
    if isinstance(shape, Disc):
        return Disc(shape.radius - 1e-6), pose
    return Rectangle(shape.half_w - 1e-6, shape.half_h - 1e-6), pose


@settings(max_examples=200, deadline=None)
@given(v1=volumes, v2=volumes)
def test_collides_symmetric(v1, v2):
    assert collides(v1, v2) == collides(v2, v1)


@settings(max_examples=60, deadline=None)
@given(v1=volumes, v2=volumes, seed=st.integers(0, 10 ** 6))
def test_collides_agrees_with_membership_oracle(v1, v2, seed):
    """If sampling finds a shared interior point, collides must say so; if
    collides denies overlap, sampling must not find a clearly interior one."""
    rng = random.Random(seed)
    result = collides(v1, v2)
    found = mc_overlap(v1, v2, rng, n=4000)
    if found and not result:
        # tolerate only boundary-grazing contacts
        assert not mc_overlap(shrunk(v1), v2, rng, n=4000)
    if result and not isinstance(v1, Corridor) and not isinstance(v2, Corridor) \
            and isinstance(v1[0], Disc) and isinstance(v2[0], Disc):
        # disc-disc positives are exactly checkable
        (s1, p1), (s2, p2) = v1, v2
        assert math.hypot(p1.x - p2.x, p1.y - p2.y) < s1.radius + s2.radius


@st.composite
def boundary_pairs(draw):
    """Two discs or corridors whose gap is ``r1 + r2 - EPS`` (the largest gap
    that does not collide), or one ulp either side of it. The first sits on
    the origin and the second on the x axis, so each distance is exact."""
    kind = draw(st.sampled_from(["disc-disc", "disc-corridor", "corridor-corridor"]))
    r1, r2 = draw(st.floats(0.01, 0.5)), draw(st.floats(0.01, 0.5))
    gap = r1 + r2 - EPS
    gap = draw(st.sampled_from([math.nextafter(gap, 0.0), gap, math.nextafter(gap, 1.0)]))
    if kind == "corridor-corridor":
        return Corridor((0.0, -1.0), (0.0, 1.0), 2 * r1), \
            Corridor((gap, -1.0), (gap, 1.0), 2 * r2)
    first = ((Disc(r1), Pose(0.0, 0.0)) if kind == "disc-disc"
             else Corridor((0.0, -1.0), (0.0, 1.0), 2 * r1))
    return first, (Disc(r2), Pose(gap, 0.0))


@st.composite
def box_boundary_pairs(draw):
    """Two corridors, coordinates up to 1 000 m, whose segments' boxes lie
    apart along x or y by the two half widths (where the kernel's box reject
    starts) or by that less EPS (where the exact test decides), or one ulp
    of the coordinate either side. The second corridor runs across that axis
    through the first's extreme endpoint, so the segments' distance is the
    box gap."""
    c1 = draw(far_corridors)
    w2 = draw(st.floats(0.02, 0.6))
    reach = c1.half_width + 0.5 * w2
    gap = draw(st.sampled_from([reach, reach - EPS]))
    axis, side = draw(st.sampled_from([0, 1])), draw(st.sampled_from([-1.0, 1.0]))
    end = max((c1.a, c1.b), key=lambda p: side * p[axis])
    at = draw(st.sampled_from([math.nextafter(end[axis] + side * gap, -math.inf),
                               end[axis] + side * gap,
                               math.nextafter(end[axis] + side * gap, math.inf)]))
    across = 1 - axis
    lo, hi = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
    p, q = [0.0, 0.0], [0.0, 0.0]
    p[axis] = q[axis] = at
    p[across], q[across] = end[across] - lo, end[across] + hi
    return c1, Corridor(tuple(p), tuple(q), w2)


@settings(max_examples=600, deadline=None)
@given(vol=volumes, others=st.lists(st.one_of(volumes, far_corridors), max_size=8),
       pair=st.one_of(boundary_pairs(), box_boundary_pairs(), st.tuples(far_corridors,
                                                                         far_corridors)),
       swap=st.booleans())
def test_collides_any_matches_the_pairwise_reference(vol, others, pair, swap):
    """The kernel gives the pairwise reference's answer on every pair, in
    both argument orders, and ``collides_any`` is ``any`` over the pairs."""
    first, second = pair[::-1] if swap else pair
    for v, vols in ((vol, others + [first, second]), (first, others + [second])):
        assert collides_any(v, vols) == any(ref.collides(v, o) for o in vols)
        for o in vols:
            assert collides(v, o) == ref.collides(v, o)
            assert collides(o, v) == ref.collides(o, v)


@settings(max_examples=400, deadline=None)
@given(shape=shapes, placement=poses, start=st.one_of(st.none(), points),
       gripper=st.floats(1e-3, 0.5), probe=volumes)
def test_a_carry_covers_the_object_it_places(shape, placement, start, gripper, probe):
    """Whatever hits a placed object also hits the carry that places it,
    from any start (``None``: the placement itself). The carry's end cap,
    of half width the gripper's half width plus the object's circumradius,
    holds the footprint, so grounding and the place facts test the carry
    alone."""
    scene = Scene(regions={"work": Rect(-10.0, -10.0, 10.0, 10.0)}, fixed=[],
                  movables={"M1": Movable(shape, placement, "work")},
                  robots={"R1": Robot((0.0, 0.0), 0.0, 1.0, gripper)},
                  handover_points={}, grasp_count=1, goal={})
    carry = carry_sweep(scene, "R1", "M1", placement.xy if start is None else start,
                        placement.xy)
    if collides(probe, (shape, placement)):
        assert collides(probe, carry)


def test_boundary_pairs_collide_only_below_the_gap():
    """The boundary strategy sits where the EPS tolerance decides."""
    for r1, r2 in ((0.1, 0.2), (0.3, 0.05)):
        gap = r1 + r2 - EPS
        for first in ((Disc(r1), Pose(0.0, 0.0)), Corridor((0.0, -1.0), (0.0, 1.0), 2 * r1)):
            for d, want in ((math.nextafter(gap, 0.0), True), (gap, False),
                            (math.nextafter(gap, 1.0), False)):
                second = (Disc(r2), Pose(d, 0.0))
                assert collides(first, second) is want and collides(second, first) is want
                assert ref.collides(first, second) is want


def test_corridor_corridor_crossing_and_parallel():
    c1 = Corridor((0, -1), (0, 1), 0.1)
    c2 = Corridor((-1, 0), (1, 0), 0.1)
    assert collides(c1, c2)
    c3 = Corridor((0.5, -1), (0.5, 1), 0.2)
    c4 = Corridor((0.75, -1), (0.75, 1), 0.2)
    assert not collides(c3, c4)  # gap 0.25 > sum of half widths 0.2
    c5 = Corridor((0.65, -1), (0.65, 1), 0.2)
    assert collides(c3, c5)  # gap 0.15 < 0.2
