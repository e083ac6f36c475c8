"""Geometry primitives, checked against Monte-Carlo membership oracles."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrplan.geometry import (Corridor, Disc, Pose, Rect, Rectangle, collides,
                             point_segment_distance, shape_inside_rect)

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
    return point_segment_distance(p, cor.a, cor.b) <= cor.half_width


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
poses = st.builds(Pose, st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 6.2))


@settings(max_examples=200, deadline=None)
@given(s1=shapes, p1=poses, s2=shapes, p2=poses)
def test_collides_symmetric(s1, p1, s2, p2):
    assert collides((s1, p1), (s2, p2)) == collides((s2, p2), (s1, p1))


@settings(max_examples=60, deadline=None)
@given(s1=shapes, p1=poses, s2=shapes, p2=poses, seed=st.integers(0, 10 ** 6))
def test_collides_agrees_with_membership_oracle(s1, p1, s2, p2, seed):
    """If sampling finds a shared interior point, collides must say so; if
    collides denies overlap, sampling must not find a clearly interior one."""
    rng = random.Random(seed)
    result = collides((s1, p1), (s2, p2))
    found = mc_overlap((s1, p1), (s2, p2), rng, n=4000)
    if found and not result:
        # tolerate only boundary-grazing contacts
        shrunk1 = Disc(s1.radius - 1e-6) if isinstance(s1, Disc) else \
            Rectangle(s1.half_w - 1e-6, s1.half_h - 1e-6)
        assert not mc_overlap((shrunk1, p1), (s2, p2), rng, n=4000)
    if result and isinstance(s1, Disc) and isinstance(s2, Disc):
        # disc-disc positives are exactly checkable
        assert math.hypot(p1.x - p2.x, p1.y - p2.y) < s1.radius + s2.radius


def test_corridor_corridor_crossing_and_parallel():
    c1 = Corridor((0, -1), (0, 1), 0.1)
    c2 = Corridor((-1, 0), (1, 0), 0.1)
    assert collides(c1, c2)
    c3 = Corridor((0.5, -1), (0.5, 1), 0.2)
    c4 = Corridor((0.75, -1), (0.75, 1), 0.2)
    assert not collides(c3, c4)  # gap 0.25 > sum of half widths 0.2
    c5 = Corridor((0.65, -1), (0.65, 1), 0.2)
    assert collides(c3, c5)  # gap 0.15 < 0.2
