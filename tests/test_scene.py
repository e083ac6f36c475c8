"""Scene loading, invariants, derived quantities, placement sampling."""
import json
import math
import random

import pytest

from mrplan.geometry import Disc, Pose
from mrplan.scene import (Region, Rect, Robot, SceneError, load_scene, loads_scene,
                          sample_placement)

from conftest import scenario

MINIMAL = {
    "regions": [{"name": "work", "rect": [0.0, 0.0, 1.0, 1.0]}],
    "movables": [{"name": "M1", "shape": {"type": "disc", "radius": 0.05},
                  "pose": {"x": 0.5, "y": 0.5}, "home_region": "work"}],
    "robots": [{"name": "R1", "base": [0.0, 0.0], "reach_min": 0.1,
                "reach_max": 2.0, "gripper_width": 0.1}],
    "goal": [["M1", "work"]],
}


# reaches every point of the unit square
REACH_ALL = Robot("R", (0.0, 0.0), 0.0, 2.0, 0.1)


def make(doc=None, **overrides):
    d = {**MINIMAL, **(doc or {}), **overrides}
    return loads_scene(json.dumps(d))


def test_minimal_scene_defaults():
    s = make()
    assert s.grasp_count == 8
    assert len(s.grasp_angles()) == 8
    assert s.grasp_angles()[0] == 0.0
    assert s.grasp_angles()[2] == pytest.approx(math.pi / 2)
    assert s.goal_objects() == ["M1"]
    assert s.fixed == []


def test_overlapping_movables_rejected_with_both_names():
    doc = {"movables": MINIMAL["movables"] + [
        {"name": "M2", "shape": {"type": "disc", "radius": 0.05},
         "pose": {"x": 0.55, "y": 0.5}, "home_region": "work"}]}
    with pytest.raises(SceneError) as e:
        make(doc)
    assert "M1" in str(e.value) and "M2" in str(e.value)


def test_duplicate_names_rejected():
    doc = {"robots": MINIMAL["robots"] + [
        {"name": "M1", "base": [2.0, 0.0], "reach_min": 0.1,
         "reach_max": 1.0, "gripper_width": 0.1}]}
    with pytest.raises(SceneError, match="duplicate"):
        make(doc)


@pytest.mark.parametrize("kind", ["regions", "movables", "robots"])
def test_duplicate_names_within_a_kind_rejected(kind):
    # the second entry lies elsewhere, so only the name repeats
    twin = json.loads(json.dumps(MINIMAL[kind][0]))
    twin.update({"regions": {"rect": [2.0, 2.0, 3.0, 3.0]},
                 "movables": {"pose": {"x": 0.2, "y": 0.2}},
                 "robots": {"base": [3.0, 0.0]}}[kind])
    with pytest.raises(SceneError, match=r"duplicate entity names: \['"):
        make({kind: MINIMAL[kind] + [twin]})


@pytest.mark.parametrize("points, message", [
    *(pytest.param({key: [1.0, 0.0]}, "not two comma-separated robot names", id=key)
      for key in ["R1|R9", "R1,R2,R3", "R1,", " , R1", "R1"]),
    pytest.param({"R1,R1": [1.0, 0.0]}, "pairs robot R1 with itself", id="R1,R1"),
    # either order would give the pair a handover point that depends on
    # which robot picks
    pytest.param({"R1,R2": [0.8, 0.0], "R2,R1": [0.7, 0.1]},
                 "list robots R2 and R1 twice", id="R1,R2+R2,R1"),
    pytest.param({"R1,R2": [0.8, 0.0], "R1, R2": [0.7, 0.1]},
                 "list robots R1 and R2 twice", id="R1,R2+R1, R2"),
])
def test_handover_key_that_is_not_two_names_rejected(points, message):
    doc = {"robots": MINIMAL["robots"] + [
        {"name": "R2", "base": [2.0, 0.0], "reach_min": 0.1,
         "reach_max": 2.0, "gripper_width": 0.1}]}
    with pytest.raises(SceneError, match=message):
        make(doc, handover_points=points)
    assert make(doc, handover_points={" R2 , R1": [1.0, 0.0]}).handover_point("R1", "R2") \
        == (1.0, 0.0)


def test_integral_float_grasp_count_is_an_integer():
    s = make(grasp_count=2.0)
    assert s.grasp_count == 2 and isinstance(s.grasp_count, int)
    assert len(s.grasp_angles()) == 2


def test_movable_outside_home_region_rejected():
    doc = {"movables": [{"name": "M1", "shape": {"type": "disc", "radius": 0.05},
                         "pose": {"x": 1.5, "y": 0.5}, "home_region": "work"}]}
    with pytest.raises(SceneError, match="home region"):
        make(doc)


def test_unknown_goal_object_rejected():
    with pytest.raises(SceneError, match="unknown object"):
        make(goal=[["Mx", "work"]])


@pytest.mark.parametrize("goal", [[["M1", "work"], ["M1", "shelf"]],
                                  [["M1", "work"], ["M1", "work"]]],
                         ids=["two_regions", "same_region"])
def test_goal_naming_an_object_twice_rejected(goal):
    regions = MINIMAL["regions"] + [{"name": "shelf", "rect": [2.0, 0.0, 3.0, 1.0]}]
    with pytest.raises(SceneError, match=r"goal lists objects more than once: \['M1'\]"):
        make(regions=regions, goal=goal)


def test_malformed_json_and_schema_errors():
    with pytest.raises(SceneError, match="parse error"):
        loads_scene("{not json")
    with pytest.raises(SceneError, match="schema error"):
        loads_scene(json.dumps({"regions": []}))


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "inf", "minus_inf", "float_1e400", "int_1e400"])
def test_non_finite_number_rejected(number):
    # a NaN passes every schema bound, and a NaN volume collides with nothing
    text = json.dumps(MINIMAL).replace('"x": 0.5', f'"x": {number}')
    assert number in text
    with pytest.raises(SceneError, match=f"scene parse error: {number} is not a finite"):
        loads_scene(text)


def test_scenario_file_loads():
    s = load_scene(scenario("pa_small"))
    assert sorted(s.movables) == ["M1", "M2", "M3", "M4", "M5"]
    assert sorted(s.robots) == ["R1", "R2"]
    assert s.grasp_count == 1
    assert s.goal_objects() == ["M1", "M2", "M3"]
    assert s.target_region_of("M1") == "box_c"
    assert s.target_region_of("M4") == "work"  # non-goal: home region
    assert s.handover_point("R2", "R1") == (0.8, 0.0)  # order-insensitive
    assert s.handover_radius("R1", "R2") == 0.1


def test_handover_point_defaults_to_base_midpoint():
    doc = {"robots": MINIMAL["robots"] + [
        {"name": "R2", "base": [2.0, 0.4], "reach_min": 0.1,
         "reach_max": 2.0, "gripper_width": 0.2}]}
    s = make(doc)
    assert s.handover_point("R1", "R2") == pytest.approx((1.0, 0.2))
    assert s.handover_radius("R1", "R2") == 0.2  # max gripper width


def test_grasp_point_on_circumscribed_circle():
    s = make()
    assert s.grasp_point("M1", 0.0) == pytest.approx((0.55, 0.5))
    assert s.grasp_point("M1", math.pi / 2) == pytest.approx((0.5, 0.55))
    moved = Pose(0.2, 0.2)
    assert s.grasp_point("M1", 0.0, pose=moved) == pytest.approx((0.25, 0.2))


def test_unmet_goals_are_the_goal_objects_outside_their_region():
    # M1 lies inside "corner", M2 and M3 outside it, M3 only partly
    disc = {"type": "disc", "radius": 0.05}
    doc = {"regions": MINIMAL["regions"] + [{"name": "corner", "rect": [0.0, 0.0, 0.4, 0.4]}],
           "movables": [{"name": n, "shape": disc, "pose": {"x": x, "y": y},
                         "home_region": "work"}
                        for n, x, y in (("M1", 0.2, 0.2), ("M2", 0.8, 0.8), ("M3", 0.38, 0.2),
                                        ("M4", 0.6, 0.2))]}
    assert make(doc, goal=[["M1", "corner"]]).unmet_goals() == []
    assert make(doc, goal=[["M2", "corner"], ["M1", "corner"]]).unmet_goals() == ["M2"]
    # in name order, not goal order; a non-goal object (M4) is never listed
    assert make(doc, goal=[["M3", "corner"], ["M2", "corner"],
                           ["M1", "work"]]).unmet_goals() == ["M2", "M3"]


def test_sample_placement_respects_region_and_forbidden():
    region = Region("r", Rect(0.0, 0.0, 1.0, 1.0))
    obj = Disc(0.1)
    blocker = (Disc(0.2), Pose(0.5, 0.5))
    rng = random.Random(3)
    for _ in range(50):
        pose = sample_placement(region, obj, [blocker], rng, REACH_ALL)
        assert pose is not None
        assert 0.1 <= pose.x <= 0.9 and 0.1 <= pose.y <= 0.9
        # clear of the blocker (boundary grazing allowed by tolerance)
        assert math.hypot(pose.x - 0.5, pose.y - 0.5) >= 0.3 - 1e-9


def test_sample_placement_infeasible_returns_none():
    # A radius-0.3 disc inside the unit square must center in [0.3, 0.7]^2;
    # no point there is >= 0.6 away from a same-size blocker at the center,
    # so sampling can never succeed.
    region = Region("r", Rect(0.0, 0.0, 1.0, 1.0))
    obj = Disc(0.3)
    blocker = (Disc(0.3), Pose(0.5, 0.5))
    assert sample_placement(region, obj, [blocker], random.Random(0), REACH_ALL) is None


def test_sample_placement_deterministic_and_in_reach():
    region = Region("r", Rect(0.0, 0.0, 1.0, 1.0))
    obj = Disc(0.05)
    p1 = sample_placement(region, obj, [], random.Random(7), REACH_ALL)
    p2 = sample_placement(region, obj, [], random.Random(7), REACH_ALL)
    assert p1 == p2
    short = Robot("R", (0.0, 0.0), 0.1, 0.4, 0.1)
    near = sample_placement(region, obj, [], random.Random(7), short)
    assert near is not None and 0.1 <= math.hypot(near.x, near.y) <= 0.4
    far = Robot("R", (5.0, 5.0), 0.1, 1.0, 0.1)
    assert sample_placement(region, obj, [], random.Random(7), far) is None
