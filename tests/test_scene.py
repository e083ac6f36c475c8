"""Scene loading, invariants, derived quantities."""
import json
import math

import pytest

from mrplan import scene as scene_module
from mrplan.geometry import Disc, Pose, Rect, Rectangle
from mrplan.scene import LIMIT, Movable, Robot, SceneError, load_scene, loads_scene

from conftest import REPO, scenario
from test_cli import HUGE_SCENE

MINIMAL = {
    "regions": [{"name": "work", "rect": [0.0, 0.0, 1.0, 1.0]}],
    "movables": [{"name": "M1", "shape": {"type": "disc", "radius": 0.05},
                  "pose": {"x": 0.5, "y": 0.5}, "home_region": "work"}],
    "robots": [{"name": "R1", "base": [0.0, 0.0], "reach_min": 0.1,
                "reach_max": 2.0, "gripper_width": 0.1}],
    "goal": [["M1", "work"]],
}


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


def disc_doc(name, x, y=0.5, radius=0.05):
    return {"name": name, "shape": {"type": "disc", "radius": radius},
            "pose": {"x": x, "y": y}, "home_region": "work"}


def block_doc(x, y=0.5):
    return {"shape": {"type": "rectangle", "half_w": 0.02, "half_h": 0.02},
            "pose": {"x": x, "y": y}}


@pytest.mark.parametrize("movables, fixed, message", [
    # three mutually overlapping discs, listed out of name order
    ([disc_doc("M3", 0.5), disc_doc("M1", 0.52), disc_doc("M2", 0.54)], [],
     "movables M1 and M2 overlap at load"),
    # M1's first partner in name order, though M3 lies nearer it
    ([disc_doc("M1", 0.5), disc_doc("M3", 0.51), disc_doc("M2", 0.58)], [],
     "movables M1 and M2 overlap at load"),
    # the first faulty movable in name order decides
    ([disc_doc("M2", 0.3), disc_doc("M3", 0.34), disc_doc("M1", 0.7)], [block_doc(0.7)],
     "movable M1 overlaps a fixed obstacle at load"),
    # a movable's overlap with a later one comes before its fixed obstacle
    ([disc_doc("M1", 0.5), disc_doc("M2", 0.56)], [block_doc(0.5)],
     "movables M1 and M2 overlap at load"),
    ([disc_doc("M1", 0.2), disc_doc("M2", 0.5)], [block_doc(0.5)],
     "movable M2 overlaps a fixed obstacle at load"),
])
def test_load_refuses_the_first_overlap_in_name_order(movables, fixed, message):
    with pytest.raises(SceneError) as e:
        make({"movables": movables, "fixed": fixed, "goal": []})
    assert str(e.value) == message


def test_loading_a_row_of_discs_tests_only_pairs_whose_boxes_meet(monkeypatch):
    n = 1600
    exact = scene_module.collides
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return exact(a, b)

    monkeypatch.setattr(scene_module, "collides", counted)
    # a zigzag row of 0.1 m discs, each 0.113 m from its neighbours, whose
    # boxes overlap; every pair of non-neighbours' boxes lies apart
    doc = {"regions": [{"name": "work", "rect": [0.0, 0.0, 0.08 * n + 1.0, 1.0]}],
           "movables": [disc_doc(f"M{i:04d}", 0.5 + 0.08 * i, 0.46 + 0.08 * (i % 2))
                        for i in range(n)], "goal": []}
    s = make(doc)
    assert len(s.movables) == n and len(calls) == n - 1 <= 2 * n


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


def test_a_pair_with_no_listed_point_has_no_handover_point():
    doc = {"robots": MINIMAL["robots"] + [
        {"name": "R2", "base": [2.0, 0.4], "reach_min": 0.1,
         "reach_max": 2.0, "gripper_width": 0.2}]}
    s = make(doc)
    assert s.handover_pairs == {}
    for pair in (("R1", "R2"), ("R2", "R1")):
        with pytest.raises(KeyError):
            s.handover_point(*pair)
    listed = make(doc, handover_points={"R2,R1": [1.0, 0.2]})
    assert listed.handover_pairs == {("R1", "R2"): (1.0, 0.2), ("R2", "R1"): (1.0, 0.2)}


@pytest.mark.parametrize("points, message", [
    ({("R1", "R1"): (0.8, 0.0)}, "handover point key 'R1,R1' pairs robot R1 with itself"),
    # one point would silently win for both orders
    ({("R1", "R2"): (0.8, 0.0), ("R2", "R1"): (0.9, 0.1)},
     "handover points list robots R2 and R1 twice"),
], ids=["self_pair", "both_orders"])
def test_a_scene_built_through_the_api_refuses_the_pairs_loading_refuses(points, message):
    doc = {"robots": MINIMAL["robots"] + [
        {"name": "R2", "base": [2.0, 0.4], "reach_min": 0.1,
         "reach_max": 2.0, "gripper_width": 0.2}]}
    s = make(doc)
    with pytest.raises(SceneError) as e:
        s.replace(handover_points=points)
    assert str(e.value) == message


def with_movable(shape=Disc(0.05), pose=Pose(0.5, 0.5)):
    return make().replace(movables={"M1": Movable(shape, pose, "work")})


def two_robots():
    return make(robots=MINIMAL["robots"] + [
        {"name": "R2", "base": [2.0, 0.4], "reach_min": 0.1, "reach_max": 2.0,
         "gripper_width": 0.2}])


def with_robot(base=(0.0, 0.0), reach_min=0.1, reach_max=2.0, gripper_width=0.1):
    return make().replace(robots={"R1": Robot(base, reach_min, reach_max, gripper_width)})


BEYOND = " is not a finite number within ±10000"


@pytest.mark.parametrize("build, message", [
    (lambda: with_movable(shape=Disc(0.0)), "movable M1: disc radius must be positive"),
    (lambda: with_movable(shape=Rectangle(0.0, 0.1)),
     "movable M1: rectangle extents must be positive"),
    (lambda: with_robot(gripper_width=0.0), "robot R1: gripper_width must be positive"),
    (lambda: make().replace(grasp_count=0), "grasp_count must be >= 1"),
    # a NaN fails every collision test, so a NaN part would collide with nothing
    (lambda: with_robot(base=(math.inf, 0.0)), "robot R1: inf" + BEYOND),
    (lambda: with_robot(base=(0.0, -math.inf)), "robot R1: -inf" + BEYOND),
    (lambda: with_robot(reach_max=math.nan), "robot R1: nan" + BEYOND),
    (lambda: with_movable(pose=Pose(math.nan, 0.5)), "movable M1: nan" + BEYOND),
    (lambda: with_movable(pose=Pose(0.5, 0.5, math.nan)), "movable M1: nan" + BEYOND),
    (lambda: with_movable(shape=Rectangle(0.05, math.nan)), "movable M1: nan" + BEYOND),
    (lambda: two_robots().replace(handover_points={("R1", "R2"): (math.nan, 0.0)}),
     "handover point R1,R2: nan" + BEYOND),
    (lambda: make().replace(grasp_count=math.nan), "grasp_count: nan" + BEYOND),
    (lambda: make().replace(grasp_count=math.inf), "grasp_count: inf" + BEYOND),
    # past 1e4 m
    (lambda: with_movable(shape=Disc(2e4)), "movable M1: 20000.0" + BEYOND),
    (lambda: with_movable(shape=Rectangle(0.05, 2e4)), "movable M1: 20000.0" + BEYOND),
    (lambda: with_robot(reach_max=2e4), "robot R1: 20000.0" + BEYOND),
    (lambda: with_robot(gripper_width=2e4), "robot R1: 20000.0" + BEYOND),
    (lambda: make().replace(regions={"work": Rect(0.0, 0.0, 1.0, 2e4)}),
     "region work: 20000.0" + BEYOND),
    (lambda: make().replace(regions={"work": Rect(0.0, 0.0, 1.0, math.nextafter(LIMIT, 2e4))}),
     "region work: 10000.000000000002" + BEYOND),
], ids=["disc_radius", "rectangle_extent", "gripper_width", "grasp_count",
        "base_inf", "base_minus_inf", "reach_nan", "pose_x_nan", "pose_theta_nan",
        "half_h_nan", "handover_point_nan", "grasp_count_nan", "grasp_count_inf",
        "radius_2e4", "half_h_2e4", "reach_max_2e4", "gripper_width_2e4", "coordinate_2e4",
        "coordinate_one_ulp_past"])
def test_an_api_value_a_document_would_refuse_is_refused_by_the_scene(build, message):
    # a document never reaches these checks: its parser or schema refuses it first
    with pytest.raises(SceneError) as e:
        build()
    assert str(e.value) == message


def test_a_nan_fixed_obstacle_is_refused_though_it_would_collide_with_nothing():
    # the rectangle shadows every carry into the goal zone; a NaN disc in its
    # place hits nothing, so the scene would plan and the plan would validate
    s = load_scene(scenario("unsat_fixed_blocked"))
    (_, pose), = s.fixed
    with pytest.raises(SceneError) as e:
        s.replace(fixed=[(Disc(math.nan), pose)])
    assert str(e.value) == "fixed obstacle 0: nan" + BEYOND


def huge_parts():
    """``HUGE_SCENE``'s parts, built through the API; its shapes are discs."""
    return {
        "regions": {r["name"]: Rect(*r["rect"]) for r in HUGE_SCENE["regions"]},
        "fixed": [(Disc(f["shape"]["radius"]), Pose.from_doc(f["pose"]))
                  for f in HUGE_SCENE["fixed"]],
        "movables": {m["name"]: Movable(Disc(m["shape"]["radius"]), Pose.from_doc(m["pose"]),
                                        m["home_region"]) for m in HUGE_SCENE["movables"]},
        "robots": {r["name"]: Robot(tuple(r["base"]), r["reach_min"], r["reach_max"],
                                    r["gripper_width"]) for r in HUGE_SCENE["robots"]},
    }


@pytest.mark.parametrize("fields, message", [
    (("regions",), "region start: 1.5e+154" + BEYOND),
    (("fixed",), "fixed obstacle 0: 1e+154" + BEYOND),
    (("movables",), "movable M1: 2e+154" + BEYOND),
    (("robots",), "robot R1: 3e+154" + BEYOND),
    (("regions", "fixed", "movables", "robots"),
     "region start: 1.5e+154" + BEYOND),
], ids=["regions", "fixed", "movables", "robots", "all"])
def test_the_huge_scenes_values_set_by_replace_are_refused(fields, message):
    # the scene whose squared corridor lengths overflow, so that a plan runs
    # through a fixed disc and validates
    parts = huge_parts()
    with pytest.raises(SceneError) as e:
        load_scene(scenario("unobstructed")).replace(**{f: parts[f] for f in fields})
    assert str(e.value) == message


def test_a_value_at_the_limit_is_accepted():
    s = make(regions=[{"name": "work", "rect": [-LIMIT, -LIMIT, LIMIT, LIMIT]}],
             robots=[{"name": "R1", "base": [LIMIT, -LIMIT], "reach_min": 0.0,
                      "reach_max": LIMIT, "gripper_width": LIMIT}])
    disc = Disc(LIMIT)
    assert s.replace(movables={"M1": Movable(disc, Pose(0.0, 0.0), "work")}).movables[
        "M1"].shape is disc


def test_the_limit_is_the_scene_schemas_bound():
    defs = json.loads((REPO / "src/mrplan/schemas/scene.schema.json").read_text())["$defs"]
    assert defs["coordinate"]["maximum"] == -defs["coordinate"]["minimum"] == LIMIT
    assert defs["length"]["maximum"] == LIMIT


def test_grasp_point_on_circumscribed_circle():
    s = make()
    assert s.grasp_point("M1", 0.0) == pytest.approx((0.55, 0.5))
    assert s.grasp_point("M1", math.pi / 2) == pytest.approx((0.5, 0.55))
    moved = Pose(0.2, 0.2)
    assert s.grasp_point("M1", 0.0, pose=moved) == pytest.approx((0.25, 0.2))


def test_replace_derives_the_scene_tables_from_the_new_fields():
    s = make()
    moved = s.replace(grasp_count=2, movables={"M1": s.movables["M1"].replace(
        pose=Pose(0.25, 0.5), shape=Disc(0.1))})
    assert moved.grasp_angles() == (0.0, math.pi)
    assert moved.grasp_point("M1", 0.0) == (0.35, 0.5)
    assert moved.transfer_width("R1", "M1") == 0.1 + 0.2
    assert moved.movables_hit([(Disc(0.05), Pose(0.2, 0.5))]) == ["M1"]
    assert s.movables_hit([(Disc(0.05), Pose(0.2, 0.5))]) == []
    assert moved == loads_scene(json.dumps({**MINIMAL, "grasp_count": 2, "movables": [
        disc_doc("M1", 0.25, radius=0.1)]}))


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
