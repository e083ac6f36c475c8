"""Plan validity checker: replay, per-condition violations, round trips."""
import json
import math

import pytest

from mrplan.geometry import Pose
from mrplan.motion import build_moves, robot_clashes
from mrplan.plans import (GroundedJointAction, PartiallyGroundedAction, Plan,
                          PlanError, dumps_plan, loads_plan)
from mrplan.scene import load_scene, loads_scene
from mrplan.search import PlannerConfig, plan as run_planner
from mrplan.validator import validate_plan

from conftest import EXTRA, SCENARIOS, scenario


def single_action(obj="M1", region="goal_zone", robot="R1"):
    return PartiallyGroundedAction(obj=obj, region=region, pick_robot=robot,
                                   place_robot=robot, grasp_pick=0.0)


def step_for(scene, action, placement):
    return GroundedJointAction(moves=build_moves(scene, action, placement))


def test_empty_plan_valid_when_goal_already_met():
    scene = load_scene(scenario("satisfied_at_start"))
    report = validate_plan(scene, Plan(steps=()))
    assert report.ok
    assert all(report.condition_results().values())


def test_empty_plan_fails_goal_when_goal_unmet():
    scene = load_scene(scenario("unobstructed"))
    report = validate_plan(scene, Plan(steps=()))
    assert not report.ok
    assert report.condition_results()["goal"] is False
    assert [v.code for v in report.violations] == ["goal"]


def test_valid_single_step_plan():
    scene = load_scene(scenario("unobstructed"))
    step = step_for(scene, single_action(), Pose(0.25, 0.55))
    report = validate_plan(scene, Plan(steps=(step,)))
    assert report.ok, report.to_doc()


def test_placement_outside_region_is_condition_ii():
    scene = load_scene(scenario("unobstructed"))
    step = step_for(scene, single_action(), Pose(0.6, 0.55))  # right of goal_zone
    report = validate_plan(scene, Plan(steps=(step,)))
    assert report.condition_results()["condition_ii"] is False


def test_object_moved_twice_is_monotonicity_violation():
    scene = load_scene(scenario("unobstructed"))
    s1 = step_for(scene, single_action(), Pose(0.25, 0.55))
    # the second move picks M1 where the first placed it, in goal_zone
    moved = scene.replace(movables={**scene.movables, "M1": scene.movables["M1"].replace(
        pose=Pose(0.25, 0.55), home_region="goal_zone")})
    s2 = step_for(moved, single_action(), Pose(0.3, 0.5))
    report = validate_plan(scene, Plan(steps=(s1, s2)))
    assert report.condition_results()["monotonicity"] is False


def test_corridor_through_obstacle_is_condition_i():
    scene = load_scene(scenario("constrained_relocation"))
    # move M1 (at 0.6, 0) directly: the pick corridor from R1's base passes
    # straight through M2 at (0.3, 0)
    step = step_for(scene, single_action(obj="M1"), Pose(0.3, 0.6))
    report = validate_plan(scene, Plan(steps=(step,)))
    assert report.condition_results()["condition_i"] is False
    assert any("M2" in v.message for v in report.violations
               if v.code == "condition_i")


def test_corridor_over_another_robots_base_is_condition_i():
    # R2's base sits on R1's approach to grasp pi of M1, the grasp point
    # (0.4, 0); nothing else in the plan is wrong
    scene = loads_scene(json.dumps({
        "regions": [{"name": "work", "rect": [-1.0, -1.0, 1.0, 1.0]},
                    {"name": "goal_zone", "rect": [0.3, 0.4, 0.6, 0.7]}],
        "movables": [{"name": "M1", "shape": {"type": "disc", "radius": 0.1},
                      "pose": {"x": 0.5, "y": 0.0}, "home_region": "work"}],
        "robots": [{"name": "R1", "base": [0.0, 0.0], "reach_min": 0.1,
                    "reach_max": 1.0, "gripper_width": 0.1},
                   {"name": "R2", "base": [0.3, -0.04], "reach_min": 0.1,
                    "reach_max": 0.15, "gripper_width": 0.1}],
        "grasp_count": 4,
        "goal": [["M1", "goal_zone"]]}))
    action = single_action().replace(grasp_pick=math.pi)
    step = step_for(scene, action, Pose(0.45, 0.55))
    report = validate_plan(scene, Plan(steps=(step,)))
    assert [(v.code, v.message) for v in report.violations] == [
        ("condition_i", "corridor of R1 sweeps over base of R2")]


def test_coincident_placements_are_condition_ii():
    scene = load_scene(scenario("parallel_goals"))
    a1 = PartiallyGroundedAction(obj="M1", region="region_a", pick_robot="R1",
                                 place_robot="R1", grasp_pick=0.0)
    a2 = PartiallyGroundedAction(obj="M2", region="region_a", pick_robot="R2",
                                 place_robot="R2", grasp_pick=0.0)
    target = Pose(0.25, -0.35)
    moves = {**build_moves(scene, a1, target),
             **build_moves(scene, a2, target)}
    report = validate_plan(scene, Plan(steps=(GroundedJointAction(moves=moves),)))
    assert report.condition_results()["condition_ii"] is False
    assert any("overlap" in v.message for v in report.violations
               if v.code == "condition_ii")


def test_handover_step_passes_condition_iii():
    scene = load_scene(scenario("handover_required"))
    result = run_planner(scene, PlannerConfig(seed=0))
    assert isinstance(result, Plan)
    assert any(mv.action.is_handover for step in result.steps
               for mv in step.moves.values())
    report = validate_plan(scene, result)
    assert report.ok, report.to_doc()


def handover_moves(scene):
    a = PartiallyGroundedAction(obj="M1", region="goal_zone", pick_robot="R1",
                                place_robot="R2", grasp_pick=0.0)
    return build_moves(scene, a, Pose(1.6, 0.7))


def test_handover_missing_partner_slot_is_structural_error():
    scene = load_scene(scenario("handover_required"))
    moves = handover_moves(scene)
    del moves["R2"]
    with pytest.raises(PlanError, match="both robot slots"):
        validate_plan(scene, Plan(steps=(GroundedJointAction(moves=moves),)))


def test_handover_sides_with_different_placements_are_structural_error():
    scene = load_scene(scenario("handover_required"))
    moves = handover_moves(scene)
    moves["R1"] = moves["R1"].replace(placement=Pose(0.5, -0.3))
    with pytest.raises(PlanError, match="disagree on its placement"):
        validate_plan(scene, Plan(steps=(GroundedJointAction(moves=moves),)))


@pytest.mark.parametrize("scene_name,robot,role", [
    ("unobstructed", "R1", "pick"),
    ("handover_required", "R1", "single"),
    ("handover_required", "R1", "place"),
    ("handover_required", "R2", "single"),
    ("handover_required", "R2", "pick"),
])
def test_role_that_does_not_match_the_action_is_structural_error(scene_name, robot,
                                                                 role):
    # a move's role is its action's, so only a plan document can state another
    scene = load_scene(scenario(scene_name))
    if scene_name == "unobstructed":
        moves = dict(step_for(scene, single_action(), Pose(0.25, 0.55)).moves)
    else:
        moves = handover_moves(scene)
    text = dumps_plan(Plan(steps=(GroundedJointAction(moves=moves),)), scene.robots)
    assert validate_plan(scene, loads_plan(text, scene.robots)).ok
    doc = json.loads(text)
    rec = next(rec for rec in doc["steps"][0] if rec["robot"] == robot)
    want, rec["role"] = rec["role"], role
    with pytest.raises(PlanError, match=f"^step 1: {robot} has role '{role}' in a "
                                        f"'{want}' move of M1$"):
        loads_plan(json.dumps(doc), scene.robots)


def test_unknown_entity_references_are_structural_errors():
    scene = load_scene(scenario("unobstructed"))
    step = step_for(scene, single_action(region="goal_zone"), Pose(0.25, 0.55))
    bad = GroundedJointAction(moves={"R9": step.moves["R1"]})
    with pytest.raises(PlanError, match="unknown robot"):
        validate_plan(scene, Plan(steps=(bad,)))
    a = PartiallyGroundedAction(obj="M1", region="nowhere", pick_robot="R1",
                                place_robot="R1", grasp_pick=0.0)
    bad_region = GroundedJointAction(moves=build_moves(scene, a, Pose(0.25, 0.55)))
    with pytest.raises(PlanError, match="unknown region"):
        validate_plan(scene, Plan(steps=(bad_region,)))


@pytest.mark.parametrize("edit,match", [
    (lambda c: c.replace(width=0.05), "narrower"),
    (lambda c: c.replace(b=(c.b[0] + 0.1, c.b[1])), "does not join"),
], ids=["narrow", "off_waypoint"])
def test_corridor_that_is_not_the_sweep_of_its_waypoints_is_structural(edit, match):
    scene = load_scene(scenario("unobstructed"))
    mv = step_for(scene, single_action(), Pose(0.25, 0.55)).moves["R1"]
    bad = mv.replace(pick_traj=mv.pick_traj.replace(corridor=edit(mv.pick_traj.corridor)))
    with pytest.raises(PlanError, match=match):
        validate_plan(scene, Plan(steps=(GroundedJointAction(moves={"R1": bad}),)))


@pytest.mark.parametrize("edit", [
    lambda c: c.replace(a=(1e-6, 0.0)),             # 1e-6 from R1's base at the origin
    lambda c: c.replace(width=0.1 - 1e-9),          # R1's gripper width less EPS
], ids=["off_waypoint_by_the_tolerance", "narrower_by_eps"])
def test_a_corridor_at_the_tolerance_of_its_sweep_still_validates(edit):
    scene = load_scene(scenario("unobstructed"))
    result = run_planner(scene, PlannerConfig(seed=0))
    (step,) = result.steps
    mv = step.moves["R1"]
    bad = mv.replace(pick_traj=mv.pick_traj.replace(corridor=edit(mv.pick_traj.corridor)))
    assert validate_plan(scene, Plan(steps=(GroundedJointAction(moves={"R1": bad}),))).ok


def moved_end(traj, index, to):
    """``traj`` with waypoint ``index`` (0 or -1) moved to ``to``; the corridor
    follows, so the trajectory stays the sweep of its waypoints."""
    wps = list(traj.waypoints)
    wps[index] = Pose(*to)
    cor = traj.corridor
    cor = cor.replace(a=to) if index == 0 else cor.replace(b=to)
    return traj.replace(waypoints=tuple(wps), corridor=cor)


@pytest.mark.parametrize("traj,index,to,match", [
    ("pick_traj", 0, (0.0, 0.05), "pick trajectory of R1 does not start at its base"),
    ("pick_traj", -1, (0.55, 0.05), "does not end at the grasp point"),
    ("place_traj", 0, (0.5, 0.05), "does not start at its current pose"),
    ("place_traj", -1, (0.25, 0.6), "does not end at its placement"),
], ids=["pick_start", "pick_end", "carry_start", "carry_end"])
def test_trajectory_away_from_its_endpoint_is_condition_ii(traj, index, to, match):
    scene = load_scene(scenario("unobstructed"))
    mv = step_for(scene, single_action(), Pose(0.25, 0.55)).moves["R1"]
    bad = mv.replace(**{traj: moved_end(getattr(mv, traj), index, to)})
    report = validate_plan(scene, Plan(steps=(GroundedJointAction(moves={"R1": bad}),)))
    assert [v.code for v in report.violations] == ["condition_ii"]
    assert match in report.violations[0].message


@pytest.mark.parametrize("robot,traj,index,to,code,match", [
    ("R1", "place_traj", 0, (0.3, 0.05), "condition_ii", "carry of M1 by R1 does not start"),
    ("R2", "place_traj", -1, (1.6, 0.75), "condition_ii", "carry of M1 by R2 does not end"),
    ("R2", "pick_traj", 0, (1.6, 0.05), "condition_ii",
     "pick trajectory of R2 does not start"),
    ("R1", "place_traj", -1, (0.75, 0.0), "condition_iii",
     "carry of M1 by R1 does not end at the handover point"),
    ("R2", "pick_traj", -1, (0.8, 0.05), "condition_iii",
     "pick trajectory of R2 does not end at the handover point"),
    ("R2", "place_traj", 0, (0.85, 0.0), "condition_iii",
     "carry of M1 by R2 does not start at the handover point"),
], ids=["carry_start", "delivery_end", "receive_start", "carry_end", "receive_end",
        "delivery_start"])
def test_handover_legs_away_from_their_endpoints_are_condition_ii(robot, traj, index,
                                                                  to, code, match):
    scene = load_scene(scenario("handover_required"))
    moves = handover_moves(scene)
    assert validate_plan(scene, Plan(steps=(GroundedJointAction(moves=moves),))).ok
    mv = moves[robot]
    moves[robot] = mv.replace(**{traj: moved_end(getattr(mv, traj), index, to)})
    report = validate_plan(scene, Plan(steps=(GroundedJointAction(moves=moves),)))
    faults = [v for v in report.violations if v.code == code]
    assert len(faults) == 1 and match in faults[0].message


def test_plan_serialization_round_trip_preserves_validity():
    # a document's role and grasp_place are written from the action: reading
    # and writing it again must give the same text
    planned = 0
    for path in sorted(SCENARIOS.glob("*.json")) + sorted(EXTRA.glob("*.json")):
        scene = load_scene(path)
        for seed in range(5):
            result = run_planner(scene, PlannerConfig(seed=seed))
            if not isinstance(result, Plan):
                continue
            planned += 1
            text = dumps_plan(result, scene.robots)
            again = loads_plan(text, scene.robots)
            assert dumps_plan(again, scene.robots) == text, (path.stem, seed)
            assert validate_plan(scene, again).ok, (path.stem, seed)
            assert again.makespan == result.makespan
            assert again.motion_cost == result.motion_cost
    assert planned >= 50


def test_validator_is_pure():
    scene = load_scene(scenario("unobstructed"))
    before = scene.movables["M1"].pose
    step = step_for(scene, single_action(), Pose(0.25, 0.55))
    validate_plan(scene, Plan(steps=(step,)))
    assert scene.movables["M1"].pose == before


def scene_of(movables, robots, fixed=(), goal=None):
    """A scene in one large work region; ``movables`` maps name -> (x, y) of
    a 0.05 disc, ``robots`` name -> base. Every robot reaches 0.1 to 1.2."""
    disc = {"type": "disc", "radius": 0.05}
    return loads_scene(json.dumps({
        "regions": [{"name": "work", "rect": [-2.0, -2.0, 2.0, 2.0]},
                    {"name": "zone", "rect": [1.5, 1.5, 1.9, 1.9]}],
        "movables": [{"name": n, "shape": disc, "pose": {"x": x, "y": y},
                      "home_region": "work"} for n, (x, y) in movables.items()],
        "robots": [{"name": n, "base": list(base), "reach_min": 0.1, "reach_max": 1.2,
                    "gripper_width": 0.1} for n, base in robots.items()],
        "fixed": list(fixed),
        "grasp_count": 4,
        "goal": goal if goal is not None else [[n, "work"] for n in movables]}))


def violations(scene, *steps):
    return [(v.code, v.message)
            for v in validate_plan(scene, Plan(steps=steps)).violations]


def test_crossing_corridors_of_two_robots_are_condition_i():
    # each robot reaches across the other's pick sweep to its object
    scene = scene_of({"M1": (0.7, 0.4), "M2": (0.3, 0.4)},
                     {"R1": (0.0, 0.0), "R2": (1.0, 0.0)})
    moves = {**build_moves(scene, single_action("M1", "work", "R1"), Pose(0.7, 0.7)),
             **build_moves(scene, single_action("M2", "work", "R2"), Pose(0.3, 0.7))}
    assert violations(scene, GroundedJointAction(moves=moves)) == [
        ("condition_i", "corridors of R1 and R2 collide")]


def test_handover_corridors_overlapping_away_from_the_handover_point_are_condition_iii():
    # R2 delivers from the handover point (0.5, 0) back across R1's pick sweep
    scene = scene_of({"M1": (0.3, 0.4)}, {"R1": (0.0, 0.0), "R2": (1.0, 0.0)}).replace(
        handover_points={("R1", "R2"): (0.5, 0.0)})
    action = PartiallyGroundedAction(obj="M1", region="work", pick_robot="R1",
                                     place_robot="R2", grasp_pick=math.pi)
    moves = build_moves(scene, action, Pose(-0.1, 0.35))
    assert violations(scene, GroundedJointAction(moves=moves)) == [
        ("condition_iii", "handover corridors of R1 and R2 overlap outside the "
                          "handover neighbourhood")]


def test_handover_corridors_overlapping_just_past_the_handover_radius_are_condition_iii():
    # R1 carries M1 0.45 m in to the handover point (0.5, 0) and R2 delivers it
    # 0.4 m back out, 23 degrees apart: the two 0.2-wide carries overlap 0.2 to
    # 0.4 m from the point, between 1 and 4 times the handover radius 0.1
    scene = scene_of({"M1": (0.1, 0.2)}, {"R1": (0.0, 0.0), "R2": (1.0, 0.0)}).replace(
        handover_points={("R1", "R2"): (0.5, 0.0)})
    assert [r.gripper_width for r in scene.robots.values()] == [0.1, 0.1]
    action = PartiallyGroundedAction(obj="M1", region="work", pick_robot="R1",
                                     place_robot="R2", grasp_pick=math.pi)
    angle = math.radians(130)
    placement = Pose(0.5 + 0.4 * math.cos(angle), 0.4 * math.sin(angle))
    moves = build_moves(scene, action, placement)
    assert list(robot_clashes(scene, moves)) == [("R1", "R2", True)]
    assert violations(scene, GroundedJointAction(moves=moves)) == [
        ("condition_iii", "handover corridors of R1 and R2 overlap outside the "
                          "handover neighbourhood")]


def test_a_carry_meeting_the_receivers_reach_at_a_shallow_angle_is_condition_iii():
    # R1 carries M1 0.4 m in to the handover point (0.5, 0) at 33 degrees to
    # R2's reach, which comes in along the x axis. The 0.2-wide carry and the
    # 0.1-wide reach overlap out to about 0.27 m from the point: past the
    # carry's trim (the handover radius 0.1 plus its half width 0.1), short
    # of that trim plus one more half width (0.3 m)
    angle = math.radians(33)
    scene = scene_of({"M1": (0.5 + 0.4 * math.cos(angle), 0.4 * math.sin(angle))},
                     {"R1": (0.0, 0.0), "R2": (1.0, 0.0)}).replace(
        handover_points={("R1", "R2"): (0.5, 0.0)})
    assert [r.gripper_width for r in scene.robots.values()] == [0.1, 0.1]
    action = PartiallyGroundedAction(obj="M1", region="work", pick_robot="R1",
                                     place_robot="R2", grasp_pick=math.pi / 2)
    moves = build_moves(scene, action, Pose(0.5, -0.4))
    assert list(robot_clashes(scene, moves)) == [("R1", "R2", True)]
    assert violations(scene, GroundedJointAction(moves=moves)) == [
        ("condition_iii", "handover corridors of R1 and R2 overlap outside the "
                          "handover neighbourhood")]


def test_the_handover_neighbourhood_is_as_wide_as_the_wider_gripper():
    # R1 (gripper 0.1) carries M1 in to the handover point (0.5, 0) from 153
    # degrees and R2 (gripper 0.2) delivers it 0.5 m back out at 100 degrees.
    # Trimmed by the wider gripper plus their half widths (0.1 and 0.15), the
    # carry ends 0.3 m and the delivery starts 0.35 m from the point, 0.296 m
    # apart: clear of the 0.25 m the two half widths need. Trimmed by the
    # narrower gripper they would end 0.2 and 0.25 m out, 0.207 m apart
    scene = scene_of({"M1": (0.1, 0.2)}, {"R1": (0.0, 0.0), "R2": (1.0, 0.0)}).replace(
        handover_points={("R1", "R2"): (0.5, 0.0)})
    scene = scene.replace(robots={**scene.robots,
                                  "R2": scene.robots["R2"].replace(gripper_width=0.2)})
    action = PartiallyGroundedAction(obj="M1", region="work", pick_robot="R1",
                                     place_robot="R2", grasp_pick=math.pi)
    angle = math.radians(100)
    placement = Pose(0.5 + 0.5 * math.cos(angle), 0.5 * math.sin(angle))
    moves = build_moves(scene, action, placement)
    assert list(robot_clashes(scene, moves)) == []
    assert violations(scene, GroundedJointAction(moves=moves)) == []


def test_a_placement_reports_the_fixed_obstacle_before_the_object_it_hits():
    box = {"shape": {"type": "rectangle", "half_w": 0.05, "half_h": 0.05},
           "pose": {"x": 0.5, "y": 0.55, "theta": 0.0}}
    scene = scene_of({"M1": (0.5, 0.0), "M2": (0.58, 0.42), "M3": (-0.5, 0.0)},
                     {"R1": (0.0, 0.0)}, fixed=[box])
    step = step_for(scene, single_action("M1", "work", "R1"), Pose(0.5, 0.47))
    assert violations(scene, step) == [
        ("condition_i", "corridor of R1 hits fixed obstacle 0"),
        ("condition_i", "corridor of R1 hits object M2"),
        ("condition_ii", "placement of M1 hits fixed obstacle 0"),
        ("condition_ii", "placement of M1 hits object M2")]


def test_unmet_goals_are_reported_in_goal_order():
    scene = scene_of({"M1": (0.5, 0.0), "M2": (-0.5, 0.0)}, {"R1": (0.0, 0.0)},
                     goal=[["M2", "zone"], ["M1", "zone"]])
    assert violations(scene) == [
        ("goal", "object M2 does not end inside region zone"),
        ("goal", "object M1 does not end inside region zone")]


@pytest.mark.parametrize("obj_at,placement,handover_point,fault", [
    ((0.5, 0.0), (1.3, 0.0), None,
     ("condition_ii", "carry of M1 by R1 ends out of reach at its placement")),
    # 2 cm past reach_max: a reach test 5 cm too lenient passes it
    ((0.5, 0.0), (1.22, 0.0), None,
     ("condition_ii", "carry of M1 by R1 ends out of reach at its placement")),
    ((1.25, 0.0), (0.5, 0.5), None,
     ("condition_ii", "pick trajectory of R1 ends out of reach at the grasp point of M1")),
    ((0.5, 0.4), (1.5, 0.4), (1.3, 0.0),
     ("condition_iii", "carry of M1 by R1 ends out of reach at the handover point")),
    ((0.5, 0.4), (1.5, 0.4), (0.7, 0.0),
     ("condition_iii", "pick trajectory of R2 ends out of reach at the handover point")),
], ids=["placement", "placement_2cm_past", "grasp_point", "handover_giver",
        "handover_receiver"])
def test_a_leg_that_ends_out_of_reach_names_its_robot(obj_at, placement, handover_point,
                                                     fault):
    # every robot reaches 0.1 to 1.2 from its base; R2 sits 2.0 from R1
    scene = scene_of({"M1": obj_at}, {"R1": (0.0, 0.0), "R2": (2.0, 0.0)})
    action = single_action("M1", "work", "R1")
    if handover_point is not None:
        scene = scene.replace(handover_points={("R1", "R2"): handover_point})
        action = action.replace(place_robot="R2")
    moves = build_moves(scene, action, Pose(*placement))
    assert violations(scene, GroundedJointAction(moves=moves)) == [fault]
