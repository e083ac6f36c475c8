"""Reverse grounding of task skeletons: full, partial and failed outcomes."""
import json
import math
import random

import pytest

from mrplan import grounding
from mrplan.facts import compute_facts
from mrplan.geometry import Disc, Pose
from mrplan.grounding import (Failure, Full, Partial, find_placements,
                              find_trajectories, ground, volumes_of)
from mrplan.mip import TaskSkeleton
from mrplan.motion import bases_crossed, build_moves, sweep_clear
from mrplan.plans import PartiallyGroundedAction, Plan, moved_objects
from mrplan.scene import load_scene, loads_scene
from mrplan.search import PlannerConfig, plan
from mrplan.taskgraph import build_cmtg
from mrplan.validator import validate_plan

from conftest import EXTRA, SCENARIOS, scenario
from test_facts import generated_scene


def act(obj, region, pick_robot="R1", place_robot=None):
    return PartiallyGroundedAction(obj=obj, region=region, pick_robot=pick_robot,
                                   place_robot=place_robot or pick_robot,
                                   grasp_pick=0.0)


def skeleton(*steps):
    return TaskSkeleton(steps=tuple({r: a for a in actions for r in a.robots}
                                    for actions in steps))


def test_full_grounding_of_single_step_skeleton():
    scene = load_scene(scenario("unobstructed"))
    sk = skeleton([act("M1", "goal_zone")])
    res = ground(sk, (), scene, random.Random(0))
    assert isinstance(res, Full)
    assert len(res.steps) == 1
    report = validate_plan(scene, Plan(steps=res.steps))
    assert report.ok, report.to_doc()


def test_partial_outcome_reports_exact_conflict_set():
    # M2 blocks every transfer corridor from M1's pose into the goal region,
    # but no pick corridor or placement, so only grounding can discover it
    scene = load_scene(scenario("conflict_partial"))
    sk = skeleton([act("M1", "goal_zone")])
    res = ground(sk, (), scene, random.Random(0))
    assert isinstance(res, Partial)
    assert res.conflicts == frozenset({"M2"})
    assert len(res.steps) == 1


def test_failure_when_goal_region_is_covered_by_fixed_obstacle():
    scene = load_scene(scenario("unsat_fixed_blocked"))
    sk = skeleton([act("M1", "goal_zone")])
    res = ground(sk, (), scene, random.Random(0))
    assert isinstance(res, Failure)
    assert "step 1" in res.reason


def test_removing_an_already_moved_object_is_rejected():
    scene = load_scene(scenario("unobstructed"))
    sk = skeleton([act("M1", "goal_zone")])
    done = ground(sk, (), scene, random.Random(0))
    assert moved_objects(done.steps) == {"M1"}
    with pytest.raises(ValueError, match="already moved"):
        ground(sk, done.steps, scene, random.Random(1))


def test_grounding_is_deterministic_in_the_rng():
    scene = load_scene(scenario("constrained_relocation"))
    sk = skeleton([act("M2", "strip")], [act("M1", "goal_zone")])
    r1 = ground(sk, (), scene, random.Random(5))
    r2 = ground(sk, (), scene, random.Random(5))
    assert isinstance(r1, Full) and isinstance(r2, Full)
    p1 = [s.placements() for s in r1.steps]
    p2 = [s.placements() for s in r2.steps]
    assert p1 == p2
    r3 = ground(sk, (), scene, random.Random(6))
    assert isinstance(r3, Full)  # other seeds ground too, possibly elsewhere


def test_grounded_multi_step_skeleton_validates():
    # reverse order: M1's move is grounded first; M2 (grounded second) must
    # vacate M1's pick sweep even though it blocks it only at its start pose
    scene = load_scene(scenario("constrained_relocation"))
    sk = skeleton([act("M2", "strip")], [act("M1", "goal_zone")])
    res = ground(sk, (), scene, random.Random(0))
    assert isinstance(res, Full)
    report = validate_plan(scene, Plan(steps=res.steps))
    assert report.ok, report.to_doc()


def test_find_placements_joint_consistency_pigeonhole():
    # A radius-0.3 disc in the unit box must centre in [0.3, 0.7]^2, whose
    # diagonal, 0.57, is shorter than the 0.6 two such discs need between
    # their centres: one fits at every seed, two at none.
    scene = box_scene(0.3, movables=("M1", "M2"))
    a1, a2 = act("M1", "box"), act("M2", "box")
    for seed in range(20):
        assert find_placements([a1], [], scene, random.Random(seed)) is not None
        assert find_placements([a1, a2], [], scene, random.Random(seed)) is None


def box_scene(radius, robots=(("R1", (0.0, 0.0), 0.0, 2.0),), movables=("M1",)):
    """Discs of ``radius`` at home outside the unit-square region "box";
    ``robots`` are (name, base, reach_min, reach_max). The default robot
    reaches every point of the box."""
    disc = {"type": "disc", "radius": radius}
    return loads_scene(json.dumps({
        "regions": [{"name": "home", "rect": [-3.0, -3.0, -1.0, -1.0]},
                    {"name": "box", "rect": [0.0, 0.0, 1.0, 1.0]}],
        "movables": [{"name": n, "shape": disc, "pose": {"x": -2.5 + i, "y": -2.0},
                      "home_region": "home"} for i, n in enumerate(movables)],
        "robots": [{"name": n, "base": list(base), "reach_min": lo, "reach_max": hi,
                    "gripper_width": 0.1} for n, base, lo, hi in robots],
        "goal": [[n, "box"] for n in movables]}))


def test_find_placements_keeps_to_the_region_and_clear_of_forbidden():
    scene = box_scene(0.1)
    blocker = (Disc(0.2), Pose(0.5, 0.5))
    rng = random.Random(3)
    for _ in range(50):
        pose = find_placements([act("M1", "box")], [blocker], scene, rng)["M1"]
        assert 0.1 <= pose.x <= 0.9 and 0.1 <= pose.y <= 0.9
        # clear of the blocker (boundary grazing allowed by tolerance)
        assert math.hypot(pose.x - 0.5, pose.y - 0.5) >= 0.3 - 1e-9


def test_find_placements_returns_none_when_no_pose_fits():
    # A radius-0.3 disc inside the unit square must center in [0.3, 0.7]^2;
    # no point there is >= 0.6 away from a same-size blocker at the center,
    # so sampling can never succeed.
    scene = box_scene(0.3)
    blocker = (Disc(0.3), Pose(0.5, 0.5))
    assert find_placements([act("M1", "box")], [blocker], scene, random.Random(0)) is None


def test_find_placements_is_deterministic_and_keeps_to_the_place_robots_reach():
    scene = box_scene(0.05, robots=(("R1", (0.0, 0.0), 0.0, 2.0),
                                    ("R2", (0.0, 0.0), 0.1, 0.4),
                                    ("R3", (5.0, 5.0), 0.1, 1.0)))
    p1 = find_placements([act("M1", "box")], [], scene, random.Random(7))
    p2 = find_placements([act("M1", "box")], [], scene, random.Random(7))
    assert p1 == p2
    near = find_placements([act("M1", "box", "R2")], [], scene, random.Random(7))["M1"]
    assert 0.1 <= math.hypot(near.x, near.y) <= 0.4
    assert find_placements([act("M1", "box", "R3")], [], scene, random.Random(7)) is None


def test_find_placements_returns_no_pose_past_reach_max():
    # the box reaches 1.41 from the base, the robot 0.5: many draws land just
    # past reach_max, which a reach test a few centimetres too lenient takes
    scene = box_scene(0.05, robots=(("R1", (0.0, 0.0), 0.1, 0.5),))
    rng = random.Random(0)
    dists = [math.hypot(*find_placements([act("M1", "box")], [], scene, rng)["M1"].xy)
             for _ in range(100)]
    assert max(dists) <= 0.5
    assert max(dists) > 0.45


def test_the_second_placement_of_a_step_clears_the_first():
    # two radius-0.2 discs in the unit square: drawn independently, their
    # centres would often lie closer than 0.4. M1 is drawn first, as alone
    scene = box_scene(0.2, movables=("M1", "M2"))
    a1, a2 = act("M1", "box"), act("M2", "box")
    found = 0
    for seed in range(20):
        both = find_placements([a2, a1], [], scene, random.Random(seed))
        if both is None:
            continue
        found += 1
        assert both["M1"] == find_placements([a1], [], scene, random.Random(seed))["M1"]
        assert math.dist(both["M1"].xy, both["M2"].xy) >= 0.4 - 1e-9
    assert found >= 10


def test_find_trajectories_rejects_blocked_corridor():
    # M2 lies on the pick sweep, but it is a pick blocker, which the planner
    # moves first and never passes as an obstacle; block the carry instead
    scene = load_scene(scenario("constrained_relocation"))
    a = act("M1", "goal_zone")
    placements = find_placements([a], [], scene, random.Random(0))
    assert placements is not None
    start, end = scene.movables["M1"].pose, placements["M1"]
    pebble = (Disc(0.01), Pose((start.x + end.x) / 2, (start.y + end.y) / 2))
    blocked = find_trajectories([a], placements, list(scene.fixed) + [pebble], scene)
    assert blocked is None  # the carry passes straight through the pebble
    clear = find_trajectories([a], placements, list(scene.fixed), scene)
    assert clear is not None


def test_partial_suffix_contains_future_context():
    scene = load_scene(scenario("conflict_partial"))
    sk = skeleton([act("M1", "goal_zone")])
    res = ground(sk, (), scene, random.Random(0))
    assert isinstance(res, Partial)
    assert moved_objects(res.steps) == {"M1"}
    assert len(volumes_of(res.steps)) >= 2  # pick + transfer corridors


def test_partial_conflicts_are_actionable():
    # grounding the conflict object first makes the original skeleton work
    scene = load_scene(scenario("conflict_partial"))
    first = ground(skeleton([act("M1", "goal_zone")]), (), scene, random.Random(0))
    assert isinstance(first, Partial)
    fixer = skeleton([act("M2", "work")])
    res = ground(fixer, first.steps, scene, random.Random(0))
    assert isinstance(res, Full)
    report = validate_plan(scene, Plan(steps=res.steps))
    assert report.ok, report.to_doc()


# R2 reaches nothing, but its base sits on R1's approaches to grasps pi (the
# nearest), 3pi/2 and 0 of M1; only the approach to pi/2 clears it
BASE_ON_APPROACH = {
    "regions": [{"name": "work", "rect": [-1.0, -1.0, 1.0, 1.0]},
                {"name": "goal_zone", "rect": [0.3, 0.4, 0.6, 0.7]}],
    "movables": [{"name": "M1", "shape": {"type": "disc", "radius": 0.1},
                  "pose": {"x": 0.5, "y": 0.0}, "home_region": "work"}],
    "robots": [{"name": "R1", "base": [0.0, 0.0], "reach_min": 0.1,
                "reach_max": 1.0, "gripper_width": 0.1},
               {"name": "R2", "base": [0.3, -0.04], "reach_min": 0.1,
                "reach_max": 0.15, "gripper_width": 0.1}],
    "grasp_count": 4,
    "goal": [["M1", "goal_zone"]],
}


def test_grounding_falls_back_to_the_next_grasp_of_the_class():
    # the fact phase drops the picks whose sweeps cover R2's base, so the
    # class holds only pi/2, and grounding takes it
    scene = loads_scene(json.dumps(BASE_ON_APPROACH))
    [action] = build_cmtg(["M1"], compute_facts(scene), scene).action_nodes
    assert action.grasps == (math.pi / 2,)

    res = ground(skeleton([action]), (), scene, random.Random(0))
    assert isinstance(res, Full)
    grounded = res.steps[0].moves["R1"].action
    assert grounded.grasp_pick == math.pi / 2
    report = validate_plan(scene, Plan(steps=res.steps))
    assert report.ok, report.to_doc()


def test_task_graph_actions_are_in_reach_where_grounding_executes_them():
    """Grounding tests no reach: it relies on every grasp of a goal task-graph
    action lying in the pick robot's reach at the object's start pose, where
    the object is picked, and on both robots of a handover reaching the
    handover point."""
    checked = handovers = 0
    for path in sorted(SCENARIOS.glob("*.json")) + sorted(EXTRA.glob("*.json")):
        doc = json.loads(path.read_text())
        for grasp_count in (1, 3, 8):
            scene = loads_scene(json.dumps({**doc, "grasp_count": grasp_count}))
            graph = build_cmtg(scene.goal_objects(), compute_facts(scene), scene)
            for a in graph.action_nodes:
                assert a.grasps, (path.name, a)
                for g in a.grasps:
                    gp = scene.grasp_point(a.obj, g)
                    assert scene.robots[a.pick_robot].in_reach(gp), (path.name, a, g)
                if a.is_handover:
                    h = scene.handover_point(a.pick_robot, a.place_robot)
                    assert all(scene.robots[r].in_reach(h) for r in a.robots), (path.name, a)
                    handovers += 1
                checked += 1
    assert checked and handovers


@pytest.mark.parametrize("source", ["shipped", "generated", "base_on_approach"])
def test_no_obstacle_lies_on_a_task_graph_pick_sweep_in_a_plan(source, monkeypatch):
    """``find_trajectories`` does not test pick sweeps. It relies on every
    grasp of every action the planner hands it having a pick sweep clear of
    that call's obstacles and of the other robots' bases."""
    real = grounding.find_trajectories
    calls = []

    def checked(actions, placements, obstacles, scene):
        for a in actions:
            for g in a.grasps:
                moves = build_moves(scene, a.replace(grasp_pick=g), placements[a.obj])
                sweep = moves[a.pick_robot].pick_traj.corridor
                assert sweep_clear(scene, a.pick_robot, sweep, obstacles), (
                    name, a, g)
        calls.append(len(actions))
        return real(actions, placements, obstacles, scene)

    monkeypatch.setattr(grounding, "find_trajectories", checked)
    if source == "base_on_approach":
        cases = [(f"{source}:{g}:{seed}", {**BASE_ON_APPROACH, "grasp_count": g}, seed)
                 for g in (4, 8) for seed in range(3)]
    elif source == "shipped":
        paths = sorted(SCENARIOS.glob("*.json")) + sorted(EXTRA.glob("*.json"))
        cases = [(f"{path.name}:{g}:{seed}",
                  {**json.loads(path.read_text()), "grasp_count": g}, seed)
                 for path in paths for g in (1, 3, 8) for seed in range(3)]
    else:
        cases = [(f"generated:{k}", generated_scene(random.Random(k)), 0) for k in range(40)]
    for name, doc, seed in cases:
        plan(loads_scene(json.dumps(doc)), PlannerConfig(seed=seed))
    assert calls


def test_find_trajectories_rejects_a_shared_sweep_over_another_robots_base():
    """A single move's carry, or a handover's delivery, that covers a third
    robot's base fails the whole class; another placement clears it."""
    def robot(name, x, y):
        return {"name": name, "base": [x, y], "reach_min": 0.1, "reach_max": 1.0,
                "gripper_width": 0.1}
    scene = loads_scene(json.dumps({
        "regions": [{"name": "work", "rect": [-1.0, -1.0, 2.0, 1.0]}],
        "movables": [{"name": "M1", "shape": {"type": "disc", "radius": 0.05},
                      "pose": {"x": 0.3, "y": 0.3}, "home_region": "work"}],
        "robots": [robot("R1", 0.0, 0.0), robot("R2", 1.0, 0.0), robot("R3", 0.75, 0.25)],
        "handover_points": {"R1,R2": [0.5, 0.0]},
        "grasp_count": 1,
        "goal": [["M1", "work"]]}))
    # (action, robot whose carry or delivery runs over R3, placements)
    for action, mover, over_r3, clear in (
            (act("M1", "work"), "R1", Pose(1.2, 0.2), Pose(0.3, -0.3)),
            (act("M1", "work", "R1", "R2"), "R2", Pose(1.0, 0.5), Pose(1.0, -0.5))):
        assert find_trajectories([action], {"M1": clear}, [], scene) is not None, action
        assert find_trajectories([action], {"M1": over_r3}, [], scene) is None, action
        moves = build_moves(scene, action, over_r3)
        sweep = moves[mover].place_traj.corridor
        assert bases_crossed(scene, mover, sweep) == ["R3"], action
