"""The trajectory search against the eager reference.

``reference_grounding.find_trajectories`` lays out and tests every sweep of
every grasp of a class, then tries the clear combinations in
``itertools.product`` order. ``grounding.find_trajectories`` tests only the
sweeps a class shares, once, and relies on its precondition for the pick
sweeps: no obstacle lies on a task-graph pick sweep. On inputs that meet it,
as the planner's do, both must return the same moves, or both ``None``. The
invariant the search rests on is pinned here too: a class's grasps differ
only in the pick sweep.
"""
import itertools
import json
import math
import random

import pytest

from mrplan.facts import compute_facts
from mrplan.geometry import Disc, Pose
from mrplan.grounding import find_placements, find_trajectories
from mrplan.motion import build_moves, robot_clashes
from mrplan.plans import PartiallyGroundedAction
from mrplan.scene import loads_scene
from mrplan.taskgraph import build_cmtg

import reference_grounding
from conftest import EXTRA, SCENARIOS

SCENES = sorted(SCENARIOS.glob("*.json")) + sorted(EXTRA.glob("*.json"))


def goal_graph(path, grasp_count):
    doc = json.loads(path.read_text())
    scene = loads_scene(json.dumps({**doc, "grasp_count": grasp_count}))
    return scene, build_cmtg(scene.goal_objects(), compute_facts(scene), scene)


def joint_steps(actions):
    """Every action alone, and every pair that can share a step: distinct
    objects, disjoint robots."""
    steps = [(a,) for a in actions]
    steps += [(a, b) for a, b in itertools.combinations(actions, 2)
              if a.obj != b.obj and not set(a.robots) & set(b.robots)]
    return steps


def pebbles(scene, step, placements):
    """A pebble at 0.8 and at 0.9 of every shared sweep of each action: all
    but the pick robot's gripper sweep. Each one blocks the whole class."""
    out = []
    for action in step:
        moves = build_moves(scene, action, placements[action.obj])
        for r, mv in moves.items():
            shared = ((mv.place_traj.corridor,) if r == action.pick_robot
                      else mv.all_corridors())
            for cor in shared:
                (ax, ay), (bx, by) = cor.a, cor.b
                out += [(Disc(0.002), Pose(ax + t * (bx - ax), ay + t * (by - ay)))
                        for t in (0.8, 0.9)]
    return out


@pytest.mark.parametrize("grasp_count", [1, 3, 8])
def test_lazy_search_returns_the_reference_moves_on_every_scene(grasp_count):
    outcomes = {"found": 0, "none": 0}

    def compare(step, placements, obstacles, where):
        want = reference_grounding.find_trajectories(step, placements, obstacles, scene)
        assert find_trajectories(step, placements, obstacles, scene) == want, where
        outcomes["none" if want is None else "found"] += 1

    for path in SCENES:
        scene, graph = goal_graph(path, grasp_count)
        pick_blockers = {a: {graph.object_nodes[o] for o in objs}
                         for a, objs in zip(graph.action_nodes, graph.pick)}
        fixed = list(scene.fixed)
        for step in joint_steps(graph.action_nodes):
            # the planner protects every movable but the step's objects and
            # their pick blockers, which it moves first
            moved = {a.obj for a in step}.union(*(pick_blockers[a] for a in step))
            strict = fixed + [(m.shape, m.pose) for n, m in sorted(scene.movables.items())
                              if n not in moved]
            for seed in range(3):
                for obstacles in (strict, fixed):
                    rng = random.Random(f"{path.stem}:{grasp_count}:{seed}")
                    placements = find_placements(step, obstacles, scene, rng)
                    if placements is None:
                        continue
                    where = (path.name, step, seed, len(obstacles))
                    compare(step, placements, obstacles, where)
                    for peb in pebbles(scene, step, placements):
                        compare(step, placements, obstacles + [peb], where + (peb,))
    # no shipped step needs a later grasp of a class; the fallback is
    # pinned by test_the_first_clear_combination_in_product_order_wins
    assert outcomes["found"] and outcomes["none"], outcomes


def test_the_first_clear_combination_in_product_order_wins():
    """R2's base sits inside R1's reach toward M1, and M2 lies behind R1's
    base. Each gripper sweep to grasp 0 crosses the other robot's sweep to
    grasp 0, and each to grasp pi the other's to grasp pi; every other sweep
    is clear. So (0, 0) fails and both (0, pi) and (pi, 0) pass: product
    order, first action slowest, must pick (0, pi)."""
    disc = {"type": "disc", "radius": 0.3}
    scene = loads_scene(json.dumps({
        "regions": [{"name": "work", "rect": [-2.0, -2.0, 2.0, 2.0]}],
        "movables": [{"name": "M1", "shape": disc, "pose": {"x": 0.0, "y": 0.5},
                      "home_region": "work"},
                     {"name": "M2", "shape": disc, "pose": {"x": 0.0, "y": -0.5},
                      "home_region": "work"}],
        "robots": [{"name": "R1", "base": [0.0, 0.0], "reach_min": 0.1,
                    "reach_max": 1.0, "gripper_width": 0.04},
                   {"name": "R2", "base": [0.0, 0.12], "reach_min": 0.1,
                    "reach_max": 1.0, "gripper_width": 0.04}],
        "grasp_count": 2,
        "goal": [["M1", "work"]]}))
    grasps = (0.0, math.pi)
    step = [PartiallyGroundedAction(obj, "work", robot, robot, 0.0, grasps)
            for obj, robot in (("M1", "R1"), ("M2", "R2"))]
    placements = {"M1": Pose(0.0, 1.5), "M2": Pose(0.0, -1.5)}

    def moves(g1, g2):
        out = {}
        for a, g in zip(step, (g1, g2)):
            out.update(build_moves(scene, a.replace(grasp_pick=g), placements[a.obj]))
        return out

    assert [not any(robot_clashes(scene, moves(g1, g2)))
            for g1, g2 in itertools.product(grasps, grasps)] == [False, True, True, False]
    want = reference_grounding.find_trajectories(step, placements, [], scene)
    assert want == moves(0.0, math.pi)
    assert find_trajectories(step, placements, [], scene) == want


@pytest.mark.parametrize("grasp_count", [3, 8])
def test_the_grasps_of_a_class_differ_only_in_the_pick_sweep(grasp_count):
    """For every goal task-graph action, the moves of each grasp of its class
    are the representative's except for the pick robot's ``pick_traj``."""
    checked = 0
    for path in SCENES:
        scene, graph = goal_graph(path, grasp_count)
        for action in graph.action_nodes:
            obj_pose = scene.movables[action.obj].pose
            placement = Pose(obj_pose.x + 0.3, obj_pose.y - 0.2)
            rep = build_moves(scene, action, placement)
            for g in action.grasps:
                moves = build_moves(scene, action.replace(grasp_pick=g), placement)
                assert moves.keys() == rep.keys()
                for r, mv in moves.items():
                    assert mv.place_traj == rep[r].place_traj, (path.name, action, g)
                    if r != action.pick_robot:
                        assert mv.pick_traj == rep[r].pick_traj, (path.name, action, g)
                checked += len(action.grasps) > 1
    assert checked
