"""Task-graph construction: the worklist over blockers, exclusions, the
canonical form, golden dumps."""
import json
import random

import pytest

from mrplan.facts import compute_facts
from mrplan.scene import load_scene, loads_scene
from mrplan.taskgraph import build_cmtg, make_graph

from conftest import GOLDEN, scenario
from oracle_mip import blocks_of, random_cmtg


def graph_for(name, targets=None, excluded=frozenset()):
    scene = load_scene(scenario(name))
    facts = compute_facts(scene)
    t = targets if targets is not None else scene.goal_objects()
    return build_cmtg(t, facts, scene, excluded), scene, facts


def test_pick_chain_graph_matches_golden():
    graph, _, _ = graph_for("pick_chain")
    assert graph.dumps() == (GOLDEN / "pick_chain_cmtg.txt").read_text()


def test_place_blocked_graph_matches_golden():
    graph, _, _ = graph_for("place_blocked")
    assert graph.dumps() == (GOLDEN / "place_blocked_cmtg.txt").read_text()


def test_block_edges_follow_the_facts():
    # pick_chain has pick blockers only; place_blocked has a place blocker
    for name in ("pick_chain", "place_blocked"):
        graph, scene, facts = graph_for(name)
        for a, m in graph.block_pick_edges:
            assert (m, a.obj, a.grasp_pick, a.pick_robot) in facts.occludes_pick
        for a, m in graph.block_place_edges:
            assert (m, a.obj, a.region, a.place_robot) in facts.occludes_goal_place
    assert graph.block_place_edges


def test_a_target_that_is_already_a_blocker_adds_nothing():
    # M4 blocks M1's only action, so M1 alone already pulls it in
    one, _, _ = graph_for("pick_chain", targets=["M1"])
    both, _, _ = graph_for("pick_chain", targets=["M1", "M4"])
    assert "M4" in {m for _, m in one.block_pick_edges}
    assert both.object_nodes == one.object_nodes
    assert both.action_nodes == one.action_nodes
    assert both.block_pick_edges == one.block_pick_edges
    assert both.block_place_edges == one.block_place_edges


def test_make_graph_ignores_insertion_order():
    rng = random.Random("insertion order")
    for _ in range(40):
        graph = random_cmtg(rng, 6, 8, robots=("A", "B", "C"))
        items = [(a, (rng.sample(sorted(p), len(p)), rng.sample(sorted(q), len(q))))
                 for a, (p, q) in blocks_of(graph).items()]
        rng.shuffle(items)
        targets = rng.sample(sorted(graph.targets), len(graph.targets))
        again = make_graph(targets, dict(items))
        assert again == graph
        assert again.dumps() == graph.dumps()


def test_target_insertion_order_does_not_matter():
    scene = load_scene(scenario("pa_small"))
    facts = compute_facts(scene)
    a = build_cmtg(["M1", "M2", "M3"], facts, scene)
    b = build_cmtg(["M3", "M1", "M2"], facts, scene)
    assert a.dumps() == b.dumps()


def test_excluded_blocker_drops_dependent_actions():
    # with M4 excluded, the handover action for M1 (pick-blocked by M4)
    # must disappear, leaving M1 without any action
    graph, _, _ = graph_for("pick_chain", targets=["M1"],
                            excluded=frozenset({"M4"}))
    assert not any(a.obj == "M1" for a in graph.action_nodes)
    assert "M4" not in graph.object_nodes


def test_excluded_target_rejected():
    scene = load_scene(scenario("pick_chain"))
    facts = compute_facts(scene)
    with pytest.raises(ValueError, match="overlap"):
        build_cmtg(["M1"], facts, scene, excluded=frozenset({"M1"}))


def test_non_goal_blockers_target_home_region():
    graph, scene, _ = graph_for("pick_chain")
    for a in graph.action_nodes:
        if a.obj not in scene.goal_objects():
            assert a.region == scene.movables[a.obj].home_region
            assert not a.is_handover


def test_one_action_node_per_grasp_class():
    doc = {
        "regions": [{"name": "work", "rect": [-1.0, -1.0, 1.0, 1.0]},
                    {"name": "goal_zone", "rect": [-0.4, 0.3, 0.0, 0.7]}],
        "movables": [{"name": "M1", "shape": {"type": "disc", "radius": 0.05},
                      "pose": {"x": 0.5, "y": 0.0}, "home_region": "work"}],
        "robots": [{"name": "R1", "base": [0.0, 0.0], "reach_min": 0.1,
                    "reach_max": 1.5, "gripper_width": 0.1}],
        "grasp_count": 8,
        "goal": [["M1", "goal_zone"]],
    }
    scene = loads_scene(json.dumps(doc))
    facts = compute_facts(scene)
    graph = build_cmtg(["M1"], facts, scene)
    # all 8 grasp points lie in the wide annulus and nothing blocks them, so
    # they form one class: one action carrying every grasp, nearest R1 first
    # (the grasp facing the base, then mirror pairs by increasing angle)
    [action] = graph.action_nodes
    angles = scene.grasp_angles()
    assert action.grasps == tuple(angles[i] for i in (4, 3, 5, 2, 6, 1, 7, 0))
    assert action.grasp_pick == angles[4]
