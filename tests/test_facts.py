"""Occlusion / reachability / handover facts and their certificates."""
import json

import pytest

from mrplan.facts import FactLookupError, compute_facts, occluders_of, place_candidates
from mrplan.geometry import collides
from mrplan.plans import PartiallyGroundedAction
from mrplan.scene import load_scene, loads_scene

from conftest import scenario


def action(obj, region, pick_robot, place_robot=None, g=0.0):
    return PartiallyGroundedAction(obj=obj, region=region, pick_robot=pick_robot,
                                   place_robot=place_robot or pick_robot,
                                   grasp_pick=g, grasp_place=g)


def test_unobstructed_scene_facts():
    scene = load_scene(scenario("unobstructed"))
    facts = compute_facts(scene)
    assert ("M1", 0.0, "R1") in facts.reachable_pick
    assert ("M1", "goal_zone", "R1") in facts.reachable_place
    assert facts.occludes_pick == set()
    assert facts.occludes_goal_place == set()
    assert facts.enable_goal_handover == set()  # needs two robots


def test_grasp_point_outside_reach_annulus_blocks_pick():
    doc = {
        "regions": [{"name": "work", "rect": [-1.0, -1.0, 1.0, 1.0]}],
        "movables": [{"name": "M1", "shape": {"type": "disc", "radius": 0.05},
                      "pose": {"x": 0.2, "y": 0.0}, "home_region": "work"}],
        "robots": [{"name": "R1", "base": [0.0, 0.0], "reach_min": 0.3,
                    "reach_max": 1.0, "gripper_width": 0.1}],
        "grasp_count": 1,
        "goal": [["M1", "work"]],
    }
    facts = compute_facts(loads_scene(json.dumps(doc)))
    # grasp point (0.25, 0) is closer than reach_min
    assert facts.reachable_pick == set()


def test_pick_chain_occlusions():
    scene = load_scene(scenario("pick_chain"))
    facts = compute_facts(scene)
    assert ("M4", "M1", 0.0, "R1") in facts.occludes_pick
    assert ("M3", "M4", 0.0, "R1") in facts.occludes_pick
    # M1's goal region is only reachable by R2, and a handover is enabled
    assert ("M1", "goal_zone", "R1") not in facts.reachable_place
    assert ("M1", "goal_zone", "R2") in facts.reachable_place
    assert ("M1", "R1", "R2") in facts.enable_goal_handover


def test_place_blocked_goal_place_occluder():
    scene = load_scene(scenario("place_blocked"))
    facts = compute_facts(scene)
    assert ("M2", "M1", "goal_zone", "R2") in facts.occludes_goal_place


def test_occluders_of_pick_and_place_blockers():
    scene = load_scene(scenario("pick_chain"))
    facts = compute_facts(scene)
    hand = action("M1", "goal_zone", "R1", "R2")
    pick, place = occluders_of(facts, hand, scene.goal_objects())
    assert pick == {"M4"}
    assert place == set()

    scene2 = load_scene(scenario("place_blocked"))
    facts2 = compute_facts(scene2)
    a = action("M1", "goal_zone", "R1", "R2")
    pick2, place2 = occluders_of(facts2, a, scene2.goal_objects())
    assert place2 == {"M2"}


def test_occluders_of_unreachable_action_raises():
    scene = load_scene(scenario("unobstructed"))
    facts = compute_facts(scene)
    with pytest.raises(FactLookupError):
        occluders_of(facts, action("M1", "goal_zone", "R1", g=1.23),
                     scene.goal_objects())


def test_pick_occluders_certified_by_pick_corridors():
    """For every reachable pick, each recorded occluder really intersects the
    pick corridor, and no unrecorded movable does."""
    for name in ("pick_chain", "place_blocked", "pa_small"):
        scene = load_scene(scenario(name))
        facts = compute_facts(scene)
        assert facts.reachable_pick
        for obj, g, r in facts.reachable_pick:
            cor = scene.pick_corridor(r, obj, g)
            recorded = {m1 for (m1, m2, g2, r2) in facts.occludes_pick
                        if (m2, g2, r2) == (obj, g, r)}
            actual = {n for n in scene.movables if n != obj
                      and collides(cor, (scene.movables[n].shape,
                                         scene.movables[n].pose))}
            assert recorded == actual, (name, obj, g, r)


def test_goal_place_occlusions_only_for_goal_pairs():
    scene = load_scene(scenario("pa_small"))
    facts = compute_facts(scene)
    goal_pairs = {(m, re) for m, re in scene.goal}
    for (m1, m2, re, r) in facts.occludes_goal_place:
        assert (m2, re) in goal_pairs


def test_place_and_handover_facts_do_not_depend_on_grasp_count():
    doc = json.loads(scenario("place_blocked").read_text())
    by_count = []
    for count in (1, 8):
        doc["grasp_count"] = count
        facts = compute_facts(loads_scene(json.dumps(doc)))
        by_count.append((facts.reachable_place, facts.occludes_goal_place,
                         facts.enable_goal_handover))
    assert by_count[0] == by_count[1]
    assert all(by_count[0])


def test_place_candidates_grid():
    scene = load_scene(scenario("unobstructed"))
    cands = place_candidates(scene, "goal_zone", "M1")
    # center first, then a 5x5 grid inset by the object radius
    assert cands[0].xy == pytest.approx((0.25, 0.55))
    assert len(cands) == 26
    rect = scene.regions["goal_zone"].rect
    for p in cands:
        assert rect.xmin + 0.05 <= p.x <= rect.xmax - 0.05
        assert rect.ymin + 0.05 <= p.y <= rect.ymax - 0.05


def test_place_candidates_empty_when_object_too_large():
    doc = {
        "regions": [{"name": "work", "rect": [0.0, 0.0, 2.0, 2.0]},
                    {"name": "slot", "rect": [0.0, 0.0, 0.08, 0.08]}],
        "movables": [{"name": "M1", "shape": {"type": "disc", "radius": 0.05},
                      "pose": {"x": 1.0, "y": 1.0}, "home_region": "work"}],
        "robots": [{"name": "R1", "base": [0.0, 0.0], "reach_min": 0.1,
                    "reach_max": 3.0, "gripper_width": 0.1}],
        "goal": [["M1", "slot"]],
    }
    scene = loads_scene(json.dumps(doc))
    assert place_candidates(scene, "slot", "M1") == []


def test_facts_deterministic_and_serializable():
    scene = load_scene(scenario("pick_chain"))
    d1 = compute_facts(scene).dumps()
    d2 = compute_facts(scene).dumps()
    assert d1 == d2
    recs = json.loads(d1)
    assert all("predicate" in r for r in recs)
    preds = {r["predicate"] for r in recs}
    assert {"reachable_pick", "occludes_pick", "enable_goal_handover"} <= preds
