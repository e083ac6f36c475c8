"""Occlusion / reachability / handover facts and their certificates."""
import itertools
import json
import math
import random

import pytest

import oracle_facts
from mrplan.facts import _grid, compute_facts
from mrplan.geometry import Corridor, Disc, Pose, Rectangle, collides
from mrplan.motion import build_moves
from mrplan.plans import PartiallyGroundedAction
from mrplan.scene import load_scene, loads_scene
from mrplan.search import PlannerConfig, plan
from mrplan.taskgraph import build_cmtg
from mrplan.validator import validate_plan

from conftest import EXTRA, SCENARIOS, scenario


SHIPPED = sorted(SCENARIOS.glob("*.json")) + sorted(EXTRA.glob("*.json"))


def grid(scene, re, obj):
    """The candidate points the place facts test for ``obj`` in ``re``."""
    return _grid(scene.regions[re], scene.movables[obj].shape.circumradius)


def action(obj, region, pick_robot, place_robot=None, g=0.0):
    return PartiallyGroundedAction(obj=obj, region=region, pick_robot=pick_robot,
                                   place_robot=place_robot or pick_robot,
                                   grasps=(g,))


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
    assert facts.reachable_pick == {}


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
    # the handover of M1 from R1 to R2: picked at grasp 0 by R1, placed by R2
    facts = compute_facts(load_scene(scenario("pick_chain")))
    assert facts.reachable_pick[("M1", 0.0, "R1")] == {"M4"}
    assert facts.reachable_place[("M1", "goal_zone", "R2")] == frozenset()

    facts2 = compute_facts(load_scene(scenario("place_blocked")))
    assert facts2.reachable_place[("M1", "goal_zone", "R2")] == {"M2"}


@pytest.mark.parametrize("grasp_count", [1, 3, 8])
@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_non_goal_places_have_no_occluders(path, grasp_count):
    """The task graph reads place blockers without asking whether the pair
    is a goal pair: only a goal pair may map to occluders."""
    doc = json.loads(path.read_text())
    scene = loads_scene(json.dumps({**doc, "grasp_count": grasp_count}))
    goal_pairs = set(scene.goal.items())
    facts = compute_facts(scene)
    assert facts.reachable_place
    for (m, re, r), occluders in facts.reachable_place.items():
        if (m, re) not in goal_pairs:
            assert occluders == frozenset(), (m, re, r)


def test_pick_occluders_certified_by_pick_corridors():
    """For every reachable pick, each recorded occluder really intersects the
    pick corridor grounding lays out, and no unrecorded movable does."""
    for name in ("pick_chain", "place_blocked", "pa_small"):
        scene = load_scene(scenario(name))
        facts = compute_facts(scene)
        assert facts.reachable_pick
        for obj, g, r in facts.reachable_pick:
            pose = scene.movables[obj].pose
            moves = build_moves(scene, action(obj, scene.target_region_of(obj), r, g=g), pose)
            cor = moves[r].pick_traj.corridor
            recorded = {m1 for (m1, m2, g2, r2) in facts.occludes_pick
                        if (m2, g2, r2) == (obj, g, r)}
            actual = {n for n in scene.movables if n != obj
                      and collides(cor, (scene.movables[n].shape,
                                         scene.movables[n].pose))}
            assert recorded == actual, (name, obj, g, r)


def test_goal_place_occlusions_only_for_goal_pairs():
    scene = load_scene(scenario("pa_small"))
    facts = compute_facts(scene)
    goal_pairs = set(scene.goal.items())
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
    cands = grid(scene, "goal_zone", "M1")
    # center first, then a 5x5 grid inset by the object radius without its
    # middle point, which is the center up to rounding: no point is repeated
    assert cands[0] == pytest.approx((0.25, 0.55))
    assert len(cands) == 25
    assert min(math.dist(p, q) for i, p in enumerate(cands)
               for q in cands[i + 1:]) > 0.01
    rect = scene.regions["goal_zone"]
    for x, y in cands:
        assert rect.xmin + 0.05 <= x <= rect.xmax - 0.05
        assert rect.ymin + 0.05 <= y <= rect.ymax - 0.05


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
    assert grid(scene, "slot", "M1") == []


def test_facts_deterministic_and_serializable():
    scene = load_scene(scenario("pick_chain"))
    d1 = compute_facts(scene).dumps()
    d2 = compute_facts(scene).dumps()
    assert d1 == d2
    recs = json.loads(d1)
    assert all("predicate" in r for r in recs)
    preds = {r["predicate"] for r in recs}
    assert {"reachable_pick", "occludes_pick", "enable_goal_handover"} <= preds


# ---------------------------------------------------------------------------
# the pruned fact phase against the straightforward oracle


def assert_matches_oracle(scene):
    assert compute_facts(scene).dumps() == oracle_facts.compute_facts(scene).dumps()
    for re in scene.regions:
        for obj in scene.movables:
            assert (grid(scene, re, obj)
                    == [p.xy for p in oracle_facts.place_candidates(scene, re, obj)])


@pytest.mark.parametrize("grasp_count", [1, 3, 8])
@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_facts_match_oracle_on_shipped_scenes(path, grasp_count):
    doc = json.loads(path.read_text())
    doc["grasp_count"] = grasp_count
    assert_matches_oracle(loads_scene(json.dumps(doc)))


def disc(r):
    return {"type": "disc", "radius": r}


def rectangle(hw, hh):
    return {"type": "rectangle", "half_w": hw, "half_h": hh}


def parse_shape(d):
    return Disc(d["radius"]) if d["type"] == "disc" else Rectangle(d["half_w"], d["half_h"])


def generated_scene(rng):
    """Two or three robots, R1 with a wide reach_min hole around its base,
    each pair listing its handover point at the bases' midpoint; fixed
    obstacles on the sweeps from the bases to the regions; discs and rotated
    rectangles in a work strip; random regions plus one beyond every robot's
    reach, one inside R1's hole and one too small for any object."""
    robots = [{"name": "R1", "base": [0.0, 0.0], "reach_min": 0.3,
               "reach_max": 1.2, "gripper_width": 0.08}]
    for k in range(rng.randint(1, 2)):
        robots.append({"name": f"R{k + 2}",
                       "base": [rng.uniform(1.0, 2.0), rng.uniform(-0.8, 0.8)],
                       "reach_min": rng.uniform(0.05, 0.3),
                       "reach_max": rng.uniform(0.7, 1.3),
                       "gripper_width": rng.uniform(0.05, 0.1)})
    regions = [{"name": "work", "rect": [-0.6, -0.9, 2.2, 0.9]},
               {"name": "far", "rect": [5.0, 5.0, 5.5, 5.5]},
               {"name": "hole", "rect": [-0.15, -0.15, 0.15, 0.15]},
               {"name": "slot", "rect": [0.5, 1.0, 0.55, 1.05]}]
    for k in range(rng.randint(2, 4)):
        x, y = rng.uniform(-1.2, 2.4), rng.uniform(-1.3, 1.3)
        w, h = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)
        regions.append({"name": f"Z{k}", "rect": [x, y, x + w, y + h]})

    placed = []   # (shape, pose) of every solid so far

    def clear(shape, pose):
        return all(not collides((shape, pose), other) for other in placed)

    fixed = []
    for _ in range(rng.randint(1, 4)):
        base = rng.choice(robots)["base"]
        z = rng.choice(regions[4:])["rect"]
        t = rng.uniform(0.3, 0.8)
        cx, cy = (z[0] + z[2]) / 2, (z[1] + z[3]) / 2
        x, y = base[0] + t * (cx - base[0]), base[1] + t * (cy - base[1])
        d = disc(rng.uniform(0.02, 0.06)) if rng.random() < 0.5 else \
            rectangle(rng.uniform(0.02, 0.06), rng.uniform(0.02, 0.06))
        theta = rng.uniform(0.0, math.pi)
        placed.append((parse_shape(d), Pose(x, y, theta)))
        fixed.append({"shape": d, "pose": {"x": x, "y": y, "theta": theta}})

    movables = []
    count = rng.randint(3, 7)
    while len(movables) < count:
        d = disc(rng.uniform(0.03, 0.07)) if rng.random() < 0.6 else \
            rectangle(rng.uniform(0.03, 0.06), rng.uniform(0.02, 0.05))
        shape = parse_shape(d)
        r = shape.circumradius
        pose = Pose(rng.uniform(-0.6 + r, 2.2 - r), rng.uniform(-0.9 + r, 0.9 - r),
                    rng.uniform(0.0, math.pi))
        if not clear(shape, pose):
            continue
        placed.append((shape, pose))
        movables.append({"name": f"M{len(movables) + 1}", "shape": d,
                         "pose": {"x": pose.x, "y": pose.y, "theta": pose.theta},
                         "home_region": "work"})
    names = [m["name"] for m in movables]
    goal = [[m, rng.choice(regions)["name"]]
            for m in rng.sample(names, rng.randint(1, len(names)))]
    handover_points = {
        f"{a['name']},{b['name']}": [0.5 * (a["base"][0] + b["base"][0]),
                                     0.5 * (a["base"][1] + b["base"][1])]
        for a, b in itertools.combinations(robots, 2)}
    return {"regions": regions, "fixed": fixed, "movables": movables,
            "robots": robots, "handover_points": handover_points,
            "grasp_count": rng.randint(1, 4), "goal": goal}


@pytest.mark.parametrize("seed", range(40))
def test_facts_match_oracle_on_generated_scenes(seed):
    scene = loads_scene(json.dumps(generated_scene(random.Random(seed))))
    assert_matches_oracle(scene)
    facts = compute_facts(scene)
    assert not any(re in ("far", "slot") for _, re, _ in facts.reachable_place)
    assert not any(re == "hole" and r == "R1" for _, re, r in facts.reachable_place)


def scene_sweep(scene, robot, obj, pose):
    return Corridor(scene.robots[robot].base, pose.xy, scene.transfer_width(robot, obj))


def test_goal_place_without_a_clear_candidate_keeps_the_fewest_occluders():
    """Every candidate in the nook overlaps B; R1's sweeps to the first two
    candidates (the centre, then the grid's first corner) also hit C. The
    fact keeps the first candidate that hits only B."""
    doc = {
        "regions": [{"name": "work", "rect": [0.0, -1.0, 2.0, 1.0]},
                    {"name": "nook", "rect": [0.82, 0.52, 0.98, 0.68]}],
        "movables": [
            {"name": "M1", "shape": disc(0.02), "pose": {"x": 0.5, "y": -0.5},
             "home_region": "work"},
            {"name": "B", "shape": disc(0.075), "pose": {"x": 0.9, "y": 0.6},
             "home_region": "nook"},
            {"name": "C", "shape": disc(0.01), "pose": {"x": 0.6, "y": 0.43},
             "home_region": "work"},
        ],
        "robots": [{"name": "R1", "base": [0.0, 0.0], "reach_min": 0.1,
                    "reach_max": 1.5, "gripper_width": 0.02}],
        "grasp_count": 2,
        "goal": [["M1", "nook"]],
    }
    scene = loads_scene(json.dumps(doc))
    assert_matches_oracle(scene)
    shape = scene.movables["M1"].shape
    cands = [Pose(*xy) for xy in grid(scene, "nook", "M1")]
    hits = [scene.movables_hit([scene_sweep(scene, "R1", "M1", p), (shape, p)],
                               exclude=("M1",))
            for p in cands]
    assert hits[:3] == [["B", "C"], ["B", "C"], ["B"]]
    assert compute_facts(scene).occludes_goal_place == {("B", "M1", "nook", "R1")}


def test_goal_place_ties_go_to_the_earliest_candidate_the_centre():
    """Every sweep to the shelf hits exactly one of C, D, E: the left grid
    columns C, the right ones D, the middle column and the centre E. The
    centre comes first, so E is the recorded occluder."""
    doc = {
        "regions": [{"name": "work", "rect": [-1.0, -1.0, 1.0, 0.8]},
                    {"name": "shelf", "rect": [-0.3, 0.9, 0.3, 1.0]}],
        "movables": [
            {"name": "M1", "shape": disc(0.02), "pose": {"x": 0.5, "y": -0.5},
             "home_region": "work"},
            {"name": "C", "shape": disc(0.04), "pose": {"x": -0.1, "y": 0.5},
             "home_region": "work"},
            {"name": "D", "shape": disc(0.04), "pose": {"x": 0.1, "y": 0.5},
             "home_region": "work"},
            {"name": "E", "shape": disc(0.01), "pose": {"x": 0.0, "y": 0.3},
             "home_region": "work"},
        ],
        "robots": [{"name": "R1", "base": [0.0, 0.0], "reach_min": 0.1,
                    "reach_max": 1.5, "gripper_width": 0.02}],
        "grasp_count": 1,
        "goal": [["M1", "shelf"]],
    }
    scene = loads_scene(json.dumps(doc))
    assert_matches_oracle(scene)
    shape = scene.movables["M1"].shape
    cands = [Pose(*xy) for xy in grid(scene, "shelf", "M1")]
    hits = [scene.movables_hit([scene_sweep(scene, "R1", "M1", p), (shape, p)],
                               exclude=("M1",))
            for p in cands]
    assert all(len(h) == 1 for h in hits)
    assert hits[0] == ["E"] and hits[1] == ["C"] and hits[-1] == ["D"]
    assert compute_facts(scene).occludes_goal_place == {("E", "M1", "shelf", "R1")}


def robot(name, base, reach_max=1.0):
    return {"name": name, "base": list(base), "reach_min": 0.1,
            "reach_max": reach_max, "gripper_width": 0.1}


@pytest.mark.parametrize("r3, handovers", [
    ((0.4, 0.2), set()),
    ((0.75, 0.0), {("M1", "R2", "R1")}),
    ((0.0, -0.8), {("M1", "R1", "R2"), ("M1", "R2", "R1")}),
], ids=["on_both_carries", "on_r2_receive", "clear"])
def test_a_handover_fact_needs_both_sweeps_clear_of_the_other_robots_bases(r3, handovers):
    """R1 and R2 hand M1 over at (0.5, 0). R3, which reaches almost nothing,
    sits on the carry from M1 to that point (either giver's), on R2's
    receive from its base, or clear of both; grounding would reject a
    sweep over its base, so the fact phase does too."""
    scene = loads_scene(json.dumps({
        "regions": [{"name": "work", "rect": [-1.0, -1.0, 2.0, 1.0]}],
        "movables": [{"name": "M1", "shape": disc(0.05), "pose": {"x": 0.3, "y": 0.4},
                      "home_region": "work"}],
        "robots": [robot("R1", (0.0, 0.0)), robot("R2", (1.0, 0.0)),
                   robot("R3", r3, reach_max=0.12)],
        "handover_points": {"R1,R2": [0.5, 0.0]},
        "grasp_count": 1,
        "goal": [["M1", "work"]]}))
    assert compute_facts(scene).handovers("M1") == handovers
    assert_matches_oracle(scene)


# only R1 and R2 reach M1, and only R3 reaches the bin; R1 and R3 both reach
# the midpoint (0.8, 0) of their bases, but the scene lists handover points
# for R1-R2 and R2-R3 only. B lies on every one of R2's approaches to M1, so
# R1 handing M1 to R3 would take one step, and R2 handing it over takes two
UNLISTED_PAIR = {
    "regions": [{"name": "work", "rect": [-1.0, -1.0, 2.6, 1.6]},
                {"name": "bin", "rect": [1.5, -0.3, 1.7, -0.1]}],
    "movables": [{"name": "M1", "shape": disc(0.05), "pose": {"x": 0.4, "y": 0.1},
                  "home_region": "work"},
                 {"name": "B", "shape": disc(0.05), "pose": {"x": 0.6, "y": 0.35},
                  "home_region": "work"}],
    "robots": [robot("R1", (0.0, 0.0)), robot("R2", (0.8, 0.6)), robot("R3", (1.6, 0.0))],
    "handover_points": {"R1,R2": [0.4, 0.3], "R2,R3": [1.2, 0.3]},
    "grasp_count": 4,
    "goal": [["M1", "bin"]],
}


def test_a_pair_the_scene_lists_no_point_for_never_hands_over():
    scene = loads_scene(json.dumps(UNLISTED_PAIR))
    assert all(scene.robots[r].in_reach((0.8, 0.0)) for r in ("R1", "R3"))
    facts = compute_facts(scene)
    assert not {("M1", "R1", "R3"), ("M1", "R3", "R1")} & facts.handovers("M1")
    assert facts.handovers("M1") == {("M1", "R1", "R2"), ("M1", "R2", "R1"),
                                     ("M1", "R2", "R3"), ("M1", "R3", "R2")}
    assert_matches_oracle(scene)
    graph = build_cmtg(scene.unmet_goals(), facts, scene)
    assert {a.robots for a in graph.action_nodes if a.is_handover} == {("R2", "R3")}
    for seed in range(3):
        result = plan(scene, PlannerConfig(seed=seed))
        actions = {mv.action for step in result.steps for mv in step.moves.values()}
        assert [a.robots for a in actions if a.is_handover] == [("R2", "R3")], seed
        assert validate_plan(scene, result).ok, seed
