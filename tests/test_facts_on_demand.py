"""Facts are computed when first read: per object, once, and only where read.

``compute_facts`` returns a ``FactSet`` that has computed nothing. These
tests check that each object's facts, read on their own, are the eager
oracle's; that no read order changes the full view; and that a plan
computes each object's facts at most once, for exactly the objects of the
task graphs it builds.
"""
import collections
import json
import random

import pytest

import oracle_facts
from mrplan import facts as facts_module
from mrplan import cli, search
from mrplan.cli import main
from mrplan.facts import compute_facts
from mrplan.plans import Plan
from mrplan.scene import load_scene, loads_scene
from mrplan.search import PlannerConfig, plan

from conftest import EXTRA, SCENARIOS, scenario

SHIPPED = sorted(SCENARIOS.glob("*.json")) + sorted(EXTRA.glob("*.json"))

# the shape of the benchmark's grasp_sym scenes: goal M1 behind blocker M2
# on R1's approach line, out of R2's reach, so delivery needs a handover;
# three distractors away from both sweeps; four grasps
BLOCKED_HANDOVER = {
    "regions": [{"name": "work", "rect": [0.0, -0.4, 1.0, 0.8]},
                {"name": "goal_zone", "rect": [1.5, 0.5, 1.9, 0.9]}],
    "movables": [
        {"name": name, "shape": {"type": "disc", "radius": r},
         "pose": {"x": x, "y": y}, "home_region": "work"}
        for name, x, y, r in (("M1", 0.4107, -0.0163, 0.0484),
                              ("M2", 0.2509, -0.01, 0.0476),
                              ("M3", 0.4135, 0.6987, 0.0451),
                              ("M4", 0.5042, 0.5701, 0.0491),
                              ("M5", 0.666, 0.618, 0.049))],
    "robots": [
        {"name": "R1", "base": [0.0, 0.0], "reach_min": 0.1, "reach_max": 1.0,
         "gripper_width": 0.1},
        {"name": "R2", "base": [1.6, 0.0], "reach_min": 0.1, "reach_max": 1.0,
         "gripper_width": 0.1}],
    "handover_points": {"R1,R2": [0.8, 0.0]},
    "grasp_count": 4,
    "goal": [["M1", "goal_zone"]],
}


def shipped_scene(path, grasp_count):
    return loads_scene(json.dumps({**json.loads(path.read_text()),
                                   "grasp_count": grasp_count}))


def of_object(records, obj, region=None):
    """The oracle's entries for ``obj`` (and ``region``, when given)."""
    keep = (lambda k: k[:2] == (obj, region)) if region else (lambda k: k[0] == obj)
    if isinstance(records, dict):
        return {k: v for k, v in records.items() if keep(k)}
    return {k for k in records if keep(k)}


@pytest.mark.parametrize("grasp_count", [1, 3, 8])
@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_facts_read_by_key_match_the_oracle(path, grasp_count):
    scene = shipped_scene(path, grasp_count)
    oracle = oracle_facts.compute_facts(scene)
    for obj in sorted(scene.movables):
        region = scene.target_region_of(obj)
        facts = compute_facts(scene)
        assert facts.picks(obj) == of_object(oracle.reachable_pick, obj)
        assert facts.handovers(obj) == of_object(oracle.enable_goal_handover, obj)
        assert facts.places(obj, region) == of_object(oracle.reachable_place, obj, region)

    reads = ([("picks", m) for m in scene.movables]
             + [("handovers", m) for m in scene.movables]
             + [("places", m, re) for m in scene.movables for re in scene.regions])
    random.Random(f"{path.stem}:{grasp_count}").shuffle(reads)
    facts = compute_facts(scene)
    for name, *key in reads:
        getattr(facts, name)(*key)
    assert facts.reachable_pick == oracle.reachable_pick
    assert facts.reachable_place == oracle.reachable_place
    assert facts.enable_goal_handover == oracle.enable_goal_handover
    assert facts.dumps() == oracle.dumps()


@pytest.fixture
def fills(monkeypatch):
    """Counts each fill of a fact key: ("_picks", obj), ("_places", obj,
    region) or ("_handovers", obj)."""
    counts = collections.Counter()
    for name in ("_picks", "_places", "_handovers"):
        def counted(scene, *key, fill=getattr(facts_module, name), name=name):
            counts[(name, *key)] += 1
            return fill(scene, *key)
        monkeypatch.setattr(facts_module, name, counted)
    return counts


@pytest.fixture
def graphs(monkeypatch):
    """Every task graph ``search.plan`` builds."""
    built = []

    def recorded(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]
    real = search.build_cmtg
    monkeypatch.setattr(search, "build_cmtg", recorded)
    return built


def assert_filled_once_where_read(scene, fills, graphs):
    """Each key is filled at most once: the picks and handovers of exactly
    the objects of ``graphs``, and their places in their target regions."""
    assert graphs and max(fills.values()) == 1
    visited = set().union(*(g.object_nodes for g in graphs))
    for kind in ("_picks", "_handovers"):
        assert {key[1] for key in fills if key[0] == kind} == visited
    assert ({key[1:] for key in fills if key[0] == "_places"}
            == {(m, scene.target_region_of(m)) for m in visited})


@pytest.mark.parametrize("name", ["pick_chain", "blocked_handover"])
def test_a_plan_fills_each_key_once_and_only_for_its_graphs(name, fills, graphs):
    if name == "blocked_handover":
        scene = loads_scene(json.dumps(BLOCKED_HANDOVER))
    else:
        scene = load_scene(scenario(name))
    assert isinstance(plan(scene, PlannerConfig(seed=0)), Plan)
    assert_filled_once_where_read(scene, fills, graphs)
    if name == "blocked_handover":   # the goal and its blocker, of five
        assert {key[1] for key in fills} == {"M1", "M2"}


def test_the_cli_dump_graph_and_the_search_fill_their_own_facts(tmp_path, fills, graphs,
                                                                monkeypatch):
    monkeypatch.setattr(cli, "build_cmtg", search.build_cmtg)   # recorded too
    argv = ["plan", scenario("pick_chain"), "--out", tmp_path / "plan.json",
            "--dump-cmtg", tmp_path / "graph.txt"]
    assert main([str(a) for a in argv]) == 0
    assert graphs[0] == graphs[1]   # the dump's root graph, then the search's
    scene = load_scene(scenario("pick_chain"))
    dumped = graphs[0].object_nodes
    read = ({(kind, m) for kind in ("_picks", "_handovers") for m in dumped}
            | {("_places", m, scene.target_region_of(m)) for m in dumped})
    assert all(fills[key] == 2 for key in read)     # once per fact set
    assert max(fills.values()) == 2
