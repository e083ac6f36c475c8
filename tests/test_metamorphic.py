"""Metamorphic relations: a scene edit that cannot matter leaves the plan and
the search trace byte-identical.

No oracle says what one run should plan; these tests compare two runs
instead. The edits: a disc out of every robot's reach, the same disc as a
goal it already meets, a robot that reaches nothing and hands over with no
one, a document whose entity lists and handover keys come in another
order, and one prefix before every entity name, which keeps the names'
sort order; that plan is compared with its names mapped back. An edit
passes when ``mrplan plan`` writes the same plan (or
``NoPlan`` document) and the same ``--trace`` on every shipped scene, at
seeds 0 and 1; the plan is written for the original scene's robots, so an
added robot's wait records are left out.
"""
import json
import random

import pytest

from mrplan.plans import dumps_plan
from mrplan.scene import loads_scene
from mrplan.search import NoPlan, PlannerConfig, plan

from conftest import SCENARIOS

SCENES = sorted(SCENARIOS.rglob("*.json"))
SEEDS = (0, 1)


def scene_id(path) -> str:
    return path.relative_to(SCENARIOS).with_suffix("").as_posix()


def run(doc: dict, seed: int, robots=None) -> tuple[str, list[str]]:
    """The plan text (or NoPlan document) and the trace of one run; the plan
    lists ``robots``, by default every robot of the scene."""
    scene = loads_scene(json.dumps(doc))
    trace: list[str] = []
    result = plan(scene, PlannerConfig(seed=seed), trace=trace)
    if isinstance(result, NoPlan):
        return json.dumps(result.to_doc(), sort_keys=True), trace
    return dumps_plan(result, sorted(robots or scene.robots)), trace


def with_far_disc(doc: dict) -> dict:
    """``doc`` plus a disc ``Z9`` in its own region 40 m away, beyond every
    robot's reach."""
    return {**doc,
            "regions": doc["regions"] + [{"name": "far", "rect": [40.0, 40.0, 40.4, 40.4]}],
            "movables": doc["movables"] + [
                {"name": "Z9", "shape": {"type": "disc", "radius": 0.05},
                 "pose": {"x": 40.2, "y": 40.2}, "home_region": "far"}]}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", SCENES, ids=scene_id)
def test_an_unreachable_disc_changes_no_plan(path, seed):
    doc = json.loads(path.read_text())
    assert run(with_far_disc(doc), seed) == run(doc, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", SCENES, ids=scene_id)
def test_a_goal_already_met_changes_no_plan(path, seed):
    # the far disc already lies in its goal region, so no plan must move it
    doc = with_far_disc(json.loads(path.read_text()))
    met = {**doc, "goal": doc["goal"] + [["Z9", "far"]]}
    assert run(met, seed) == run(doc, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", SCENES, ids=scene_id)
def test_a_far_robot_with_no_handover_point_changes_no_plan(path, seed):
    # Z9 reaches nothing, and no pair of it is listed, so it never hands over
    doc = json.loads(path.read_text())
    far = {**doc, "robots": doc["robots"] + [
        {"name": "Z9", "base": [40.0, 40.0], "reach_min": 0.1, "reach_max": 1.0,
         "gripper_width": 0.1}]}
    robots = [r["name"] for r in doc["robots"]]
    assert run(far, seed, robots) == run(doc, seed)


def shuffled(doc: dict, rng: random.Random) -> dict:
    """``doc`` with its ``regions``, ``movables``, ``robots``, ``fixed`` and
    ``goal`` lists shuffled, and its ``handover_points`` keys in shuffled
    order, each pair's two names in shuffled order."""
    out = dict(doc)
    for kind in ("regions", "movables", "robots", "fixed", "goal"):
        if kind in doc:
            out[kind] = rng.sample(doc[kind], len(doc[kind]))
    if "handover_points" in doc:
        keys = rng.sample(sorted(doc["handover_points"]), len(doc["handover_points"]))
        out["handover_points"] = {
            ",".join(rng.sample(key.split(","), 2)): doc["handover_points"][key]
            for key in keys}
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", SCENES, ids=scene_id)
def test_a_shuffled_document_changes_no_plan(path, seed):
    # the scene's tables are kept in name order, whatever the document's order
    doc = json.loads(path.read_text())
    rng = random.Random(f"{scene_id(path)}:{seed}")
    assert run(shuffled(doc, rng), seed) == run(doc, seed)


def renamed(doc: dict, prefix: str) -> dict:
    """``doc`` with ``prefix`` before every region, movable and robot name,
    wherever the document names one."""
    out = {**doc, "goal": [[prefix + obj, prefix + re] for obj, re in doc.get("goal", [])]}
    for kind in ("regions", "movables", "robots"):
        out[kind] = [{**item, "name": prefix + item["name"]} for item in doc[kind]]
    out["movables"] = [{**m, "home_region": prefix + m["home_region"]}
                       for m in out["movables"]]
    if "handover_points" in doc:
        out["handover_points"] = {
            ",".join(prefix + name.strip() for name in key.split(",")): point
            for key, point in doc["handover_points"].items()}
    return out


def mapped(value, names: dict):
    """A JSON value with each string that is a key of ``names`` replaced by
    its value."""
    if isinstance(value, dict):
        return {k: mapped(v, names) for k, v in value.items()}
    if isinstance(value, list):
        return [mapped(v, names) for v in value]
    return names.get(value, value) if isinstance(value, str) else value


@pytest.mark.parametrize("prefix", ["x", "Rob_", "0"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", SCENES, ids=scene_id)
def test_renaming_every_entity_in_sort_order_changes_no_plan(path, seed, prefix):
    # the planner orders entities by name and never reads a name otherwise
    doc = json.loads(path.read_text())
    names = {prefix + item["name"]: item["name"]
             for kind in ("regions", "movables", "robots") for item in doc[kind]}
    text, trace = run(renamed(doc, prefix), seed)
    expected_text, expected_trace = run(doc, seed)
    assert mapped(json.loads(text), names) == json.loads(expected_text)
    assert trace == expected_trace
