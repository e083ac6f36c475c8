"""Metamorphic relations: a scene edit that cannot matter leaves the plan and
the search trace byte-identical.

No oracle says what one run should plan; these tests compare two runs
instead. An edit passes when ``mrplan plan`` writes the same plan (or
``NoPlan`` document) and the same ``--trace`` on every shipped scene, at
seeds 0 and 1.
"""
import json

import pytest

from mrplan.plans import dumps_plan
from mrplan.scene import loads_scene
from mrplan.search import NoPlan, PlannerConfig, plan

from conftest import SCENARIOS

SCENES = sorted(SCENARIOS.rglob("*.json"))
SEEDS = (0, 1)


def scene_id(path) -> str:
    return path.relative_to(SCENARIOS).with_suffix("").as_posix()


def run(doc: dict, seed: int) -> tuple[str, list[str]]:
    """The plan text (or NoPlan document) and the trace of one run."""
    scene = loads_scene(json.dumps(doc))
    trace: list[str] = []
    result = plan(scene, PlannerConfig(seed=seed), trace=trace)
    if isinstance(result, NoPlan):
        return json.dumps(result.to_doc(), sort_keys=True), trace
    return dumps_plan(result, sorted(scene.robots)), trace


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
