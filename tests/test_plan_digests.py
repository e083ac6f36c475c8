"""Golden digests of every shipped scene's plan and search trace.

``golden/plan_digests.json`` maps ``<scene>:<seed>`` (the scene's path under
``scenarios/`` without ``.json``) to the sha256 of what ``mrplan plan --seed
<seed>`` writes with default settings: the plan JSON, or the ``NoPlan``
document when there is none, and the ``--trace`` file. Every shipped scene
has ``grasp_count`` 1, so ``<scene>:<seed>:g8`` maps the same scene with its
``grasp_count`` replaced by 8: those keys pin grasp points, grasp classes
and the grasp product walk. It also maps
``fixtures/<tree>:<seed>`` and ``fixtures/<tree>:<seed>:exhaust`` to the
same digests for the deep-tree scenes under ``tests/fixtures/``, planned
with default settings and with ``--exhaust``. Those two ``dense_g1`` scenes
grow trees of up to 14 iterations and depth 6, where the shipped scenes
reach at most 2 iterations and one partial grounding: ``deep_tree_solved`` plans at
every seed, ``deep_tree_pruned`` ends ``all_branches_pruned``. Every key
also matches in a process started with ``PYTHONHASHSEED`` 1 or 2, so no
plan or trace depends on how ``str`` hashes.
``golden/dump_digests.json`` maps ``<scene>`` to the sha256 of the files
``mrplan plan`` writes for ``--dump-facts``, ``--dump-cmtg`` and
``--dump-mip`` at the default ``--t-max``, and of the SVG ``mrplan render``
writes for the scene alone (``svg``) and with the plan ``mrplan plan`` wrote
(``svg_plan``, absent when there is no plan). A refactor must leave every
digest unchanged. After an intended behaviour change, regenerate both files
with

    PYTHONPATH=src python tests/test_plan_digests.py

which prints each digest key that changed, appeared or vanished (such as
``changed pick_chain mip``), and list the change, with those keys, in
``CHANGES.md``.

A change meant to keep behaviour can also be checked on more scenes than
the goldens cover, with

    PYTHONPATH=src python tests/test_plan_digests.py --identity

which writes no file and prints one sha256 over the plan (or ``NoPlan``
document) and the trace of every ``dense_g1``, ``crowded_goals`` and
``grasp_sym`` scene that ``perfbench/workloads.py`` generates at seed 0
(163 scenes) and of the 16 clutter-tier scenes at 5 and 10 movables and
``grasp_count`` 8, each planned at seeds 0-2 with default settings and
with ``--exhaust``. Run it at the parent commit and at the change: the two
lines must match.
"""
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURES, GOLDEN, REPO, SCENARIOS, TESTS

from mrplan import cli
from mrplan.plans import dumps_plan
from mrplan.scene import load_scene, loads_scene
from mrplan.search import NoPlan, PlannerConfig, plan

SEEDS = range(5)
DIGESTS = GOLDEN / "plan_digests.json"
DUMP_DIGESTS = GOLDEN / "dump_digests.json"
DUMPS = ("facts", "cmtg", "mip")
DEEP_TREES = ("deep_tree_solved", "deep_tree_pruned")
GRASP_COUNT = 8
IDENTITY_WORKLOADS = ("dense_g1", "crowded_goals", "grasp_sym")
IDENTITY_TIER = (5, 10)  # clutter-tier cells (n movables, grasp_count 8)
IDENTITY_SEEDS = range(3)


def scene_names():
    paths = sorted(SCENARIOS.glob("*.json")) + sorted((SCENARIOS / "extra").glob("*.json"))
    return [p.relative_to(SCENARIOS).with_suffix("").as_posix() for p in paths]


def runs(names, trees) -> dict:
    """Each ``plan_digests.json`` key of the named shipped scenes and deep
    trees, mapped to its scene path, planner config and grasp count (None:
    the scene's own)."""
    keys = {}
    for n in names:
        for s in SEEDS:
            keys[f"{n}:{s}"] = (SCENARIOS / f"{n}.json", PlannerConfig(seed=s), None)
            keys[f"{n}:{s}:g{GRASP_COUNT}"] = (SCENARIOS / f"{n}.json", PlannerConfig(seed=s),
                                                GRASP_COUNT)
    for tree in trees:
        for s in SEEDS:
            keys[f"fixtures/{tree}:{s}"] = (FIXTURES / f"{tree}.json", PlannerConfig(seed=s),
                                            None)
            keys[f"fixtures/{tree}:{s}:exhaust"] = (FIXTURES / f"{tree}.json",
                                                    PlannerConfig(seed=s, exhaust=True), None)
    return keys


def outputs(scene, cfg: PlannerConfig) -> tuple[str, str]:
    """The plan (or NoPlan) text and the trace text, as the CLI writes them."""
    trace: list[str] = []
    result = plan(scene, cfg, trace=trace)
    if isinstance(result, NoPlan):
        text = json.dumps(result.to_doc(), sort_keys=True) + "\n"
    else:
        text = dumps_plan(result, sorted(scene.robots))
    return text, "\n".join(trace) + ("\n" if trace else "")


def digests(path: Path, cfg: PlannerConfig, grasp_count: int | None = None) -> dict:
    """sha256 of the plan (or NoPlan) text and the trace text, with the
    scene's ``grasp_count`` replaced when one is given."""
    scene = load_scene(path)
    if grasp_count is not None:
        scene = scene.replace(grasp_count=grasp_count)
    text, trace_text = outputs(scene, cfg)
    return {"plan": hashlib.sha256(text.encode()).hexdigest(),
            "trace": hashlib.sha256(trace_text.encode()).hexdigest()}


def identity_digest() -> str:
    """One sha256 over ``outputs`` of every scene of the ``IDENTITY_WORKLOADS``
    at workload seed 0 and of the 8 scenes of each ``IDENTITY_TIER`` cell,
    each at ``IDENTITY_SEEDS``, default and exhaust."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import clutter
    import workloads
    # crowded_goals plans each scene at three planner seeds: keep one copy
    texts = dict.fromkeys(a.scene_text for name in IDENTITY_WORKLOADS
                          for a in workloads.BY_NAME[name].attempts(0, REPO))
    for n in IDENTITY_TIER:
        rng = random.Random(f"tier:{n}:{GRASP_COUNT}")
        texts.update(dict.fromkeys(
            json.dumps(clutter.generate(rng, (n, n), (1, 2), GRASP_COUNT)) for _ in range(8)))
    h = hashlib.sha256()
    for text in texts:
        scene = loads_scene(text)
        for seed in IDENTITY_SEEDS:
            for exhaust in (False, True):
                for out in outputs(scene, PlannerConfig(seed=seed, exhaust=exhaust)):
                    h.update(out.encode() + b"\0")
    return h.hexdigest()


def dump_digests(name: str) -> dict:
    """sha256 of each ``--dump-*`` file ``mrplan plan`` writes for the scene,
    and of the SVGs ``mrplan render`` writes for the scene and its plan."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        scene, plan_path = str(SCENARIOS / f"{name}.json"), out / "plan.json"
        argv = ["plan", scene, "--out", str(plan_path)]
        for kind in DUMPS:
            argv += [f"--dump-{kind}", str(out / kind)]
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        cli.main(["render", scene, "--svg", str(out / "svg")])
        if plan_path.exists():
            cli.main(["render", scene, str(plan_path), "--svg", str(out / "svg_plan")])
        return {kind: hashlib.sha256(path.read_bytes()).hexdigest()
                for kind in DUMPS + ("svg", "svg_plan") if (path := out / kind).exists()}


def moved(old: dict, new: dict) -> list[str]:
    """``changed``, ``appeared`` or ``vanished`` and the key, one line per
    ``<name> <kind>`` digest that differs between two digest documents."""
    def flat(doc):
        return {f"{name} {kind}": d for name, kinds in doc.items() for kind, d in kinds.items()}
    old, new = flat(old), flat(new)
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"vanished {key}")
        elif key not in old:
            lines.append(f"appeared {key}")
        elif old[key] != new[key]:
            lines.append(f"changed {key}")
    return lines


def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_golden_covers_every_scene_and_seed():
    assert set(golden()) == set(runs(scene_names(), DEEP_TREES))
    assert set(json.loads(DUMP_DIGESTS.read_text())) == set(scene_names())


def test_moved_names_each_changed_new_and_dropped_digest():
    old = {"a": {"mip": "1", "cmtg": "2"}, "b:0": {"plan": "3"}}
    new = {"a": {"mip": "9", "cmtg": "2", "svg": "4"}}
    assert moved(old, new) == ["changed a mip", "appeared a svg", "vanished b:0 plan"]
    assert moved(new, new) == []


@pytest.mark.parametrize("name", scene_names())
def test_plans_and_traces_match_the_golden_digests(name):
    expected = golden()
    for key, run in runs([name], []).items():
        assert digests(*run) == expected[key], key


@pytest.mark.parametrize("tree", DEEP_TREES)
def test_deep_tree_plans_and_traces_match_the_golden_digests(tree):
    expected = golden()
    for key, run in runs([], [tree]).items():
        assert digests(*run) == expected[key], key


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_plans_and_traces_match_the_golden_digests_under_another_hash_seed(hashseed):
    code = ("import json\n"
            "from test_plan_digests import DEEP_TREES, digests, runs, scene_names\n"
            "print(json.dumps({key: digests(*run)"
            " for key, run in runs(scene_names(), DEEP_TREES).items()}))\n")
    env = {**os.environ, "PYTHONHASHSEED": hashseed,
           "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(TESTS)])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == golden()


@pytest.mark.parametrize("name", scene_names())
def test_dumps_match_the_golden_digests(name):
    assert dump_digests(name) == json.loads(DUMP_DIGESTS.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] == ["--identity"]:
        print(identity_digest())
        sys.exit()
    for path, doc in (
            (DIGESTS, {key: digests(*run)
                       for key, run in runs(scene_names(), DEEP_TREES).items()}),
            (DUMP_DIGESTS, {n: dump_digests(n) for n in scene_names()})):
        old = json.loads(path.read_text()) if path.exists() else {}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        for line in moved(old, doc):
            print(line)
        print(f"wrote {len(doc)} digests to {path}", file=sys.stderr)
