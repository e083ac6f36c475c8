"""Golden digests of every shipped scene's plan and search trace.

``golden/plan_digests.json`` maps ``<scene>:<seed>`` (the scene's path under
``scenarios/`` without ``.json``) to the sha256 of what ``mrplan plan --seed
<seed>`` writes with default settings: the plan JSON, or the ``NoPlan``
document when there is none, and the ``--trace`` file. It also maps
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
document) and the trace of every ``dense_g1`` and ``crowded_goals`` scene
that ``perfbench/workloads.py`` generates at seed 0 (160 scenes), each
planned at seeds 0-2 with default settings and with ``--exhaust``. Run it
at the parent commit and at the change: the two lines must match.
"""
import contextlib
import hashlib
import io
import json
import os
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
IDENTITY_WORKLOADS = ("dense_g1", "crowded_goals")
IDENTITY_SEEDS = range(3)


def scene_names():
    paths = sorted(SCENARIOS.glob("*.json")) + sorted((SCENARIOS / "extra").glob("*.json"))
    return [p.relative_to(SCENARIOS).with_suffix("").as_posix() for p in paths]


def runs(names, trees) -> dict:
    """Each ``plan_digests.json`` key of the named shipped scenes and deep
    trees, mapped to its scene path and planner config."""
    keys = {f"{n}:{s}": (SCENARIOS / f"{n}.json", PlannerConfig(seed=s))
            for n in names for s in SEEDS}
    for tree in trees:
        for s in SEEDS:
            keys[f"fixtures/{tree}:{s}"] = (FIXTURES / f"{tree}.json", PlannerConfig(seed=s))
            keys[f"fixtures/{tree}:{s}:exhaust"] = (FIXTURES / f"{tree}.json",
                                                    PlannerConfig(seed=s, exhaust=True))
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


def digests(path: Path, cfg: PlannerConfig) -> dict:
    """sha256 of the plan (or NoPlan) text and the trace text."""
    text, trace_text = outputs(load_scene(path), cfg)
    return {"plan": hashlib.sha256(text.encode()).hexdigest(),
            "trace": hashlib.sha256(trace_text.encode()).hexdigest()}


def identity_digest() -> str:
    """One sha256 over ``outputs`` of every scene of the ``IDENTITY_WORKLOADS``
    at workload seed 0, each at ``IDENTITY_SEEDS``, default and exhaust."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads
    h = hashlib.sha256()
    for name in IDENTITY_WORKLOADS:
        # crowded_goals plans each scene at three planner seeds: keep one copy
        texts = dict.fromkeys(a.scene_text for a in workloads.BY_NAME[name].attempts(0, REPO))
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
    for key, (path, cfg) in runs([name], []).items():
        assert digests(path, cfg) == expected[key], key


@pytest.mark.parametrize("tree", DEEP_TREES)
def test_deep_tree_plans_and_traces_match_the_golden_digests(tree):
    expected = golden()
    for key, (path, cfg) in runs([], [tree]).items():
        assert digests(path, cfg) == expected[key], key


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
