"""Tests of the benchmark itself: generator, tracer spans, output contract.

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

mrplan = run.import_program()


def _scenes(workload, seed=0, limit=None):
    seen, out = set(), []
    for a in workload.attempts(seed, run.ROOT):
        if a.scene_text not in seen:
            seen.add(a.scene_text)
            out.append((a, mrplan.loads_scene(a.scene_text)))
    return out[:limit]


@pytest.mark.parametrize("name", ["grasp_sym", "dense_g1", "crowded_goals"])
def test_generated_scenes_are_seeded_loadable_and_in_reach(name):
    w = workloads.BY_NAME[name]
    first = [a.scene_text for a in w.attempts(3, run.ROOT)]
    assert first == [a.scene_text for a in w.attempts(3, run.ROOT)]
    assert first != [a.scene_text for a in w.attempts(4, run.ROOT)]
    for _, scene in _scenes(w, 3):
        for obj in scene.movables:
            for g in scene.grasp_angles():
                gp = scene.grasp_point(obj, g)
                assert any(r.in_reach(gp) for r in scene.robots.values()), obj


def test_blocked_handover_has_one_task_graph_shape():
    shapes = set()
    for _, scene in _scenes(workloads.BY_NAME["grasp_sym"]):
        graph = mrplan.build_cmtg(scene.goal_objects(), mrplan.compute_facts(scene), scene)
        shapes.add((len(graph.object_nodes), len(graph.action_nodes),
                    len(graph.block_pick_edges) + len(graph.block_place_edges)))
    assert shapes == {(2, 20, 16)}


def _traced(workload, scenes):
    tr = tracer_mod.Tracer()
    with tr.installed():
        for attempt, scene in scenes:
            cfg = mrplan.PlannerConfig(**workload.config_kwargs(attempt.planner_seed))
            with tr.span("search"):
                mrplan.search.plan(scene, cfg)
    return tr


def _stress_scenes(name):
    w = workloads.BY_NAME[name]
    limit = {"suite": None, "grasp_sym": 1, "dense_g1": 12, "crowded_goals": 20}[name]
    return w, _scenes(w, limit=limit)


@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS])
def test_every_stress_span_is_nonzero(name):
    w, scenes = _stress_scenes(name)
    tr = _traced(w, scenes)
    for span in w.stress:
        assert tr.calls[span] > 0 and tr.total[span] > 0.0, span


def test_span_shares_match_the_workload_design():
    w, scenes = _stress_scenes("grasp_sym")
    tr = _traced(w, scenes)
    assert tr.total["mip.solve"] >= 0.9 * tr.total["search"]

    w, scenes = _stress_scenes("crowded_goals")
    tr = _traced(w, scenes)
    children = ("facts", "taskgraph", "mip.enumerate", "grounding", "validator")
    assert max(children, key=lambda c: tr.total[c]) == "grounding"


def test_escaping_budget_error_is_counted_not_raised():
    w = dataclasses.replace(workloads.BY_NAME["grasp_sym"], planner={"node_budget": 50})
    st = run.Setup(0.0, _scenes(w, limit=1), 0.0, mrplan)
    res = run.run_pass(st, w, None, keep_plans=True)
    assert res.tags == ["error:solver_budget"]
    checks = run.check(st, w, [res, res])
    assert checks.errors["solver_budget"] == 1 and checks.failed == {0}
    assert not checks.problems


def test_tracer_restores_names_even_on_error():
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in tracer_mod.TARGETS}
    tr = tracer_mod.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed():
            assert mrplan.search.compute_facts is not before[("mrplan.search", "compute_facts")]
            raise RuntimeError
    after = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in tracer_mod.TARGETS}
    assert after == before


def test_self_time_excludes_children():
    tr = tracer_mod.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    assert tr.total["outer"] >= tr.total["inner"]
    assert tr.self_time["outer"] == pytest.approx(tr.total["outer"] - tr.total["inner"])
    assert tr.self_time["inner"] == tr.total["inner"]


def test_tail_percentile_leaves_ten_samples_above():
    values = list(range(1, 101))
    p, v = run.tail_percentile(values)
    assert (p, v) == (90, 90)
    assert sum(1 for x in values if x > v) >= 10
    assert run.tail_percentile([3.0, 1.0]) == (100, 3.0)


def test_manifest_matches_benchmark_json():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.manifest()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

