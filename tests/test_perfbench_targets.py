"""The benchmark's tracer wraps planner layers by (module, attribute) name.

A rename in ``src/mrplan`` that the tracer does not follow would silently
drop a span from the per-layer metrics, so every traced name must exist in
its module and be looked up there, and a traced run must fill every span
without changing a plan.
"""
import ast
import importlib
import importlib.util
import inspect

import pytest

from conftest import REPO, scenario

from mrplan.plans import dumps_plan
from mrplan.scene import load_scene
from mrplan.search import PlannerConfig, plan


def traced_names():
    tree = ast.parse((REPO / "perfbench" / "tracer.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in node.targets))
    return [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]


def test_tracer_targets_are_listed():
    assert len(traced_names()) >= 10


@pytest.mark.parametrize("module,attr", traced_names(),
                         ids=lambda x: x if isinstance(x, str) else None)
def test_traced_name_resolves_and_is_looked_up_in_its_module(module, attr):
    mod = importlib.import_module(module)
    assert callable(getattr(mod, attr, None)), f"{module} has no callable {attr}"
    loads = {node.id for node in ast.walk(ast.parse(inspect.getsource(mod)))
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert attr in loads, f"{module} never looks up {attr}, so its span stays empty"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_fill_every_span_and_keep_their_plans():
    tracer = load_tracer()
    scenes = [load_scene(scenario(name)) for name in ("pick_chain", "conflict_partial")]
    untraced = [dumps_plan(plan(s, PlannerConfig(seed=0)), sorted(s.robots))
                for s in scenes]
    tr = tracer.Tracer()
    with tr.installed():
        traced = [dumps_plan(plan(s, PlannerConfig(seed=0)), sorted(s.robots))
                  for s in scenes]
    assert traced == untraced
    assert not tr.errors
    empty = [name for _, _, name, _ in tracer.TARGETS if not tr.calls[name]]
    assert not empty, f"spans without calls: {empty}"


def test_traced_solves_count_infeasible_horizons_and_one_skeleton_per_feasible_solve():
    # pick_chain has no skeleton at T = 1, so its root enumeration proves one
    # horizon infeasible; the tracer tells that apart from a solution only
    # by comparing the solve's result with the string "infeasible"
    tracer = load_tracer()
    tr = tracer.Tracer()
    with tr.installed():
        plan(load_scene(scenario("pick_chain")), PlannerConfig(seed=0))
    assert tr.counters["mip.solve.infeasible"] >= 1
    assert tr.counters["mip.solve.feasible"] == tr.counters["mip.skeletons"]
