"""Skeleton-level tree search: selection arithmetic, rewards, end-to-end runs."""
import json
import math
import random
import re
import types

import pytest

from mrplan import mip, motion, search, taskgraph
from mrplan.geometry import Corridor
from mrplan.grounding import Failure, Full, Partial, ground
from mrplan.mip import BudgetExceeded, TaskSkeleton
from mrplan.plans import PartiallyGroundedAction, Plan, dumps_plan, moved_objects
from mrplan.scene import load_scene, loads_scene
from mrplan.search import (NoPlan, PlannerConfig, SearchError, SearchNode, backpropagate,
                           plan, reward, ucb)
from mrplan.validator import validate_plan

from conftest import FIXTURES, SCENARIOS, scenario

TRACE_RE = re.compile(
    r"^iter=\d+ edge=\d+ outcome=(full|partial|failure) reward=\d+\.\d{6}"
    r"( children=\d+)?$")


def sk_for(objs):
    """A skeleton in which R1 moves ``objs`` in turn, one per step."""
    return TaskSkeleton(steps=tuple(
        {"R1": PartiallyGroundedAction(obj=o, region="re", pick_robot="R1",
                                       place_robot="R1", grasp_pick=0.0)}
        for o in objs))


def grounded_step(obj="M1"):
    # reward() only reads moved_objects() off the steps
    class _Step:
        def moved_objects(self):
            return {obj}
    return _Step()


def test_ucb_formula_values():
    # the prior is 1 / the number of objects the node's skeleton moves
    node = SearchNode(id=0, skeleton=sk_for(["M1", "M2"]), steps=None)
    node.value, node.visits = 1.0, 1
    assert ucb(4, node, c=1.0) == pytest.approx(1.0)  # 1/2 + 0.5*2/2
    assert ucb(4, node, c=0.0) == pytest.approx(0.5)
    fresh = SearchNode(id=1, skeleton=sk_for(["M1"]), steps=None)
    assert ucb(0, fresh, c=1.0) == 0.0
    assert ucb(4, fresh, c=2.0) == pytest.approx(2.0 * 1.0 * 2.0)


def test_reward_values():
    assert reward(Failure("x"), None, alpha=1.0) == 0.0
    full = Full(steps=(grounded_step("M1"), grounded_step("M2")))
    assert reward(full, None, alpha=1.0) == pytest.approx(1.5)
    assert reward(full, None, alpha=0.0) == pytest.approx(1.0)
    partial = Partial(steps=(grounded_step("M1"),), conflicts=frozenset({"M2"}))
    assert reward(partial, [], alpha=1.0) == 0.0
    # one grounded step/object vs a one-step one-object repair skeleton
    assert reward(partial, [sk_for(["M2"])], alpha=1.0) == pytest.approx(1.0)
    # the estimate reads the cheapest repair skeleton, the first that
    # enumerate_skeletons yields
    assert reward(partial, [sk_for(["M2"]), sk_for(["M2", "M3"])],
                  alpha=1.0) == pytest.approx(1.0)
    # two grounded steps and objects vs a three-step repair: 2/5 + alpha/5
    longer = Partial(steps=(grounded_step("M1"), grounded_step("M2")),
                     conflicts=frozenset({"M3"}))
    repair = sk_for(["M3", "M4", "M5"])
    assert reward(longer, [repair], alpha=1.0) == pytest.approx(0.6)
    assert reward(longer, [repair], alpha=0.5) == pytest.approx(0.5)


def test_backpropagate_updates_path_statistics():
    root = SearchNode(id=None, skeleton=None, steps=())
    mid = SearchNode(id=0, skeleton=sk_for(["M1", "M2"]), steps=(grounded_step("M1"),))
    leaf = SearchNode(id=1, skeleton=sk_for(["M3"]), steps=None)
    other = SearchNode(id=2, skeleton=sk_for(["M4"]), steps=None)
    root.children.append(mid)
    mid.children += [leaf, other]
    backpropagate([root, mid, leaf], 0.75)
    assert root.visits == 1
    assert mid.visits == 1 and mid.value == pytest.approx(0.75)
    assert leaf.visits == 1 and leaf.value == pytest.approx(0.75)
    backpropagate([root, mid], 0.25)
    assert mid.value == pytest.approx(1.0) and mid.visits == 2
    assert root.visits == 2 and leaf.visits == 1
    # the grounded leaf has no child, so it is exhausted; its parent is once
    # its other child is too
    assert leaf.exhausted and not (mid.exhausted or root.exhausted or other.exhausted)
    backpropagate([root, mid, other], 0.0)
    assert other.exhausted and mid.exhausted and root.exhausted


def test_config_rejects_negative_exploration_parameters():
    with pytest.raises(ValueError):
        PlannerConfig(c=-0.1)
    with pytest.raises(ValueError):
        PlannerConfig(alpha=-1.0)


def test_plan_simple_scene():
    scene = load_scene(scenario("unobstructed"))
    result = plan(scene, PlannerConfig(seed=0))
    assert isinstance(result, Plan)
    assert result.makespan == 1 and result.motion_cost == 1
    assert validate_plan(scene, result).ok


def test_goal_satisfied_at_start_returns_empty_plan():
    scene = load_scene(scenario("satisfied_at_start"))
    result = plan(scene, PlannerConfig(seed=0))
    assert isinstance(result, Plan)
    assert result.steps == ()


def test_empty_goal_rejected():
    doc = json.loads(scenario("unobstructed").read_text())
    doc["goal"] = []
    scene = loads_scene(json.dumps(doc))
    with pytest.raises(ValueError, match="empty goal"):
        plan(scene)


def narrow_carry(monkeypatch):
    """Grounding lays out every carry at half its width."""
    carry_sweep = motion.carry_sweep

    def narrow(*args):
        cor = carry_sweep(*args)
        return Corridor(cor.a, cor.b, cor.width / 2)
    monkeypatch.setattr(motion, "carry_sweep", narrow)


def exclude_targets(monkeypatch):
    """The search passes every task graph its own targets as excluded."""
    def build_cmtg(targets, facts, scene, excluded):
        return taskgraph.build_cmtg(targets, facts, scene, excluded=set(targets) | excluded)
    monkeypatch.setattr(search, "build_cmtg", build_cmtg)


# planner faults on `unobstructed`, each with the failed check's message
PLANNER_FAULTS = {
    "narrow_carry": (narrow_carry, "step 1: R1 place_traj corridor is narrower than 0.2"),
    "exclude_targets": (exclude_targets, "targets and excluded objects overlap"),
}


@pytest.mark.parametrize("fault", sorted(PLANNER_FAULTS))
def test_a_failed_internal_check_is_a_search_error(fault, monkeypatch):
    # the validator's PlanError and a layer's ValueError are planner faults
    install, message = PLANNER_FAULTS[fault]
    install(monkeypatch)
    with pytest.raises(SearchError, match=f"^internal check failed: {message}"):
        plan(load_scene(scenario("unobstructed")))


def test_unreachable_goal_region_reports_no_plan():
    scene = load_scene(scenario("unsat_fixed_blocked"))
    result = plan(scene, PlannerConfig(seed=0))
    assert isinstance(result, NoPlan)
    assert result.reason == "no_initial_skeletons"
    assert result.to_doc()["no_plan"] == "no_initial_skeletons"


def test_conflict_discovered_in_grounding_is_resolved():
    scene = load_scene(scenario("conflict_partial"))
    result = plan(scene, PlannerConfig(seed=0))
    assert isinstance(result, Plan)
    assert moved_objects(result.steps) == {"M1", "M2"}
    assert validate_plan(scene, result).ok


def test_a_goal_the_root_graph_leaves_out_is_planned_as_a_grounding_conflict(monkeypatch):
    # the root graph targets M1 alone; its skeletons ground in full but leave
    # the goal M2 unmet, so grounding returns it as a conflict to move first
    def root_without_m2(targets, facts, scene, excluded):
        return taskgraph.build_cmtg(["M1"] if not excluded else targets, facts, scene,
                                    excluded=excluded)
    monkeypatch.setattr(search, "build_cmtg", root_without_m2)
    scene = load_scene(scenario("parallel_goals"))
    result = plan(scene, PlannerConfig(seed=0))
    assert isinstance(result, Plan)
    assert result.makespan == 2 and moved_objects(result.steps) == {"M1", "M2"}
    assert validate_plan(scene, result).ok


def test_k_max_bounds_the_skeletons_of_the_root():
    # parallel_goals's root graph has four skeletons, each of which grounds to
    # a plan, so an exhaustive search grounds each root child once, and no
    # other node
    scene = load_scene(scenario("parallel_goals"))
    for k_max in range(1, 6):
        trace = []
        result = plan(scene, PlannerConfig(k_max=k_max, exhaust=True), trace=trace)
        assert isinstance(result, Plan)
        assert sorted(line.split()[1] for line in trace) == [
            f"edge={i}" for i in range(min(k_max, 4))]


def test_each_node_grounds_from_its_own_stream_of_the_seed(monkeypatch):
    # a node's grounding draws from Random(f"{seed}:{id}"), whichever nodes
    # were grounded before it
    calls = []

    def recorded_ground(skeleton, future, scene, rng):
        calls.append((skeleton, future, ground(skeleton, future, scene, rng)))
        return calls[-1][2]
    monkeypatch.setattr(search, "ground", recorded_ground)
    scene = load_scene(scenario("pick_chain"))
    for seed in range(3):
        calls.clear()
        trace = []
        plan(scene, PlannerConfig(seed=seed, exhaust=True, max_iterations=20), trace=trace)
        edges = [line.split()[1].removeprefix("edge=") for line in trace]
        assert len(edges) == len(calls) > 1
        for edge, (skeleton, future, outcome) in zip(edges, calls):
            rng = random.Random(f"{seed}:{edge}")
            assert ground(skeleton, future, scene, rng) == outcome, (seed, edge)


def test_handover_scene_produces_single_handover_step():
    scene = load_scene(scenario("handover_required"))
    result = plan(scene, PlannerConfig(seed=0))
    assert isinstance(result, Plan)
    assert result.makespan == 1
    step = result.steps[0]
    assert set(step.moves) == {"R1", "R2"}
    assert all(mv.action.is_handover for mv in step.moves.values())


def test_search_is_deterministic_per_seed():
    scene = load_scene(scenario("pick_chain"))
    t1, t2, t3 = [], [], []
    p1 = plan(scene, PlannerConfig(seed=3), trace=t1)
    p2 = plan(scene, PlannerConfig(seed=3), trace=t2)
    p3 = plan(scene, PlannerConfig(seed=4), trace=t3)
    assert isinstance(p1, Plan) and isinstance(p2, Plan) and isinstance(p3, Plan)
    assert dumps_plan(p1, scene.robots) == dumps_plan(p2, scene.robots)
    assert t1 == t2
    for line in t1 + t3:
        assert TRACE_RE.match(line), line


def test_zero_iterations_exhausts_budget():
    scene = load_scene(scenario("unobstructed"))
    result = plan(scene, PlannerConfig(seed=0, max_iterations=0))
    assert isinstance(result, NoPlan)
    assert result.reason == "budget_exhausted"
    assert result.iterations == 0


def test_exhaustive_mode_returns_minimum_cost_plan():
    scene = load_scene(scenario("parallel_goals"))
    result = plan(scene, PlannerConfig(seed=0, exhaust=True, max_iterations=50))
    assert isinstance(result, Plan)
    assert result.motion_cost == 2
    assert result.makespan == 1  # both robots act in the same joint step
    assert validate_plan(scene, result).ok


@pytest.mark.parametrize("budget,iterations", [(1, 0), (15, 1)])
def test_solver_budget_is_a_no_plan(budget, iterations):
    # node budget 1 runs out in the root enumeration, 15 in the enumeration
    # for the first grounding conflict
    res = plan(load_scene(scenario("pick_chain")), PlannerConfig(node_budget=budget))
    assert isinstance(res, NoPlan)
    assert res.reason == "solver_budget"
    assert res.iterations == iterations


@pytest.mark.parametrize("field,value", [("t_max", 0), ("k_max", 0),
                                         ("node_budget", 0), ("max_iterations", -1),
                                         ("time_budget", -0.5),
                                         ("time_budget", float("nan")),
                                         ("c", float("nan")), ("alpha", float("nan")),
                                         ("c", float("inf")), ("alpha", float("inf"))])
def test_config_rejects_out_of_range_limits(field, value):
    with pytest.raises(ValueError):
        PlannerConfig(**{field: value})


@pytest.mark.parametrize("path", sorted(SCENARIOS.rglob("*.json")),
                         ids=lambda path: path.stem)
def test_planning_reads_no_rows_or_variable_names(path, monkeypatch):
    def unread(model):
        raise AssertionError("the planner read a model's LP bookkeeping")

    monkeypatch.setattr(mip.MipModel, "constraints", property(unread))
    monkeypatch.setattr(mip.MipModel, "var_names", property(unread))
    monkeypatch.setattr(mip.MipModel, "objective", property(unread))
    plan(load_scene(path), PlannerConfig(seed=0))


def test_time_budget_counts_the_root_enumeration(monkeypatch):
    # a root enumeration that takes 2 s of a 1 s budget leaves no time to ground
    clock = [0.0]
    enumerate_skeletons = search.enumerate_skeletons

    def slow_enumeration(*args, **kwargs):
        clock[0] += 2.0
        return enumerate_skeletons(*args, **kwargs)

    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    monkeypatch.setattr(search, "enumerate_skeletons", slow_enumeration)
    trace = []
    res = plan(load_scene(scenario("unobstructed")), PlannerConfig(time_budget=1.0),
               trace=trace)
    assert isinstance(res, NoPlan)
    assert (res.reason, res.iterations, trace) == ("time_budget", 0, [])


def pa_small_with_m3_outside_its_box():
    """``pa_small`` with M3 starting just left of its goal region ``box_b``.
    At seed 0 its first iteration grounds fully and its second partially."""
    doc = json.loads(scenario("pa_small").read_text())
    (m3,) = (m for m in doc["movables"] if m["name"] == "M3")
    m3["pose"] = {"x": 0.5, "y": -0.2}
    return loads_scene(json.dumps(doc))


def test_exhaustive_search_keeps_its_best_plan_past_a_solver_budget(monkeypatch):
    # the first iteration grounds fully and the second partially; make the
    # enumeration for that conflict run out of budget
    calls = []
    enumerate_skeletons = search.enumerate_skeletons

    def second_call_over_budget(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise BudgetExceeded("node budget exceeded")
        return enumerate_skeletons(*args, **kwargs)

    monkeypatch.setattr(search, "enumerate_skeletons", second_call_over_budget)
    scene = pa_small_with_m3_outside_its_box()
    trace = []
    res = plan(scene, PlannerConfig(exhaust=True), trace=trace)
    assert isinstance(res, Plan) and validate_plan(scene, res).ok
    # the search stopped at the second iteration's enumeration
    assert len(calls) == 2
    assert [line.split()[2] for line in trace] == ["outcome=full"]


def fake_clock(monkeypatch):
    """A clock that only the test moves, read by the search and the solver."""
    clock = [0.0]
    fake = types.SimpleNamespace(monotonic=lambda: clock[0])
    monkeypatch.setattr(search, "time", fake)
    monkeypatch.setattr(mip, "time", fake)
    return clock


def test_time_budget_stops_an_enumeration_before_its_next_solve(monkeypatch):
    # pick_chain has no skeleton at T = 1; that solve ends past the 1 s
    # budget, so the solve for T = 2 never starts
    clock = fake_clock(monkeypatch)
    horizons = []
    solve = mip.solve

    def slow_solve(model, budget):
        horizons.append(model.T)
        clock[0] += 2.0
        return solve(model, budget)

    monkeypatch.setattr(mip, "solve", slow_solve)
    trace = []
    res = plan(load_scene(scenario("pick_chain")), PlannerConfig(time_budget=1.0),
               trace=trace)
    assert horizons == [1]
    assert isinstance(res, NoPlan)
    assert (res.reason, res.iterations, trace) == ("time_budget", 0, [])


def test_exhaustive_search_keeps_its_best_plan_past_the_time_budget(monkeypatch):
    # the first iteration grounds fully and the second partially; the
    # deadline passes as the enumeration for that conflict starts
    clock = fake_clock(monkeypatch)
    calls = []
    enumerate_skeletons = search.enumerate_skeletons

    def late_second_call(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            clock[0] += 2.0
        return enumerate_skeletons(*args, **kwargs)

    monkeypatch.setattr(search, "enumerate_skeletons", late_second_call)
    scene = pa_small_with_m3_outside_its_box()
    trace = []
    res = plan(scene, PlannerConfig(exhaust=True, time_budget=1.0), trace=trace)
    assert isinstance(res, Plan) and validate_plan(scene, res).ok
    assert len(calls) == 2
    assert [line.split()[2] for line in trace] == ["outcome=full"]


def test_time_budget_stops_the_search_between_iterations(monkeypatch):
    # unobstructed's one edge fails past the 1 s budget; the deadline is read
    # before the check that every edge is exhausted
    clock = fake_clock(monkeypatch)

    def slow_failure(*args):
        clock[0] += 2.0
        return Failure()

    monkeypatch.setattr(search, "ground", slow_failure)
    trace = []
    res = plan(load_scene(scenario("unobstructed")), PlannerConfig(time_budget=1.0),
               trace=trace)
    assert res == NoPlan("time_budget", 1, 1)
    assert trace == ["iter=1 edge=0 outcome=failure reward=0.000000"]


def rescan_exhausted(node, grounded):
    """The exhaustion rule, recomputed from the tree and the ids of the nodes
    grounded so far."""
    if node.steps is None:          # not grounded, or grounded to a plan or a failure
        return node.id in grounded
    return all(rescan_exhausted(child, grounded) for child in node.children)


@pytest.mark.parametrize("path", [scenario(name) for name in ("pa_small", "conflict_partial",
                                                               "pick_chain", "parallel_goals")]
                         + [FIXTURES / "deep_tree_solved.json",
                            FIXTURES / "deep_tree_pruned.json"],
                         ids=lambda path: path.stem)
def test_exhausted_flags_match_a_rescan_of_the_tree(monkeypatch, path):
    nodes = []
    trace = []

    class RecordedNode(SearchNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nodes.append(self)

    def check():
        grounded = {int(line.split()[1].removeprefix("edge=")) for line in trace}
        for node in nodes:
            assert node.exhausted == rescan_exhausted(node, grounded), node.id
            for child in node.children:
                # ucb's exploration term has the prior 1 / objects moved
                explore = ucb(node.visits, child, 1.0) - ucb(node.visits, child, 0.0)
                assert explore == pytest.approx(
                    math.sqrt(node.visits) / len(child.skeleton.moved_objects)
                    / (child.visits + 1)), child.id

    def checked_backpropagate(path, r):
        backpropagate(path, r)
        check()

    monkeypatch.setattr(search, "SearchNode", RecordedNode)
    monkeypatch.setattr(search, "backpropagate", checked_backpropagate)
    scene = load_scene(path)
    for seed in range(3):
        nodes.clear()
        trace.clear()
        plan(scene, PlannerConfig(seed=seed, exhaust=True, max_iterations=40), trace=trace)
        check()
        assert len(nodes) > 1


def test_no_plan_tree_size_counts_the_root_and_each_partial_grounding():
    # the root, plus one node for each partial grounding; no other outcome adds one
    for path in sorted(SCENARIOS.rglob("*.json")):
        scene = load_scene(path)
        for seed in range(3):
            for iterations in range(1, 4):
                trace = []
                res = plan(scene, PlannerConfig(seed=seed, max_iterations=iterations),
                           trace=trace)
                if isinstance(res, NoPlan):
                    partials = sum("outcome=partial" in line for line in trace)
                    assert res.tree_size == 1 + partials, (path.stem, seed, iterations)
    res = plan(load_scene(scenario("conflict_partial")), PlannerConfig(max_iterations=1))
    assert isinstance(res, NoPlan) and res.tree_size == 2
