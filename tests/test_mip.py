"""0-1 model compilation and the exact branch-and-bound solver."""
import json
import math
import random

import pytest

from mrplan import mip
from mrplan.facts import compute_facts
from mrplan.mip import (BudgetExceeded, compile_model, enumerate_skeletons,
                        extract_skeleton, solve)
from mrplan.plans import PartiallyGroundedAction
from mrplan.scene import loads_scene
from mrplan.taskgraph import build_cmtg, make_graph

from conftest import SCENARIOS, scenario
from oracle_mip import (OracleVars, assignment, blocks_of, oracle_feasible,
                        oracle_minimum, random_cmtg, rows_satisfied)


def act(obj, robot="R1", place_robot=None, region="re"):
    return PartiallyGroundedAction(obj=obj, region=region, pick_robot=robot,
                                   place_robot=place_robot or robot,
                                   grasps=(0.0,))


def small_graph(actions, targets, pick_blocks=(), place_blocks=()):
    """A block (M, B) makes B a blocker of the action that moves M."""
    blocks = {a: (set(), set()) for a in actions}
    by_obj = {a.obj: a for a in actions}
    for kind, pairs in enumerate((pick_blocks, place_blocks)):
        for blocked, blocker in pairs:
            blocks[by_obj[blocked]][kind].add(blocker)
    return make_graph(targets, blocks)


def test_single_action_single_step():
    g = small_graph([act("M1")], ["M1"])
    model = compile_model(g, 1)
    res = solve(model)
    assert res == {0: 1}
    sk = extract_skeleton(res, model)
    assert sk.makespan == 1
    assert sk.moved_objects == frozenset({"M1"})
    assert sk.steps[0]["R1"] == act("M1")


def test_variable_count_and_lp_dump():
    g = small_graph([act("M1"), act("M2")], ["M1"], pick_blocks=[("M1", "M2")])
    model = compile_model(g, 3)
    assert model.num_vars == 3 * 2  # X[t, a] over action edges only
    lp = model.dumps_lp()
    assert lp.startswith("Minimize")
    assert "Subject To" in lp and "Binary" in lp and lp.endswith("End\n")
    with pytest.raises(ValueError):
        compile_model(g, 0)


def test_pick_block_needs_strictly_earlier_step():
    g = small_graph([act("M1"), act("M2")], ["M1"], pick_blocks=[("M1", "M2")])
    assert solve(compile_model(g, 1)) == "infeasible"
    model = compile_model(g, 2)
    res = solve(model)
    sk = extract_skeleton(res, model)
    assert sk.steps[0]["R1"] == act("M2")
    assert sk.steps[1]["R1"] == act("M1")


def test_place_block_allows_same_step_on_different_robots():
    a1, a2 = act("M1", robot="R1"), act("M2", robot="R2")
    g = small_graph([a1, a2], ["M1"], place_blocks=[("M1", "M2")])
    model = compile_model(g, 1)
    res = solve(model)
    assert isinstance(res, dict)
    sk = extract_skeleton(res, model)
    assert sk.makespan == 1 and sk.moved_objects == frozenset({"M1", "M2"})


def test_shared_robot_capacity_forces_two_steps():
    a1, a2 = act("M1"), act("M2")
    g = small_graph([a1, a2], ["M1", "M2"])
    assert solve(compile_model(g, 1)) == "infeasible"
    res = solve(compile_model(g, 2))
    assert len(res) == 2


def test_handover_occupies_both_robots():
    h = act("M1", robot="R1", place_robot="R2")
    a2 = act("M2", robot="R2")
    g = small_graph([h, a2], ["M1", "M2"])
    # R2 is needed by both actions, so one joint step is impossible
    assert solve(compile_model(g, 1)) == "infeasible"
    model = compile_model(g, 2)
    res = solve(model)
    sk = extract_skeleton(res, model)
    handover_step = next(s for s in sk.steps if h in s.values())
    assert handover_step["R1"] == h and handover_step["R2"] == h


def test_big_m_precedence_row_expansion():
    g = small_graph([act("M1"), act("M2")], ["M1"], pick_blocks=[("M1", "M2")])
    T = 2
    model = compile_model(g, T)
    row = next(c for c in model.constraints if c.label == "prec_pick_b0")
    # the block edge is indicated by M1's action column a:
    # sum_t X[t,a] - sum_t X[t, M2's action edge] - (T+1) X[1,a] >= 1-(T+1)
    m1_edge = next(i for i, a in enumerate(model.graph.action_nodes) if a.obj == "M1")
    m2_edge = next(i for i, a in enumerate(model.graph.action_nodes) if a.obj == "M2")
    expect = {}
    for t in (1, 2):
        expect[model.var(t, m1_edge)] = 1
        expect[model.var(t, m2_edge)] = -1
    expect[model.var(1, m1_edge)] += -(T + 1)
    assert dict(row.coeffs) == expect
    assert row.sense == ">=" and row.rhs == 1 - (T + 1)


def test_block_edges_share_their_action_column():
    # M1's action is both pick- and place-blocked by the non-target M2
    g = small_graph([act("M1"), act("M2", robot="R2")], ["M1"],
                   pick_blocks=[("M1", "M2")], place_blocks=[("M1", "M2")])
    model = compile_model(g, 2)
    m1, m2 = (next(i for i, a in enumerate(model.graph.action_nodes) if a.obj == obj)
              for obj in ("M1", "M2"))
    rows = {c.label: c for c in model.constraints}
    for t in (1, 2):
        gate = rows[f"gate_t{t}_M2_e{m2}"]
        assert dict(gate.coeffs) == {model.var(t, m1): -2,
                                     model.var(t, m2): 1}
    assert not any(c.label.startswith("mirror") for c in model.constraints)


@pytest.mark.parametrize("path", sorted(SCENARIOS.rglob("*.json")),
                         ids=lambda path: path.stem)
def test_scene_models_declare_only_action_columns(path):
    scene = loads_scene(path.read_text())
    graph = build_cmtg(scene.goal_objects(), compute_facts(scene), scene)
    for T in (1, 2, 3, 4):
        model = compile_model(graph, T)
        assert model.num_vars == T * len(graph.action_nodes)
        assert "Xb_" not in model.dumps_lp()


def test_non_target_gating():
    # M2 is not a target and blocks nothing, so its action can never run
    g = small_graph([act("M1"), act("M2", robot="R2")], ["M1"])
    model = compile_model(g, 1)
    res = solve(model)
    assert len(res) == 1
    sk = extract_skeleton(res, model)
    assert sk.moved_objects == frozenset({"M1"})
    # and a horizon that would need M2 to fill a step is infeasible
    assert solve(compile_model(g, 2)) == "infeasible"


def test_budget_zero_raises():
    g = small_graph([act("M1")], ["M1"])
    with pytest.raises(BudgetExceeded):
        solve(compile_model(g, 1), budget=0)


def test_enumerate_skeletons_ordering_and_dedup():
    g = small_graph([act("M1"), act("M2"), act("M3")], ["M1"],
                   pick_blocks=[("M1", "M2"), ("M2", "M3")])
    sks = enumerate_skeletons(g, 4, 10, mip.DEFAULT_NODE_BUDGET)
    assert sks, "chain should be solvable at T=3"
    first = sks[0]
    assert first.makespan == 3
    assert [s["R1"].obj for s in first.steps] == ["M3", "M2", "M1"]
    selections = [frozenset(a for step in sk.steps for a in step.values()) for sk in sks]
    assert len(selections) == len(set(selections))
    assert enumerate_skeletons(make_graph((), {}), 4, 10, mip.DEFAULT_NODE_BUDGET) == []
    assert enumerate_skeletons(g, 4, 1, mip.DEFAULT_NODE_BUDGET) == sks[:1]


def test_enumeration_returns_k_max_skeletons_when_the_graph_has_more():
    # either robot can move either target, so there are more skeletons than
    # the smaller K_max; each K_max gets the first K_max of them
    g = small_graph([act(obj, robot) for obj in ("M1", "M2") for robot in ("R1", "R2")],
                    ["M1", "M2"])
    every = enumerate_skeletons(g, 2, 100, mip.DEFAULT_NODE_BUDGET)
    assert len(every) > 3
    for k_max in range(1, len(every) + 2):
        sks = enumerate_skeletons(g, 2, k_max, mip.DEFAULT_NODE_BUDGET)
        assert len(sks) == min(k_max, len(every)) and sks == every[:k_max]


@pytest.mark.parametrize("path", sorted(SCENARIOS.rglob("*.json")),
                         ids=lambda path: path.stem)
def test_enumeration_stops_at_the_number_of_objects_with_an_action(path, monkeypatch):
    # no step is empty and no object moves twice, so no longer horizon has a
    # skeleton: a huge T_max makes at most one infeasible solve per horizon
    # up to the cap, plus one solve per skeleton (K_max = 10)
    scene = loads_scene(path.read_text())
    graph = build_cmtg(scene.goal_objects(), compute_facts(scene), scene)
    cap = sum(1 for acts in graph.acts if acts)
    expected = enumerate_skeletons(graph, cap, 10, mip.DEFAULT_NODE_BUDGET)
    calls = []
    solve = mip.solve

    def counted_solve(model, budget):
        calls.append(model.T)
        assert len(calls) <= cap + 10 and model.T <= cap
        return solve(model, budget)

    monkeypatch.setattr(mip, "solve", counted_solve)
    assert enumerate_skeletons(graph, 10**9, 10, mip.DEFAULT_NODE_BUDGET) == expected


def scene_graph(path, grasp_count=None):
    doc = json.loads(path.read_text())
    if grasp_count is not None:
        doc["grasp_count"] = grasp_count
    scene = loads_scene(json.dumps(doc))
    return build_cmtg(scene.goal_objects(), compute_facts(scene), scene)


@pytest.fixture
def searches(monkeypatch):
    """Every ``Search`` that ``mip`` builds, in order of construction."""
    built = []

    class CountedSearch(mip.Search):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(mip, "Search", CountedSearch)
    return built


def test_enumeration_resumes_one_search_per_horizon(searches):
    # each horizon's search resumes after every skeleton instead of walking
    # again from its root, so it never takes more nodes than a fresh model
    # per solve given the same cuts, and fewer once a horizon has an answer
    fewer = 0
    for path in sorted(SCENARIOS.rglob("*.json")):
        graph = scene_graph(path)
        horizons = min(4, sum(1 for acts in graph.acts if acts))
        searches.clear()
        enumerate_skeletons(graph, 4, 10**6, mip.DEFAULT_NODE_BUDGET)
        assert [s.T for s in searches] == list(range(1, horizons + 1)), path.stem
        resumed = sum(s.nodes for s in searches)
        searches.clear()
        cuts = []
        for T in range(1, horizons + 1):
            while True:
                fresh = compile_model(graph, T)
                fresh.cuts.extend(cuts)
                steps = solve(fresh)
                if steps == "infeasible":
                    break
                cuts.append(frozenset(steps))
        restarted = sum(s.nodes for s in searches)
        assert resumed <= restarted, path.stem
        fewer += resumed < restarted
    assert fewer >= 1


def test_solve_resumes_only_when_the_cuts_grew_by_its_answers():
    # solve stays a function of (graph, T, cuts): a repeated solve, or one
    # after a cut is taken back, restarts rather than resumes
    checked = 0
    for path in sorted(SCENARIOS.rglob("*.json")):
        graph = scene_graph(path, 2)
        for T in range(1, 5):
            model = compile_model(graph, T)
            first = solve(model)
            assert solve(model) == first, (path.stem, T)
            if first == "infeasible":
                continue
            model.cuts.append(frozenset(first))
            solve(model)                    # resumes past the first answer
            model.cuts.pop()
            assert solve(model) == first, (path.stem, T)
            checked += 1
    assert checked >= 10


def test_a_budget_overrun_leaves_the_model_solvable():
    # after an overrun the model's search stopped mid-walk; reading it on
    # would report a wrong "infeasible", so the next solve starts afresh
    overruns = recovered = 0
    for path in sorted(SCENARIOS.rglob("*.json")):
        for grasp_count in (1, 2, 4, 8):
            graph = scene_graph(path, grasp_count)
            for T in range(1, 5):
                model, twin = compile_model(graph, T), compile_model(graph, T)
                first = solve(model)
                if first == "infeasible":
                    continue
                assert solve(twin) == first
                model.cuts.append(frozenset(first))
                twin.cuts.append(frozenset(first))
                before = twin._search.nodes
                solve(twin)
                needed = twin._search.nodes - before   # the resumed walk's nodes
                if needed == 0:
                    continue
                with pytest.raises(BudgetExceeded):
                    solve(model, budget=needed - 1)
                overruns += 1
                fresh = compile_model(graph, T)
                fresh.cuts.extend(model.cuts)
                want = solve(fresh)
                assert solve(model) == want, (path.stem, grasp_count, T)
                recovered += want != "infeasible"
    assert overruns >= 10 and recovered >= 1


def assert_steps_map_acting_robots(sk):
    for step in sk.steps:
        assert step and None not in step.values()
        for r, a in step.items():
            assert r in a.robots
            assert all(step[other] == a for other in a.robots)


def assert_cheapest_first(sks):
    """``search.reward`` reads the first skeleton as the cheapest."""
    costs = [(sk.makespan, len(sk.moved_objects)) for sk in sks]
    assert costs == sorted(costs)


@pytest.mark.parametrize("path", sorted(SCENARIOS.rglob("*.json")),
                         ids=lambda path: path.stem)
def test_scene_skeletons_map_each_robot_to_an_action_it_runs(path):
    scene = loads_scene(path.read_text())
    graph = build_cmtg(scene.goal_objects(), compute_facts(scene), scene)
    sks = enumerate_skeletons(graph, 4, 10, mip.DEFAULT_NODE_BUDGET)
    for sk in sks:
        assert_steps_map_acting_robots(sk)
    assert_cheapest_first(sks)


def test_random_skeletons_map_each_robot_to_an_action_it_runs():
    rng = random.Random("acting robots")
    checked = 0
    for _ in range(40):
        graph = random_cmtg(rng, 5, 7, robots=("A", "B", "C"))
        sks = enumerate_skeletons(graph, 3, 10, mip.DEFAULT_NODE_BUDGET)
        for sk in sks:
            assert_steps_map_acting_robots(sk)
            checked += 1
        assert_cheapest_first(sks)
    assert checked > 40


def test_enumerate_respects_increasing_horizon():
    a1 = act("M1", robot="R1")
    a1b = act("M1", robot="R2")
    g = small_graph([a1, a1b], ["M1"])
    sks = enumerate_skeletons(g, 4, 10, mip.DEFAULT_NODE_BUDGET)
    assert len(sks) == 2
    assert all(sk.makespan == 1 for sk in sks)
    assert {frozenset(sk.steps[0].values()) for sk in sks} == {frozenset({a1}),
                                                                frozenset({a1b})}


def test_solver_matches_oracle_on_random_graphs():
    rng = random.Random(42)
    for _ in range(20):
        g = random_cmtg(rng, max_objects=4, max_actions=5)
        T = rng.randint(1, 3)
        model = compile_model(g, T)
        res = solve(model)
        expect = oracle_minimum(g, T)
        if res == "infeasible":
            assert expect is None
        else:
            assert len(res) == expect
            vec = assignment(model, res)
            assert rows_satisfied(model, vec)
            v = OracleVars.from_vector(g, T, vec)
            assert oracle_feasible(v)


def test_compiled_rows_match_oracle_on_random_vectors():
    rng = random.Random(7)
    for _ in range(15):
        g = random_cmtg(rng, max_objects=3, max_actions=4)
        T = rng.randint(1, 2)
        model = compile_model(g, T)
        for _ in range(40):
            vec = tuple(rng.randint(0, 1) for _ in range(model.num_vars))
            v = OracleVars.from_vector(g, T, vec)
            assert rows_satisfied(model, vec) == oracle_feasible(v)


def _map_actions(graph, fn):
    """A copy of ``graph`` with every action a replaced by the actions fn(a)."""
    return make_graph(graph.targets, {b: blocks for a, blocks in blocks_of(graph).items()
                                      for b in fn(a)})


def expand_classes(graph):
    """One action per member grasp of each class, with the class's blockers."""
    return _map_actions(graph, lambda a: [
        a.replace(grasps=(g,)) for g in a.grasps])


def assert_collapsed_optimum_matches_expanded_oracle(graph):
    expanded = expand_classes(graph)
    for T in (1, 2, 3):
        res = solve(compile_model(graph, T))
        expect = oracle_minimum(expanded, T)
        if res == "infeasible":
            assert expect is None, T
        else:
            assert len(res) == expect, T


def test_grasp_classes_keep_the_optimum_of_random_graphs():
    rng = random.Random(11)
    for _ in range(10):
        k = rng.randint(2, 4)
        angles = tuple(2.0 * math.pi * i / k for i in range(k))
        graph = _map_actions(random_cmtg(rng, max_objects=3, max_actions=3),
                             lambda a: [a.replace(grasps=angles)])
        assert_collapsed_optimum_matches_expanded_oracle(graph)


@pytest.mark.parametrize("name", ["pick_chain", "place_blocked", "handover_required"])
@pytest.mark.parametrize("grasp_count", [2, 3, 4])
def test_grasp_classes_keep_the_optimum_of_scene_graphs(name, grasp_count):
    doc = json.loads(scenario(name).read_text())
    doc["grasp_count"] = grasp_count
    scene = loads_scene(json.dumps(doc))
    facts = compute_facts(scene)
    graph = build_cmtg(scene.goal_objects(), facts, scene)
    for a, (pick, place) in blocks_of(graph).items():
        # every member grasp has the class's pick blockers; place facts carry
        # no grasp, so the members share the place blockers
        assert place == facts.reachable_place[(a.obj, a.region, a.place_robot)]
        for g in a.grasps:
            assert facts.reachable_pick[(a.obj, g, a.pick_robot)] == pick
    assert_collapsed_optimum_matches_expanded_oracle(graph)
