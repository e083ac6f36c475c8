"""The graph-level skeleton solver against the row-level reference.

``reference_bnb.solve`` is a branch and bound over the compiled rows alone.
``mip.solve`` works on the task graph the rows encode and returns the step
of each selected action; the assignment those steps determine must be the
reference's, not just of the same objective, through every exclusion cut
that ``enumerate_skeletons`` adds.
"""
import json
import random

import pytest

from mrplan import mip
from mrplan.facts import compute_facts
from mrplan.mip import compile_model, extract_skeleton, solve
from mrplan.plans import PartiallyGroundedAction
from mrplan.scene import loads_scene
from mrplan.taskgraph import build_cmtg, make_graph

import reference_bnb
from conftest import GOLDEN, SCENARIOS
from oracle_mip import (assignment, decode_skeleton, loads_cmtg, random_cmtg,
                        rows_satisfied)


def assert_solvers_agree(graph, T_max=4) -> int:
    """Both solvers through the cut sequence of ``enumerate_skeletons``, with
    no skeleton limit; the number of solves compared. Each solve's steps
    must give the reference's assignment, a schedule satisfying every row,
    and the skeleton that the reference's assignment decodes to. The model
    resumes its search after each answer; a fresh model given the same cuts
    restarts it from the root, and must give the same answer."""
    cuts, solves = [], 0
    for T in range(1, T_max + 1):
        model = compile_model(graph, T)
        model.cuts.extend(cuts)
        while True:
            got, want = solve(model), reference_bnb.solve(model)
            restarted = compile_model(graph, T)
            restarted.cuts.extend(model.cuts)
            assert got == solve(restarted), (T, model.cuts, graph.dumps())
            solves += 1
            if got == "infeasible" or want == "infeasible":
                assert got == want, (T, model.cuts, graph.dumps())
                break
            vector = assignment(model, got)
            assert vector == want, (T, model.cuts, graph.dumps())
            assert rows_satisfied(model, vector)
            assert extract_skeleton(got, model) == decode_skeleton(want, model)
            cuts.append(frozenset(got))
            model.cuts.append(cuts[-1])
    return solves


@pytest.mark.parametrize("pick_p,place_p,robots", [
    (0.15, 0.10, ("A", "B")),
    (0.05, 0.45, ("A", "B")),
    (0.25, 0.25, ("A", "B", "C")),
    (0.00, 0.60, ("A",)),
])
def test_solver_matches_reference_through_every_cut(pick_p, place_p, robots):
    rng = random.Random(f"cuts:{pick_p}:{place_p}:{len(robots)}")
    solves = sum(assert_solvers_agree(random_cmtg(rng, 5, 7, pick_p, place_p, robots))
                 for _ in range(60))
    assert solves > 120


# O2 may move only to unblock O3's first two actions, but with O1 moved at
# step 1 none of O3's actions can be justified: a solver that counts an
# object that can never move as a reason for moving another returns
# {O1, O2} at T = 2 instead of proving infeasibility.
UNJUSTIFIED_BLOCKER = """targets O1
object O0
object O1
object O2
object O3
action obj=O1 region=re1 pick=A place=A g_pick=0.000000 g_place=0.000000
action obj=O2 region=re0 pick=B place=B g_pick=0.000000 g_place=0.000000
action obj=O3 region=re0 pick=A place=A g_pick=0.000000 g_place=0.000000
action obj=O3 region=re1 pick=A place=B g_pick=0.000000 g_place=0.000000
action obj=O3 region=re1 pick=B place=B g_pick=0.000000 g_place=0.000000
action_edge O1 -> a0
action_edge O2 -> a1
action_edge O3 -> a2
action_edge O3 -> a3
action_edge O3 -> a4
block_pick_edge a2 -> O2
block_pick_edge a3 -> O2
block_pick_edge a4 -> O1
block_place_edge a2 -> O1
block_place_edge a3 -> O1
"""


def test_an_object_no_completion_moves_justifies_nothing():
    graph = loads_cmtg(UNJUSTIFIED_BLOCKER)
    model = compile_model(graph, 2)
    model.cuts.append(frozenset({0}))
    assert solve(model) == reference_bnb.solve(model) == "infeasible"
    assert assert_solvers_agree(graph) >= 4


@pytest.mark.parametrize("grasp_count", [1, 2, 4, 8])
@pytest.mark.parametrize("path", sorted(SCENARIOS.rglob("*.json")),
                         ids=lambda path: path.stem)
def test_solver_matches_reference_on_scene_graphs(path, grasp_count):
    doc = json.loads(path.read_text())
    doc["grasp_count"] = grasp_count
    scene = loads_scene(json.dumps(doc))
    graph = build_cmtg(scene.goal_objects(), compute_facts(scene), scene)
    assert assert_solvers_agree(graph) >= 4


def test_objective_matches_scipy_milp_beyond_brute_force():
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random("milp")
    compared = graphs = 0
    while compared < 25:
        graph = random_cmtg(rng, max_objects=10, max_actions=14)
        if len(graph.action_nodes) < 8:     # the oracle enumerates up to ~7
            continue
        graphs += 1
        assert graphs < 200, "random instance generator starved"
        T = rng.randint(1, 4)
        model = compile_model(graph, T)
        for _ in range(3):           # the first solves of the cut sequence
            res = solve(model)
            rows = model.constraints
            a = np.zeros((len(rows), model.num_vars))
            lb = np.full(len(rows), -np.inf)
            ub = np.full(len(rows), np.inf)
            for k, row in enumerate(rows):
                for v, c in row.coeffs:
                    a[k, v] = c
                if row.sense in (">=", "=="):
                    lb[k] = row.rhs
                if row.sense in ("<=", "=="):
                    ub[k] = row.rhs
            cost = np.zeros(model.num_vars)
            for v, c in model.objective.items():
                cost[v] = c
            ref = optimize.milp(cost, constraints=optimize.LinearConstraint(a, lb, ub),
                                integrality=np.ones(model.num_vars),
                                bounds=optimize.Bounds(0, 1))
            if res == "infeasible":
                assert ref.status == 2, ref.message
                break
            assert ref.status == 0, ref.message
            assert len(res) == round(ref.fun)
            assert rows_satisfied(model, assignment(model, res))
            compared += 1
            model.cuts.append(frozenset(res))


def test_heavy_clutter_infeasibility_proof_is_fast():
    # One target with 25 actions over 16 objects, captured from the 40-disc
    # clutter scene clutter.generate(Random("probe:40"), (40, 40), (1, 2), 1)
    # at t_max 4. At T = 4 the first solve, after the cut made at a shorter
    # horizon, selects four actions; proving that no other selection fits
    # took the row-level branch and bound 23.5 s.
    graph = loads_cmtg((GOLDEN / "heavy_clutter_cmtg.txt").read_text())
    assert graph.dumps() == (GOLDEN / "heavy_clutter_cmtg.txt").read_text()
    model = compile_model(graph, 4)
    assert model.num_vars == 100
    model.cuts.append(frozenset({2, 20, 24}))
    res = solve(model)
    assert set(res) == {1, 5, 9, 18}
    model.cuts.append(frozenset({1, 5, 9, 18}))
    assert len(model.constraints) == 316
    # 71 nodes; the row-level reference runs out of a budget of 100 long
    # before its proof
    assert solve(model, budget=100) == "infeasible"
    with pytest.raises(mip.BudgetExceeded):
        reference_bnb.solve(model, budget=100)


def test_rows_are_built_on_first_read_with_cuts_in_order():
    rng = random.Random(3)
    graph = random_cmtg(rng, max_objects=4, max_actions=6)
    read_early = compile_model(graph, 3)
    base = len(read_early.constraints)
    read_early.cuts.append(frozenset({0}))
    assert len(read_early.constraints) == base + 1
    read_early.cuts.append(frozenset({1, 2}))
    read_late = compile_model(graph, 3)
    read_late.cuts.append(frozenset({0}))
    read_late.cuts.append(frozenset({1, 2}))
    solve(read_late)
    assert read_late._rows is None          # the solver never reads the rows
    assert read_late.dumps_lp() == read_early.dumps_lp()
    assert [row.label for row in read_late.constraints[base:]] == [
        f"excl_{base}", f"excl_{base + 1}"]


def test_block_edge_rows_follow_the_graph_order():
    # one action blocked by several objects, handed over in no order
    def act(m):
        return PartiallyGroundedAction(m, "work", "R1", "R1", (0.0,))
    picks, places = ("M9", "M2", "M5", "M3", "M8", "M6"), ("M10", "M7", "M4", "M11")
    blocks = {act(m): ((), ()) for m in (*picks, *places)}
    blocks[act("M1")] = (picks, places)
    graph = make_graph({"M1"}, blocks)
    model = compile_model(graph, 2)
    rows = {row.label: row for row in model.constraints}
    # the graph's block edges: by action, then blocker name
    assert graph.block_pick_edges == [(act("M1"), m) for m in sorted(picks)]
    assert graph.block_place_edges == [(act("M1"), m) for m in sorted(places)]
    block_edges = ([(a, m, "pick") for a, m in graph.block_pick_edges]
                   + [(a, m, "place") for a, m in graph.block_place_edges])
    for j, (_, m, kind) in enumerate(block_edges):
        assert f"prec_{kind}_b{j}" in rows
        moved = [model.var_names[v] for v, c in rows[f"unblock_b{j}"].coeffs if c > 0]
        assert len(moved) == 1 and f"_{m}_a" in moved[0], (j, m, moved)
