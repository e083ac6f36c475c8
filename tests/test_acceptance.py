"""Acceptance suite for the planner.

Each test is a top-level requirement: exact optimality of the 0-1 solver
against a brute-force oracle, fidelity of the compiled constraint rows,
structural reproduction of reference task graphs, validity and determinism
of every emitted plan, the selection/reward arithmetic, conflict discovery
during grounding, the benefit of multi-robot collaboration, and the time
envelope of the whole scenario suite.
"""
import random
import time

from mrplan.facts import compute_facts
from mrplan.geometry import collides
from mrplan.grounding import Partial, ground, volumes_of
from mrplan.mip import TaskSkeleton, compile_model, solve
from mrplan.plans import PartiallyGroundedAction, Plan
from mrplan.scene import load_scene
from mrplan.search import NoPlan, PlannerConfig, SearchNode
from mrplan.search import plan as search_plan
from mrplan.search import reward, ucb
from mrplan.taskgraph import build_cmtg
from mrplan.validator import validate_plan

from conftest import GOLDEN, SCENARIOS, scenario
from oracle_mip import (OracleVars, enumerate_schedules, oracle_feasible,
                        oracle_minimum, random_cmtg, rows_satisfied)

SUITE = ("unobstructed", "pick_chain", "place_blocked", "handover_required",
         "parallel_goals", "constrained_relocation", "unsat_fixed_blocked",
         "satisfied_at_start")


# 1. exact optimality of the 0-1 solver ------------------------------------


def test_solver_optimal_on_50_random_graphs():
    rng = random.Random(2024)
    compared = 0
    attempts = 0
    while compared < 50:
        attempts += 1
        assert attempts < 500, "random instance generator starved"
        g = random_cmtg(rng, max_objects=6, max_actions=8)
        T = rng.randint(1, 3)
        expect = oracle_minimum(g, T)
        t0 = time.perf_counter()
        res = solve(compile_model(g, T))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"solve took {elapsed:.3f}s"
        if expect is None:
            assert res == "infeasible"
            continue
        assert isinstance(res, dict)
        assert len(res) == expect
        compared += 1


# 2. compiled rows match the constraint definitions exactly ----------------


def test_rows_accept_feasible_and_reject_perturbed_assignments():
    rng = random.Random(99)
    accepted = rejected = 0
    while accepted < 200 or rejected < 200:
        g = random_cmtg(rng, max_objects=4, max_actions=5)
        T = rng.randint(1, 3)
        model = compile_model(g, T)
        feasible = []
        for schedule in enumerate_schedules(g, T):
            v = OracleVars.from_schedule(g, T, schedule)
            if oracle_feasible(v):
                feasible.append(v.vector())
            if len(feasible) >= 8:
                break
        for vec in feasible:
            if accepted < 200:
                assert rows_satisfied(model, vec)
                accepted += 1
            # flip random bits until the oracle rejects, then the rows must too
            if rejected < 200:
                bad = list(vec)
                for _ in range(10 * len(bad)):
                    bad[rng.randrange(len(bad))] ^= 1
                    v = OracleVars.from_vector(g, T, tuple(bad))
                    if not oracle_feasible(v):
                        assert not rows_satisfied(model, tuple(bad))
                        rejected += 1
                        break


# 3. structural reproduction of the reference task graphs ------------------


def test_task_graph_structure_pick_chain():
    scene = load_scene(scenario("pick_chain"))
    graph = build_cmtg({"M1"}, compute_facts(scene), scene)
    assert graph.object_nodes == ("M1", "M3", "M4")
    m1_actions = [a for a in graph.action_nodes if a.obj == "M1"]
    assert len(m1_actions) == 1 and m1_actions[0].is_handover
    assert {m for a, m in graph.block_pick_edges + graph.block_place_edges
            if a == m1_actions[0]} == {"M4"}
    m4_actions = [a for a in graph.action_nodes if a.obj == "M4"]
    assert len(m4_actions) == 1
    assert (m4_actions[0], "M3") in graph.block_pick_edges
    assert graph.dumps() == (GOLDEN / "pick_chain_cmtg.txt").read_text()


def test_task_graph_structure_place_blocked():
    scene = load_scene(scenario("place_blocked"))
    graph = build_cmtg({"M1"}, compute_facts(scene), scene)
    handover = next(a for a in graph.action_nodes if a.obj == "M1")
    assert handover.is_handover
    assert (handover, "M2") in graph.block_place_edges
    assert graph.dumps() == (GOLDEN / "place_blocked_cmtg.txt").read_text()


# 4. every returned plan is valid -------------------------------------------


def test_all_returned_plans_validate_across_suite_and_seeds():
    for name in SUITE:
        scene = load_scene(SCENARIOS / f"{name}.json")
        for seed in range(20):
            result = search_plan(scene, PlannerConfig(seed=seed))
            if isinstance(result, NoPlan):
                assert name == "unsat_fixed_blocked", (name, seed, result)
                continue
            report = validate_plan(scene, result)
            assert report.ok, (name, seed, report.to_doc())


# 5. selection and reward arithmetic ----------------------------------------


def sk(objs):
    """A skeleton in which R1 moves ``objs`` in turn, one per step."""
    return TaskSkeleton(steps=tuple(
        {"R1": PartiallyGroundedAction(obj=o, region="re", pick_robot="R1",
                                       place_robot="R1", grasp_pick=0.0)}
        for o in objs))


class _Step:
    def __init__(self, objs):
        self._objs = set(objs)

    def moved_objects(self):
        return set(self._objs)


def test_selection_and_reward_formulas_exact():
    # a skeleton moving 4 objects has prior 1/4
    node = SearchNode(id=0, skeleton=sk(["M1", "M2", "M3", "M4"]), steps=None)
    node.value, node.visits = 2.0, 3
    # value/(n+1) + c * prior * sqrt(N) / (n+1), at parent visits N = 9
    assert abs(ucb(9, node, 1.0) - (0.5 + 0.25 * 3.0 / 4.0)) < 1e-12
    assert abs(ucb(9, node, 2.0) - (0.5 + 2.0 * 0.25 * 3.0 / 4.0)) < 1e-12
    assert abs(ucb(9, node, 0.0) - 0.5) < 1e-12

    from mrplan.grounding import Failure, Full
    assert reward(Failure(""), None, 1.0) == 0.0
    full = Full(steps=(_Step({"M1"}), _Step({"M2", "M3"})))
    assert abs(reward(full, None, 1.0) - (1.0 + 1.0 / 3.0)) < 1e-12
    partial = Partial(steps=(_Step({"M1"}), _Step({"M2"})),
                      conflicts=frozenset({"M4"}))
    got = reward(partial, [sk(["M4"])], 0.5)
    assert abs(got - (2.0 / 3.0 + 0.5 / 3.0)) < 1e-12
    assert reward(partial, [], 1.0) == 0.0


def test_zero_exploration_constant_is_argmax_over_means():
    rng = random.Random(1)
    for _ in range(50):
        parent_visits = rng.randint(1, 50)
        nodes = []
        for i in range(5):
            # a prior drawn in [0.1, 1], rounded to 1 / (1 to 10 objects)
            objects = round(1 / rng.uniform(0.1, 1.0))
            node = SearchNode(id=i, skeleton=sk([f"M{i}_{j}" for j in range(objects)]),
                              steps=None)
            node.value, node.visits = rng.uniform(0.0, 5.0), rng.randint(0, 10)
            nodes.append(node)
        by_ucb = max(nodes, key=lambda n: (ucb(parent_visits, n, 0.0), -n.id))
        by_mean = max(nodes, key=lambda n: (n.value / (n.visits + 1), -n.id))
        assert by_ucb is by_mean


# 6. grounding discovers exactly the geometric conflict set ------------------


def test_partial_grounding_reports_verified_conflicts_and_search_resolves():
    scene = load_scene(scenario("conflict_partial"))
    a = PartiallyGroundedAction(obj="M1", region="goal_zone", pick_robot="R1",
                                place_robot="R1", grasp_pick=0.0)
    skel = TaskSkeleton(steps=({"R1": a},))
    outcome = ground(skel, (), scene, random.Random(0))
    assert isinstance(outcome, Partial)

    # geometric verification: which movables overlap the grounded volumes?
    vols = list(volumes_of(outcome.steps))
    for step in outcome.steps:
        for mv in step.moves.values():
            vols.append((scene.movables[mv.action.obj].shape, mv.placement))
    grounded_objs = {mv.action.obj for s in outcome.steps
                     for mv in s.moves.values()}
    expected = set()
    for name, m in scene.movables.items():
        if name in grounded_objs:
            continue
        if any(collides(v, (m.shape, m.pose)) for v in vols):
            expected.add(name)
    assert expected == {"M2"}
    assert outcome.conflicts == frozenset(expected)

    result = search_plan(scene, PlannerConfig(seed=0, max_iterations=20))
    assert isinstance(result, Plan)
    assert validate_plan(scene, result).ok


# 7. collaboration shortens plans --------------------------------------------


def test_handover_scene_needs_two_robots():
    scene = load_scene(scenario("handover_required"))
    result = search_plan(scene, PlannerConfig(seed=0))
    assert isinstance(result, Plan)
    assert any(mv.action.is_handover for step in result.steps
               for mv in step.moves.values())

    solo = load_scene(scenario("handover_required_1robot"))
    assert isinstance(search_plan(solo, PlannerConfig(seed=0)), NoPlan)


def test_two_robots_give_shorter_mean_makespan():
    duo = load_scene(scenario("parallel_goals"))
    solo = load_scene(scenario("parallel_goals_1robot"))
    spans = {"duo": [], "solo": []}
    for seed in range(20):
        for key, scene in (("duo", duo), ("solo", solo)):
            result = search_plan(scene, PlannerConfig(seed=seed))
            assert isinstance(result, Plan), (key, seed)
            assert validate_plan(scene, result).ok
            spans[key].append(result.makespan)
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(spans["duo"]) < mean(spans["solo"])


# 8. byte-identical reruns ----------------------------------------------------


def test_identical_seeds_give_identical_plans_and_traces(tmp_path):
    from mrplan.cli import main
    for name in SUITE:
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}.json"
            trc = tmp_path / f"{name}_{tag}.trace"
            code = main(["plan", str(SCENARIOS / f"{name}.json"), "--seed", "7",
                         "--out", str(out), "--trace", str(trc)])
            assert code in (0, 2), (name, code)
            paths.append((out, trc, code))
        (out1, trc1, c1), (out2, trc2, c2) = paths
        assert c1 == c2
        assert trc1.read_bytes() == trc2.read_bytes(), name
        if c1 == 0:
            assert out1.read_bytes() == out2.read_bytes(), name


# 9. time envelope -------------------------------------------------------------


def test_every_scenario_finishes_within_60_seconds():
    for path in sorted(SCENARIOS.glob("*.json")):
        scene = load_scene(path)
        t0 = time.perf_counter()
        result = search_plan(scene, PlannerConfig(seed=0))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, (path.stem, elapsed)
        assert isinstance(result, (Plan, NoPlan))
