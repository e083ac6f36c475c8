"""Command-line interface: subcommands, exit codes, artifact files."""
import copy
import json
import math
import re
import xml.etree.ElementTree as ET

import pytest

from mrplan import cli, search, taskgraph
from mrplan.cli import main
from mrplan.facts import compute_facts
from mrplan.mip import compile_model, solve
from mrplan.scene import load_scene
from mrplan.validator import ValidationReport

from conftest import SCENARIOS, scenario
from test_search import PLANNER_FAULTS


def run(argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as e:
        return e.code


def test_plan_writes_valid_plan_and_artifacts(tmp_path):
    out = tmp_path / "plan.json"
    facts = tmp_path / "facts.json"
    cmtg = tmp_path / "graph.txt"
    mip = tmp_path / "model.lp"
    trace = tmp_path / "trace.txt"
    code = run(["plan", scenario("pick_chain"), "--seed", 0, "--out", out,
                "--dump-facts", facts, "--dump-cmtg", cmtg,
                "--dump-mip", mip, "--trace", trace])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["makespan"] == len(doc["steps"])
    assert isinstance(json.loads(facts.read_text()), list)
    assert cmtg.read_text().startswith("targets M1")
    lp = mip.read_text()
    assert lp.startswith("Minimize") and lp.endswith("End\n")
    assert trace.read_text().startswith("iter=1 ")

    assert run(["validate", scenario("pick_chain"), out]) == 0


def test_the_dumped_model_is_one_the_search_solves(tmp_path):
    # the longest horizon that can hold a skeleton: every root graph with an
    # action has a feasible assignment there, and an empty one is dumped at 1
    with_actions = []
    for path in sorted(SCENARIOS.rglob("*.json")):
        lp = tmp_path / "model.lp"
        assert run(["plan", path, "--dump-mip", lp, "--max-iters", 1]) in (0, 2)
        steps = {int(t) for t in re.findall(r"\bXa_t(\d+)_", lp.read_text())}
        scene = load_scene(path)
        graph = taskgraph.build_cmtg(scene.unmet_goals(), compute_facts(scene), scene)
        if not graph.action_nodes:
            assert steps == set()
            continue
        with_actions.append(path.stem)
        T = max(steps)
        assert steps == set(range(1, T + 1)), path.stem
        assert solve(compile_model(graph, T)) != "infeasible", path.stem
    assert len(with_actions) == 9


def test_dumps_of_an_empty_task_graph_end_no_line_in_whitespace(tmp_path):
    cmtg, lp = tmp_path / "graph.txt", tmp_path / "model.lp"
    assert run(["plan", scenario("satisfied_at_start"), "--dump-cmtg", cmtg,
                "--dump-mip", lp]) == 0
    assert cmtg.read_text() == "targets\n"
    for text in (cmtg.read_text(), lp.read_text()):
        assert all(line == line.rstrip() for line in text.splitlines()), text


def test_dumping_facts_computes_them_once_and_changes_no_output(tmp_path, monkeypatch):
    calls = []

    def counted(scene):
        calls.append(scene)
        return compute_facts(scene)

    monkeypatch.setattr(cli, "compute_facts", counted)
    monkeypatch.setattr(search, "compute_facts", counted)
    outputs = []
    for dump in (False, True):
        calls.clear()
        out, trace, facts = tmp_path / "plan.json", tmp_path / "trace.txt", tmp_path / "f"
        argv = ["plan", scenario("pick_chain"), "--out", out, "--trace", trace]
        assert run(argv + (["--dump-facts", facts] if dump else [])) == 0
        assert len(calls) == 1
        outputs.append((out.read_text(), trace.read_text()))
    assert outputs[0] == outputs[1]
    assert facts.read_text() == compute_facts(load_scene(scenario("pick_chain"))).dumps()


@pytest.mark.parametrize("shift", [0.05, 5e-4], ids=["5_cm", "half_a_millimetre"])
def test_validate_exit_3_on_a_carry_away_from_the_object(tmp_path, capsys, shift):
    # the corridor's end follows the waypoint, so the carry is still the
    # sweep of its waypoints; only where it starts is wrong
    def edit(moves):
        traj = moves[0]["place_traj"]
        traj["waypoints"][0]["y"] += shift
        traj["corridors"][0]["a"][1] += shift
    out = planned_then_edited(tmp_path, "unobstructed", edit)
    assert run(["validate", scenario("unobstructed"), out]) == 3
    report = json.loads(capsys.readouterr().out)
    assert [(v["code"], v["message"]) for v in report["violations"]] == [
        ("condition_ii", "carry of M1 by R1 does not start at its current pose")]


def test_plan_stdout_when_no_out_given(tmp_path, capsys):
    assert run(["plan", scenario("unobstructed"), "--seed", 1]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["motion_cost"] == 1


def test_plan_exit_2_with_no_plan_report(tmp_path, capsys):
    assert run(["plan", scenario("unsat_fixed_blocked")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["no_plan"] == "no_initial_skeletons"


def test_plan_exit_2_when_the_solver_budget_runs_out(capsys):
    assert run(["plan", scenario("pick_chain"), "--node-budget", 1]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["no_plan"] == "solver_budget"


def test_plan_exits_4_when_a_grounded_plan_fails_validation(monkeypatch, capsys):
    def failing(scene, plan):
        report = ValidationReport()
        report.add("condition_i", 1, "corridor of R1 hits object M2")
        return report

    monkeypatch.setattr(search, "validate_plan", failing)
    assert run(["plan", scenario("pick_chain")]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: grounded plan failed validation: ")
    assert "corridor of R1 hits object M2" in out.err


@pytest.mark.parametrize("fault", sorted(PLANNER_FAULTS))
def test_plan_exits_4_when_an_internal_check_fails(fault, tmp_path, monkeypatch, capsys):
    install, message = PLANNER_FAULTS[fault]
    install(monkeypatch)
    out = tmp_path / "plan.json"
    assert run(["plan", scenario("unobstructed"), "--out", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: internal check failed: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("dump", ["--dump-cmtg", "--dump-mip"])
def test_plan_exits_4_when_a_dump_fails_an_internal_check(dump, tmp_path, monkeypatch,
                                                          capsys):
    # the dumps build the goal task graph before the search does
    def build_cmtg(targets, facts, scene):
        return taskgraph.build_cmtg(targets, facts, scene, excluded=targets)
    monkeypatch.setattr(cli, "build_cmtg", build_cmtg)
    out = tmp_path / "plan.json"
    assert run(["plan", scenario("pick_chain"), dump, tmp_path / "dump.txt",
                "--out", out]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal check failed: targets and excluded objects overlap\n"
    assert not out.exists()


def test_missing_or_invalid_scene_exits_1(tmp_path, capsys):
    assert run(["plan", tmp_path / "nope.json"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run(["plan", bad]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_exit_3_on_violations(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert run(["plan", scenario("unobstructed"), "--out", out]) == 0
    # the same plan replayed on a scene where M1 starts elsewhere is invalid
    assert run(["validate", scenario("conflict_partial"), out]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["violations"]


def planned_then_edited(tmp_path, name, edit):
    out = tmp_path / "plan.json"
    assert run(["plan", scenario(name), "--out", out]) == 0
    doc = json.loads(out.read_text())
    edit([rec for step in doc["steps"] for rec in step if rec["type"] != "wait"])
    out.write_text(json.dumps(doc))
    return out


def test_validate_exits_1_on_a_handover_carry_without_corridors(tmp_path, capsys):
    def edit(moves):
        next(m for m in moves if m["role"] == "pick")["place_traj"]["corridors"] = []
    out = planned_then_edited(tmp_path, "pick_chain", edit)
    assert run(["validate", scenario("pick_chain"), out]) == 1
    assert "place_traj/corridors: [] is too short" in capsys.readouterr().err


def test_validate_exits_1_on_a_move_without_transfer_corridors(tmp_path, capsys):
    def edit(moves):
        moves[0]["place_traj"]["corridors"] = []
    out = planned_then_edited(tmp_path, "unobstructed", edit)
    assert run(["validate", scenario("unobstructed"), out]) == 1
    assert "place_traj/corridors: [] is too short" in capsys.readouterr().err


def test_validate_exits_1_on_a_handover_pick_side_placement_elsewhere(tmp_path, capsys):
    def edit(moves):
        pick = next(m for m in moves if m["role"] == "pick")
        pick["placement"].update(x=0.5, y=-0.3)
    out = planned_then_edited(tmp_path, "handover_required", edit)
    assert run(["validate", scenario("handover_required"), out]) == 1
    assert "disagree on its placement" in capsys.readouterr().err


def test_validate_exits_1_on_roles_that_do_not_match_their_actions(tmp_path, capsys):
    def edit(moves):
        for m in moves:
            m["role"] = "single"
    out = planned_then_edited(tmp_path, "handover_required", edit)
    assert run(["validate", scenario("handover_required"), out]) == 1
    assert "has role 'single'" in capsys.readouterr().err


def detour(moves):
    # (3, 3) is 4.2 m from R1's base, far beyond its reach; corridors join
    # every waypoint, but a trajectory is one straight leg
    traj = moves[0]["place_traj"]
    (a, b), (cor,) = traj["waypoints"], traj["corridors"]
    traj["waypoints"] = [a, {"x": 3.0, "y": 3.0, "theta": 0.0}, b]
    traj["corridors"] = [dict(cor, b=[3.0, 3.0]), dict(cor, a=[3.0, 3.0])]


@pytest.mark.parametrize("edit, message", [
    (detour, "schema error at steps/0/0/place_traj/waypoints: "),
    (lambda moves: moves[0]["place_traj"]["corridors"].append(
        dict(moves[0]["place_traj"]["corridors"][0])),
     "schema error at steps/0/0/place_traj/corridors: "),
    # an action holds its object by one grasp from pick to place
    (lambda moves: moves[0].update(grasp_place=moves[0]["grasp_pick"] + 2.0),
     "error: step 1: R1 has grasp_place "),
], ids=["detour", "two_corridors", "grasp_place"])
def test_validate_exits_1_on_a_move_that_is_not_one_leg_per_trajectory_and_one_grasp(
        tmp_path, capsys, edit, message):
    out = planned_then_edited(tmp_path, "unobstructed", edit)
    assert run(["validate", scenario("unobstructed"), out]) == 1
    assert message in capsys.readouterr().err


def test_validate_exits_1_on_a_robot_listed_twice_in_a_step(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert run(["plan", scenario("pick_chain"), "--out", out]) == 0
    doc = json.loads(out.read_text())
    extra = copy.deepcopy(next(r for r in doc["steps"][0] if r["robot"] == "R1"))
    extra["placement"].update(x=99.0, y=99.0)
    extra["pick_traj"]["corridors"][0]["width"] = 0.001  # narrower than the gripper
    doc["steps"][0].insert(0, extra)
    out.write_text(json.dumps(doc))
    assert run(["validate", scenario("pick_chain"), out]) == 1
    assert "error: step 1: robot R1 has more than one record" in capsys.readouterr().err


@pytest.mark.parametrize("record", ["wait", "move"])
def test_a_plan_record_for_a_robot_the_scene_lacks_exits_1(tmp_path, capsys, record):
    out = tmp_path / "plan.json"
    assert run(["plan", scenario("unobstructed"), "--out", out]) == 0
    doc = json.loads(out.read_text())
    extra = {"robot": "R9", "type": "wait"}
    if record == "move":
        extra = {**copy.deepcopy(doc["steps"][0][0]), "robot": "R9"}
    doc["steps"][0].append(extra)
    out.write_text(json.dumps(doc))
    assert run(["validate", scenario("unobstructed"), out]) == 1
    assert run(["render", scenario("unobstructed"), out, "--svg", tmp_path / "p.svg"]) == 1
    assert capsys.readouterr().err == "error: step 1: unknown robot 'R9'\n" * 2
    assert not (tmp_path / "p.svg").exists()


def obstacle(x=0.0, theta=0.0, half_w=0.05):
    """A fixed rectangle clear of everything in ``pick_chain``."""
    return {"shape": {"type": "rectangle", "half_w": half_w, "half_h": 0.05},
            "pose": {"x": x, "y": 5.0, "theta": theta}}


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["regions"].append(dict(d["regions"][0])), "duplicate entity names"),
    (lambda d: d["robots"].append(dict(d["robots"][0], base=[5.0, 5.0])),
     "duplicate entity names"),
    (lambda d: d.update(handover_points={"R1|R9": [0.0, 0.0]}),
     "handover point key 'R1|R9' is not two comma-separated robot names"),
    (lambda d: d["goal"].append(["M1", "work"]), "goal lists objects more than once: ['M1']"),
    (lambda d: d.update(handover_points={"R1,R1": [0.0, 0.0]}),
     "handover point key 'R1,R1' pairs robot R1 with itself"),
    (lambda d: d.update(handover_points={"R1,R2": [0.8, 0.0], "R2,R1": [0.7, 0.1]}),
     "handover points list robots R2 and R1 twice"),
    (lambda d: d.update(handover_points={"R1,R2": [0.8, 0.0], "R1, R2": [0.7, 0.1]}),
     "handover points list robots R1 and R2 twice"),
    (lambda d: d["fixed"].append(obstacle(x=math.nan)), "scene parse error: NaN is not a finite"),
    (lambda d: d["fixed"].append(obstacle(theta=math.nan)), "scene parse error: NaN is not"),
    (lambda d: d["fixed"].append(obstacle(half_w=math.nan)), "scene parse error: NaN is not"),
    (lambda d: d["robots"][0].update(reach_max=math.inf),
     "scene parse error: Infinity is not a finite number"),
], ids=["region", "robot", "handover_key", "goal_object_twice", "handover_self",
        "handover_pair_twice", "handover_key_twice", "nan_x", "nan_theta", "nan_half_w",
        "inf_reach"])
def test_plan_exits_1_on_bad_scene_names_and_keys(tmp_path, capsys, edit, message):
    doc = json.loads(scenario("pick_chain").read_text())
    doc.setdefault("fixed", [])
    edit(doc)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    assert run(["plan", path]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def rewrite(src, dst, edit):
    """Write ``src``'s document to ``dst`` as ``edit`` leaves it, or the text
    that ``edit`` returns."""
    doc = json.loads(src.read_text())
    text = edit(doc)
    dst.write_text(json.dumps(doc) if text is None else text)


def relabel_handover_pick(doc):
    # R1's half of the handover becomes an R2 move that R1 holds
    rec = next(r for r in doc["steps"][0] if r["robot"] == "R1")
    rec.update(pick_robot="R2", place_robot="R2")


def repeat_a_handover_key(doc):
    # json alone would keep the last value; a reversed pair is refused already
    return json.dumps(doc).replace('"handover_points": {',
                                   '"handover_points": {"R1,R2": [9, 9], ', 1)


def repeat_a_robot_key(doc):
    return json.dumps(doc).replace('"robot": "R1"', '"robot": "R2", "robot": "R1"', 1)


def empty_reach_and_bad_handover_key(doc):
    # robots are checked before handover point keys
    doc["robots"][0].update(reach_min=1.0)
    doc["handover_points"] = {"R1|R9": [0.8, 0.0]}


# (scene, the document edited, the edit, the whole error line after "error: ")
REFUSALS = [
    ("pick_chain", "scene", lambda d: d["regions"][1].update(rect=[1.9, 0.5, 1.5, 0.9]),
     "region goal_zone: rectangle must have positive area"),
    ("pick_chain", "scene", lambda d: d["robots"][0].update(reach_min=1.0),
     "robot R1: need 0 <= reach_min < reach_max"),
    ("pick_chain", "scene", empty_reach_and_bad_handover_key,
     "robot R1: need 0 <= reach_min < reach_max"),
    ("pick_chain", "scene", lambda d: d["movables"][0].update(home_region="shelf"),
     "movable M1: unknown home_region 'shelf'"),
    ("pick_chain", "scene", lambda d: d.update(fixed=[
        {"shape": {"type": "disc", "radius": 0.02}, "pose": {"x": 0.5, "y": 0.5}}]),
     "movable M1 overlaps a fixed obstacle at load"),
    ("pick_chain", "scene", lambda d: d.update(goal=[["M1", "shelf"]]),
     "goal references unknown region 'shelf'"),
    ("pick_chain", "scene", lambda d: d.update(handover_points={"R1,R9": [0.8, 0.0]}),
     "handover point references unknown robots (R1, R9)"),
    ("pick_chain", "scene", repeat_a_handover_key, "scene parse error: duplicate key 'R1,R2'"),
    ("pick_chain", "scene", lambda d: "[" * 200_000 + "]" * 200_000,
     "scene parse error: arrays and objects nest too deeply"),
    # one grasp per 0.1 degree; a larger count would build a table that size
    ("unobstructed", "scene", lambda d: d.update(grasp_count=3601),
     "scene schema error at grasp_count: 3601 is greater than the maximum of 3600"),
    ("unobstructed", "plan", lambda d: json.dumps(d)[:-1],
     "plan parse error at line 1: Expecting ',' delimiter"),
    ("unobstructed", "plan", repeat_a_robot_key, "plan parse error: duplicate key 'robot'"),
    ("unobstructed", "plan", lambda d: '{"a":' * 3000 + "0" + "}" * 3000,
     "plan parse error: arrays and objects nest too deeply"),
    ("unobstructed", "plan", lambda d: d.update(makespan=2),
     "makespan field 2 != number of steps 1"),
    ("unobstructed", "plan", lambda d: d.update(motion_cost=2),
     "motion_cost field 2 != distinct moved objects 1"),
    ("unobstructed", "plan", lambda d: d["steps"][0][0].update(object="M9"),
     "step 1: unknown object 'M9'"),
    # only the pick robot is unknown; R1 holds the place side it claims
    ("unobstructed", "plan", lambda d: d["steps"][0][0].update(pick_robot="R9", role="place"),
     "step 1: unknown robot in action for M1"),
    ("handover_required", "plan", relabel_handover_pick,
     "step 1: robot R1 holds an action it is not part of"),
]


@pytest.mark.parametrize("name, kind, edit, message", REFUSALS, ids=[
    "region_inverted", "reach_empty", "reach_before_handover_key", "home_region", "on_fixed",
    "goal_region", "handover_robot", "handover_key_repeated", "scene_nested",
    "grasp_count_above_maximum", "plan_syntax", "robot_key_repeated", "plan_nested",
    "makespan", "motion_cost", "unknown_object", "pick_robot", "not_part"])
def test_an_input_refusal_exits_1_with_its_one_error_line(
        tmp_path, capsys, name, kind, edit, message):
    scene, plan = scenario(name), tmp_path / "plan.json"
    if kind == "scene":
        rewrite(scene, tmp_path / "scene.json", edit)
        argv = ["plan", tmp_path / "scene.json", "--out", plan]
    else:
        assert run(["plan", scene, "--out", plan]) == 0
        rewrite(plan, plan, edit)
        argv = ["validate", scene, plan]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert kind == "plan" or not plan.exists()


def test_validate_exits_1_on_a_handover_between_robots_with_no_listed_point(
        tmp_path, capsys):
    # a pair hands over only at the point its scene lists, never at a default
    plan, scene = tmp_path / "plan.json", tmp_path / "scene.json"
    assert run(["plan", scenario("handover_required"), "--out", plan]) == 0
    def drop_handover_points(doc):
        del doc["handover_points"]
    rewrite(scenario("handover_required"), scene, drop_handover_points)
    capsys.readouterr()
    assert run(["validate", scene, plan]) == 1
    assert capsys.readouterr() == ("", "error: step 1: robots R1 and R2 have no handover point\n")


def test_validate_exits_1_on_non_finite_corridor_widths(tmp_path, capsys):
    # a NaN-wide corridor collides with nothing, so it would clear any obstacle
    def edit(moves):
        for m in moves:
            for traj in (m["pick_traj"], m["place_traj"]):
                for cor in traj["corridors"]:
                    cor["width"] = math.nan
    out = planned_then_edited(tmp_path, "pick_chain", edit)
    assert run(["validate", scenario("pick_chain"), out]) == 1
    assert "error: plan parse error: NaN is not a finite number" in capsys.readouterr().err


def test_plan_exits_1_on_a_scene_without_goal(tmp_path, capsys):
    doc = json.loads(scenario("unobstructed").read_text())
    del doc["goal"]
    path = tmp_path / "no_goal.json"
    path.write_text(json.dumps(doc))
    assert run(["plan", path]) == 1
    assert "error: scene has an empty goal" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--t-max", 0, "--dump-mip", "model.lp"],
                                   ["--k-max", 0], ["--max-iters", -1], ["--node-budget", 0],
                                   ["--time-budget", -1], ["--time-budget", "nan"],
                                   ["--c", "inf"], ["--alpha", "inf"]])
def test_plan_exits_1_on_out_of_range_limits(tmp_path, capsys, flags):
    flags = [tmp_path / f if str(f).endswith(".lp") else f for f in flags]
    assert run(["plan", scenario("unobstructed"), *flags]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "model.lp").exists()


@pytest.mark.parametrize("flag", ["--out", "--trace", "--dump-facts", "--dump-cmtg",
                                  "--dump-mip"])
def test_plan_exits_1_on_an_unwritable_output(tmp_path, capsys, flag):
    # pick_chain plans, so every output, the plan included, is written
    target = tmp_path / "missing" / "file"
    assert run(["plan", scenario("pick_chain"), flag, target]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


def test_plan_without_flags_uses_the_planner_defaults():
    args = cli.build_parser().parse_args(["plan", "scene.json"])
    assert cli._config_from_args(args) == search.PlannerConfig()


@pytest.mark.parametrize("argv, role", [
    (["plan", "{bad}"], "scene"),
    (["validate", "{bad}", "{plan}"], "scene"),
    (["validate", "{scene}", "{bad}"], "plan"),
    (["render", "{bad}", "--svg", "{svg}"], "scene"),
    (["render", "{scene}", "{bad}", "--svg", "{svg}"], "plan"),
], ids=["plan_scene", "validate_scene", "validate_plan", "render_scene", "render_plan"])
def test_a_file_that_is_not_utf8_exits_1(tmp_path, capsys, argv, role):
    scene = scenario("unobstructed")
    plan = tmp_path / "plan.json"
    assert run(["plan", scene, "--out", plan]) == 0
    # the same document saved as UTF-16 with a byte-order mark
    good = scene if role == "scene" else plan
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + good.read_text().encode("utf-16-le"))
    paths = {"bad": bad, "plan": plan, "scene": scene, "svg": tmp_path / "out.svg"}
    assert run([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {role} parse error: {bad} is not UTF-8: ")
    assert not (tmp_path / "out.svg").exists()


def test_validate_malformed_plan_exits_1(tmp_path):
    bad = tmp_path / "plan.json"
    bad.write_text("{\"steps\": 3}")
    assert run(["validate", scenario("unobstructed"), bad]) == 1


def test_render_scene_and_plan(tmp_path):
    svg = tmp_path / "scene.svg"
    assert run(["render", scenario("pick_chain"), "--svg", svg]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert 'class="region"' in text

    out = tmp_path / "plan.json"
    assert run(["plan", scenario("pick_chain"), "--out", out]) == 0
    svg2 = tmp_path / "with_plan.svg"
    assert run(["render", scenario("pick_chain"), out, "--svg", svg2]) == 0
    with_plan = svg2.read_text()
    assert with_plan.count('class="step"') == json.loads(out.read_text())["makespan"]
    # rendering is deterministic
    svg3 = tmp_path / "again.svg"
    assert run(["render", scenario("pick_chain"), out, "--svg", svg3]) == 0
    assert svg3.read_text() == with_plan


def test_render_escapes_names(tmp_path):
    names = ["R&D <1>", "M<1> & 'co'", 'arm "A" > 2']
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "regions": [{"name": names[0], "rect": [-1.0, -1.0, 1.0, 1.0]}],
        "movables": [{"name": names[1], "shape": {"type": "disc", "radius": 0.05},
                      "pose": {"x": 0.5, "y": 0.0}, "home_region": names[0]}],
        "robots": [{"name": names[2], "base": [0.0, 0.0], "reach_min": 0.1,
                    "reach_max": 1.0, "gripper_width": 0.1}],
    }))
    svg = tmp_path / "scene.svg"
    assert run(["render", scene, "--svg", svg]) == 0
    labels = [el.text for el in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert sorted(labels) == sorted(names)


def test_render_scene_with_nothing_to_bound(tmp_path):
    scene = tmp_path / "empty.json"
    scene.write_text(json.dumps({"regions": [], "movables": [], "robots": []}))
    svg = tmp_path / "empty.svg"
    assert run(["render", scene, "--svg", svg]) == 0
    root = ET.parse(svg).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg" and len(root) == 0
    assert float(root.get("width")) > 0 and float(root.get("height")) > 0


def test_plan_determinism_across_processes_of_the_cli(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["plan", scenario("parallel_goals"), "--seed", 5, "--out", a]) == 0
    assert run(["plan", scenario("parallel_goals"), "--seed", 5, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_subcommand_exits_2():
    assert run(["frobnicate"]) == 2  # argparse usage error
