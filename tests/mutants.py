"""Mutants the test suite must kill, and the equivalent ones it keeps alive
on purpose.

Each row of ``MUTANTS`` names a small edit of the package: a file, an
exact text that occurs in it once, the text that replaces it, and why the
row is here. For each row the tool copies the repository to a temporary
directory, applies the edit there and runs the tier-1 suite on the copy
with ``-x``, without ``tests/test_plan_digests.py`` and without
``tests/test_mutant_rows.py``, which checks the rows. It prints ``killed``
with the first failing test, ``broken`` with it when that test failed, or
could not be collected, on a ``NameError``, ``ImportError`` or
``SyntaxError`` (the edit broke the code, so no test judged it), or
``survived``. It writes nothing inside the repository. Run every row, or
the rows named, from the repository root:

    python tests/mutants.py [name ...]

The file is not a test module, so pytest does not collect it.
"""
import builtins
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# name, file, old text, new text, why
MUTANTS = [
    ("handover_trim", "src/mrplan/motion.py",
     "cor.trimmed(h, radius + cor.half_width)",
     "cor.trimmed(h, radius + 2 * cor.half_width)",
     "trimming partners' corridors one half width too far hides an overlap "
     "just past the handover neighbourhood; killed by "
     "test_a_carry_meeting_the_receivers_reach_at_a_shallow_angle_is_condition_iii"),
    ("handover_radius_min", "src/mrplan/motion.py",
     "radius = max(", "radius = min(",
     "a handover neighbourhood as wide as the narrower gripper reports an "
     "overlap that lies inside the wider gripper's; killed by "
     "test_the_handover_neighbourhood_is_as_wide_as_the_wider_gripper"),
    ("points_close_1mm", "src/mrplan/motion.py",
     "<= 1e-6", "<= 1e-3",
     "a point tolerance of 1 mm lets a leg start half a millimetre from where "
     "its role says; killed by "
     "test_validate_exit_3_on_a_carry_away_from_the_object[half_a_millimetre]"),
    ("transfer_width_radius", "src/mrplan/scene.py",
     "gripper_width + 2.0 * self.movables[obj].shape.circumradius",
     "gripper_width + self.movables[obj].shape.circumradius",
     "a carry narrower than gripper plus diameter no longer covers the object "
     "it places, the premise on which grounding and the place facts test the "
     "carry alone; killed first by test_plan_exits_4_when_an_internal_check_fails"
     "[narrow_carry], which pins the width in its message, and also by "
     "test_a_carry_covers_the_object_it_places"),
    ("in_reach_5cm", "src/mrplan/scene.py",
     "return self.reach_min <= d <= self.reach_max",
     "return self.reach_min <= d <= self.reach_max + 0.05",
     "a reach 5 cm too long lets grounding place an object, and the validator "
     "pass a carry, just past the place robot's reach; killed by "
     "test_find_placements_returns_no_pose_past_reach_max and "
     "test_a_leg_that_ends_out_of_reach_names_its_robot[placement_2cm_past]"),
    ("place_footprint", "src/mrplan/facts.py",
     "occ = scene.movables_hit([cor], exclude=(obj,))",
     "from .geometry import Pose; "
     "occ = scene.movables_hit([cor, (scene.movables[obj].shape, Pose(*xy))],"
     " exclude=(obj,))",
     "equivalent, so it survives: the carry's end cap covers the placed "
     "footprint (test_a_carry_covers_the_object_it_places), so testing the "
     "footprint too changes no goal-place occluder; that is why the term is "
     "gone from facts._places and from grounding"),
    ("bases_crossed_self", "src/mrplan/motion.py",
     "if other != robot and", "if other == robot and",
     "every sweep starts at its own robot's base, so counting that base, and "
     "no other, marks every sweep as crossing a base and hides the real "
     "crossings; killed by test_task_graph_structure_pick_chain"),
    ("partners_untrimmed", "src/mrplan/motion.py",
     "handover = moves[r1].action == moves[r2].action", "handover = False",
     "handover partners whose corridors are not trimmed around the handover "
     "point overlap there, so every grounded handover reads as a collision; "
     "killed by test_all_returned_plans_validate_across_suite_and_seeds"),
    ("grasp_point_mirrored", "src/mrplan/scene.py",
     "pose.y + r * math.sin(angle))", "pose.y - r * math.sin(angle))",
     "a grasp point mirrored in y approaches from the wrong side, so a grasp "
     "that the class's first blocks is not the one the next falls back to; "
     "killed by test_grounding_falls_back_to_the_next_grasp_of_the_class"),
    ("handover_point_shifted", "src/mrplan/scene.py",
     "return self._handover_points[r1, r2]",
     "x, y = self._handover_points[r1, r2]\n        return (x + 0.01, y)",
     "a handover point 1 cm off the listed one moves every handover leg; "
     "killed by test_handover_key_that_is_not_two_names_rejected"),
    ("tangent_discs_collide", "src/mrplan/geometry.py",
     "< r + s2.radius - EPS:", "< r + s2.radius + EPS:",
     "discs that touch at one point overlap with no area, so they must not "
     "collide; killed by test_boundary_touch_is_not_a_collision"),
    ("boxes_apart_strict", "src/mrplan/geometry.py",
     "min(cx, dx) - max(ax, bx) >= gap or min(ax, bx) - max(cx, dx) >= gap",
     "min(cx, dx) - max(ax, bx) > gap or min(ax, bx) - max(cx, dx) > gap",
     "equivalent, so it survives: at a box gap equal to the reach, the exact "
     "segment distance is at least the gap, so the exact test's "
     "``< reach - EPS`` is false either way"),
    ("schedule_level_ends_empty", "src/mrplan/closure.py",
     "if j == len(open_):\n",
     "if j == len(open_):\n"
     "                if count[t - 1] == 0:\n"
     "                    raise AssertionError\n",
     "equivalent, so it survives: no schedule level ends with its step empty, "
     "because deferring the last open action needs count[t - 1] or a later "
     "open action, and fixing it at step t - 1 fills that step; that is why "
     "the check is gone from closure.Search.schedule"),
    ("skeleton_moved_first_step", "src/mrplan/mip.py",
     "frozenset(a.obj for step in steps for a in step.values())",
     "frozenset(a.obj for step in steps[:1] for a in step.values())",
     "a moved set read off the first step alone undercounts every skeleton "
     "of more than one step, so the search's prior and grounding's protected "
     "objects go wrong; killed by test_selection_and_reward_formulas_exact"),
    ("build_moves_picks_at_placement", "src/mrplan/motion.py",
     "obj_pose = scene.movables[obj].pose\n"
     "    gp = scene.grasp_point(obj, action.grasp_pick)\n",
     "obj_pose = placement\n"
     "    gp = scene.grasp_point(obj, action.grasp_pick, pose=placement)\n",
     "an object moves at most once, so a move that picks it at its placement "
     "and not at its start pose runs every pick and carry from the wrong "
     "place, which the validator refuses; killed first in the collection of "
     "tests/test_schemas.py, which plans the documents it checks, and also by "
     "test_all_returned_plans_validate_across_suite_and_seeds"),
    ("kmax_off_by_one", "src/mrplan/mip.py",
     "if len(skeletons) >= K_max:", "if len(skeletons) > K_max:",
     "an enumeration that stops one skeleton late returns K_max + 1 skeletons "
     "from a graph that has more; killed by "
     "test_enumeration_returns_k_max_skeletons_when_the_graph_has_more and, "
     "through plan, by test_k_max_bounds_the_skeletons_of_the_root"),
    ("conflict_goal_term_dropped", "src/mrplan/grounding.py",
     "(set(scene.unmet_goals()) - m_fut) | set(", "set(",
     "a conflict rule without its goal term returns Full for a skeleton that "
     "leaves a goal unmet, which the validator refuses; killed by "
     "test_a_full_grounding_that_leaves_a_goal_unmet_is_partial"),
    ("conflict_hit_term_dropped", "src/mrplan/grounding.py",
     "scene.movables_hit(v_fut, exclude=m_fut)", "()",
     "a conflict rule without its hit term returns Full for a carry that runs "
     "over an object still at its start pose; killed by "
     "test_partial_outcome_reports_exact_conflict_set and "
     "test_a_future_that_hits_an_object_no_one_moves_makes_the_grounding_partial"),
    ("conflict_rule_skips_the_last_step", "src/mrplan/grounding.py",
     "if relaxed or t == 1:", "if relaxed:",
     "the Full exit without the conflict rule is right only when the caller "
     "enumerated the skeleton for every conflict of the future; killed by "
     "test_a_full_grounding_that_leaves_a_goal_unmet_is_partial and "
     "test_a_goal_the_root_graph_leaves_out_is_planned_as_a_grounding_conflict"),
    ("conflict_rule_skips_relaxed_steps", "src/mrplan/grounding.py",
     "if relaxed or t == 1:", "if t == 1:",
     "a relaxed step whose conflicts do not end the grounding grounds the "
     "earlier steps in front of a suffix that needs other objects moved first; "
     "killed by "
     "test_a_relaxed_step_with_conflicts_ends_the_grounding_before_the_earlier_steps"),
    ("strict_protects_only_later_moves", "src/mrplan/grounding.py",
     "unmoved = set(scene.movables) - (skeleton.moved_objects - m_fut)",
     "unmoved = set(m_fut)",
     "a strict pass that protects only the objects moved later is the relaxed "
     "pass, so a step runs over an object it could have avoided; killed by "
     "test_the_strict_pass_keeps_a_step_clear_of_the_objects_at_their_start_poses"),
    ("strict_forgets_the_skeletons_later_objects", "src/mrplan/grounding.py",
     "unmoved = set(scene.movables) - (skeleton.moved_objects - m_fut)",
     "unmoved = set(scene.movables) - skeleton.moved_objects",
     "an object the skeleton moves at a later step is still at its start pose "
     "when an earlier step runs; unprotected, an earlier carry runs over it "
     "and the validator refuses the plan; killed by "
     "test_all_returned_plans_validate_across_suite_and_seeds"),
    ("step_restarts_1", "src/mrplan/grounding.py",
     "STEP_RESTARTS = 10", "STEP_RESTARTS = 1",
     "one placement sample per pass leaves a shipped scene with no plan at "
     "some seed; killed by test_all_returned_plans_validate_across_suite_and_seeds"),
    ("placement_attempts_10", "src/mrplan/grounding.py",
     "PLACEMENT_ATTEMPTS = 100", "PLACEMENT_ATTEMPTS = 10",
     "ten draws per object often find no pose where one fits; killed by "
     "test_find_placements_joint_consistency_pigeonhole"),
    ("ucb_prior_flat", "src/mrplan/search.py",
     "prior = 1 / len(node.skeleton.moved_objects)", "prior = 1.0",
     "the prior favours skeletons that move fewer objects; killed by "
     "test_ucb_formula_values and test_selection_and_reward_formulas_exact"),
    ("ucb_tie_break_newest", "src/mrplan/search.py",
     "-n.id", "n.id",
     "among children of equal UCB the search takes the one enumerated first, "
     "the cheapest skeleton; taking the last lengthens the plans of a "
     "two-robot scene; killed by test_two_robots_give_shorter_mean_makespan"),
    ("rng_one_stream_per_seed", "src/mrplan/search.py",
     'random.Random(f"{cfg.seed}:{node.id}")', "random.Random(cfg.seed)",
     "every node drawing the seed's one stream grounds differently from a "
     "node grounded alone; killed by "
     "test_each_node_grounds_from_its_own_stream_of_the_seed"),
    ("reward_partial_length_swapped", "src/mrplan/search.py",
     "grounded_len / (grounded_len + best.makespan)",
     "best.makespan / (grounded_len + best.makespan)",
     "a partial reward that grows with the repair's makespan, not the grounded "
     "length, agrees with the right one only when the two are equal; killed "
     "by test_reward_values and test_selection_and_reward_formulas_exact"),
    ("backpropagate_keeps_leaves_open", "src/mrplan/search.py",
     "if all(child.exhausted for child in node.children):",
     "if node.children and all(child.exhausted for child in node.children):",
     "a grounding that adds no child must exhaust its node at once, or the "
     "search grounds it again; killed by "
     "test_backpropagate_updates_path_statistics"),
    ("excluded_place_blocker_kept", "src/mrplan/taskgraph.py",
     "if blockers & excluded:", "if pick & excluded:",
     "an already-moved object that blocks an action's placement can never be "
     "cleared again, so that action must go too; killed by "
     "test_excluded_blocker_drops_dependent_actions[place_blocker]"),
    ("excluded_pick_blocker_kept", "src/mrplan/taskgraph.py",
     "if blockers & excluded:", "if place & excluded:",
     "an already-moved object that blocks an action's pick can never be "
     "cleared again, so that action must go too; killed by "
     "test_excluded_blocker_drops_dependent_actions[pick_blocker]"),
    ("reach_pick_depth_not_strict", "src/mrplan/closure.py",
     "d = depth[p] + 1", "d = depth[p]",
     "a pick blocker moves strictly earlier; a depth bound that lets it share "
     "the step is still sound but prunes less, so the solver's infeasibility "
     "proof for a heavy clutter graph runs past its node budget; killed by "
     "test_heavy_clutter_infeasibility_proof_is_fast"),
    ("sweep_width_nan_blind", "src/mrplan/validator.py",
     "if not cor.width >= min_width - EPS:", "if cor.width < min_width - EPS:",
     "a NaN width is not less than the sweep's, so a code-built corridor of "
     "NaN width, which fails every collision test, passes the validator; "
     "killed by "
     "test_a_nan_corridor_width_is_structural_though_the_corridor_would_hit_nothing"),
    ("grasp_pick_finite_unchecked", "src/mrplan/validator.py",
     "if not math.isfinite(a.grasp_pick):", "if not math.isfinite(0.0):",
     "an infinite grasp angle escapes as a bare ValueError from the grasp "
     "point's cosine, and a NaN one is reported as a leg fault; killed by "
     "test_a_grasp_angle_that_is_not_finite_is_structural"),
    ("moves_hold_the_grasp_class", "src/mrplan/grounding.py",
     "moves = build_moves(scene, action.replace(grasps=(g,)), placements[action.obj])",
     "moves = build_moves(scene, action, placements[action.obj])",
     "a move built from the task graph's class action carries every grasp of "
     "the class, though it ran only the first, and the validator's one-grasp "
     "check turns the plan into a SearchError; killed first by "
     "test_a_pair_the_scene_lists_no_point_for_never_hands_over, and by "
     "test_a_plan_move_holds_only_the_grasp_it_ran"),
    ("one_grasp_unchecked", "src/mrplan/validator.py",
     "if len(a.grasps) != 1:", "if False:",
     "a code-built move whose action holds two grasps passes the validator, "
     "and one that holds none escapes as a bare IndexError; killed by "
     "test_a_move_whose_action_holds_other_than_one_grasp_is_structural"),
    ("grasp_limit_read_as_limit", "src/mrplan/scene.py",
     "if self.grasp_count > GRASP_LIMIT:", "if self.grasp_count > LIMIT:",
     "a scene built in code would take grasp counts up to 10000 that a "
     "document's schema refuses; killed by "
     "test_an_api_value_a_document_would_refuse_is_refused_by_the_scene"
     "[grasp_count_3601]"),
    ("config_integers_unchecked", "src/mrplan/search.py",
     "if not all(isinstance(n, int) for n in (t_max, k_max, max_iterations, node_budget)):",
     "if False:",
     "a fractional or infinite limit passes the range checks and fails later "
     "in range() with a bare TypeError; killed by "
     "test_config_rejects_out_of_range_limits"),
]

# the row check would fail on every mutated copy, whose old text is gone
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_plan_digests.py",
         "--ignore=tests/test_mutant_rows.py"]


def run(name: str, path: str, old: str, new: str) -> str:
    """``killed (<first failing test>)`` or ``survived``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = copy / path
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {path}")
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    where = failed.group(1) if failed else f"exit {proc.returncode}"
    # -x stops at the first failure; its last exception line names what it raised
    raised = re.findall(r"^E\s+(\w+): ", proc.stdout, re.MULTILINE)
    error = getattr(builtins, raised[-1], None) if raised else None
    if isinstance(error, type) and issubclass(error, (NameError, ImportError, SyntaxError)):
        return f"broken ({where}: {raised[-1]})"
    return f"killed ({where})"


def main(names) -> int:
    unknown = set(names) - {row[0] for row in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    for name, path, old, new, _why in MUTANTS:
        if not names or name in names:
            print(f"{name}: {run(name, path, old, new)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
