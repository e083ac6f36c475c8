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
     "test_enumeration_returns_k_max_skeletons_when_the_graph_has_more"),
    ("schedule_pick_same_step", "src/mrplan/closure.py",
     "if hi[y] < s + strict:", "if hi[y] < s:",
     "equivalent, so it survives: the successor test in can_fix fails only "
     "when a is fixed at the last step T before a pick-blocked successor y "
     "that is still open; y's predecessor test then refuses step T and no "
     "step follows T, so the mutant's branch dies one level deeper and only "
     "walks more nodes. Through test_mip_reference.assert_solvers_agree at "
     "T_max 5, the mutant agreed with tests/reference_bnb.py on 37 323 solves "
     "over 6 000 seeded oracle_mip.random_cmtg graphs of up to 7 objects"),
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
