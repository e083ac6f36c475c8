"""Seeded clutter scenes for the benchmark.

Every scene uses the robot layout of ``scenarios/pick_chain.json``: two
robots with bases 1.6 m apart, reach annulus [0.1, 1.0] m and a handover
point between them. Movables are discs in the ``work`` strip; goals send
some of them to a goal region that only R2 reaches. Each disc lies inside
the reach annulus of at least one robot for every grasp angle, so a scene
cannot fail only because an object is out of reach.

Two families:

* ``generate``: discs placed by rejection sampling anywhere in the strip.
  Occlusion structure varies from scene to scene.
* ``blocked_handover``: one goal disc that only R1 reaches, so delivery
  needs a handover, behind one blocker on R1's approach line, plus
  distractors in the strip's far half. Every scene has the same task-graph
  shape (the goal's grasp-pair handovers, all blocked, plus the blocker's
  relocations), so planning cost varies little between scenes.

The generator depends only on the standard library. It returns scene
documents (plain dicts in the scene-schema format); the planner never sees
the seed.
"""
from __future__ import annotations

import math
import random

ROBOTS = (
    {"name": "R1", "base": [0.0, 0.0], "reach_min": 0.1, "reach_max": 1.0,
     "gripper_width": 0.1},
    {"name": "R2", "base": [1.6, 0.0], "reach_min": 0.1, "reach_max": 1.0,
     "gripper_width": 0.1},
)
HANDOVER = {"R1,R2": [0.8, 0.0]}
WORK = (0.0, -0.4, 1.0, 0.8)
GOAL = (1.5, 0.5, 1.9, 0.9)           # the goal zone of pick_chain.json
RADIUS = (0.04, 0.05)                 # disc radius range, metres
GAP = 0.01                            # minimum clearance between discs


def _in_reach_of_some_robot(x: float, y: float, r: float) -> bool:
    for robot in ROBOTS:
        bx, by = robot["base"]
        d = math.hypot(x - bx, y - by)
        if robot["reach_min"] + r <= d <= robot["reach_max"] - r:
            return True
    return False


def _radius(rng: random.Random) -> float:
    return round(rng.uniform(*RADIUS), 4)


def _place_discs(rng: random.Random, n: int, rect,
                 max_tries: int = 20000) -> list[tuple[float, float, float]]:
    """``n`` non-overlapping discs inside ``rect``, each within some reach."""
    xmin, ymin, xmax, ymax = rect
    discs: list[tuple[float, float, float]] = []
    tries = 0
    while len(discs) < n:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(f"could not place {n} discs in {rect}")
        r = _radius(rng)
        x = round(rng.uniform(xmin + r, xmax - r), 4)
        y = round(rng.uniform(ymin + r, ymax - r), 4)
        if not _in_reach_of_some_robot(x, y, r):
            continue
        if any(math.hypot(x - ox, y - oy) < r + orad + GAP for ox, oy, orad in discs):
            continue
        discs.append((x, y, r))
    return discs


def _scene(discs, goal_indices, grasp_count: int, goal_rect=GOAL) -> dict:
    return {
        "regions": [
            {"name": "work", "rect": list(WORK)},
            {"name": "goal_zone", "rect": list(goal_rect)},
        ],
        "movables": [
            {"name": f"M{i + 1}", "shape": {"type": "disc", "radius": r},
             "pose": {"x": x, "y": y}, "home_region": "work"}
            for i, (x, y, r) in enumerate(discs)],
        "robots": [dict(r) for r in ROBOTS],
        "handover_points": dict(HANDOVER),
        "grasp_count": grasp_count,
        "goal": [[f"M{i + 1}", "goal_zone"] for i in sorted(goal_indices)],
    }


def generate(rng: random.Random, objects: tuple[int, int], goals: tuple[int, int],
             grasp_count: int, goal_rect=GOAL) -> dict:
    """Random clutter: a disc count and a goal count drawn from the inclusive
    ranges, discs anywhere in the strip, goals a random subset of them."""
    n = rng.randint(*objects)
    n_goals = min(n, rng.randint(*goals))
    discs = _place_discs(rng, n, WORK)
    return _scene(discs, rng.sample(range(n), n_goals), grasp_count, goal_rect)


def blocked_handover(rng: random.Random, grasp_count: int,
                     distractors: int = 3) -> dict:
    """Goal disc M1 behind blocker M2 on R1's approach line; see module doc.

    M1 sits 0.38-0.50 m from R1's base, out of R2's reach. M2 sits 0.16 m
    closer to R1 on the same line: near enough to block every pick approach
    of M1, far enough that M2's own transfer sweep (gripper plus diameter
    wide) clears M1. Distractors stay in y >= 0.45, away from both sweeps
    and the handover.
    """
    rg, rb = _radius(rng), _radius(rng)
    angle = rng.uniform(-0.25, 0.25)
    dist = rng.uniform(0.38, 0.50)
    discs = [(round(dist * math.cos(angle), 4), round(dist * math.sin(angle), 4), rg),
             (round((dist - 0.16) * math.cos(angle), 4),
              round((dist - 0.16) * math.sin(angle), 4), rb)]
    # M1 and M2 lie below y = 0.18, so distractors cannot overlap them
    discs.extend(_place_discs(rng, distractors, (WORK[0], 0.45, WORK[2], WORK[3])))
    return _scene(discs, [0], grasp_count)
