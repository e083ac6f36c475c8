"""Eager trajectory search: the reference ``grounding.find_trajectories`` is
checked against.

Used only by tests. For each action it lays out and tests every sweep of
every grasp in the class, keeps the grasps whose moves are clear on their
own, then tries the combinations in ``itertools.product`` order and returns
the first one whose robots are mutually clear. The planner's version must
return the same moves, or ``None`` when this one does, on every input that
meets its precondition: no obstacle lies on a task-graph pick sweep.
"""
from __future__ import annotations

import itertools

from mrplan.motion import build_moves, robot_clashes, sweep_clear
from mrplan.scene import Scene


def find_trajectories(actions, placements, obstacles, scene: Scene):
    options = []  # per action: the moves of each grasp clear on its own
    for action in sorted(actions):
        placement = placements[action.obj]
        clear = []
        for g in action.grasps or (action.grasp_pick,):
            a = (action if g == action.grasp_pick
                 else action.replace(grasp_pick=g))
            moves = build_moves(scene, a, placement)
            if all(sweep_clear(scene, r, cor, obstacles)
                   for r, mv in moves.items() for cor in mv.all_corridors()):
                clear.append(moves)
        if not clear:
            return None
        options.append(clear)
    for combo in itertools.product(*options):
        moves = {r: mv for m in combo for r, mv in m.items()}
        if not any(robot_clashes(scene, moves)):
            return moves
    return None
