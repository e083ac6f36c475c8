"""Reverse grounding of task skeletons.

``ground`` grounds a skeleton from its last step backwards, in front of the
grounded joint actions already fixed after it (a search node's stored
steps). Those future actions constrain the present: newly sampled placements
must avoid the volumes the future occupies, and trajectories must avoid the
objects the future still expects at their initial poses. Each step draws up
to ``STEP_RESTARTS`` placement samples from ``find_placements``, each of at
most ``PLACEMENT_ATTEMPTS`` draws per object. When the strict pass fails,
the collision constraints against the not-planned-to-move objects are
relaxed; a relaxed success stops grounding and returns the grounded suffix
plus the conflict set of objects that a caller must plan to relocate first.
The sweeps of each move are laid out by ``mrplan.motion`` (see its
docstring), as the fact phase laid out those of its pick and handover
facts. ``find_trajectories`` asks ``motion.sweep_clear`` of the sweeps an
action's whole grasp class shares (the carry; a handover's carry, receive
and delivery), but not of the one that depends on the grasp, the pick
robot's gripper sweep: no obstacle lies on a task-graph pick sweep. A pick
fact clears that sweep of the fixed obstacles and the other robots' bases,
every movable it hits is a pick blocker that the skeleton moves strictly
earlier, and ``build_cmtg`` drops any action an already-moved object
blocks.
"""
from __future__ import annotations

import itertools
import math

from .geometry import Disc, Pose, collides_any, shape_inside_rect
from .mip import TaskSkeleton
from .motion import build_moves, robot_clashes, sweep_clear
from .plans import GroundedJointAction, moved_objects
from .record import Record
from .scene import Scene

PLACEMENT_ATTEMPTS = 100
STEP_RESTARTS = 10


def volumes_of(steps) -> list:
    """What grounded joint actions occupy: their swept corridors. These cover
    the placed objects too, each inside the end cap of the carry placing it."""
    return [cor for step in steps for r in sorted(step.moves)
            for cor in step.moves[r].all_corridors()]


class Full(Record):
    __slots__ = ("steps",)

    def __init__(self, steps: tuple):
        self.steps = steps  # complete sequence of grounded joint actions (time order)


class Partial(Record):
    __slots__ = ("steps", "conflicts")

    def __init__(self, steps: tuple, conflicts: frozenset):
        if not conflicts:
            raise ValueError("partial outcome requires a nonempty conflict set")
        self.steps = steps  # grounded suffix, including the input future actions
        self.conflicts = conflicts


class Failure(Record):
    __slots__ = ("reason",)

    def __init__(self, reason: str = ""):
        self.reason = reason


def find_placements(actions, forbidden, scene: Scene, rng):
    """Jointly consistent placements for one skeleton step.

    ``actions`` are the distinct actions of the step; placements are
    rejection-sampled in canonical object order. Each object gets up to
    ``PLACEMENT_ATTEMPTS`` draws of x, then y, then theta (rectangles only),
    and takes the first pose that lies inside its region, has its centre in
    its place robot's reach, and is clear of ``forbidden`` ((shape, pose)
    volumes or corridors) plus the placements already chosen for this step.
    Returns obj -> Pose, or None when an object gets no pose.
    """
    placements: dict[str, Pose] = {}
    forbidden = list(forbidden)
    for action in sorted(actions):
        shape = scene.movables[action.obj].shape
        rect = scene.regions[action.region]
        robot = scene.robots[action.place_robot]
        for _ in range(PLACEMENT_ATTEMPTS):
            x = rng.uniform(rect.xmin, rect.xmax)
            y = rng.uniform(rect.ymin, rect.ymax)
            theta = 0.0 if isinstance(shape, Disc) else rng.uniform(0.0, 2.0 * math.pi)
            pose = Pose(x, y, theta)
            if (shape_inside_rect(shape, pose, rect) and robot.in_reach(pose.xy)
                    and not collides_any((shape, pose), forbidden)):
                break
        else:
            return None
        placements[action.obj] = pose
        forbidden.append((shape, pose))
    return placements


def find_trajectories(actions, placements, obstacles, scene: Scene):
    """Collision-free straight-line sweeps for one skeleton step.

    ``obstacles`` are (shape, pose) volumes every corridor must avoid (the
    fixed obstacles plus the movables protected at their initial poses).
    Same-step corridors of distinct robots must be mutually clear, except
    around a shared handover point. Only the sweeps an action's whole grasp
    class shares are tested, by ``motion.sweep_clear`` with ``obstacles``,
    once per action. Precondition: no obstacle lies on a task-graph
    pick sweep (see the module docstring), so no pick sweep is tested. The
    grasp combinations are tried in ``itertools.product`` order, class
    representatives first, and the first for which ``motion.robot_clashes``
    yields nothing wins; its moves carry the grasp used as ``grasp_pick``.
    Returns robot -> RobotMove or None.
    """
    actions = sorted(actions)
    layouts = []  # per action: grasp -> its moves, each built on first use
    for action in actions:
        moves = build_moves(scene, action, placements[action.obj])
        pick = action.pick_robot
        if not all(sweep_clear(scene, r, cor, obstacles) for r, mv in moves.items()
                   for cor in ((mv.place_traj.corridor,) if r == pick else mv.all_corridors())):
            return None
        layouts.append({action.grasp_pick: moves})
    for combo in itertools.product(*(a.grasps or (a.grasp_pick,) for a in actions)):
        moves = {}
        for a, g, built in zip(actions, combo, layouts):
            if g not in built:
                built[g] = build_moves(scene, a.replace(grasp_pick=g), placements[a.obj])
            moves.update(built[g])
        if not any(robot_clashes(scene, moves)):
            return moves
    return None


def _sample_step(actions, forbidden, obstacles, scene: Scene, rng):
    """Moves of the first placement sample whose sweeps are clear, or None."""
    for _ in range(STEP_RESTARTS):
        placements = find_placements(actions, forbidden, scene, rng)
        if placements is not None:
            moves = find_trajectories(actions, placements, obstacles, scene)
            if moves is not None:
                return moves
    return None


def ground(skeleton: TaskSkeleton, future, scene: Scene, rng):
    """Ground ``skeleton`` in reverse in front of ``future``, the grounded
    joint actions (time order) that run after it.

    The skeleton's actions come from the scene's task graph, which
    guarantees reach: each grasp comes from a ``reachable_pick`` fact at the
    object's start pose, where ``motion.build_moves`` picks it, and each
    handover from an ``enable_goal_handover`` fact, which needs both robots
    to reach the handover point. ``find_placements`` keeps placements in the
    place robot's reach. So grounding tests only collisions; the validator
    re-checks reach on every returned plan.
    """
    m_fut = moved_objects(future)
    if skeleton.moved_objects & m_fut:
        raise ValueError("skeleton re-moves an object already moved later")
    v_fut = volumes_of(future)
    m_out = set(scene.movables) - m_fut - skeleton.moved_objects
    grounded = list(future)

    def obstacle_poses(names):
        return [(scene.movables[n].shape, scene.movables[n].pose)
                for n in sorted(names)]

    fixed = list(scene.fixed)

    for t in range(skeleton.makespan, 0, -1):
        actions = set(skeleton.steps[t - 1].values())
        strict = fixed + obstacle_poses(m_out | m_fut)
        moves = _sample_step(actions, strict + v_fut, strict, scene, rng)
        relaxed = moves is None
        if relaxed:
            # relaxed pass: the not-planned objects may be collided with,
            # since new skeletons can be generated to move them first
            loose = fixed + obstacle_poses(m_fut)
            moves = _sample_step(actions, loose + v_fut, loose, scene, rng)
            if moves is None:
                return Failure(f"step {t}: no feasible placements or trajectories")
        step = GroundedJointAction(moves=moves)
        grounded = [step] + grounded
        m_fut |= step.moved_objects()
        if relaxed:
            conflicts = (set(scene.unmet_goals()) - m_fut) | set(
                scene.movables_hit(volumes_of(grounded), exclude=m_fut))
            if conflicts:
                return Partial(steps=tuple(grounded), conflicts=frozenset(conflicts))
            # the relaxed sample happens to be strictly consistent:
            # keep going as if the strict pass had succeeded
        v_fut += volumes_of([step])
    return Full(steps=tuple(grounded))
