"""Multi-robot geometric task-and-motion planning over a deterministic 2D world.

Pipeline: geometric fact computation (reachability, occlusion, handover
enablement), task-graph construction, integer-programming skeleton
enumeration, reverse grounding, and tree search — plus an independent plan
validator and SVG renderer.
"""
from .facts import FactSet, compute_facts
from .grounding import Failure, Full, Partial, ground
from .mip import TaskSkeleton, compile_model, enumerate_skeletons, solve
from .plans import Plan, PartiallyGroundedAction, dumps_plan, load_plan, loads_plan
from .scene import Scene, SceneError, load_scene, loads_scene
from .search import NoPlan, PlannerConfig, plan
from .taskgraph import CMTG, build_cmtg
from .validator import validate_plan

__all__ = [
    "CMTG", "FactSet", "Failure", "Full", "NoPlan", "Partial",
    "PartiallyGroundedAction", "Plan", "PlannerConfig", "Scene",
    "SceneError", "TaskSkeleton", "build_cmtg", "compile_model",
    "compute_facts", "dumps_plan", "enumerate_skeletons", "ground",
    "load_plan", "load_scene", "loads_plan", "loads_scene", "plan", "solve",
    "validate_plan",
]

__version__ = "0.1.0"
