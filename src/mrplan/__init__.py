"""Multi-robot geometric task-and-motion planning over a deterministic 2D world.

Pipeline: geometric fact computation (reachability, occlusion, handover
enablement), task-graph construction, integer-programming skeleton
enumeration, reverse grounding, and tree search — plus an independent plan
validator and SVG renderer.
"""
from .facts import compute_facts
from .plans import dumps_plan, loads_plan
from .scene import load_scene, loads_scene
from .search import NoPlan, PlannerConfig, plan
from .taskgraph import build_cmtg

__all__ = [
    "NoPlan", "PlannerConfig", "build_cmtg", "compute_facts", "dumps_plan",
    "load_scene", "loads_plan", "loads_scene", "plan",
]

__version__ = "0.1.0"
