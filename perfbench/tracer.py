"""Per-layer spans and counters, recorded from outside the planner.

``mrplan.search`` imports its layers by name (``from .facts import
compute_facts`` and so on), so a span must wrap the name where it is looked
up, not where it is defined. The tracer patches these module attributes for
the duration of a ``with tracer.installed():`` block and restores them on
exit:

* ``mrplan.search``: compute_facts, build_cmtg, enumerate_skeletons, ground,
  validate_plan;
* ``mrplan.mip``: compile_model, solve, extract_skeleton (looked up by
  ``enumerate_skeletons``);
* ``mrplan.grounding``: find_placements, find_trajectories (looked up by
  ``ground``).

Spans nest by call order: a span's parent is the span open when it started.
The tracer keeps, per span name, the total time, the self time (total minus
the time its direct children cover) and the call count, plus the counters
the result hooks below add.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict


def _facts_counts(tr, facts):
    tr.count("facts.records", len(facts.reachable_pick) + len(facts.reachable_place)
             + len(facts.occludes_pick) + len(facts.occludes_goal_place)
             + len(facts.enable_goal_handover))


def _graph_counts(tr, graph):
    tr.count("taskgraph.actions", len(graph.action_nodes))
    tr.count("taskgraph.block_edges",
             len(graph.block_pick_edges) + len(graph.block_place_edges))


def _model_counts(tr, model):
    tr.count("mip.vars", model.num_vars)
    tr.count("mip.rows", len(model.constraints))


def _solve_counts(tr, result):
    tr.count("mip.solve.infeasible" if result == "infeasible" else "mip.solve.feasible")


def _enumerate_counts(tr, skeletons):
    # distinct up to grasp choice: which robots move which object where, per step
    distinct = {tuple(tuple(sorted((a.obj, a.region, a.pick_robot, a.place_robot)
                                   for a in set(step.values()) if a is not None))
                      for step in sk.steps)
                for sk in skeletons}
    tr.count("mip.skeletons", len(skeletons))
    tr.count("mip.skeletons.distinct", len(distinct))


def _ground_counts(tr, outcome):
    kind = type(outcome).__name__.lower()          # full | partial | failure
    tr.count(f"grounding.{kind}")
    if kind == "partial":
        tr.count("grounding.conflict_objs", len(outcome.conflicts))


def _ok_counts(name):
    def hook(tr, result):
        if result is not None:
            tr.count(f"{name}.ok")
    return hook


# (module, attribute, span name, result hook)
TARGETS = (
    ("mrplan.search", "compute_facts", "facts", _facts_counts),
    ("mrplan.search", "build_cmtg", "taskgraph", _graph_counts),
    ("mrplan.search", "enumerate_skeletons", "mip.enumerate", _enumerate_counts),
    ("mrplan.search", "ground", "grounding", _ground_counts),
    ("mrplan.search", "validate_plan", "validator", None),
    ("mrplan.mip", "compile_model", "mip.compile", _model_counts),
    ("mrplan.mip", "solve", "mip.solve", _solve_counts),
    ("mrplan.mip", "extract_skeleton", "mip.extract", None),
    ("mrplan.grounding", "find_placements", "grounding.placement",
     _ok_counts("grounding.placement")),
    ("mrplan.grounding", "find_trajectories", "grounding.trajectory",
     _ok_counts("grounding.trajectory")),
)


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)   # span name -> seconds
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.errors = Counter()           # (span name, exception type) -> calls
        self.counters = Counter()
        self._stack: list[list] = []      # open spans: [start, child_seconds]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        except BaseException as e:
            self.errors[(name, type(e).__name__)] += 1
            raise
        finally:
            dur = time.perf_counter() - frame[0]
            self._stack.pop()
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            self.calls[name] += 1
            if self._stack:                 # charge the parent span
                self._stack[-1][1] += dur

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, hook in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
