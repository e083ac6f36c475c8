"""mrplan benchmark: plan latency, completeness and plan quality per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 5     # every workload,
                                                            # every metric
    python3 perfbench/run.py --write-manifest               # BENCHMARK.json

The benchmark imports ``mrplan`` from ``src/`` of the checkout it sits in and
calls ``mrplan.search.plan`` directly, one attempt after another (a closed
loop with one caller). A run:

1. sets up: imports, scene generation from ``--seed``, ``loads_scene`` of
   every scene (which loads and checks the schema), and a warm-up pass over
   the shipped suite.
   Set-up is repeated in two fresh interpreters; ``setup_s`` is the median
   of the three;
2. plans the workload's attempt list in passes until ``--seconds`` is spent,
   at least twice. An attempt's latency is its fastest untraced repetition:
   the work is deterministic, so slower repetitions measure interference
   from the machine. With ``--trace 1`` passes alternate untraced and traced
   (see ``tracer.py``), and the traced passes give the per-layer metrics;
3. checks correctness: every returned plan passes ``validate_plan``; on the
   suite, ``unsat_fixed_blocked`` gives ``NoPlan`` and every other scenario a
   plan; every pass yields the same outcome digest; no attempt runs past its
   ``time_budget``;
4. prints one line per metric, then one JSON line: ``correct``,
   ``attempted`` and ``failed`` plan() calls, and the metrics that
   ``BENCHMARK.json`` lists for the mode (end-to-end for ``--trace 0``,
   per-layer for ``--trace 1``).

Exit codes: 0 correct, 1 a correctness check failed (the JSON line says
``"correct": false``), 2 the program or its scenarios are missing.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import BY_NAME, TIME_BUDGET_S, WORKLOADS  # noqa: E402

RUN_SECONDS = 30
SETUP_REPEATS = 3            # this process plus two fresh interpreters
MIN_PASSES = 2               # untraced; for the digest check and the fastest repeat
SUITE_NO_PLAN = {"unsat_fixed_blocked"}

# (name, unit, better, bound); bound None = printed but not listed in
# BENCHMARK.json: error_frac is zero on the listed workloads, and the tail
# and throughput swing with the machine's speed more than any bound allows
END_TO_END = (
    ("plan_s_p50", "s", "lower", 0.25),
    ("plan_s_tail", "s", "lower", None),
    ("plans_per_s", "1/s", "higher", None),
    ("solved_frac", "ratio", "higher", 0.05),
    ("error_frac", "ratio", "lower", None),
    ("makespan_mean", "steps", "lower", 0.1),
    ("objects_moved_mean", "count", "lower", 0.1),
    ("motion_cost_mean", "m", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better)
PER_LAYER = (
    ("search.s", "s", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.iterations", "count", "lower"),
    ("facts.s", "s", "lower"),
    ("facts.calls", "count", "lower"),
    ("facts.records", "count", "lower"),
    ("taskgraph.s", "s", "lower"),
    ("taskgraph.actions", "count", "lower"),
    ("taskgraph.block_edges", "count", "lower"),
    ("mip.compile.s", "s", "lower"),
    ("mip.vars", "count", "lower"),
    ("mip.rows", "count", "lower"),
    ("mip.solve.s", "s", "lower"),
    ("mip.solve.calls", "count", "lower"),
    ("mip.solve.infeasible", "count", "lower"),
    ("mip.solve.budget_exceeded", "count", "lower"),
    ("mip.enumerate.self_s", "s", "lower"),
    ("mip.skeletons", "count", "higher"),
    ("mip.distinct_ratio", "ratio", "higher"),
    ("grounding.s", "s", "lower"),
    ("grounding.full", "count", "higher"),
    ("grounding.partial", "count", "lower"),
    ("grounding.failure", "count", "lower"),
    ("grounding.conflict_objs", "count", "lower"),
    ("grounding.placement.calls", "count", "lower"),
    ("grounding.placement.ok_ratio", "ratio", "higher"),
    ("grounding.trajectory.calls", "count", "lower"),
    ("grounding.trajectory.ok_ratio", "ratio", "higher"),
    ("validator.s", "s", "lower"),
    ("validator.calls", "count", "lower"),
    ("scene.load_s", "s", "lower"),
    ("error_frac.solver_budget", "ratio", "lower"),
    ("error_frac.search_error", "ratio", "lower"),
    ("error_frac.crash", "ratio", "lower"),
    ("error_frac.invalid_plan", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

ERROR_KINDS = ("solver_budget", "search_error", "crash", "invalid_plan")


class MissingProgram(Exception):
    """The checkout lacks ``src/mrplan`` or ``scenarios/``."""


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    seconds: float
    attempts: list            # [(Attempt, Scene)]
    scene_load_s: float       # mean loads_scene time per scene
    api: object


def import_program():
    package = ROOT / "src" / "mrplan" / "__init__.py"
    if not package.is_file() or not (ROOT / "scenarios").is_dir():
        raise MissingProgram(f"no mrplan sources or scenarios under {ROOT}")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    mrplan = importlib.import_module("mrplan")
    if Path(mrplan.__file__).resolve() != package.resolve():
        raise MissingProgram(f"imported mrplan from {mrplan.__file__}, not {package}")
    return mrplan


def setup(workload, seed: int) -> Setup:
    t0 = time.perf_counter()
    mrplan = import_program()
    attempts = workload.attempts(seed, ROOT)
    loaded, load_s, cache = [], 0.0, {}
    for a in attempts:
        if a.scene_text not in cache:
            t = time.perf_counter()
            cache[a.scene_text] = mrplan.loads_scene(a.scene_text)
            load_s += time.perf_counter() - t
        loaded.append((a, cache[a.scene_text]))
    for path in sorted((ROOT / "scenarios").glob("*.json")):   # warm-up
        mrplan.plan(mrplan.load_scene(path), mrplan.PlannerConfig())
    return Setup(time.perf_counter() - t0, loaded, load_s / len(cache), mrplan)


def setup_in_fresh_interpreter(workload_name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# measurement


@dataclass
class PassResult:
    traced: bool
    times: list = field(default_factory=list)      # seconds per plan() call
    tags: list = field(default_factory=list)       # plan | noplan:<reason> | error:<kind>
    digests: list = field(default_factory=list)    # sha256 of the plan JSON or tag
    plans: list = field(default_factory=list)      # kept for the first pass only
    iterations: int = 0
    wall: float = 0.0


def run_pass(st: Setup, workload, tracer: Tracer | None, keep_plans: bool) -> PassResult:
    mrplan = st.api
    from mrplan.mip import BudgetExceeded
    from mrplan.search import SearchError
    res = PassResult(traced=tracer is not None)
    t_pass = time.perf_counter()
    for attempt, scene in st.attempts:
        cfg = mrplan.PlannerConfig(**workload.config_kwargs(attempt.planner_seed))
        trace: list[str] = []
        result = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = mrplan.search.plan(scene, cfg, trace=trace)
            else:
                with tracer.span("search"):
                    result = mrplan.search.plan(scene, cfg, trace=trace)
            tag = None
        except BudgetExceeded:
            tag = "error:solver_budget"
        except SearchError:
            tag = "error:search_error"
        except Exception:   # counted as a crash; the run goes on
            traceback.print_exc(file=sys.stderr)
            tag = "error:crash"
        res.times.append(time.perf_counter() - t0)
        res.iterations += len(trace)
        if tag is None:
            if isinstance(result, mrplan.NoPlan):
                tag, result = f"noplan:{result.reason}", None
            else:
                tag = "plan"
        body = mrplan.dumps_plan(result, sorted(scene.robots)) if tag == "plan" else tag
        res.tags.append(tag)
        res.digests.append(hashlib.sha256(body.encode()).hexdigest())
        if keep_plans:
            res.plans.append(result)
    res.wall = time.perf_counter() - t_pass
    return res


def measure(st: Setup, workload, seconds: float, traced: bool) -> tuple[list, Tracer]:
    """Full passes, at least two untraced, while the next one fits in ``seconds``.

    Traced runs alternate untraced and traced passes.
    """
    tracer = Tracer()
    passes: list[PassResult] = []
    t0 = time.perf_counter()
    while True:
        if traced and len(passes) % 2 == 1:
            with tracer.installed():
                passes.append(run_pass(st, workload, tracer, keep_plans=False))
        else:
            passes.append(run_pass(st, workload, None, keep_plans=not passes))
        untraced = sum(not p.traced for p in passes)
        enough = untraced >= MIN_PASSES and (untraced < len(passes) or not traced)
        if enough and time.perf_counter() - t0 + passes[-1].wall > seconds:
            break
    return passes, tracer


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(values: list) -> tuple[int, float]:
    """Highest integer percentile with at least ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p / 100 * n)          # nearest-rank; n - rank >= 10
    return p, xs[max(rank, 1) - 1]


def ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def path_length(plan) -> float:
    total = 0.0
    for step in plan.steps:
        for mv in step.moves.values():
            for traj in (mv.pick_traj, mv.place_traj):
                pts = traj.waypoints
                total += sum(math.hypot(b.x - a.x, b.y - a.y)
                             for a, b in zip(pts, pts[1:]))
    return total


@dataclass
class Checks:
    problems: list = field(default_factory=list)
    errors: dict = field(default_factory=lambda: {k: 0 for k in ERROR_KINDS})
    solved: list = field(default_factory=list)      # plans that validate
    failed: set = field(default_factory=set)        # attempt indices

    def fail(self, message: str) -> None:
        self.problems.append(message)


def check(st: Setup, workload, passes: list) -> Checks:
    """Correctness of the first pass; later passes must repeat its outcomes."""
    from mrplan.validator import validate_plan
    c = Checks()
    first = passes[0]
    for i, ((attempt, scene), tag, plan) in enumerate(zip(st.attempts, first.tags,
                                                          first.plans)):
        if tag.startswith("error:"):
            c.errors[tag[len("error:"):]] += 1
            c.failed.add(i)
        elif tag == "plan":
            report = validate_plan(scene, plan)
            if report.ok:
                c.solved.append(plan)
            else:
                c.errors["invalid_plan"] += 1
                c.failed.add(i)
                c.fail(f"{attempt.label} seed {attempt.planner_seed}: returned plan "
                       f"fails validation: {report.violations[0].message}")
        if workload.name == "suite":
            want_plan = attempt.label not in SUITE_NO_PLAN
            if want_plan != (tag == "plan"):
                c.fail(f"suite {attempt.label} seed {attempt.planner_seed}: got {tag}")
    for k, p in enumerate(passes, start=1):
        if p.digests != first.digests:
            c.fail(f"pass {k} gives other outcomes than pass 1")
        for (attempt, _), dt in zip(st.attempts, p.times):
            if dt > TIME_BUDGET_S:
                c.fail(f"{attempt.label}: attempt ran {dt:.1f} s, past its "
                       f"time_budget of {TIME_BUDGET_S} s")
    return c


def end_to_end(passes: list, checks: Checks, setup_s: float) -> dict:
    """Latency of an attempt is its fastest untraced repetition in the run."""
    untraced = [p for p in passes if not p.traced]
    best = [min(ts) for ts in zip(*(p.times for p in untraced))]
    n_first = len(passes[0].tags)
    solved = checks.solved
    p, tail = tail_percentile(best)

    def mean(f):
        return statistics.fmean(f(x) for x in solved) if solved else None

    return {
        "plan_s_p50": statistics.median(best),
        "plan_s_tail": tail,
        "plan_s_tail.percentile": p,
        "plan_s_tail.samples": len(best),
        "plans_per_s": sum(len(p.times) for p in untraced) / sum(p.wall for p in untraced),
        "solved_frac": len(solved) / n_first,
        "error_frac": sum(checks.errors.values()) / n_first,
        "makespan_mean": mean(lambda x: x.makespan),
        "objects_moved_mean": mean(lambda x: x.motion_cost),
        "motion_cost_mean": mean(path_length),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(st: Setup, passes: list, tracer: Tracer, checks: Checks) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = sum(len(p.times) for p in traced)
    n_first = len(passes[0].tags)
    tot, selft, calls, cnt = tracer.total, tracer.self_time, tracer.calls, tracer.counters
    out = {
        "search.s": tot["search"] / n,
        "search.self_s": selft["search"] / n,
        "search.iterations": sum(p.iterations for p in traced) / n,
        "facts.s": tot["facts"] / n,
        "facts.calls": calls["facts"] / n,
        "facts.records": ratio(cnt["facts.records"], calls["facts"], 0.0),
        "taskgraph.s": tot["taskgraph"] / n,
        "taskgraph.actions": ratio(cnt["taskgraph.actions"], calls["taskgraph"], 0.0),
        "taskgraph.block_edges": ratio(cnt["taskgraph.block_edges"],
                                       calls["taskgraph"], 0.0),
        "mip.compile.s": tot["mip.compile"] / n,
        "mip.vars": ratio(cnt["mip.vars"], calls["mip.compile"], 0.0),
        "mip.rows": ratio(cnt["mip.rows"], calls["mip.compile"], 0.0),
        "mip.solve.s": tot["mip.solve"] / n,
        "mip.solve.calls": calls["mip.solve"] / n,
        "mip.solve.infeasible": cnt["mip.solve.infeasible"] / n,
        "mip.solve.budget_exceeded": tracer.errors[("mip.solve", "BudgetExceeded")] / n,
        "mip.enumerate.self_s": selft["mip.enumerate"] / n,
        "mip.skeletons": cnt["mip.skeletons"] / n,
        # skeletons distinct up to grasp choice per feasible solve; no
        # feasible solve means nothing was wasted
        "mip.distinct_ratio": ratio(cnt["mip.skeletons.distinct"],
                                    cnt["mip.solve.feasible"], 1.0),
        "grounding.s": tot["grounding"] / n,
        "grounding.full": cnt["grounding.full"] / n,
        "grounding.partial": cnt["grounding.partial"] / n,
        "grounding.failure": cnt["grounding.failure"] / n,
        "grounding.conflict_objs": ratio(cnt["grounding.conflict_objs"],
                                         cnt["grounding.partial"], 0.0),
        "grounding.placement.calls": calls["grounding.placement"] / n,
        "grounding.placement.ok_ratio": ratio(cnt["grounding.placement.ok"],
                                              calls["grounding.placement"], 1.0),
        "grounding.trajectory.calls": calls["grounding.trajectory"] / n,
        "grounding.trajectory.ok_ratio": ratio(cnt["grounding.trajectory.ok"],
                                               calls["grounding.trajectory"], 1.0),
        "validator.s": tot["validator"] / n,
        "validator.calls": calls["validator"] / n,
        "scene.load_s": st.scene_load_s,
        # mean traced pass over mean untraced pass, minus one
        "trace.overhead": (statistics.fmean(sum(p.times) for p in traced)
                           / statistics.fmean(sum(p.times) for p in untraced)) - 1.0,
    }
    for kind in ERROR_KINDS:
        out[f"error_frac.{kind}"] = checks.errors[kind] / n_first
    return out


# ---------------------------------------------------------------------------
# reporting


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS if w.listed],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END if bound is not None],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def gated_metrics(trace: bool) -> list:
    if trace:
        return [(n, u) for n, u, _ in PER_LAYER]
    return [(n, u) for n, u, _, bound in END_TO_END if bound is not None]


def show(workload: str, values: dict, table) -> None:
    for name, unit, *_ in table:
        v = values.get(name)
        text = "n/a" if v is None else f"{v:.6g}"
        extra = ""
        if name == "plan_s_tail":
            extra = (f"  (p{values['plan_s_tail.percentile']} of "
                     f"{values['plan_s_tail.samples']} samples)")
        print(f"{workload:14s} {name:32s} {text:>12s} {unit}{extra}")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    workload = BY_NAME[name]
    st = setup(workload, seed)
    setups = [st.seconds] + [setup_in_fresh_interpreter(name, seed)
                             for _ in range(SETUP_REPEATS - 1)]
    passes, tracer = measure(st, workload, seconds, trace)
    checks = check(st, workload, passes)
    e2e = end_to_end(passes, checks, statistics.median(setups))
    layers = per_layer(st, passes, tracer, checks) if trace else {}
    show(name, e2e, END_TO_END)
    if trace:
        show(name, layers, PER_LAYER)
    print(f"{name:14s} passes {len(passes)}, attempts per pass "
          f"{len(st.attempts)}")
    for problem in checks.problems:
        print(f"{name:14s} CHECK FAILED: {problem}")
    attempted = sum(len(p.times) for p in passes)
    # every pass repeats the first one's outcomes (the digest check)
    failed = len(checks.failed) * len(passes)
    values = {**e2e, **layers}
    metrics = {m: {"value": values[m], "unit": u} for m, u in gated_metrics(trace)}
    return not checks.problems, attempted, failed, metrics


def run_all(seed: int, seconds: float):
    """Every workload, traced, so that every metric is printed."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS:
        w_ok, w_attempted, w_failed, w_metrics = run_workload(w.name, seed, seconds, True)
        ok = ok and w_ok
        attempted += w_attempted
        failed += w_failed
        metrics.update({f"{w.name}.{m}": v for m, v in w_metrics.items()})
    return ok, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + [w.name for w in WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    try:
        if args.setup_only:
            print(setup(BY_NAME[args.workload], args.seed).seconds)
            return 0
        if args.workload == "all":
            ok, attempted, failed, metrics = run_all(args.seed, args.seconds)
        else:
            ok, attempted, failed, metrics = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
