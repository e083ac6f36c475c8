"""Command-line interface: plan, validate and render subcommands.

``main`` is the one place that turns a failure into output and an exit code:
a command returns 0, 2 or 3, and ``main`` maps what a command raises to 1
or 4 with one ``error:`` line on stderr.

Exit codes: 0 success, 1 I/O or schema error, 2 planner found no plan,
3 plan validation found violations, 4 an internal check failed during the
search or while building a ``--dump-*`` artifact, such as a grounded plan
failing validation (a planner fault).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .facts import compute_facts
from .mip import compile_model
from .plans import dumps_plan, load_plan
from .render import render_svg
from .scene import load_scene
from .search import NoPlan, PlannerConfig, SearchError, internal_checks
from .search import plan as search_plan
from .taskgraph import build_cmtg
from .validator import validate_plan


def _config_from_args(args) -> PlannerConfig:
    return PlannerConfig(
        c=args.c, alpha=args.alpha, t_max=args.t_max, k_max=args.k_max,
        max_iterations=args.max_iters, time_budget=args.time_budget,
        node_budget=args.node_budget, seed=args.seed, exhaust=args.exhaust)


def cmd_plan(args) -> int:
    scene = load_scene(args.scene)
    cfg = _config_from_args(args)
    facts = None
    dumps = []      # (path, text), built before any is written
    if args.dump_facts or args.dump_cmtg or args.dump_mip:
        facts = compute_facts(scene)
        with internal_checks():     # as during the search, a failed check is a planner fault
            if args.dump_facts:
                dumps.append((args.dump_facts, facts.dumps()))
            if args.dump_cmtg or args.dump_mip:
                graph = build_cmtg(scene.unmet_goals(), facts, scene)
                if args.dump_cmtg:
                    dumps.append((args.dump_cmtg, graph.dumps()))
                if args.dump_mip:
                    dumps.append((args.dump_mip, compile_model(graph, cfg.t_max).dumps_lp()))
    for path, text in dumps:
        Path(path).write_text(text)
    trace: list[str] = []
    result = search_plan(scene, cfg, trace=trace, facts=facts)
    if args.trace:
        Path(args.trace).write_text("\n".join(trace) + ("\n" if trace else ""))
    if isinstance(result, NoPlan):
        print(json.dumps(result.to_doc(), sort_keys=True), file=sys.stderr)
        return 2
    text = dumps_plan(result, sorted(scene.robots))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    scene = load_scene(args.scene)
    report = validate_plan(scene, load_plan(args.plan, scene.robots))
    print(json.dumps(report.to_doc(), indent=2, sort_keys=True))
    return 0 if report.ok else 3


def cmd_render(args) -> int:
    scene = load_scene(args.scene)
    plan = load_plan(args.plan, scene.robots) if args.plan else None
    Path(args.svg).write_text(render_svg(scene, plan))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrplan",
        description="Multi-robot geometric task-and-motion planner over a 2D world.")
    sub = parser.add_subparsers(dest="command", required=True)

    default = PlannerConfig()
    p = sub.add_parser("plan", help="search for a plan on a scene")
    p.add_argument("scene")
    p.add_argument("--seed", type=int, default=default.seed)
    p.add_argument("--max-iters", type=int, default=default.max_iterations)
    p.add_argument("--time-budget", type=float, default=default.time_budget)
    p.add_argument("--node-budget", type=int, default=default.node_budget)
    p.add_argument("--c", type=float, default=default.c)
    p.add_argument("--alpha", type=float, default=default.alpha)
    p.add_argument("--t-max", type=int, default=default.t_max)
    p.add_argument("--k-max", type=int, default=default.k_max)
    p.add_argument("--out", help="plan output path (default: stdout)")
    p.add_argument("--dump-facts", help="write computed facts as sorted JSON")
    p.add_argument("--dump-cmtg", help="write the search's root task graph, line-oriented")
    p.add_argument("--dump-mip", help="write the compiled model in LP format")
    p.add_argument("--trace", help="write the per-iteration search trace")
    p.add_argument("--exhaust", action="store_true",
                   help="search the whole budget and return the best plan")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("validate", help="check a plan against a scene")
    p.add_argument("scene")
    p.add_argument("plan")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("render", help="render a scene (and plan) to SVG")
    p.add_argument("scene")
    p.add_argument("plan", nargs="?")
    p.add_argument("--svg", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SearchError as e:        # a planner fault
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as e:  # an unreadable, malformed or unwritable input
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
