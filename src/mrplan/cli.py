"""Command-line interface: plan, validate and render subcommands.

Exit codes: 0 success, 1 I/O or schema error, 2 planner found no plan,
3 plan validation found violations, 4 an internal check failed during the
search, such as a grounded plan failing validation (a planner fault).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .facts import compute_facts
from .mip import compile_model
from .plans import PlanError, dumps_plan, load_plan
from .render import render_svg
from .scene import Scene, SceneError, load_scene
from .search import NoPlan, PlannerConfig, SearchError
from .search import plan as search_plan
from .taskgraph import build_cmtg
from .validator import validate_plan


def _load_scene_or_die(path: str) -> Scene:
    try:
        return load_scene(path)
    except (OSError, SceneError) as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(1)


def _write_or_die(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(1)


def _config_from_args(args) -> PlannerConfig:
    return PlannerConfig(
        c=args.c, alpha=args.alpha, t_max=args.t_max, k_max=args.k_max,
        max_iterations=args.max_iters, time_budget=args.time_budget,
        node_budget=args.node_budget, seed=args.seed, exhaust=args.exhaust)


def cmd_plan(args) -> int:
    scene = _load_scene_or_die(args.scene)
    try:
        cfg = _config_from_args(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    facts = None
    if args.dump_facts or args.dump_cmtg or args.dump_mip:
        facts = compute_facts(scene)
        if args.dump_facts:
            _write_or_die(args.dump_facts, facts.dumps())
        if args.dump_cmtg or args.dump_mip:
            graph = build_cmtg(set(scene.goal_objects()), facts, scene)
            if args.dump_cmtg:
                _write_or_die(args.dump_cmtg, graph.dumps())
            if args.dump_mip:
                model = compile_model(graph, cfg.t_max)
                _write_or_die(args.dump_mip, model.dumps_lp())
    trace: list[str] = []
    try:
        result = search_plan(scene, cfg, trace=trace, facts=facts)
    except ValueError as e:  # a scene with an empty goal
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SearchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    if args.trace:
        _write_or_die(args.trace, "\n".join(trace) + ("\n" if trace else ""))
    if isinstance(result, NoPlan):
        print(json.dumps(result.to_doc(), sort_keys=True), file=sys.stderr)
        return 2
    text = dumps_plan(result, sorted(scene.robots))
    if args.out:
        _write_or_die(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    scene = _load_scene_or_die(args.scene)
    try:
        plan = load_plan(args.plan, scene.robots)
        report = validate_plan(scene, plan)
    except (OSError, PlanError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report.to_doc(), indent=2, sort_keys=True))
    return 0 if report.ok else 3


def cmd_render(args) -> int:
    scene = _load_scene_or_die(args.scene)
    plan = None
    if args.plan:
        try:
            plan = load_plan(args.plan, scene.robots)
        except (OSError, PlanError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    _write_or_die(args.svg, render_svg(scene, plan))
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
    p.add_argument("--dump-cmtg", help="write the goal task graph, line-oriented")
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
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
