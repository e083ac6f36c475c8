"""Deterministic SVG rendering of scenes and plans.

Regions are outlined rectangles, fixed and movable objects filled shapes,
robots a base dot plus reach annulus, and each plan step a numbered layer of
swept corridors and motion arrows. Names are escaped, so the output is
well-formed XML whatever a scene calls its parts. Output is byte-identical
for identical inputs.
"""
from __future__ import annotations

import html
import math

from .geometry import Disc, Pose, Rectangle
from .plans import Plan
from .scene import Scene

SCALE = 400.0   # pixels per metre
PAD = 0.15      # metres of margin around the drawing

STEP_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Canvas:
    def __init__(self, xmin, ymin, xmax, ymax):
        self.xmin, self.ymax = xmin, ymax
        self.w = (xmax - xmin) * SCALE
        self.h = (ymax - ymin) * SCALE
        self.lines: list[str] = []

    def pt(self, p) -> tuple[float, float]:
        return ((p[0] - self.xmin) * SCALE, (self.ymax - p[1]) * SCALE)

    def add(self, line: str):
        self.lines.append(line)

    def svg(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{_fmt(self.w)}" height="{_fmt(self.h)}" '
                f'viewBox="0 0 {_fmt(self.w)} {_fmt(self.h)}">')
        return "\n".join([head] + self.lines + ["</svg>"]) + "\n"


def _shape_svg(cv: _Canvas, shape, pose: Pose, cls: str, style: str) -> str:
    x, y = cv.pt(pose.xy)
    if isinstance(shape, Disc):
        return (f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" '
                f'r="{_fmt(shape.radius * SCALE)}" {style}/>')
    assert isinstance(shape, Rectangle)
    w, h = shape.half_w * SCALE, shape.half_h * SCALE
    deg = -math.degrees(pose.theta)
    return (f'<rect class="{cls}" x="{_fmt(x - w)}" y="{_fmt(y - h)}" '
            f'width="{_fmt(2 * w)}" height="{_fmt(2 * h)}" '
            f'transform="rotate({_fmt(deg)} {_fmt(x)} {_fmt(y)})" {style}/>')


def render_svg(scene: Scene, plan: Plan | None = None) -> str:
    xs, ys = [], []
    for rect in scene.regions.values():
        xs += [rect.xmin, rect.xmax]
        ys += [rect.ymin, rect.ymax]
    for r in scene.robots.values():
        xs += [r.base[0] - r.reach_max, r.base[0] + r.reach_max]
        ys += [r.base[1] - r.reach_max, r.base[1] + r.reach_max]
    for shape, pose in scene.fixed:
        xs += [pose.x - shape.circumradius, pose.x + shape.circumradius]
        ys += [pose.y - shape.circumradius, pose.y + shape.circumradius]
    # a scene with nothing to bound gets an empty canvas around the origin
    cv = _Canvas(min(xs, default=0.0) - PAD, min(ys, default=0.0) - PAD,
                 max(xs, default=0.0) + PAD, max(ys, default=0.0) + PAD)

    for name in sorted(scene.regions):
        rect = scene.regions[name]
        x0, y0 = cv.pt((rect.xmin, rect.ymax))
        cv.add(f'<rect class="region" x="{_fmt(x0)}" y="{_fmt(y0)}" '
               f'width="{_fmt((rect.xmax - rect.xmin) * SCALE)}" '
               f'height="{_fmt((rect.ymax - rect.ymin) * SCALE)}" '
               f'fill="none" stroke="#888" stroke-dasharray="6 3"/>')
        lx, ly = cv.pt((rect.xmin + 0.02, rect.ymax - 0.02))
        cv.add(f'<text class="region-label" x="{_fmt(lx)}" y="{_fmt(ly + 12)}" '
               f'font-size="12" fill="#888">{html.escape(name, quote=False)}</text>')
    for shape, pose in scene.fixed:
        cv.add(_shape_svg(cv, shape, pose, "fixed", 'fill="#444"'))
    for name in sorted(scene.movables):
        m = scene.movables[name]
        cv.add(_shape_svg(cv, m.shape, m.pose, "movable",
                          'fill="#6baed6" stroke="#2171b5"'))
        lx, ly = cv.pt(m.pose.xy)
        cv.add(f'<text class="movable-label" x="{_fmt(lx)}" y="{_fmt(ly + 4)}" '
               f'font-size="11" text-anchor="middle">{html.escape(name, quote=False)}</text>')
    for name in sorted(scene.robots):
        r = scene.robots[name]
        bx, by = cv.pt(r.base)
        cv.add(f'<g class="robot">'
               f'<circle cx="{_fmt(bx)}" cy="{_fmt(by)}" '
               f'r="{_fmt(r.reach_max * SCALE)}" fill="none" stroke="#bbb"/>'
               f'<circle cx="{_fmt(bx)}" cy="{_fmt(by)}" '
               f'r="{_fmt(r.reach_min * SCALE)}" fill="none" stroke="#bbb"/>'
               f'<circle cx="{_fmt(bx)}" cy="{_fmt(by)}" r="5" fill="#000"/>'
               f'<text x="{_fmt(bx + 8)}" y="{_fmt(by - 8)}" '
               f'font-size="12">{html.escape(name, quote=False)}</text></g>')

    if plan is not None:
        for j, step in enumerate(plan.steps, start=1):
            color = STEP_COLORS[(j - 1) % len(STEP_COLORS)]
            parts = [f'<g class="step" data-step="{j}">']
            for robot in sorted(step.moves):
                mv = step.moves[robot]
                for cor in mv.all_corridors():
                    ax, ay = cv.pt(cor.a)
                    bx, by = cv.pt(cor.b)
                    parts.append(
                        f'<line class="corridor" x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
                        f'x2="{_fmt(bx)}" y2="{_fmt(by)}" stroke="{color}" '
                        f'stroke-width="{_fmt(cor.width * SCALE)}" '
                        f'stroke-linecap="round" stroke-opacity="0.15"/>')
                ax, ay = cv.pt(mv.place_traj.corridor.a)
                bx, by = cv.pt(mv.place_traj.corridor.b)
                parts.append(
                    f'<line class="arrow" x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
                    f'x2="{_fmt(bx)}" y2="{_fmt(by)}" stroke="{color}" '
                    f'stroke-width="2"/>')
                mx, my = (ax + bx) / 2, (ay + by) / 2
                parts.append(
                    f'<text class="step-label" x="{_fmt(mx)}" y="{_fmt(my)}" '
                    f'font-size="14" fill="{color}" font-weight="bold">{j}</text>')
                px, py = cv.pt(mv.placement.xy)
                parts.append(
                    f'<circle class="placement" cx="{_fmt(px)}" cy="{_fmt(py)}" '
                    f'r="4" fill="{color}"/>')
            parts.append("</g>")
            cv.add("".join(parts))
    return cv.svg()
