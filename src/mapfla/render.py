"""SVG frame rendering for plans.

Emits one vector frame per plan step (plus the initial configuration):
roadmap edges, vertices, agent disks at true radius, goal rings, and, for
the step's move, the traversed edge with its ``2r`` interference margin
drawn as a capsule.  Frames are plain files; stitch or step through them
with any viewer.
"""

from __future__ import annotations

from pathlib import Path

from .model import Instance, Plan, State, apply_move

_MARGIN = 2.0


def _agent_color(agent: int, k: int) -> str:
    hue = int(360 * agent / max(1, k))
    return f"hsl({hue}, 70%, 45%)"


def render_frame(
    instance: Instance,
    state: State,
    move_index: int | None,
    plan: Plan,
    scale: float = 40.0,
) -> str:
    """One SVG document for ``state``; ``move_index`` marks the upcoming move."""
    rm = instance.roadmap
    r = instance.radius
    xs = [p[0] for p in rm.points] or [0.0]
    ys = [p[1] for p in rm.points] or [0.0]
    x0, y0 = min(xs) - _MARGIN, min(ys) - _MARGIN
    x1, y1 = max(xs) + _MARGIN, max(ys) + _MARGIN
    w = (x1 - x0) * scale
    h = (y1 - y0) * scale

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale  # flip so +y points up

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.2f} {h:.2f}">',
        f'<rect width="{w:.2f}" height="{h:.2f}" fill="white"/>',
    ]

    if move_index is not None and 0 <= move_index < len(plan):
        m = plan[move_index]
        a = rm.points[m.src]
        b = rm.points[m.dst]
        parts.append(
            f'<line x1="{sx(a[0]):.2f}" y1="{sy(a[1]):.2f}" '
            f'x2="{sx(b[0]):.2f}" y2="{sy(b[1]):.2f}" '
            f'stroke="rgba(255,160,0,0.25)" stroke-width="{4 * r * scale:.2f}" '
            f'stroke-linecap="round"/>'
        )
        parts.append(
            f'<line x1="{sx(a[0]):.2f}" y1="{sy(a[1]):.2f}" '
            f'x2="{sx(b[0]):.2f}" y2="{sy(b[1]):.2f}" '
            f'stroke="orange" stroke-width="3"/>'
        )

    for u, v in sorted(rm.edge_set):
        a, b = rm.points[u], rm.points[v]
        parts.append(
            f'<line x1="{sx(a[0]):.2f}" y1="{sy(a[1]):.2f}" '
            f'x2="{sx(b[0]):.2f}" y2="{sy(b[1]):.2f}" '
            f'stroke="#999" stroke-width="1"/>'
        )
    for x, y in rm.points:
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="#444"/>'
        )

    k = instance.n_agents
    for agent, goal in enumerate(instance.goals):
        x, y = rm.points[goal]
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="{r * scale:.2f}" '
            f'fill="none" stroke="{_agent_color(agent, k)}" '
            f'stroke-width="1.5" stroke-dasharray="4 3"/>'
        )
    for agent, vertex in enumerate(state.positions):
        x, y = rm.points[vertex]
        color = _agent_color(agent, k)
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="{r * scale:.2f}" '
            f'fill="{color}" fill-opacity="0.75" stroke="{color}"/>'
        )
        parts.append(
            f'<text x="{sx(x):.2f}" y="{sy(y) + 4:.2f}" font-size="11" '
            f'text-anchor="middle" fill="white">{agent}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_plan(instance: Instance, plan: Plan, out_dir: str | Path) -> list[Path]:
    """Write ``len(plan) + 1`` frames to ``out_dir``; returns the paths.

    Raises ``ValueError``, before writing anything, if a move does not start
    at its agent's vertex or ends on an occupied one."""
    states = [State(instance.starts)]
    for m in plan:
        states.append(apply_move(states[-1], m))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for i, state in enumerate(states):
        marker = i if i < len(plan) else None
        path = out / f"frame_{i:04d}.svg"
        path.write_text(render_frame(instance, state, marker, plan), encoding="utf-8")
        written.append(path)
    return written
