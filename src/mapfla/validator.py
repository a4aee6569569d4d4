"""Independent plan checker.

This module is the arbiter for every other component: it recomputes segment
distances per transition instead of consulting the precomputed interference
cache, so a solver bug cannot hide behind a cache bug.  A transition is valid
iff the mover actually sits on the edge's source vertex, the edge exists, the
target is free, and every other agent keeps a strictly-greater-than-``2r``
distance to the swept segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import clearance_threshold, segdist
from .model import Instance, Move, Plan, State, apply_move


def is_valid_transition(state: State, move: Move, instance: Instance) -> bool:
    """True iff replacing ``state`` by applying ``move`` is a legal transition."""
    return _transition_error(state, move, instance) is None


def _transition_error(state: State, move: Move, instance: Instance) -> str | None:
    rm = instance.roadmap
    if not 0 <= move.agent < len(state.positions):
        return f"no agent {move.agent}"
    if state.positions[move.agent] != move.src:
        return (
            f"agent {move.agent} is at vertex {state.positions[move.agent]}, "
            f"not {move.src}"
        )
    if not rm.has_edge(move.src, move.dst):
        return f"no edge between {move.src} and {move.dst}"
    threshold = clearance_threshold(instance.radius)
    a = rm.points[move.src]
    b = rm.points[move.dst]
    for other, v in enumerate(state.positions):
        if other == move.agent:
            continue
        if v == move.dst:
            return f"target vertex {move.dst} occupied by agent {other}"
        if segdist(rm.points[v], a, b) <= threshold:
            return (
                f"agent {other} at vertex {v} is within 2r of "
                f"edge ({move.src}, {move.dst})"
            )
    return None


@dataclass(frozen=True)
class PlanReport:
    """First-failure report from :func:`validate_plan`.

    ``failed_index`` is the offending move's position, or ``len(plan)`` when
    the replay succeeded but the terminal state misses the goal.
    """

    ok: bool
    failed_index: int | None = None
    reason: str | None = None


def validate_plan(instance: Instance, plan: Plan) -> PlanReport:
    """Replay ``plan`` from the instance start; ok iff every transition is
    valid and the terminal state places every agent on its goal."""
    state = State(instance.starts)
    for i, move in enumerate(plan):
        err = _transition_error(state, move, instance)
        if err is not None:
            return PlanReport(ok=False, failed_index=i, reason=f"move {i}: {err}")
        state = apply_move(state, move)
    for agent, goal in enumerate(instance.goals):
        if state.positions[agent] != goal:
            return PlanReport(
                ok=False,
                failed_index=len(plan),
                reason=(
                    f"goal not reached: agent {agent} ended at vertex "
                    f"{state.positions[agent]}, goal is {goal}"
                ),
            )
    return PlanReport(ok=True)
