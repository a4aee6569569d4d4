"""Which functions the traced run wraps, and the per-layer metrics it reports.

Layers are named by module: ``model``, ``solver``, ``validator``, ``oracle``
and ``harness``.  ``fileio``, ``render`` and ``cli`` are left out: no wait a
user sees runs through them except parsing, and dense-fresh already stands in
for a per-invocation CLI solve.
"""

from __future__ import annotations

from .tracer import Probe

_SOLVER = "mapfla.solver"
_WS = "mapfla.solver:Workspace."


def _interference_counts(args, cache):
    roadmap = args[0]
    return {
        # Segment-distance tests of the exhaustive scan: E * (V - 2).
        "tests_computed": roadmap.n_edges * max(roadmap.n_vertices - 2, 0),
        "hits": sum(len(vs) for vs in cache.edge_vertices.values()),
    }


def _plan_report_counts(args, report):
    plan = args[1]
    replayed = len(plan) if report.ok else min(report.failed_index + 1, len(plan))
    return {"moves_replayed": replayed}


def _oracle_counts(args, result):
    return {
        "expanded": result.expanded,
        "budget_exceeded": int(result.status == "budget_exceeded"),
    }


PROBES = (
    Probe(
        "model.validate_roadmap",
        ("mapfla.model:validate_roadmap", f"{_SOLVER}:validate_roadmap"),
    ),
    Probe(
        "model.build_interference",
        ("mapfla.model:build_interference", f"{_SOLVER}:build_interference"),
        after=_interference_counts,
    ),
    # The self time of ``solve`` is the outer loop: ``_plan_agent`` and
    # ``_outer_push`` are not wrapped, so their time stays in this span.
    Probe("solver.outer", (f"{_SOLVER}:solve",)),
    Probe(
        "solver.move_la",
        (_WS + "move_la",),
        after=lambda args, ok: {"ok": int(bool(ok))},
    ),
    Probe("solver.reversable_edge_cleaning", (_WS + "reversable_edge_cleaning",)),
    Probe("solver.push_to_empty", (_WS + "push_to_empty",)),
    Probe("solver.push_through_v_from", (_WS + "push_through_v_from",)),
    Probe("solver.push_along_path", (_WS + "push_along_path",)),
    Probe("solver.bfs_dists", (f"{_SOLVER}:bfs_dists",)),
    Probe("solver.lex_shortest_path", (f"{_SOLVER}:lex_shortest_path",)),
    Probe(
        "solver.try_move",
        (_WS + "try_move",),
        after=lambda args, ok: {"applied": int(bool(ok))},
        timed=False,
    ),
    Probe(
        "solver.rollback",
        (_WS + "rollback",),
        before=lambda args, _: {"moves_undone": max(len(args[0].plan) - args[1], 0)},
        timed=False,
    ),
    Probe(
        "validator.validate_plan",
        ("mapfla.validator:validate_plan", "mapfla.harness:validate_plan"),
        after=_plan_report_counts,
    ),
    Probe(
        "validator.is_valid_transition",
        ("mapfla.validator:is_valid_transition", "mapfla.oracle:is_valid_transition"),
    ),
    Probe(
        "oracle.joint_bfs_solve",
        ("mapfla.oracle:joint_bfs_solve",),
        after=_oracle_counts,
    ),
    Probe("harness.gen_roadmap", ("mapfla.harness:gen_roadmap",)),
    Probe("harness.gen_scenario", ("mapfla.harness:gen_scenario",)),
)

# Layers whose work is set-up: their spans count during set-up as well.
SETUP_LAYERS = ("harness.gen_roadmap", "harness.gen_scenario")

_TIMED = [p.layer for p in PROBES if p.timed]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *(
        (f"{layer}.{part}", unit)
        for layer in _TIMED
        for part, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("model.build_interference.tests_computed", "count"),
    ("model.build_interference.hits", "count"),
    ("model.build_interference.hit_ratio", "ratio"),
    ("solver.move_la.ok_ratio", "ratio"),
    ("solver.try_move.applied", "moves"),
    ("solver.rollback.moves_undone", "moves"),
    ("solver.moves.kept_ratio", "ratio"),
    ("solver.stats.attempts", "count"),
    ("solver.stats.move_la_calls", "count"),
    ("solver.stats.case3_failures", "count"),
    ("solver.search_s", "s"),
    ("solver.setup_in_solve_s", "s"),
    ("validator.validate_plan.moves_replayed", "moves"),
    ("oracle.joint_bfs_solve.expanded", "states"),
    ("oracle.joint_bfs_solve.budget_exceeded", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.solve_accounted_ratio", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(tracer, untraced, traced) -> dict[str, float]:
    """Every per-layer metric of a traced run.

    ``untraced`` and ``traced`` are the :class:`PassResult` of the same cases
    without and with the probes installed.
    """
    spans, counters = tracer.totals(exclude=("setup",))
    setup_spans, _ = tracer.totals()
    values: dict[str, float] = {}
    for layer in _TIMED:
        source = setup_spans if layer in SETUP_LAYERS else spans
        calls, self_s = source.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    for name in (
        "model.build_interference.tests_computed",
        "model.build_interference.hits",
        "solver.try_move.applied",
        "solver.rollback.moves_undone",
        "validator.validate_plan.moves_replayed",
        "oracle.joint_bfs_solve.expanded",
        "oracle.joint_bfs_solve.budget_exceeded",
    ):
        values[name] = counters.get(name, 0)
    values["model.build_interference.hit_ratio"] = _ratio(
        values["model.build_interference.hits"],
        values["model.build_interference.tests_computed"],
    )
    values["solver.move_la.ok_ratio"] = _ratio(
        counters.get("solver.move_la.ok", 0), values["solver.move_la.calls"]
    )
    values["solver.moves.kept_ratio"] = _ratio(
        sum(traced.plan_moves), values["solver.try_move.applied"]
    )
    stats = traced.stats
    values["solver.stats.attempts"] = stats.get("attempts", 0)
    values["solver.stats.move_la_calls"] = stats.get("move_la_calls", 0)
    values["solver.stats.case3_failures"] = stats.get("case3_failures", 0)
    solve_wall = sum(traced.solve_s)
    values["solver.search_s"] = stats.get("elapsed", 0.0)
    values["solver.setup_in_solve_s"] = solve_wall - values["solver.search_s"]
    # Both passes scaled to reference speed, so host load does not pose as overhead.
    values["trace.overhead_ratio"] = (
        _ratio(sum(traced.at_reference("case")), sum(untraced.at_reference("case"))) - 1
    )
    in_solve = sum(
        self_s
        for layer, (_, self_s) in spans.items()
        if layer.startswith(("model.", "solver."))
    )
    values["trace.solve_accounted_ratio"] = _ratio(in_solve, solve_wall)
    return values
