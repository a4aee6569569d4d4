"""Multi-agent pathfinding for large disk-shaped agents on embedded roadmaps."""

from .geometry import EPS, dist, segdist
from .model import (
    Instance,
    InterferenceCache,
    Move,
    Plan,
    Roadmap,
    State,
    apply_move,
    make_roadmap,
    validate_roadmap,
)
from .oracle import OracleResult, joint_bfs_solve
from .solver import (
    FAILED,
    LA,
    NAIVE,
    SOLVED,
    TIMEOUT,
    InvalidInstanceError,
    SolveResult,
    SolverConfig,
    SolveStats,
    solve,
)
from .validator import PlanReport, is_valid_transition, validate_plan

__version__ = "0.1.0"

__all__ = [
    "EPS",
    "FAILED",
    "LA",
    "NAIVE",
    "SOLVED",
    "TIMEOUT",
    "Instance",
    "InterferenceCache",
    "InvalidInstanceError",
    "Move",
    "OracleResult",
    "Plan",
    "PlanReport",
    "Roadmap",
    "SolveResult",
    "SolveStats",
    "SolverConfig",
    "State",
    "apply_move",
    "dist",
    "is_valid_transition",
    "joint_bfs_solve",
    "make_roadmap",
    "segdist",
    "solve",
    "validate_plan",
    "validate_roadmap",
]
