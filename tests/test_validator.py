import ast
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ordering_instance, tiny_instance
from mapfla.model import Instance, Move, State, make_roadmap
from mapfla.oracle import SOLVED, joint_bfs_solve
from mapfla import validator
from mapfla.validator import is_valid_transition, validate_plan


def line_instance(starts, goals, r=0.3, n=4):
    rm = make_roadmap([(1.2 * i, 0) for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    return Instance(roadmap=rm, radius=r, starts=starts, goals=goals)


def test_lone_agent_any_edge_is_valid():
    inst = line_instance((0,), (3,))
    state = State((0,))
    assert is_valid_transition(state, Move(0, 0, 1), inst)


def test_occupied_interfering_vertex_blocks():
    # blue on vertex 2 sits within 2r of the (0, 1) segment
    rm = make_roadmap([(0, 0), (1.2, 0), (0.6, 0.9)], [(0, 1), (1, 2)])
    inst = Instance(roadmap=rm, radius=0.5, starts=(0, 2), goals=(1, 2))
    assert not is_valid_transition(State((0, 2)), Move(0, 0, 1), inst)


def test_relocated_interferer_unblocks():
    rm = make_roadmap(
        [(0, 0), (1.2, 0), (0.6, 0.9), (0.6, 2.1)], [(0, 1), (2, 3)]
    )
    inst = Instance(roadmap=rm, radius=0.5, starts=(0, 2), goals=(1, 2))
    assert not is_valid_transition(State((0, 2)), Move(0, 0, 1), inst)
    assert is_valid_transition(State((0, 3)), Move(0, 0, 1), inst)


def test_missing_edge_and_occupied_target_invalid():
    inst = line_instance((0, 1), (0, 1))
    assert not is_valid_transition(State((0, 1)), Move(0, 0, 2), inst)
    assert not is_valid_transition(State((0, 1)), Move(0, 0, 1), inst)
    assert not is_valid_transition(State((0, 1)), Move(1, 0, 1), inst)


def test_empty_plan_ok_when_start_is_goal():
    inst = line_instance((0, 2), (0, 2))
    assert validate_plan(inst, []).ok


def test_goal_not_reached_reported():
    inst = line_instance((0,), (2,))
    plan = [Move(0, 0, 1), Move(0, 1, 2)]
    assert validate_plan(inst, plan).ok
    report = validate_plan(inst, plan[:-1])
    assert not report.ok
    assert report.failed_index == 1
    assert "goal not reached" in report.reason


def test_first_failure_reported_with_index():
    inst = line_instance((0,), (2,))
    report = validate_plan(inst, [Move(0, 1, 2)])
    assert not report.ok
    assert report.failed_index == 0
    assert "not 1" in report.reason


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_validity_monotone_in_radius(seed):
    # a transition valid at radius r stays valid at any smaller radius
    rng = random.Random(seed)
    inst = tiny_instance(seed)
    state = State(inst.starts)
    agent = rng.randrange(inst.n_agents)
    u = state.positions[agent]
    nbrs = inst.roadmap.neighbors(u)
    if not nbrs:
        return
    move = Move(agent, u, rng.choice(nbrs))
    if is_valid_transition(state, move, inst):
        smaller = Instance(inst.roadmap, inst.radius * rng.uniform(0.1, 0.999),
                           inst.starts, inst.goals)
        assert is_valid_transition(state, move, smaller)


def test_oracle_plan_mutation_always_caught():
    # deleting any single move from a minimal plan must fail validation
    checked = 0
    for seed in range(60):
        inst = tiny_instance(seed)
        result = joint_bfs_solve(inst, node_budget=100_000)
        if result.status != SOLVED or not result.plan:
            continue
        assert validate_plan(inst, result.plan).ok
        for i in range(len(result.plan)):
            mutated = result.plan[:i] + result.plan[i + 1 :]
            assert not validate_plan(inst, mutated).ok
            checked += 1
    assert checked > 50


def test_ordering_fixture_oracle_plan_validates():
    inst = ordering_instance()
    result = joint_bfs_solve(inst)
    assert result.status == SOLVED
    assert validate_plan(inst, result.plan).ok


def test_validator_is_independent_of_the_solver():
    """The validator is the arbiter of solver plans, so it must neither
    import the solver nor reuse its interference cache."""
    tree = ast.parse(Path(validator.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"solver", "InterferenceCache", "build_interference"}
