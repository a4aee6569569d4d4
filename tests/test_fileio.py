import pytest

from mapfla import fileio
from mapfla.harness import gen_preset, gen_scenario
from mapfla.model import Move, make_roadmap


def test_roadmap_round_trip_byte_stable():
    rm, radius = gen_preset("sparse-like", 3)
    text = fileio.dumps_roadmap(rm, radius)
    parsed, r2 = fileio.loads_roadmap(text)
    assert r2 == radius
    assert parsed.points == rm.points
    assert parsed.edge_list == rm.edge_list
    assert fileio.dumps_roadmap(parsed, r2) == text


def test_scenario_round_trip_byte_stable():
    rm, _ = gen_preset("sparse-like", 3)
    sc = gen_scenario(rm, 12, seed=5, name="arena.map")
    text = fileio.dumps_scenario(sc.roadmap_name, sc.pairs)
    name, pairs = fileio.loads_scenario(text)
    assert (name, pairs) == ("arena.map", sc.pairs)
    assert fileio.dumps_scenario(name, pairs) == text


def test_plan_round_trip_byte_stable():
    plan = [Move(0, 1, 2), Move(3, 2, 1), Move(0, 2, 5)]
    text = fileio.dumps_plan(plan)
    parsed = fileio.loads_plan(text)
    assert parsed == plan
    assert fileio.dumps_plan(parsed) == text


def test_files_round_trip(tmp_path):
    rm = make_roadmap([(0.0, 0.0), (1.5, 0.25)], [(0, 1)])
    p = tmp_path / "a.map"
    fileio.save_roadmap(p, rm, 0.4)
    rm2, r = fileio.load_roadmap(p)
    assert rm2 == rm and r == 0.4


def test_float_precision_survives():
    rm = make_roadmap([(0.1 + 0.2, 1e-17), (123.456789012345, -9.87)], [])
    text = fileio.dumps_roadmap(rm, 0.1234567890123456789)
    parsed, r = fileio.loads_roadmap(text)
    assert parsed.points == rm.points
    assert fileio.dumps_roadmap(parsed, r) == text


def test_bad_header_rejected():
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.loads_roadmap("mapfla-roadmap 2\n")
    assert err.value.line_no == 1


def test_malformed_records_carry_line_numbers():
    text = "mapfla-roadmap 1\nr 0.5\nv 0 0.0 0.0\nv 1 nope 0.0\n"
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.loads_roadmap(text)
    assert err.value.line_no == 4
    text = "mapfla-plan 1\nm 0 1\n"
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.loads_plan(text)
    assert err.value.line_no == 2


def test_sparse_vertex_ids_rejected():
    # ids {0, 2}: the record with id 2 is the one outside 0..n-1
    text = "mapfla-roadmap 1\nr 0.5\nv 2 1.0 1.0\n# gap\nv 0 0.0 0.0\n"
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.loads_roadmap(text)
    assert err.value.line_no == 3


def test_edge_to_unknown_vertex_rejected():
    text = "mapfla-roadmap 1\nr 0.5\nv 0 0.0 0.0\nv 1 3.0 0.0\ne 0 1\n\ne 1 7\n"
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.loads_roadmap(text, "m.map")
    assert err.value.line_no == 7
    assert str(err.value) == "m.map:7: edge (1, 7) references a missing vertex"


def test_duplicate_edges_pass_parser_for_validator_to_catch():
    # structural duplicates are a semantic issue, reported by validate_roadmap
    text = "mapfla-roadmap 1\nr 0.5\nv 0 0.0 0.0\nv 1 3.0 0.0\ne 0 1\ne 1 0\n"
    rm, _ = fileio.loads_roadmap(text)
    assert rm.edge_list == ((0, 1), (1, 0))
    assert fileio.dumps_roadmap(rm, 0.5) == text


def test_comments_and_blank_lines_ignored():
    text = "mapfla-scen 1\n# comment\n\nroadmap m.map\na 0 1\n"
    name, pairs = fileio.loads_scenario(text)
    assert name == "m.map" and pairs == ((0, 1),)


def test_missing_required_records():
    with pytest.raises(fileio.FileFormatError):
        fileio.loads_roadmap("mapfla-roadmap 1\nv 0 0.0 0.0\n")
    with pytest.raises(fileio.FileFormatError):
        fileio.loads_scenario("mapfla-scen 1\na 0 1\n")


def test_unknown_record_rejected():
    with pytest.raises(fileio.FileFormatError):
        fileio.loads_plan("mapfla-plan 1\nq 1 2 3\n")


@pytest.mark.parametrize(
    "record, message",
    [
        ("m -1 0 -5", "agent must be >= 0, got -1"),
        ("m 0 -2 1", "from vertex must be >= 0, got -2"),
        ("m 0 1 -5", "to vertex must be >= 0, got -5"),
    ],
)
def test_negative_plan_ids_rejected(record, message):
    # The first was read as Move(-1, 0, -5).
    text = f"mapfla-plan 1\nm 0 1 2\n# a comment\n{record}\n"
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.loads_plan(text, "p.plan")
    assert err.value.line_no == 4
    assert str(err.value) == f"p.plan:4: {message}"


def test_zero_plan_ids_accepted():
    assert fileio.loads_plan("mapfla-plan 1\nm 0 0 0\n") == [Move(0, 0, 0)]



_MAP = "mapfla-roadmap 1\n# a comment\nr 0.5\nv 0 0.0 0.0\n"
_SCEN = "mapfla-scen 1\n# a comment\nroadmap m.map\na 0 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_MAP + "r 0.5 0.6", "m.map:5: r record needs one value"),
        (_MAP + "r 0.6", "m.map:5: duplicate r record"),
        (_MAP + "v 1 0.0", "m.map:5: v record needs id, x, y"),
        (_MAP + "v 0 1.0 1.0", "m.map:5: vertex 0 declared twice"),
        (_MAP + "e 0", "m.map:5: e record needs two vertex ids"),
        (_MAP + "x 0 1", "m.map:5: unknown record 'x'"),
        (_MAP + "v one 1.0 1.0", "m.map:5: vertex id must be an integer, got 'one'"),
        (_SCEN + "roadmap", "s.scen:5: roadmap record needs one name"),
        (_SCEN + "roadmap n.map", "s.scen:5: duplicate roadmap record"),
        (_SCEN + "a 1 2 3", "s.scen:5: a record needs start and goal"),
        (_SCEN + "b 1 2", "s.scen:5: unknown record 'b'"),
    ],
    ids=[
        "r-arity", "r-twice", "v-arity", "v-twice", "e-arity", "map-unknown", "id-not-int",
        "roadmap-arity", "roadmap-twice", "a-arity", "scen-unknown",
    ],
)
def test_each_malformed_record_is_rejected_naming_its_line(text, message):
    if text.startswith(fileio.ROADMAP_HEADER):
        loads, source = fileio.loads_roadmap, "m.map"
    else:
        loads, source = fileio.loads_scenario, "s.scen"
    with pytest.raises(fileio.FileFormatError) as err:
        loads(text + "\n", source)
    assert str(err.value) == message
