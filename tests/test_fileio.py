import re

from hypothesis import given, settings
from hypothesis import strategies as st
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
        # Both a second v 0 and malformed: the field is checked first.
        (_MAP + "v 0 bad 1.0", "m.map:5: x must be a number, got 'bad'"),
        (_SCEN + "roadmap", "s.scen:5: roadmap record needs one name"),
        (_SCEN + "roadmap n.map", "s.scen:5: duplicate roadmap record"),
        (_SCEN + "a 1 2 3", "s.scen:5: a record needs start and goal"),
        (_SCEN + "b 1 2", "s.scen:5: unknown record 'b'"),
    ],
    ids=[
        "r-arity", "r-twice", "v-arity", "v-twice", "e-arity", "map-unknown", "id-not-int",
        "v-twice-and-malformed",
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


# Characters ``str.splitlines`` breaks at that a text-mode file read keeps.
_NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
def test_only_newlines_end_a_line(char):
    # Each of these made every later error name the line after its own.
    text = f"mapfla-plan 1\nm 0 1 2{char}\nm x 1 2\n"
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.loads_plan(text, "p.plan")
    assert str(err.value) == "p.plan:3: agent must be an integer, got 'x'"
    assert fileio.loads_plan(f"mapfla-plan 1\nm 0{char}1 2\n") == [Move(0, 1, 2)]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_each_line_end_a_file_read_knows_ends_a_line(end):
    text = end.join(["mapfla-plan 1", "m 0 1 2", "", "m x 1 2", ""])
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.loads_plan(text, "p.plan")
    assert str(err.value) == "p.plan:4: agent must be an integer, got 'x'"


def test_a_file_that_is_not_utf8_is_rejected_naming_its_line(tmp_path):
    # It raised UnicodeDecodeError, which names neither the file nor the line.
    path = tmp_path / "p.plan"
    path.write_bytes(b"mapfla-plan 1\r\nm 0 1 2\nm 0 \xff 1\n")
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.load_plan(path)
    assert err.value.line_no == 3
    assert str(err.value) == f"{path}:3: not UTF-8: invalid start byte 0xff"


# Format -> header, reader, writer, each record kind's number of fields
# and the records of one file that parses.
_FORMATS = {
    "roadmap": (
        fileio.ROADMAP_HEADER, fileio.loads_roadmap, lambda r: fileio.dumps_roadmap(*r),
        {"r": 1, "v": 3, "e": 2},
        ["r 0.5", "v 0 0.0 1", "v 1 -2.5 nan", "e 0 1", "e 1 1"],
    ),
    "scenario": (
        fileio.SCENARIO_HEADER, fileio.loads_scenario, lambda s: fileio.dumps_scenario(*s),
        {"roadmap": 1, "a": 2},
        ["roadmap m.map", "a 0 1", "a 2 2"],
    ),
    "plan": (
        fileio.PLAN_HEADER, fileio.loads_plan, fileio.dumps_plan,
        {"m": 3},
        ["m 0 1 2", "m 1 0 0", "m 0 2 1"],
    ),
}
_KINDS = st.sampled_from(["r", "v", "e", "roadmap", "a", "m", "x", "#", "# c"])
_VALUES = st.one_of(
    st.integers(0, 4).map(str),
    st.integers(-3, -1).map(str),
    st.floats(-5, 5).map(repr),
    st.sampled_from(["nan", "inf", "one", "m.map", "#"]),
)
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_INSIDE = st.sampled_from([" ", " ", " ", "\t", *_NOT_LINE_ENDS])


@st.composite
def _texts(draw, fmt):
    """A file of ``fmt``, or close to one: some of the records of a file that
    parses, in any order, among records of the format's kinds with their
    number of fields, any other records, blank lines and comments, with any
    separators inside lines and any line ends."""
    header, _, _, arities, records = _FORMATS[fmt]
    records = draw(st.permutations(records))[: draw(st.integers(0, len(records)))]
    lines = [record.split() for record in records]
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.integers(0, 3))
        if shape == 0:
            tokens = []
        elif shape == 1:
            kind = draw(st.sampled_from(sorted(arities)))
            n = arities[kind]
            tokens = [kind, *draw(st.lists(_VALUES, min_size=n, max_size=n))]
        else:
            tokens = [draw(_KINDS), *draw(st.lists(_VALUES, max_size=4))]
        lines.insert(draw(st.integers(0, len(lines))), tokens)
    first = draw(st.sampled_from([header, header, header, " " + header, "mapfla-plan 2"]))
    lines = [first] + ["".join(draw(_INSIDE) + token for token in tokens) for tokens in lines]
    ends = st.lists(_ENDS, min_size=len(lines), max_size=len(lines))
    return "".join(line + end for line, end in zip(lines, draw(ends)))


@pytest.mark.parametrize("fmt", _FORMATS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_text_parses_or_is_rejected_naming_a_line(fmt, data):
    _, loads, dumps, _, _ = _FORMATS[fmt]
    text = data.draw(_texts(fmt))
    try:
        parsed = loads(text, "f.txt")
    except fileio.FileFormatError as err:
        assert 1 <= err.line_no <= len(re.split(r"\r\n|\r|\n", text))
        assert str(err).startswith(f"f.txt:{err.line_no}: ")
        return
    dumped = dumps(parsed)
    assert dumps(loads(dumped)) == dumped
