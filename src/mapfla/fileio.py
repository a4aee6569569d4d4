"""Line-oriented text formats for roadmaps, scenarios and plans.

Grammar (whitespace-delimited, one record per line, ``#`` comments allowed):

    roadmap file        scenario file          plan file
    ------------        -------------          ---------
    mapfla-roadmap 1    mapfla-scen 1          mapfla-plan 1
    r <radius>          roadmap <name>         m <agent> <from> <to> ...
    v <id> <x> <y> ...  a <start> <goal> ...
    e <u> <v> ...

Each format's record table below (``_ROADMAP``, ``_SCENARIO``, ``_PLAN``) is
that grammar: one reader checks the header, skips blank and comment lines,
and checks each record's kind, arity and fields against it.  A line ends at
``\\n``, ``\\r\\n`` or ``\\r``, the line ends a text-mode read turns into
``\\n``; other characters ``str.splitlines`` breaks at, such as ``\\f`` or
``\\x85``, are whitespace inside a line.  Files must be UTF-8: a byte that
is not is a format error on its line.

Vertex ids must be dense from 0, and a plan's agent and vertex ids must not
be negative; the ``v``/``e``/``a``/``m`` record order in a file is preserved
on load, and the writers emit exactly what they were given, so parse ->
serialize round-trips are byte-stable.  Parse errors carry the offending line
number.
"""

from __future__ import annotations

from pathlib import Path

from .model import Move, Plan, Roadmap

ROADMAP_HEADER = "mapfla-roadmap 1"
SCENARIO_HEADER = "mapfla-scen 1"
PLAN_HEADER = "mapfla-plan 1"


class FileFormatError(Exception):
    """Malformed input file; ``line_no`` is 1-based."""

    def __init__(self, source: str, line_no: int, message: str):
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = source
        self.line_no = line_no
        self.message = message


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"must be an integer, got {token!r}") from None


def _id(token: str) -> int:
    value = _int(token)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _float(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"must be a number, got {token!r}") from None


# Record kind -> (what its arity error says it needs, then (name, parser) per field).
_ROADMAP = {
    "r": ("one value", ("radius", _float)),
    "v": ("id, x, y", ("vertex id", _int), ("x", _float), ("y", _float)),
    "e": ("two vertex ids", ("vertex id", _int), ("vertex id", _int)),
}
_SCENARIO = {
    "roadmap": ("one name", ("name", str)),
    "a": ("start and goal", ("start vertex", _int), ("goal vertex", _int)),
}
_PLAN = {"m": ("agent, from, to", ("agent", _id), ("from vertex", _id), ("to vertex", _id))}


def _lines(text: str) -> list[str]:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _records(text: str, source: str, header: str, grammar: dict):
    """Each record of ``text`` as ``(line_no, kind, field values)``; any line
    the grammar rejects raises :class:`FileFormatError` naming its line."""
    lines = _lines(text)
    if lines[0].strip() != header:
        raise FileFormatError(source, 1, f"expected header {header!r}")
    for line_no, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        kind, *tokens = tokens
        if kind not in grammar:
            raise FileFormatError(source, line_no, f"unknown record {kind!r}")
        arity, *fields = grammar[kind]
        if len(tokens) != len(fields):
            raise FileFormatError(source, line_no, f"{kind} record needs {arity}")
        values = []
        for token, (name, parse) in zip(tokens, fields):
            try:
                values.append(parse(token))
            except ValueError as exc:
                raise FileFormatError(source, line_no, f"{name} {exc}") from None
        yield line_no, kind, tuple(values)


# -- roadmap ------------------------------------------------------------------


def dumps_roadmap(roadmap: Roadmap, radius: float) -> str:
    out = [ROADMAP_HEADER, f"r {radius!r}"]
    out += (f"v {i} {x!r} {y!r}" for i, (x, y) in enumerate(roadmap.points))
    out += (f"e {u} {v}" for u, v in roadmap.edge_list)
    return "\n".join(out) + "\n"


def loads_roadmap(text: str, source: str = "<roadmap>") -> tuple[Roadmap, float]:
    radius: float | None = None
    verts: dict[int, tuple[int, tuple[float, float]]] = {}  # id -> (line, point)
    edges: list[tuple[int, tuple[int, int]]] = []  # (line, edge)
    for line_no, kind, values in _records(text, source, ROADMAP_HEADER, _ROADMAP):
        if kind == "e":
            edges.append((line_no, values))
        elif kind == "v":
            vid, x, y = values
            if vid in verts:
                raise FileFormatError(source, line_no, f"vertex {vid} declared twice")
            verts[vid] = line_no, (x, y)
        elif radius is not None:
            raise FileFormatError(source, line_no, "duplicate r record")
        else:
            (radius,) = values
    if radius is None:
        raise FileFormatError(source, 1, "missing r record")
    n = len(verts)
    for vid, (line_no, _) in verts.items():
        if not 0 <= vid < n:
            raise FileFormatError(source, line_no, "vertex ids must be dense from 0")
    for line_no, (u, v) in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise FileFormatError(source, line_no, f"edge ({u}, {v}) references a missing vertex")
    return Roadmap(tuple(verts[i][1] for i in range(n)), tuple(e for _, e in edges)), radius


# -- scenario -----------------------------------------------------------------


def dumps_scenario(roadmap_name: str, pairs) -> str:
    out = [SCENARIO_HEADER, f"roadmap {roadmap_name}"]
    out += (f"a {start} {goal}" for start, goal in pairs)
    return "\n".join(out) + "\n"


def loads_scenario(
    text: str, source: str = "<scenario>"
) -> tuple[str, tuple[tuple[int, int], ...]]:
    name: str | None = None
    pairs: list[tuple[int, int]] = []
    for line_no, kind, values in _records(text, source, SCENARIO_HEADER, _SCENARIO):
        if kind == "a":
            pairs.append(values)
        elif name is not None:
            raise FileFormatError(source, line_no, "duplicate roadmap record")
        else:
            (name,) = values
    if name is None:
        raise FileFormatError(source, 1, "missing roadmap record")
    return name, tuple(pairs)


# -- plan ---------------------------------------------------------------------


def dumps_plan(plan: Plan) -> str:
    out = [PLAN_HEADER]
    out += (f"m {m.agent} {m.src} {m.dst}" for m in plan)
    return "\n".join(out) + "\n"


def loads_plan(text: str, source: str = "<plan>") -> Plan:
    return [Move(*values) for _, _, values in _records(text, source, PLAN_HEADER, _PLAN)]


# -- path helpers ---------------------------------------------------------------


def _read(path: str | Path) -> str:
    """The UTF-8 text of ``path``; a byte that is not UTF-8 raises
    :class:`FileFormatError` naming the line it is on."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(_lines(data[: exc.start].decode("utf-8")))
        message = f"not UTF-8: {exc.reason} {data[exc.start]:#04x}"
        raise FileFormatError(str(path), line_no, message) from None


def save_roadmap(path: str | Path, roadmap: Roadmap, radius: float) -> None:
    Path(path).write_text(dumps_roadmap(roadmap, radius), encoding="utf-8")


def load_roadmap(path: str | Path) -> tuple[Roadmap, float]:
    return loads_roadmap(_read(path), str(path))


def save_scenario(path: str | Path, roadmap_name: str, pairs) -> None:
    Path(path).write_text(dumps_scenario(roadmap_name, pairs), encoding="utf-8")


def load_scenario(path: str | Path) -> tuple[str, tuple[tuple[int, int], ...]]:
    return loads_scenario(_read(path), str(path))


def save_plan(path: str | Path, plan: Plan) -> None:
    Path(path).write_text(dumps_plan(plan), encoding="utf-8")


def load_plan(path: str | Path) -> Plan:
    return loads_plan(_read(path), str(path))
