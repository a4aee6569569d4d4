"""Line-oriented text formats for roadmaps, scenarios and plans.

Grammar (whitespace-delimited, one record per line, ``#`` comments allowed):

    roadmap file        scenario file          plan file
    ------------        -------------          ---------
    mapfla-roadmap 1    mapfla-scen 1          mapfla-plan 1
    r <radius>          roadmap <name>         m <agent> <from> <to> ...
    v <id> <x> <y> ...  a <start> <goal> ...

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


def _records(text: str, source: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise FileFormatError(source, 1, f"expected header {header!r}")
    for i, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line.split()


def _int(token: str, source: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FileFormatError(source, line_no, f"{what} must be an integer, got {token!r}")


def _id(token: str, source: str, line_no: int, what: str) -> int:
    value = _int(token, source, line_no, what)
    if value < 0:
        raise FileFormatError(source, line_no, f"{what} must be >= 0, got {value}")
    return value


def _float(token: str, source: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise FileFormatError(source, line_no, f"{what} must be a number, got {token!r}")


# -- roadmap ------------------------------------------------------------------


def dumps_roadmap(roadmap: Roadmap, radius: float) -> str:
    out = [ROADMAP_HEADER, f"r {radius!r}"]
    for i, (x, y) in enumerate(roadmap.points):
        out.append(f"v {i} {x!r} {y!r}")
    for u, v in roadmap.edge_list:
        out.append(f"e {u} {v}")
    return "\n".join(out) + "\n"


def loads_roadmap(text: str, source: str = "<roadmap>") -> tuple[Roadmap, float]:
    radius: float | None = None
    verts: dict[int, tuple[float, float]] = {}
    vert_lines: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    for line_no, tokens in _records(text, source, ROADMAP_HEADER):
        kind = tokens[0]
        if kind == "r":
            if len(tokens) != 2:
                raise FileFormatError(source, line_no, "r record needs one value")
            if radius is not None:
                raise FileFormatError(source, line_no, "duplicate r record")
            radius = _float(tokens[1], source, line_no, "radius")
        elif kind == "v":
            if len(tokens) != 4:
                raise FileFormatError(source, line_no, "v record needs id, x, y")
            vid = _int(tokens[1], source, line_no, "vertex id")
            if vid in verts:
                raise FileFormatError(source, line_no, f"vertex {vid} declared twice")
            verts[vid] = (
                _float(tokens[2], source, line_no, "x"),
                _float(tokens[3], source, line_no, "y"),
            )
            vert_lines[vid] = line_no
        elif kind == "e":
            if len(tokens) != 3:
                raise FileFormatError(source, line_no, "e record needs two vertex ids")
            edges.append(
                (
                    _int(tokens[1], source, line_no, "vertex id"),
                    _int(tokens[2], source, line_no, "vertex id"),
                )
            )
            edge_lines.append(line_no)
        else:
            raise FileFormatError(source, line_no, f"unknown record {kind!r}")
    if radius is None:
        raise FileFormatError(source, 1, "missing r record")
    n = len(verts)
    for vid, line_no in vert_lines.items():
        if not 0 <= vid < n:
            raise FileFormatError(source, line_no, "vertex ids must be dense from 0")
    points = tuple(verts[i] for i in range(n))
    for (u, v), line_no in zip(edges, edge_lines):
        if not (0 <= u < n and 0 <= v < n):
            raise FileFormatError(
                source, line_no, f"edge ({u}, {v}) references a missing vertex"
            )
    return Roadmap(points=points, edge_list=tuple(edges)), radius


# -- scenario -----------------------------------------------------------------


def dumps_scenario(roadmap_name: str, pairs) -> str:
    out = [SCENARIO_HEADER, f"roadmap {roadmap_name}"]
    for start, goal in pairs:
        out.append(f"a {start} {goal}")
    return "\n".join(out) + "\n"


def loads_scenario(
    text: str, source: str = "<scenario>"
) -> tuple[str, tuple[tuple[int, int], ...]]:
    name: str | None = None
    pairs: list[tuple[int, int]] = []
    for line_no, tokens in _records(text, source, SCENARIO_HEADER):
        kind = tokens[0]
        if kind == "roadmap":
            if len(tokens) != 2:
                raise FileFormatError(source, line_no, "roadmap record needs one name")
            if name is not None:
                raise FileFormatError(source, line_no, "duplicate roadmap record")
            name = tokens[1]
        elif kind == "a":
            if len(tokens) != 3:
                raise FileFormatError(source, line_no, "a record needs start and goal")
            pairs.append(
                (
                    _int(tokens[1], source, line_no, "start vertex"),
                    _int(tokens[2], source, line_no, "goal vertex"),
                )
            )
        else:
            raise FileFormatError(source, line_no, f"unknown record {kind!r}")
    if name is None:
        raise FileFormatError(source, 1, "missing roadmap record")
    return name, tuple(pairs)


# -- plan ---------------------------------------------------------------------


def dumps_plan(plan: Plan) -> str:
    out = [PLAN_HEADER]
    for m in plan:
        out.append(f"m {m.agent} {m.src} {m.dst}")
    return "\n".join(out) + "\n"


def loads_plan(text: str, source: str = "<plan>") -> Plan:
    moves: list[Move] = []
    for line_no, tokens in _records(text, source, PLAN_HEADER):
        if tokens[0] != "m":
            raise FileFormatError(source, line_no, f"unknown record {tokens[0]!r}")
        if len(tokens) != 4:
            raise FileFormatError(source, line_no, "m record needs agent, from, to")
        moves.append(
            Move(
                _id(tokens[1], source, line_no, "agent"),
                _id(tokens[2], source, line_no, "from vertex"),
                _id(tokens[3], source, line_no, "to vertex"),
            )
        )
    return moves


# -- path helpers ---------------------------------------------------------------


def save_roadmap(path: str | Path, roadmap: Roadmap, radius: float) -> None:
    Path(path).write_text(dumps_roadmap(roadmap, radius), encoding="utf-8")


def load_roadmap(path: str | Path) -> tuple[Roadmap, float]:
    return loads_roadmap(Path(path).read_text(encoding="utf-8"), str(path))


def save_scenario(path: str | Path, roadmap_name: str, pairs) -> None:
    Path(path).write_text(dumps_scenario(roadmap_name, pairs), encoding="utf-8")


def load_scenario(path: str | Path) -> tuple[str, tuple[tuple[int, int], ...]]:
    return loads_scenario(Path(path).read_text(encoding="utf-8"), str(path))


def save_plan(path: str | Path, plan: Plan) -> None:
    Path(path).write_text(dumps_plan(plan), encoding="utf-8")


def load_plan(path: str | Path) -> Plan:
    return loads_plan(Path(path).read_text(encoding="utf-8"), str(path))
