"""Line counts of the ``mapfla`` package, per module and in total.

Run ``python tests/line_counts.py [package dir]`` (default ``src/mapfla``).
With ``--diff OTHER_DIR``, each count is followed by its change against the
modules of ``OTHER_DIR``, say ``src/mapfla`` of a ``git archive`` of another
commit; a module that one side lacks counts as zero there.
Each line of a module falls in exactly one of four kinds, so the four sum to
its line count:

* docstrings: every line of a module's, class's or function's docstring;
* code: any other line that holds a token other than a comment, the lines
  inside a multi-line string included;
* comments: a line whose only token is a comment;
* blank: a line with no token.

Tier-1 does not collect this script; ``tests/test_package.py`` checks that
its counts sum.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("lines", "code", "docstrings", "comments", "blank")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mapfla"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The five counts of one module's source, keyed by :data:`KINDS`."""
    docs = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    n = len(source.splitlines())
    counts = dict.fromkeys(KINDS, 0)
    counts["lines"] = n
    for line in range(1, n + 1):
        if line in docs:
            counts["docstrings"] += 1
        elif line in code:
            counts["code"] += 1
        elif line in comments:
            counts["comments"] += 1
        else:
            counts["blank"] += 1
    return counts


def package_counts(package: Path = PACKAGE) -> dict[str, dict[str, int]]:
    """Per module file name, in name order, its :func:`count`."""
    return {
        path.name: count(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Line counts of the mapfla package.")
    parser.add_argument("dir", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--diff", metavar="OTHER_DIR", type=Path)
    args = parser.parse_args(argv)
    for path in (args.dir, args.diff):
        if path is not None and not path.is_dir():
            parser.error(f"{path} is not a directory")
    per_file = package_counts(args.dir)
    other = package_counts(args.diff) if args.diff is not None else {}
    zero = dict.fromkeys(KINDS, 0)
    names = sorted(per_file.keys() | other.keys())
    rows = [(name, per_file.get(name, zero), other.get(name, zero)) for name in names]
    rows.append(("total", *(
        {kind: sum(c[kind] for c in side.values()) for kind in KINDS}
        for side in (per_file, other)
    )))

    def cell(now: int, before: int) -> str:
        return f"{now} ({now - before:+d})" if args.diff is not None else str(now)

    width = max(map(len, [*names, "total"]))
    col = 16 if args.diff is not None else 11
    print(f"{'module':<{width}}" + "".join(f"{kind:>{col}}" for kind in KINDS))
    for name, counts, base in rows:
        print(f"{name:<{width}}" + "".join(
            f"{cell(counts[kind], base[kind]):>{col}}" for kind in KINDS
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
