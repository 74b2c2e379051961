"""Reading and writing graphs in the DIMACS "p edge" dialect.

Accepted lines are comments (``c ...``), one problem line
(``p edge N M``), and edge lines (``e U V``) with 1-based endpoint
labels. Anything else, including weighted edges, is rejected with the
offending line number. The writer emits the same dialect back.
"""

from __future__ import annotations

from .graph import Graph

MAX_VERTICES = 1 << 20  # checked on the problem line, before any allocation


class ParseError(ValueError):
    """Malformed DIMACS input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_instance(text: str) -> Graph:
    """Parse a DIMACS graph, enforcing the announced edge count.

    Raises ParseError for: unknown line types, a missing or repeated
    problem line, more than MAX_VERTICES vertices, edges before the
    problem line, non-integer or out-of-range endpoints, self-loops,
    repeated edges, and a final edge count different from the announced one.
    """
    n = -1
    header_line = 0
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    declared = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n >= 0:
                raise ParseError(line_no, "repeated problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError(line_no, "problem line must be 'p edge N M'")
            try:
                n, declared = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(line_no, "problem line must be 'p edge N M'") from None
            if n < 0 or declared < 0:
                raise ParseError(line_no, "vertex and edge counts must be nonnegative")
            if n > MAX_VERTICES:
                raise ParseError(line_no, f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
            header_line = line_no
        elif fields[0] == "e":
            if n < 0:
                raise ParseError(line_no, "edge before problem line")
            if len(fields) != 3:
                raise ParseError(line_no, "edge line must be 'e U V'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(line_no, "edge endpoints must be integers") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"endpoint out of range 1..{n}")
            if u == v:
                raise ParseError(line_no, f"self-loop at vertex {u}")
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in seen:
                raise ParseError(line_no, f"repeated edge {u} {v}")
            seen.add(key)
            edges.append(key)
        else:
            raise ParseError(line_no, f"unknown line type {fields[0]!r}")
    if n < 0:
        raise ParseError(1, "missing problem line")
    if len(edges) != declared:
        raise ParseError(
            header_line, f"problem line announced {declared} edges, found {len(edges)}"
        )
    return Graph.from_edges(n, edges)


def format_instance(g: Graph, comment: str | None = None) -> str:
    """Render a graph as DIMACS text with edges in ascending order."""
    lines = []
    if comment:
        lines.extend(f"c {part}" for part in comment.splitlines())
    lines.append(f"p edge {g.n} {g.m}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
