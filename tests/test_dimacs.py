"""Instance parsing and serialization, including every rejection path."""

from __future__ import annotations

import pytest
from hypothesis import given

from splitcut import Graph, ParseError, format_instance, parse_instance

from .conftest import graphs


class TestParsing:
    def test_single_edge(self):
        g = parse_instance("p edge 2 1\ne 1 2\n")
        assert g.n == 2
        assert g.edges() == ((0, 1),)

    def test_pentagon_with_chord(self, pentagon_chord_graph):
        text = "p edge 5 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\ne 5 2\n"
        assert parse_instance(text).edges() == pentagon_chord_graph.edges()

    def test_comments_and_blank_lines_ignored(self):
        text = "c a comment\n\nc another\np edge 3 1\nc mid\ne 2 3\n"
        g = parse_instance(text)
        assert g.n == 3
        assert g.edges() == ((1, 2),)

    def test_no_trailing_newline_needed(self):
        assert parse_instance("p edge 1 0").n == 1

    def test_vertex_limit_is_inclusive(self):
        assert parse_instance(f"p edge {2**20} 0\n").n == 2**20

    def test_isolated_vertices_preserved(self):
        g = parse_instance("p edge 4 1\ne 2 3\n")
        assert g.n == 4
        assert g.degree(0) == g.degree(3) == 0


class TestRejection:
    @pytest.mark.parametrize(
        "text, line_no, fragment",
        [
            ("e 1 2\np edge 2 1\n", 1, "edge before problem line"),
            ("p edge 2 1\np edge 2 1\ne 1 2\n", 2, "repeated problem line"),
            ("p clique 2 1\ne 1 2\n", 1, "p edge N M"),
            ("p edge two 1\n", 1, "p edge N M"),
            ("p edge 2 1 7\n", 1, "p edge N M"),
            ("p edge -2 0\n", 1, "nonnegative"),
            (f"c big\np edge {2**20 + 1} 0\n", 2, "exceeds the limit of 1048576"),
            ("p edge 2 1\ne 1\n", 2, "e U V"),
            ("p edge 2 1\ne 1 2 9\n", 2, "e U V"),
            ("p edge 2 1\ne one 2\n", 2, "integers"),
            ("p edge 2 1\ne 0 2\n", 2, "out of range"),
            ("p edge 2 1\ne 1 3\n", 2, "out of range"),
            ("p edge 2 1\ne 1 1\n", 2, "self-loop"),
            ("p edge 2 2\ne 1 2\ne 2 1\n", 3, "repeated edge"),
            ("p edge 3 2\ne 1 2\n", 1, "announced 2 edges, found 1"),
            ("p edge 3 1\ne 1 2\ne 2 3\n", 1, "announced 1 edges, found 2"),
            ("p edge 2 1\nw 1 2 5\n", 2, "unknown line type 'w'"),
            ("x whatever\n", 1, "unknown line type"),
            ("", 1, "missing problem line"),
            ("c only a comment\n", 1, "missing problem line"),
        ],
    )
    def test_malformed_inputs(self, text, line_no, fragment):
        with pytest.raises(ParseError, match=fragment) as err:
            parse_instance(text)
        assert err.value.line_no == line_no


class TestRoundTrip:
    def test_format_known_graph(self):
        g = Graph.from_edges(3, [(0, 2), (0, 1)])
        assert format_instance(g) == "p edge 3 2\ne 1 2\ne 1 3\n"

    def test_comment_lines_prefixed(self):
        g = Graph.from_edges(1, [])
        text = format_instance(g, comment="first\nsecond")
        assert text.startswith("c first\nc second\np edge 1 0")

    @given(graphs(max_n=9))
    def test_parse_inverts_format(self, g):
        again = parse_instance(format_instance(g, comment="round trip"))
        assert again.n == g.n
        assert again.edges() == g.edges()
