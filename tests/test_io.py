import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES, signed_graphs
from srsg.catalog import build
from srsg.core import ugraph_from_edges
from srsg.errors import (
    BadCharacter,
    BadEdgeLine,
    BadHeader,
    BadSign,
    CountMismatch,
    DuplicateEdge,
    MalformedHeader,
    SelfLoop,
    SizeExceeded,
    TrailingBits,
    TruncatedPayload,
    VertexOutOfRange,
)
from srsg.iso import are_isomorphic
from srsg.sgio import (
    emit_graph6,
    emit_sg,
    export_dot,
    parse_graph6,
    parse_sg,
    read_graph6_file,
)


def test_graph6_known_strings():
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.edge_count() == 6
    k3 = parse_graph6("Bw")
    assert k3.n == 3 and k3.edge_count() == 3
    assert emit_graph6(k4) == "C~"
    assert emit_graph6(k3) == "Bw"
    assert parse_graph6(">>graph6<<C~").edge_count() == 6


@given(st.integers(2, 12), st.randoms(use_true_random=False))
def test_graph6_round_trip_random(n, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    g = ugraph_from_edges(n, edges)
    assert parse_graph6(emit_graph6(g)).nbr == g.nbr


def test_graph6_round_trip_fixtures():
    for fname in ("6reg_order8.g6", "6reg_order9.g6", "6reg_order10.g6"):
        path = os.path.join(FIXTURES, fname)
        with open(path) as fh:
            lines = [l.strip() for l in fh if l.strip()]
        for line in lines:
            assert emit_graph6(parse_graph6(line)) == line


def test_graph6_errors():
    with pytest.raises(MalformedHeader):
        parse_graph6("")
    with pytest.raises(MalformedHeader):
        parse_graph6("~??")  # multi-byte size header out of scope
    with pytest.raises(MalformedHeader, match="size byte '\\?' is not a valid vertex count"):
        parse_graph6("?")  # n = 0; a size byte must give 1..62 vertices
    with pytest.raises(TruncatedPayload):
        parse_graph6("C")
    with pytest.raises(TrailingBits):
        parse_graph6("C~~")
    with pytest.raises(TrailingBits):
        parse_graph6("Bz")  # nonzero padding bits for n=3
    with pytest.raises(BadCharacter):
        parse_graph6("C!")  # '!' is below the graph6 alphabet
    with pytest.raises(SizeExceeded, match="n <= 62, got 63"):
        emit_graph6(ugraph_from_edges(63, []))


def test_fixture_ingestion_counts():
    assert len(read_graph6_file(os.path.join(FIXTURES, "6reg_order8.g6"))) == 1
    assert len(read_graph6_file(os.path.join(FIXTURES, "6reg_order9.g6"))) == 4
    assert len(read_graph6_file(os.path.join(FIXTURES, "6reg_order10.g6"))) == 21


def test_sg_round_trip_catalog():
    g = build("S2_8").graph
    text = emit_sg(g)
    back = parse_sg(text)
    assert back == g
    ok, _ = are_isomorphic(back, g)
    assert ok


@given(signed_graphs(max_n=12))
def test_sg_round_trip_random(g):
    assert parse_sg(emit_sg(g)) == g


def test_sg_comments_and_blanks():
    text = "# leading comment\n\nsg 2 1  # header\n0 1 +\n# done\n"
    g = parse_sg(text)
    assert g.edges() == [(0, 1, 1)]


def test_sg_errors_carry_line_numbers():
    with pytest.raises(BadHeader):
        parse_sg("nope 2 1\n0 1 +\n")
    with pytest.raises(BadSign) as ei:
        parse_sg("sg 2 1\n0 1 0\n")
    assert ei.value.line == 2
    with pytest.raises(CountMismatch):
        parse_sg("sg 8 24\n" + "\n".join(f"0 {v} +" for v in range(1, 24)))
    with pytest.raises(CountMismatch):
        parse_sg("sg 2 1\n0 1 +\n1 0 -\n")
    with pytest.raises(BadEdgeLine):
        parse_sg("sg 2 1\nx 1 +\n")
    with pytest.raises(BadHeader):
        parse_sg("# only comments\n")

    # faults in the edge data and the header's size name the file and line
    for text, error, line in (
        ("sg 3 2\n0 1 +\n1 0 -\n", DuplicateEdge, 3),
        ("sg 3 1\n# note\n0 5 +\n", VertexOutOfRange, 3),
        ("sg 3 2\n0 1 +\n1 1 +\n", SelfLoop, 3),
        ("# n too large\nsg 100 0\n", SizeExceeded, 2),
    ):
        with pytest.raises(error) as ei:
            parse_sg(text, "f.sg")
        assert str(ei.value).startswith(f"f.sg:line {line}: ")


def test_export_dot():
    single = parse_sg("sg 2 1\n0 1 -\n")
    dot = export_dot(single)
    assert dot.count("style=dashed") == 1
    s1_12 = build("S1_12").graph
    dot = export_dot(s1_12)
    assert dot.count("style=dashed") == 6
    assert dot.count("style=solid") == 30
    assert export_dot(s1_12) == dot  # byte-identical across invocations
