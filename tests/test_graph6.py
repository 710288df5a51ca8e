"""graph6 codec: frozen vectors, round-trip properties, and a cross-check
against networkx's implementation of the same format."""

import hashlib
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenfactor.cli import _parse_graph_text
from evenfactor.graph6 import (
    Graph6Error,
    GraphParseError,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from evenfactor.graphs import Graph, complete, cycle, extremal
from evenfactor.rng import SplitMix64, random_graph_with_edges


def test_known_vectors():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert write_graph6(g) == "D?{"
    assert write_graph6(complete(1)) == "@"
    assert parse_graph6("@") == complete(1)
    assert write_graph6(Graph(0, ())) == "?"
    assert parse_graph6("?").n == 0


def test_header_forms():
    for n in (63, 100, 130):
        big = Graph(n, (0,) * n)
        assert parse_graph6(write_graph6(big)) == big
    assert write_graph6(Graph(62, (0,) * 62))[0] == "}"
    assert write_graph6(Graph(63, (0,) * 63)).startswith("~")


def test_header_encoding_huge_sizes():
    # the 4- and 8-byte size headers, exercised without materializing graphs
    from evenfactor.graph6 import _header_bytes, _parse_header

    for n in (62, 63, 6000, 258047, 258048, (1 << 36) - 1):
        data = _header_bytes(n)
        parsed, start = _parse_header(data)
        assert parsed == n and start == len(data)
    assert len(_header_bytes(62)) == 1
    assert len(_header_bytes(63)) == 4
    assert len(_header_bytes(258048)) == 8


def test_optional_prefix_accepted():
    g = extremal(8, 2)
    assert parse_graph6(">>graph6<<" + write_graph6(g)) == g


def test_roundtrip_small_families():
    for g in [complete(7), cycle(5), extremal(10, 2), extremal(12, 4)]:
        assert parse_graph6(write_graph6(g)) == g


def test_writer_output_is_pinned():
    # every n from 0 to 70, so both sides of the "~" header at n = 63: the
    # empty and the complete graph and three seeded draws per order
    rng = SplitMix64(6363)
    digest = hashlib.sha256()
    for n in range(71):
        total = n * (n - 1) // 2
        graphs = [Graph.from_edges(n, []), complete(n)]
        graphs += [random_graph_with_edges(n, rng.randrange(total + 1), rng) for _ in range(3)]
        for g in graphs:
            digest.update(write_graph6(g).encode() + b"\n")
    assert digest.hexdigest() == (
        "4b9cea24ee814e4800921734c6ff12ad5b0c15d91e17bd38ebec51ba7ba9d617"
    )


def test_matches_networkx():
    rng = SplitMix64(99)
    for _ in range(300):
        n = 1 + rng.randrange(20)
        m = rng.randrange(n * (n - 1) // 2 + 1)
        g = random_graph_with_edges(n, m, rng)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert write_graph6(g) == theirs
        assert parse_graph6(theirs) == g


@given(st.integers(min_value=0, max_value=18), st.data())
@settings(max_examples=80, deadline=None)
def test_roundtrip_property(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph.from_edges(n, edges)
    assert parse_graph6(write_graph6(g)) == g


def test_parse_errors_carry_offsets():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("")
    assert exc.value.offset == 0
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D?")  # truncated edge bytes
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C" + chr(40))  # byte below 63
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D?{?")  # trailing bytes
    assert exc.value.offset == 3
    # n=2 needs 1 edge bit; set a padding bit below it
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A" + chr(63 + 1))
    assert exc.value.offset == 1


def test_edge_list_roundtrip():
    g = extremal(8, 2)
    assert parse_edge_list(write_edge_list(g)) == g
    assert parse_edge_list("3\n0 1\n") == Graph.from_edges(3, [(0, 1)])
    assert parse_edge_list("0 1\n1 2\n").n == 3
    assert parse_edge_list("4\n").edge_count == 0
    with pytest.raises(GraphParseError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphParseError):
        parse_edge_list("0 0\n")  # loop
    with pytest.raises(GraphParseError):
        parse_edge_list("a b\n")


# every character class the two readers branch on: the graph6 range, ASCII
# and non-ASCII digits ("٣" is int 3, "²" is isdigit() but not int), the
# edge-list separators and comment mark, the header escape "~", and a
# non-ASCII letter
_G6_ALPHABET = "".join(chr(b) for b in range(63, 127)) + "0123456789 \n#-~é٣²"
_TEXT_ALPHABET = "0123456789   \n\n#-~_Aé٣²"


def _parse_corpus() -> list[str]:
    """A fixed seeded corpus of graph text: random strings over the two
    alphabets, truncated 1-, 4- and 8-byte size headers, and valid graph6
    strings with one byte changed, cut or appended.  Strings with a run of
    more than five digit characters are left out: the edge-list reader
    would allocate that many vertices."""
    rng = SplitMix64(2024)
    corpus = []
    for k in range(24000):
        alphabet = _G6_ALPHABET if k % 2 else _TEXT_ALPHABET
        length = rng.randrange(13)
        corpus.append("".join(alphabet[rng.randrange(len(alphabet))] for _ in range(length)))
    header = [chr(63 + rng.randrange(64)) for _ in range(8)]
    for cut in range(1, 9):
        corpus.append("~" + "".join(header[: cut - 1]))
        corpus.append("~~" + "".join(header[: cut - 1]))
        corpus.append("".join(header[:cut]))
    for _ in range(2000):
        n = rng.randrange(13)
        g = random_graph_with_edges(n, rng.randrange(n * (n - 1) // 2 + 1), rng)
        s = write_graph6(g)
        i = rng.randrange(len(s))
        corpus.append(s)
        corpus.append(s[:i] + _G6_ALPHABET[rng.randrange(len(_G6_ALPHABET))] + s[i + 1 :])
        corpus.append(s[:i])
        corpus.append(s + _G6_ALPHABET[rng.randrange(len(_G6_ALPHABET))])
    too_large = re.compile(r"[\d_]{6,}")
    return [s for s in corpus if not too_large.search(s)]


def _outcome(parse, text: str) -> str:
    try:
        g = parse(text)
    except Exception as exc:
        return f"{type(exc).__name__}|{exc}|{getattr(exc, 'offset', None)}"
    return f"{g.n}|{','.join(map(hex, g.adj))}"


def test_parse_outcomes_are_pinned():
    # the graph, or the error type, message and offset, of both readers over
    # the whole corpus
    corpus = _parse_corpus()
    assert len(corpus) > 30000
    digest = hashlib.sha256()
    for text in corpus:
        for parse in (parse_graph6, _parse_graph_text):
            digest.update(_outcome(parse, text).encode("utf-8", "surrogateescape") + b"\n")
    assert digest.hexdigest() == (
        "54e84febea0e912c1606a3e469c019df4ca666c6fcb3e9efd36abe6136b50c3e"
    )
