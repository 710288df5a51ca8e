"""Bit-exact graph6 encoding plus a plain edge-list text format.

graph6 packs the upper adjacency triangle column-major into 6-bit groups,
each offset by 63 into the printable range.  The size header uses the
shortest of the 1-, 4- and 8-byte forms (caps n at 2**36 - 1).  Parse errors
carry the byte offset of the offending input position.
"""

from __future__ import annotations

from .graphs import Graph

_MAX_N = (1 << 36) - 1


class GraphParseError(ValueError):
    """Unreadable graph input (either format)."""


class Graph6Error(GraphParseError):
    """Malformed graph6 input; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _header_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    groups = [(n >> (6 * k)) & 63 for k in range(5, -1, -1)]
    return bytes([126, 126] + [g + 63 for g in groups])


def _parse_header(data: bytes) -> tuple[int, int]:
    """Return (n, index of first edge byte)."""
    if not data:
        raise Graph6Error("empty input", 0)
    if data[0] != 126:
        return data[0] - 63, 1
    # "~" then three 6-bit groups, or "~~" then six
    first, end = (2, 8) if data[1:2] == b"~" else (1, 4)
    if len(data) < end:
        raise Graph6Error("truncated size header", len(data))
    n = 0
    for i in range(first, end):
        n = n << 6 | (data[i] - 63)
    return n, end


# _REVERSED[x]: x's 6 bits in reverse order plus 63, the printable byte of a
# group whose first bit in the stream is the lowest bit of x
_REVERSED = bytes(int(f"{x:06b}"[::-1], 2) + 63 for x in range(64))


def write_graph6(g: Graph) -> str:
    if g.n > _MAX_N:
        raise ValueError(f"graph6 caps the order at {_MAX_N}")
    # bit j(j-1)/2 + i of the stream is the pair (i, j), i < j: column j's
    # low j bits, the columns in order
    stream = 0
    for j, col in enumerate(g.adj):
        stream |= (col & ((1 << j) - 1)) << (j * (j - 1) // 2)
    ngroups = (g.n * (g.n - 1) // 2 + 5) // 6
    # three bytes hold four 6-bit groups, the first group lowest
    raw = stream.to_bytes(3 * ((ngroups + 3) // 4), "little")
    rev = _REVERSED
    out = bytearray()
    for k in range(0, len(raw), 3):
        w = int.from_bytes(raw[k : k + 3], "little")
        out += bytes((rev[w & 63], rev[w >> 6 & 63], rev[w >> 12 & 63], rev[w >> 18]))
    return (_header_bytes(g.n) + out[:ngroups]).decode("ascii")


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte", exc.start) from None
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside the graph6 range 63..126", i)
    n, start = _parse_header(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - start < nbytes:
        raise Graph6Error(
            f"need {nbytes} edge bytes for n={n}, found {len(data) - start}",
            len(data),
        )
    if len(data) - start > nbytes:
        raise Graph6Error("trailing bytes after edge data", start + nbytes)
    adj = [0] * n
    bit = 0
    j, i = 1, 0
    for k in range(start, start + nbytes):
        group = data[k] - 63
        for shift in range(5, -1, -1):
            if bit < nbits:
                if group >> shift & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                bit += 1
                i += 1
                if i == j:
                    j += 1
                    i = 0
            elif group >> shift & 1:
                raise Graph6Error("padding bits must be zero", k)
    return Graph._trusted(n, tuple(adj))


# --- edge-list text ----------------------------------------------------------


def write_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """One "u v" pair per line, 0-indexed.  An optional leading line with a
    single integer fixes the vertex count; otherwise n = max label + 1.
    Either way n is at most graph6's cap, 2**36 - 1, and a graph too large
    to allocate is a GraphParseError too."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if len(fields) == 1 and n is None and not edges:
                n = int(fields[0])
                continue
            if len(fields) != 2:
                raise ValueError(f"expected 'u v', got {raw!r}")
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphParseError(f"edge list line {lineno}: {exc}") from None
        if u < 0 or v < 0:
            raise GraphParseError(f"edge list line {lineno}: negative vertex label")
        edges.append((u, v))
    if n is None:
        n = 1 + max((max(e) for e in edges), default=-1)
    if n > _MAX_N:
        raise GraphParseError(f"edge list: vertex count {n} exceeds the graph6 cap {_MAX_N}")
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise GraphParseError(f"edge list: {exc}") from None
    except MemoryError:
        pass
    # raised outside the handler, so the failed allocation's frames are freed
    raise GraphParseError(f"edge list: {n} vertices do not fit in memory")
