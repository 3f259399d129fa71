"""File formats: graph6 for unsigned graphs, the .sg text format for signed
graphs, and DOT export.

graph6 (single-byte header scope, n <= 62): byte n+63, then the upper
triangle in column order (0,1),(0,2),(1,2),(0,3),... packed big-endian into
6-bit groups, each +63, zero-padded.

.sg: header line "sg <n> <m>", then m lines "<u> <v> <+|->" with 0-based
vertex indices; '#' starts a comment; emit writes edges sorted by (u, v)
and parse(emit(G)) round-trips bit-exactly.
"""

from __future__ import annotations

from .core import SignedGraph, UGraph, from_signed_edges
from .errors import (
    BadCharacter,
    BadEdgeLine,
    BadHeader,
    BadSign,
    CountMismatch,
    MalformedHeader,
    ParseError,
    SignedGraphError,
    SizeExceeded,
    TrailingBits,
    TruncatedPayload,
    location,
)

_G6_MAX_N = 62
_G6_HEADER = ">>graph6<<"


def parse_graph6(line: str, lineno: int | None = None, filename: str | None = None) -> UGraph:
    """Decode one graph6 line into an UGraph."""
    s = line.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise MalformedHeader("empty graph6 string", lineno, filename)
    c0 = ord(s[0])
    if c0 == 126:
        raise MalformedHeader("multi-byte graph6 size headers (n > 62) are not supported", lineno, filename)
    n = c0 - 63
    if not 1 <= n <= _G6_MAX_N:
        raise MalformedHeader(f"size byte {s[0]!r} is not a valid vertex count", lineno, filename)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    payload = s[1:]
    if len(payload) < nchars:
        raise TruncatedPayload(f"expected {nchars} payload characters, got {len(payload)}", lineno, filename)
    if len(payload) > nchars:
        raise TrailingBits(f"{len(payload) - nchars} extra characters after the payload", lineno, filename)
    bits = []
    for ch in payload:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise BadCharacter(f"character {ch!r} outside the graph6 alphabet", lineno, filename)
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise TrailingBits("nonzero padding bits", lineno, filename)
    rows = [0] * n
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            t += 1
    return UGraph(n, tuple(rows))


def emit_graph6(g: UGraph) -> str:
    """Encode an UGraph as one graph6 line (no trailing newline)."""
    if g.n > _G6_MAX_N:
        raise SizeExceeded(f"graph6 single-byte headers cover n <= {_G6_MAX_N}, got {g.n}")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append((g.nbr[i] >> j) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for t in range(0, len(bits), 6):
        v = 0
        for b in bits[t : t + 6]:
            v = (v << 1) | b
        chars.append(chr(v + 63))
    return "".join(chars)


def _ascii_lines(path: str):
    """Yield (line number, line) over a text file read with universal
    newlines.  A byte outside ASCII is a BadCharacter naming the file and
    its line; surrogateescape decoding keeps the byte to name it."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
                raise BadCharacter(f"byte 0x{byte:02x} is not ASCII", lineno, path)
            yield lineno, line


def read_graph6_file(path: str) -> list[UGraph]:
    """Read a graph6 file, one graph per line; blank and '#' lines skipped."""
    graphs = []
    for lineno, line in _ascii_lines(path):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        graphs.append(parse_graph6(s, lineno, path))
    return graphs


def write_graph6_file(path: str, graphs) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(emit_graph6(g) + "\n")


def _strip_comment(line: str) -> str:
    i = line.find("#")
    return line if i < 0 else line[:i]


def parse_sg(text: str, filename: str | None = None) -> SignedGraph:
    """Parse the .sg text format; every fault names the file and line.
    Faults `from_signed_edges` finds are reported at the edge's line."""
    header = None
    header_line = 0
    edges: list[tuple[int, int, int]] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = _strip_comment(raw).strip()
        if not s:
            continue
        if header is None:
            parts = s.split()
            if len(parts) != 3 or parts[0] != "sg":
                raise BadHeader(f"expected 'sg <n> <m>', got {s!r}", lineno, filename)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise BadHeader(f"non-integer counts in header {s!r}", lineno, filename)
            if n < 1 or m < 0:
                raise BadHeader(f"implausible counts in header {s!r}", lineno, filename)
            header = (n, m)
            header_line = lineno
            continue
        n, m = header
        if len(edges) == m:
            raise CountMismatch(f"more than the declared {m} edge lines", lineno, filename)
        parts = s.split()
        if len(parts) != 3:
            raise BadEdgeLine(f"expected '<u> <v> <+|->', got {s!r}", lineno, filename)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise BadEdgeLine(f"non-integer endpoints in {s!r}", lineno, filename)
        if parts[2] == "+":
            sign = 1
        elif parts[2] == "-":
            sign = -1
        else:
            raise BadSign(f"sign token {parts[2]!r}, expected '+' or '-'", lineno, filename)
        edges.append((u, v, sign))
        edge_lines.append(lineno)
    if header is None:
        raise BadHeader("missing 'sg <n> <m>' header", None, filename)
    n, m = header
    if len(edges) != m:
        raise CountMismatch(
            f"header declares {m} edges but {len(edges)} edge lines found", header_line, filename
        )
    at = header_line

    def located():
        nonlocal at
        for at, e in zip(edge_lines, edges):
            yield e

    try:
        return from_signed_edges(n, located())
    except SignedGraphError as exc:
        raise type(exc)(location(at, filename) + str(exc)) from None


def parse_sg_file(path: str) -> SignedGraph:
    return parse_sg("".join(line for _, line in _ascii_lines(path)), path)


def emit_sg(g: SignedGraph) -> str:
    lines = [f"sg {g.n} {g.edge_count()}"]
    for u, v, s in g.edges():
        lines.append(f"{u} {v} {'+' if s > 0 else '-'}")
    return "\n".join(lines) + "\n"


def export_dot(g: SignedGraph) -> str:
    """DOT description: positive edges solid, negative edges dashed."""
    lines = ["graph sg {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v, s in g.edges():
        style = "solid" if s > 0 else "dashed"
        lines.append(f"  {u} -- {v} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
