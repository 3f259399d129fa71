"""Built-in catalog: the eleven connected 6-regular net-regular strongly
regular signed graphs, plus the auxiliary unsigned graphs their searches
run on.

Entries are built lazily, cached, and self-validate on construction:
extracted parameters and the constant net-degree must match the pinned
expectations, and search-derived entries must reproduce their pinned
canonical form.  A failed self-check is a ConstructionInvalid bug, never
user error.

Provenance: "prose" entries are explicit constructions (complete bipartite
or multipartite graphs with a distinguished negative system, unions of
positive cliques glued by negative cliques or matchings, and one explicit
12-vertex adjacency); "search" entries (S1_9, S_15) exist only as figures
elsewhere, so they are pinned as the canonical representative of the unique
signing class found by the exhaustive search on their stated underlying
graph, and a test re-derives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import SignedGraph, UGraph, all_positive, from_signed_edges, ugraph_from_edges
from .errors import ConstructionInvalid, UnknownName
from .iso import canonical_form
from .regularity import SrsgParams, extract_params


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    graph: SignedGraph
    expected_params: SrsgParams
    expected_rho: int
    provenance: str  # "prose" | "search"


def _signed(n, pos, neg) -> SignedGraph:
    return from_signed_edges(n, [(u, v, 1) for u, v in pos] + [(u, v, -1) for u, v in neg])


def _s1_12() -> SignedGraph:
    # K_{6,6} with a negative perfect matching across the parts
    pos = [(i, 6 + j) for i in range(6) for j in range(6) if i != j]
    neg = [(i, 6 + i) for i in range(6)]
    return _signed(12, pos, neg)


def _s2_12() -> SignedGraph:
    # two positive K6 joined by a negative perfect matching
    pos = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    pos += [(6 + u, 6 + v) for u in range(6) for v in range(u + 1, 6)]
    neg = [(i, 6 + i) for i in range(6)]
    return _signed(12, pos, neg)


_S3_12_POS = [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
    (1, 7), (1, 8), (1, 9), (1, 10), (1, 11),
    (2, 3), (3, 4), (4, 5), (5, 6), (2, 6),
    (7, 8), (8, 9), (9, 10), (10, 11), (7, 11),
    (4, 7), (5, 7), (5, 8), (6, 8), (2, 9),
    (6, 9), (2, 10), (3, 10), (3, 11), (4, 11),
]
_S3_12_NEG = [(0, 1), (2, 7), (3, 8), (4, 9), (5, 10), (6, 11)]


def _s3_12() -> SignedGraph:
    # explicit 12-vertex adjacency: two positive 5-wheels around the ends of
    # one negative edge, cross edges so that a = 2, negative perfect matching
    return _signed(12, _S3_12_POS, _S3_12_NEG)


def _s2_8() -> SignedGraph:
    pos = [(0, 1), (0, 2), (0, 3), (0, 6), (1, 4), (1, 5), (1, 7), (6, 4),
           (6, 5), (7, 2), (7, 3), (2, 4), (2, 5), (3, 4), (3, 5), (6, 7)]
    neg = [(0, 4), (0, 5), (1, 2), (1, 3), (6, 2), (6, 3), (7, 4), (7, 5)]
    return _signed(8, pos, neg)


def _s3_8() -> SignedGraph:
    # signing of K8 minus a perfect matching whose negative part is an 8-cycle
    missing = {(0, 7), (1, 6), (2, 4), (3, 5)}
    neg = {(0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (4, 6), (5, 7), (6, 7)}
    edges = []
    for u in range(8):
        for v in range(u + 1, 8):
            if (u, v) in missing:
                continue
            edges.append((u, v, -1 if (u, v) in neg else 1))
    return from_signed_edges(8, edges)


def _s_9() -> SignedGraph:
    # signing of K_{3,3,3}; each vertex has one negative edge into each of
    # the other two parts and the negative edges form three triangles
    neg = [(0, 5), (0, 6), (1, 3), (1, 4), (2, 7), (2, 8), (3, 4), (5, 6), (7, 8)]
    pos = [(0, 3), (0, 4), (0, 7), (0, 8), (1, 5), (1, 6), (1, 7), (1, 8),
           (2, 3), (2, 4), (2, 5), (2, 6), (3, 5), (3, 7), (4, 6), (4, 8),
           (5, 8), (6, 7)]
    return _signed(9, pos, neg)


# search-derived entries, pinned as the canonical representative of the
# unique class found on their stated underlying graph
_S1_9_NEG = [(0, 3), (0, 4), (1, 2), (1, 5), (2, 6), (3, 7), (4, 8), (5, 8), (6, 7)]
_S1_9_POS = [(0, 5), (0, 6), (0, 7), (0, 8), (1, 4), (1, 6), (1, 7), (1, 8),
             (2, 3), (2, 5), (2, 7), (2, 8), (3, 4), (3, 6), (3, 8), (4, 5),
             (4, 7), (5, 6)]
_S1_9_CANONICAL = "09000001010202020201000201020202020002010202020002010202000201020001010000"

_S_15_NEG = [(0, 9), (0, 10), (1, 6), (1, 13), (2, 5), (2, 14), (3, 7), (3, 12),
             (4, 8), (4, 11), (5, 14), (6, 13), (7, 12), (8, 11), (9, 10)]
_S_15_POS = [(0, 11), (0, 12), (0, 13), (0, 14), (1, 7), (1, 8), (1, 10), (1, 14),
             (2, 6), (2, 7), (2, 9), (2, 11), (3, 5), (3, 8), (3, 9), (3, 13),
             (4, 5), (4, 6), (4, 10), (4, 12), (5, 10), (5, 13), (6, 9), (6, 12),
             (7, 10), (7, 11), (8, 9), (8, 14), (11, 13), (12, 14)]
_S_15_CANONICAL = (
    "0f000000000000000001010202020200000000010202000200000102000001020200020002"
    "0000010002000102020000010200020200010002010200000000000002000002010000020000"
    "02010000000202010000020001000002010000000000000000000200000200"
)


def _s1_9() -> SignedGraph:
    return _signed(9, _S1_9_POS, _S1_9_NEG)


def _s_15() -> SignedGraph:
    return _signed(15, _S_15_POS, _S_15_NEG)


def _s1_15() -> SignedGraph:
    # three positive K5 blocks glued by five negative triangles
    pos = []
    for b in range(3):
        pos += [(5 * b + u, 5 * b + v) for u in range(5) for v in range(u + 1, 5)]
    neg = []
    for i in range(5):
        neg += [(i, 5 + i), (i, 10 + i), (5 + i, 10 + i)]
    return _signed(15, pos, neg)


def _s4_8() -> SignedGraph:
    # two positive K4 joined by negative edges minus a perfect matching
    missing = {(0, 7), (1, 6), (2, 4), (3, 5)}
    cliques = [{0, 2, 3, 6}, {1, 4, 5, 7}]
    edges = []
    for u in range(8):
        for v in range(u + 1, 8):
            if (u, v) in missing:
                continue
            s = 1 if any(u in q and v in q for q in cliques) else -1
            edges.append((u, v, s))
    return from_signed_edges(8, edges)


def _s_16() -> SignedGraph:
    # 4x4 grid: positive K4 rows, negative K4 columns
    pos = []
    neg = []
    for r in range(4):
        pos += [(4 * r + u, 4 * r + v) for u in range(4) for v in range(u + 1, 4)]
    for c in range(4):
        col = [c, 4 + c, 8 + c, 12 + c]
        neg += [(col[u], col[v]) for u in range(4) for v in range(u + 1, 4)]
    return _signed(16, pos, neg)


_ENTRIES: dict[str, tuple] = {
    # name: (builder, (n, r, a, b, c), rho, provenance, pinned canonical hex)
    "S1_12": (_s1_12, (12, 6, 0, 0, 2), 4, "prose", None),
    "S2_12": (_s2_12, (12, 6, 4, 0, -2), 4, "prose", None),
    "S3_12": (_s3_12, (12, 6, 2, 0, 0), 4, "prose", None),
    "S2_8": (_s2_8, (8, 6, -4, 4, 6), 2, "prose", None),
    "S3_8": (_s3_8, (8, 6, 0, 0, -2), 2, "prose", None),
    "S_9": (_s_9, (9, 6, -1, 3, -2), 2, "prose", None),
    "S1_9": (_s1_9, (9, 6, -1, 0, 1), 2, "search", _S1_9_CANONICAL),
    "S_15": (_s_15, (15, 6, 1, 1, -1), 2, "search", _S_15_CANONICAL),
    "S1_15": (_s1_15, (15, 6, 3, 1, -2), 2, "prose", None),
    "S4_8": (_s4_8, (8, 6, 4, -4, -6), 0, "prose", None),
    "S_16": (_s_16, (16, 6, 2, 2, -2), 0, "prose", None),
}

_cache: dict[str, CatalogEntry] = {}


def list_names() -> list[str]:
    """All catalog entry names, grouped by net-degree 4, 2, 0."""
    return list(_ENTRIES)


def build(name: str) -> CatalogEntry:
    """Build (and cache) a named entry; self-validates before returning."""
    if name in _cache:
        return _cache[name]
    if name not in _ENTRIES:
        raise UnknownName(f"no catalog entry named {name!r}; see list_names()")
    builder, tup, rho, provenance, pinned = _ENTRIES[name]
    graph = builder()
    expected = SrsgParams(*tup)
    got = extract_params(graph)
    if got != expected:
        raise ConstructionInvalid(f"{name}: built parameters {got} != expected {expected}")
    nets = set(graph.net_degrees())
    if nets != {rho}:
        raise ConstructionInvalid(f"{name}: net-degrees {sorted(nets)} not constant {rho}")
    if pinned is not None and canonical_form(graph).hex() != pinned:
        raise ConstructionInvalid(f"{name}: canonical form drifted from its pinned constant")
    entry = CatalogEntry(name, graph, expected, rho, provenance)
    _cache[name] = entry
    return entry


# -- underlying graphs -------------------------------------------------------


def _g8() -> UGraph:
    missing = {(0, 4), (1, 5), (2, 6), (3, 7)}
    return ugraph_from_edges(
        8, [(u, v) for u in range(8) for v in range(u + 1, 8) if (u, v) not in missing]
    )


def _g9() -> UGraph:
    # complement of the 9-cycle: the circulant with distances {2, 3, 4}
    return ugraph_from_edges(
        9,
        [
            (i, j)
            for i in range(9)
            for j in range(i + 1, 9)
            if min(j - i, 9 - (j - i)) in (2, 3, 4)
        ],
    )


def _k333() -> UGraph:
    return ugraph_from_edges(
        9, [(u, v) for u in range(9) for v in range(u + 1, 9) if u // 3 != v // 3]
    )


def _k66() -> UGraph:
    return ugraph_from_edges(12, [(i, 6 + j) for i in range(6) for j in range(6)])


def _gq22() -> UGraph:
    # collinearity graph of the (2,2) generalized quadrangle: 2-subsets of a
    # 6-set, adjacent when disjoint (complement of the triangular graph T(6))
    verts = list(combinations(range(6), 2))
    edges = []
    for i, p in enumerate(verts):
        for j in range(i + 1, len(verts)):
            if not (set(p) & set(verts[j])):
                edges.append((i, j))
    g = ugraph_from_edges(15, edges)
    if not _validate_srg(g, 15, 6, 1, 3):
        raise ConstructionInvalid("GQ(2,2) construction must be an SRG(15,6,1,3)")
    return g


def _paley13() -> UGraph:
    qr = {(x * x) % 13 for x in range(1, 13)}
    g = ugraph_from_edges(
        13,
        [(u, v) for u in range(13) for v in range(u + 1, 13) if (v - u) % 13 in qr],
    )
    if not _validate_srg(g, 13, 6, 2, 3):
        raise ConstructionInvalid("Paley(13) construction must be an SRG(13,6,2,3)")
    return g


def _validate_srg(g: UGraph, n: int, r: int, e: int, f: int) -> bool:
    """g is an srg(n, r, e, f): its all-positive signing has parameters (n, r, e, -, f)."""
    return extract_params(all_positive(g)) == SrsgParams(n, r, e, None, f)


_UNDERLYING = {
    "G8": _g8,
    "G9": _g9,
    "K333": _k333,
    "K66": _k66,
    "GQ22": _gq22,
    "Paley13": _paley13,
    "S2_12_underlying": lambda: build("S2_12").graph.underlying(),
    "S3_12_underlying": lambda: build("S3_12").graph.underlying(),
    "S1_15_underlying": lambda: build("S1_15").graph.underlying(),
    "S16_underlying": lambda: build("S_16").graph.underlying(),
}


def underlying_names() -> list[str]:
    return list(_UNDERLYING)


def build_underlying(name: str) -> UGraph:
    if name not in _UNDERLYING:
        raise UnknownName(f"no underlying graph named {name!r}; see underlying_names()")
    return _UNDERLYING[name]()
