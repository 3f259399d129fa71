"""Signed-graph isomorphism, canonical forms and automorphism counting.

Canonical form: n as one byte followed by the row-major upper triangle of
the sign matrix under the canonical vertex order, entries encoded
{+1 -> 2, -1 -> 1, 0 -> 0}.  Two signed graphs have equal canonical forms
iff they are isomorphic (sign-preservingly), and the byte strings are
totally ordered.

The canonical order is found by backtracking over individualizations with
equitable refinement on (positive, negative) neighbour counts.  Two leaves
with the same encoding give an automorphism; every distinct one is kept,
with no cap.  Each search node keeps one union-find over the vertices and
folds in the automorphisms found since its previous sibling that fix its
prefix pointwise; a sibling joined to an explored one is skipped.

The result is exact however many automorphisms are found.  A skipped
subtree is the image, under an automorphism fixing the prefix, of an
explored earlier sibling's subtree, so the first leaf of minimum encoding
in depth-first order always has its preimage earlier in that order and is
never skipped.  The search returns that leaf, so the encoding and the order
do not depend on how much was pruned.
"""

from __future__ import annotations

from .core import SignedGraph, UGraph, _triangle_profiles, all_positive
from .errors import SizeExceeded
from .regularity import extract_params

AUT_COUNT_MAX_N = 16


def _vertex_invariants(g: SignedGraph) -> list[tuple]:
    """Per-vertex refinement seed: (d+, d-, triangle profile by sign)."""
    tri = _triangle_profiles(g)
    return [(g.pos[v].bit_count(), g.neg[v].bit_count(), tuple(tri[v])) for v in range(g.n)]


def fingerprint(g: SignedGraph) -> tuple:
    """Cheap isomorphism invariant; unequal fingerprints mean non-isomorphic."""
    return (g.n, tuple(sorted(_vertex_invariants(g))))


def _refine(pos, neg, cells):
    """Equitable refinement of an ordered partition.

    Cells are split by the vector of (positive, negative) neighbour counts
    into every current cell; subcells are ordered by key, which keeps the
    procedure equivariant under relabelling.
    """
    cells = [list(c) for c in cells]
    changed = True
    while changed:
        changed = False
        masks = []
        for c in cells:
            m = 0
            for v in c:
                m |= 1 << v
            masks.append(m)
        new_cells = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            keyed: dict[tuple, list[int]] = {}
            for v in cell:
                key = tuple(
                    ((pos[v] & m).bit_count(), (neg[v] & m).bit_count()) for m in masks
                )
                keyed.setdefault(key, []).append(v)
            if len(keyed) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(keyed):
                    new_cells.append(keyed[key])
        cells = new_cells
    return cells


def _initial_cells(g: SignedGraph, marks: tuple[int, ...]) -> list[list[int]]:
    inv = _vertex_invariants(g)
    cells: list[list[int]] = [[v] for v in marks]
    marked = set(marks)
    grouped: dict[tuple, list[int]] = {}
    for v in range(g.n):
        if v in marked:
            continue
        grouped.setdefault(inv[v], []).append(v)
    for key in sorted(grouped):
        cells.append(grouped[key])
    return cells


def _encode(g: SignedGraph, order: list[int]) -> bytes:
    n = g.n
    out = bytearray([n])
    pos, neg = g.pos, g.neg
    for i in range(n):
        vi = order[i]
        pi, qi = pos[vi], neg[vi]
        for j in range(i + 1, n):
            vj = order[j]
            out.append(2 if (pi >> vj) & 1 else (1 if (qi >> vj) & 1 else 0))
    return bytes(out)


def decode_canonical(enc: bytes) -> SignedGraph:
    """Rebuild the signed graph a canonical form encodes (identity order)."""
    n = enc[0]
    pos = [0] * n
    neg = [0] * n
    t = 1
    for i in range(n):
        for j in range(i + 1, n):
            code = enc[t]
            t += 1
            if code == 2:
                pos[i] |= 1 << j
                pos[j] |= 1 << i
            elif code == 1:
                neg[i] |= 1 << j
                neg[j] |= 1 << i
    return SignedGraph(n, tuple(pos), tuple(neg))


def _witness(order_a: list[int], order_b: list[int]) -> list[int]:
    """The map sending order_a[i] to order_b[i] for every position i."""
    w = [0] * len(order_a)
    for x, y in zip(order_a, order_b):
        w[x] = y
    return w


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(parent: list[int], p) -> None:
    """Merge the union-find classes of x and p[x] for every vertex x."""
    for x, y in enumerate(p):
        rx, ry = _find(parent, x), _find(parent, y)
        if rx != ry:
            parent[rx] = ry


def _canonical_search(g: SignedGraph, marks: tuple[int, ...] = ()):
    """Return (canonical encoding, order achieving it, automorphisms found).

    order[i] is the vertex at position i.  Each automorphism is a tuple p
    mapping vertex x to p[x]; all of them fix `marks` pointwise.
    """
    n = g.n
    pos, neg = g.pos, g.neg
    best_enc: bytes | None = None
    best_order: list[int] | None = None
    gens: list[tuple[int, ...]] = []
    seen = {tuple(range(n))}

    def rec(cells, prefix):
        nonlocal best_enc, best_order
        target = -1
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target < 0:
            order = [c[0] for c in cells]
            enc = _encode(g, order)
            if best_enc is None or enc < best_enc:
                best_enc = enc
                best_order = order
            elif enc == best_enc:
                tphi = tuple(_witness(best_order, order))
                if tphi not in seen:
                    seen.add(tphi)
                    gens.append(tphi)
            return
        cell = cells[target]
        explored: list[int] = []
        # orbits of the automorphisms found so far that fix the prefix,
        # folded in as they are found
        parent = list(range(n))
        folded = 0
        for v in cell:
            if explored:
                # skip v when such an automorphism maps an explored sibling
                # onto it; that subtree is an image of an explored one
                for p in gens[folded:]:
                    if all(p[x] == x for x in prefix):
                        _join(parent, p)
                folded = len(gens)
                rv = _find(parent, v)
                if any(_find(parent, u) == rv for u in explored):
                    continue
            explored.append(v)
            child = (
                cells[:target]
                + [[v], [w for w in cell if w != v]]
                + cells[target + 1 :]
            )
            rec(_refine(pos, neg, child), prefix + (v,))

    rec(_refine(pos, neg, _initial_cells(g, marks)), ())
    assert best_enc is not None and best_order is not None
    return best_enc, best_order, gens


def canonical_form(g: SignedGraph) -> bytes:
    """Total-order key equal for two signed graphs iff they are isomorphic."""
    return _canonical_search(g)[0]


def canonical_labeling(g: SignedGraph) -> tuple[bytes, list[int]]:
    """Canonical form plus an order achieving it (order[i] = vertex at position i)."""
    enc, order, _ = _canonical_search(g)
    return enc, order


def canonical_representative(g: SignedGraph) -> SignedGraph:
    """g relabelled into its canonical vertex order."""
    return decode_canonical(canonical_form(g))


def are_isomorphic(g: SignedGraph, h: SignedGraph):
    """Decide sign-preserving isomorphism; on success also return a witness.

    Fast paths: unequal fingerprints or unequal strong-regularity parameters
    decide non-isomorphism without canonicalizing.  The witness w maps
    vertices of g to vertices of h and is verified edge-by-edge (signs
    included) before being returned.
    """
    if g.n != h.n or fingerprint(g) != fingerprint(h):
        return (False, None)
    if extract_params(g) != extract_params(h):
        return (False, None)
    enc_g, order_g, _ = _canonical_search(g)
    enc_h, order_h, _ = _canonical_search(h)
    if enc_g != enc_h:
        return (False, None)
    w = _witness(order_g, order_h)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.sign(u, v) != h.sign(w[u], w[v]):
                raise RuntimeError("isomorphism witness failed verification")
    return (True, w)


def automorphism_count(g: UGraph) -> int:
    """Order of the automorphism group of an unsigned graph, n <= 16.

    Computed along the stabilizer chain of the base (0, 1, ..., n-1): the
    group order is the product over v of the size of the orbit of v under
    the pointwise stabilizer G of marks = (0, ..., v-1).  The orbit lies in
    the refined cell of v.  A union-find over the vertices joins the images
    under automorphisms known to lie in G: the automorphisms found by the
    marked canonical searches of this level (each fixes marks and its own
    marked vertex) and, for each w whose marked form equals v's, the witness
    mapping v's marked canonical order onto w's, which sends v to w.  A
    candidate w gets a marked search of its own only while its class is not
    yet known to be inside or outside v's orbit.  Every join comes from an
    automorphism in G and every "outside" from unequal canonical forms, so
    the count is exact however few automorphisms the searches return.
    """
    if g.n > AUT_COUNT_MAX_N:
        raise SizeExceeded(f"automorphism_count limited to n <= {AUT_COUNT_MAX_N}")
    sg = all_positive(g)
    total = 1
    marks: tuple[int, ...] = ()
    for v in range(g.n):
        cells = _refine(sg.pos, sg.neg, _initial_cells(sg, marks))
        cell_of_v = next(c for c in cells if v in c)
        if len(cell_of_v) > 1:
            parent = list(range(g.n))
            ref, ref_order, gens = _canonical_search(sg, marks + (v,))
            for p in gens:
                _join(parent, p)
            outside: list[int] = []
            for w in cell_of_v:
                rw = _find(parent, w)
                if rw == _find(parent, v) or any(_find(parent, x) == rw for x in outside):
                    continue
                enc, order, gens = _canonical_search(sg, marks + (w,))
                for p in gens:
                    _join(parent, p)
                if enc == ref:
                    _join(parent, _witness(ref_order, order))
                else:
                    outside.append(w)
            rv = _find(parent, v)
            total *= sum(1 for w in cell_of_v if _find(parent, w) == rv)
        marks = marks + (v,)
    return total
