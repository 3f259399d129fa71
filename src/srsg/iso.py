"""Signed-graph isomorphism, canonical forms and automorphism counting.

Canonical form: n as one byte followed by the row-major upper triangle of
the sign matrix under the canonical vertex order, entries encoded
{+1 -> 2, -1 -> 1, 0 -> 0}.  Two signed graphs have equal canonical forms
iff they are isomorphic (sign-preservingly), and the byte strings are
totally ordered.

The canonical order is found by backtracking over individualizations with
equitable refinement on (positive, negative) neighbour counts.  Each round
of refinement counts only into the cells that split in the round before,
leaving out the last piece of each, and a child counts first into the one
vertex it individualised; `_refine` says why the ordered partition is the
one full recounting would give.  A leaf with the first or the best leaf's
encoding gives an automorphism; every distinct one is kept, with no cap,
along with the bitmask of the points it fixes.  Each search node keeps one
union-find over its target cell; before each child after the first it folds
in the automorphisms found since its last fold that fix its prefix
pointwise, a test of that bitmask against the prefix's, and a sibling
joined to an explored one is skipped.

A leaf with the first leaf's encoding also sends the search back to its
deepest common ancestor with the first leaf: every node below that ancestor
returns at once, and the ancestor goes on with its loop, whose next fold
joins the new sibling (McKay 1981, "Practical graph isomorphism"; McKay &
Piperno 2014, "Practical graph isomorphism, II").  The jump skips only
images of explored subtrees.  The position of the vertex a node
individualises depends only on the node's ordered partition, so a leaf's
partition determines its path.  The leaf's witness p maps the first leaf's
partition onto this leaf's, so it maps the first path onto this path node
by node: p fixes the ancestor's prefix pointwise and maps the subtree of
the ancestor's first child, explored earlier, onto the subtree of its
current child, which holds everything the jump skips.

The canonical result is exact however many automorphisms are found.  A
subtree skipped by either rule is the image, under an automorphism fixing
a prefix, of a subtree earlier in depth-first order, so the first leaf of
minimum encoding in that order always has its preimage earlier and is
never skipped.  The search returns that leaf, so the encoding and the order
do not depend on how much was pruned.

The group order is the product of the orbit sizes along the first path,
the nodes entered before any leaf (McKay 1981; McKay & Piperno 2014).
`_refine` is invariant, so an automorphism fixing a node's prefix
pointwise keeps its cells; the path ends in a discrete partition, so its
vertices form a base, and orbit-stabilizer gives the product.  At each
node on it, the orbit of the first child v is the union-find class of v
once the loop ends.  Every join is an automorphism fixing the prefix.
Conversely, w in the orbit has an image of the first leaf in its subtree,
and pruning skips only images of explored subtrees, so either the search
reaches a leaf under w with the first leaf's encoding, whose witness maps
v to w, or w is skipped as joined to an explored sibling.  The jumps keep
this.  While the loop of a node on the first path runs, every leaf found
lies below it, so a jump ends at that node or deeper and never cuts its
loop short.  A jump inside w's subtree starts at a leaf with the first
leaf's encoding, and that leaf's automorphism is recorded before the jump;
the first such leaf under w is never skipped, by the argument above, and
its witness maps v to w.
"""

from __future__ import annotations

from .core import SignedGraph, UGraph, _triangle_profiles, all_positive
from .regularity import extract_params


def _vertex_invariants(g: SignedGraph) -> list[tuple]:
    """Per-vertex refinement seed: (d+, d-, triangle profile by sign)."""
    tri = _triangle_profiles(g)
    return [(g.pos[v].bit_count(), g.neg[v].bit_count(), tuple(tri[v])) for v in range(g.n)]


def fingerprint(g: SignedGraph) -> tuple:
    """Cheap isomorphism invariant; unequal fingerprints mean non-isomorphic."""
    return (g.n, tuple(sorted(_vertex_invariants(g))))


def _refine(pos, neg, cells, fresh):
    """Equitable refinement of an ordered partition.

    Each round splits every cell by the vector of (positive, negative)
    neighbour counts into the cells whose indices `fresh` lists, in index
    order; subcells are ordered by key, which keeps the procedure
    equivariant under relabelling.  When a cell splits, each piece but the
    last in key order goes into the next round's `fresh`, and refinement
    ends when a round splits nothing.  The root passes every cell; a child
    passes the singleton it individualised out of an equitable partition.

    The ordered partition is the one that counting into every cell every
    round would give.  The root's first round leaves nothing out.  At the
    start of any other round every cell has constant counts into each cell
    of the previous partition: the previous round's, or for a child's first
    round its parent's equitable partition, whose target cell has split
    into the singleton and the rest.  So a count into an unsplit cell is
    constant on every cell, and a count into the last piece of a split
    cell C is the count into C, a constant, minus the counts into C's
    earlier pieces: the counts left out are functions of the ones kept,
    and the grouping is the same.  The order is the same as well: where
    two full keys first differ is never a count left out, since an unsplit
    cell's count never differs and a difference at C's last piece implies
    one at an earlier piece of C, which comes first.  Leaving out the
    largest piece instead (Hopcroft's rule) keeps the grouping but can
    reverse the order.
    """
    while fresh:
        masks = []
        for i in fresh:
            m = 0
            for v in cells[i]:
                m |= 1 << v
            masks.append(m)
        new_cells = []
        fresh = []
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
                for key in sorted(keyed):
                    fresh.append(len(new_cells))
                    new_cells.append(keyed[key])
                fresh.pop()  # the last piece
        cells = new_cells
    return cells


def _initial_cells(g: SignedGraph) -> list[list[int]]:
    inv = _vertex_invariants(g)
    grouped: dict[tuple, list[int]] = {}
    for v in range(g.n):
        grouped.setdefault(inv[v], []).append(v)
    return [grouped[key] for key in sorted(grouped)]


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


def _join(parent: list[int], p, cell) -> None:
    """Merge the union-find classes of x and p[x] for every vertex x of
    cell, which p maps onto itself."""
    for x in cell:
        rx, ry = _find(parent, x), _find(parent, p[x])
        if rx != ry:
            parent[rx] = ry


def _canonical_search(g: SignedGraph):
    """Return (canonical encoding, order achieving it, automorphisms found,
    order of the sign-preserving automorphism group).

    order[i] is the vertex at position i.  Each automorphism is a tuple p
    mapping vertex x to p[x].
    """
    n = g.n
    pos, neg = g.pos, g.neg
    best_enc: bytes | None = None
    best_order: list[int] | None = None
    first_enc: bytes | None = None
    first_order: list[int] | None = None
    group_order = 1
    gens: list[tuple[int, ...]] = []
    fixed: list[int] = []  # fixed[k]: bitmask of the points gens[k] fixes
    seen = {tuple(range(n))}
    path: list[int] = []  # the vertices individualised so far
    first_path: list[int] = []

    def rec(cells, pmask) -> int:
        """Search below one node; return the depth the search goes on at:
        the node's own, or after a leaf with the first leaf's encoding, the
        depth of its deepest common ancestor with the first leaf."""
        nonlocal best_enc, best_order, first_enc, first_order, first_path, group_order
        depth = len(path)
        target = -1
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target < 0:
            order = [c[0] for c in cells]
            enc = _encode(g, order)
            if first_enc is None:
                first_enc, first_order, first_path = enc, order, path[:]
            if best_enc is None or enc < best_enc:
                best_enc, best_order = enc, order
            for ref_enc, ref in ((first_enc, first_order), (best_enc, best_order)):
                if enc == ref_enc and ref is not order:
                    tphi = tuple(_witness(ref, order))
                    if tphi not in seen:
                        seen.add(tphi)
                        gens.append(tphi)
                        fixed.append(sum(1 << x for x in range(n) if tphi[x] == x))
            if enc == first_enc and order is not first_order:
                # jump back: the rest of the ancestor's current child is an
                # image of its first child's subtree (module docstring)
                common = 0
                while path[common] == first_path[common]:
                    common += 1
                return common
            return depth
        on_first_path = first_enc is None
        cell = cells[target]
        explored: list[int] = []
        # orbits on the cell of the automorphisms found so far that fix the
        # prefix (pmask), folded in as they are found; each maps the cell
        # onto itself, since `_refine` is invariant
        parent = list(range(n))
        folded = 0

        def fold() -> None:
            nonlocal folded
            for k in range(folded, len(gens)):
                if pmask & ~fixed[k] == 0:
                    _join(parent, gens[k], cell)
            folded = len(gens)

        for v in cell:
            # skip v when such an automorphism maps an explored sibling onto
            # it; that subtree is an image of an explored one
            if explored:
                fold()
                rv = _find(parent, v)
                if any(_find(parent, u) == rv for u in explored):
                    continue
            explored.append(v)
            child = (
                cells[:target]
                + [[v], [w for w in cell if w != v]]
                + cells[target + 1 :]
            )
            path.append(v)
            back = rec(_refine(pos, neg, child, (target,)), pmask | 1 << v)
            path.pop()
            if back < depth:
                return back
        if on_first_path:
            # the class of the first child is its orbit (module docstring)
            fold()
            rv = _find(parent, cell[0])
            group_order *= sum(1 for w in cell if _find(parent, w) == rv)
        return depth

    cells = _initial_cells(g)
    rec(_refine(pos, neg, cells, range(len(cells))), 0)
    assert best_enc is not None and best_order is not None
    return best_enc, best_order, gens, group_order


def canonical_form(g: SignedGraph) -> bytes:
    """Total-order key equal for two signed graphs iff they are isomorphic."""
    return _canonical_search(g)[0]


def canonical_labeling(g: SignedGraph) -> tuple[bytes, list[int]]:
    """Canonical form plus an order achieving it (order[i] = vertex at position i)."""
    enc, order, _, _ = _canonical_search(g)
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
    enc_g, order_g, _, _ = _canonical_search(g)
    enc_h, order_h, _, _ = _canonical_search(h)
    if enc_g != enc_h:
        return (False, None)
    w = _witness(order_g, order_h)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.sign(u, v) != h.sign(w[u], w[v]):
                raise RuntimeError("isomorphism witness failed verification")
    return (True, w)


def automorphism_count(g: UGraph) -> int:
    """Order of the automorphism group of an unsigned graph, read off one
    canonical search of its all-positive signing."""
    return _canonical_search(all_positive(g))[3]
