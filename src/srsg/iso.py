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
along with the bitmask of the points it moves.  Each search node keeps one
union-find over its target cell, made when it is first needed; before each
child after the first it folds in the automorphisms found since its last
fold that fix its prefix pointwise, a test of that bitmask against the
prefix's, and a sibling joined to an explored one is skipped.

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

Three details of the implementation leave every result above unchanged:

- Cells are int bitmasks.  A cell as a mask holds the same vertices as the
  ascending list of them, and every cell of the list partitions is
  ascending: the initial cells collect vertices in increasing order, each
  piece of a split keeps its cell's order, and a child replaces its target
  cell by [v] and the rest of the cell in order.  So the mask partition is
  the list partition cell by cell, and walking a mask lowest bit first
  visits a cell's vertices in the list's order.  `_refine` splits by bit
  planes of the counts, which gives the pieces in the sorted key order the
  lists used (its docstring says why).
- Twin transpositions seed the generators.  Vertices u and v are twins
  when every other vertex has the same sign towards both.  Swapping them
  then maps each edge uw onto vw with its sign and uv onto itself, so the
  transposition is an automorphism.  `core._twin_classes` finds every twin
  class in O(n) dict operations, by the keys (pos, neg), (pos | {u}, neg)
  and (pos, neg | {u}), and the transpositions of consecutive members
  generate its symmetric group.  The pruning and the orbit counting hold
  for any set of automorphisms, so seeding them changes only the
  generators returned.
- An isomorphism test stops at the match.  `are_isomorphic` searches h
  only until the first leaf whose encoding is g's canonical form.  When g
  and h are isomorphic that is h's minimum encoding, so the leaf is the
  first leaf of minimum encoding in depth-first order, the one h's full
  search returns and never skips.  Each pruning decision depends only on
  the leaves found before it, so up to that leaf the stopped search takes
  the full search's steps and reaches it, and the witness is the full
  search's.  When no leaf matches, the search runs to its end and the
  graphs are not isomorphic.
"""

from __future__ import annotations

from operator import itemgetter

from .core import SignedGraph, UGraph, _bits, _relabel, _triangle_profiles, _twin_classes, all_positive


def _vertex_invariants(g: SignedGraph) -> list[tuple]:
    """Per-vertex refinement seed: (d+, d-, triangle profile by sign)."""
    tri = _triangle_profiles(g)
    return [(g.pos[v].bit_count(), g.neg[v].bit_count(), tuple(tri[v])) for v in range(g.n)]


def fingerprint(g: SignedGraph) -> tuple:
    """Cheap isomorphism invariant; unequal fingerprints mean non-isomorphic."""
    return (g.n, tuple(sorted(_vertex_invariants(g))))


def _count_planes(rows, m: int) -> list[int]:
    """Bit planes of the counts |rows[v] & m| over all v, most significant
    first: the plane of bit k holds the vertices whose count has bit k set.
    The rows of m's vertices are added by ripple carry."""
    planes: list[int] = []
    for w in _bits(m):
        carry = rows[w]
        for k, plane in enumerate(planes):
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    planes.reverse()
    return planes


def _refine(pos, neg, cells, fresh):
    """Equitable refinement of an ordered partition of bitmask cells.

    Each round splits every cell by the vector of (positive, negative)
    neighbour counts into the cells whose indices `fresh` lists, in index
    order; subcells are ordered by key, which keeps the procedure
    equivariant under relabelling.  When a cell splits, each piece but the
    last in key order goes into the next round's `fresh`, and refinement
    ends when a round splits nothing.  The root passes every cell; a child
    passes the singleton it individualised out of an equitable partition.

    The counts are bit planes: for each fresh cell in index order the
    planes of the positive, then of the negative counts into it, most
    significant first (a singleton {x} gives the single planes pos[x] and
    neg[x]).  Each cell is split by every plane in turn, each piece into
    its vertices outside the plane, then those inside.  Two vertices stay
    together iff their keys are equal, and two pieces are ordered by the
    first plane they differ on, 0 first.  All counts into one cell have the
    same planes, so that is the lexicographic order of the keys, the
    sorted order of the count tuples.

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
    # with no negative edge every negative count is 0 and gives no plane
    signs = (pos, neg) if any(neg) else (pos,)
    while fresh:
        planes: list[int] = []
        for i in fresh:
            m = cells[i]
            if m & (m - 1):
                for rows in signs:
                    planes += _count_planes(rows, m)
            else:
                x = m.bit_length() - 1
                planes += (pos[x], neg[x])
        new_cells: list[int] = []
        fresh = []
        for cell in cells:
            if cell & (cell - 1):
                pieces = [cell]
                for plane in planes:
                    inside = cell & plane
                    if inside and inside != cell:
                        pieces = [
                            half for piece in pieces
                            for half in (piece & ~plane, piece & plane) if half
                        ]
                if len(pieces) > 1:
                    # every piece but the last
                    fresh += range(len(new_cells), len(new_cells) + len(pieces) - 1)
                    new_cells += pieces
                    continue
            new_cells.append(cell)
        cells = new_cells
    return cells


def _initial_cells(g: SignedGraph, inv: list[tuple] | None = None) -> list[int]:
    """Bitmask cells of equal vertex invariants, in sorted invariant order."""
    grouped: dict[tuple, int] = {}
    for v, key in enumerate(_vertex_invariants(g) if inv is None else inv):
        grouped[key] = grouped.get(key, 0) | 1 << v
    return [grouped[key] for key in sorted(grouped)]


def _code_rows(g: SignedGraph) -> list[bytes]:
    """Each vertex's row of the sign matrix, encoded as in the canonical form."""
    rows = []
    for p, q in zip(g.pos, g.neg):
        row = bytearray(g.n)
        for v in _bits(p):
            row[v] = 2
        for v in _bits(q):
            row[v] = 1
        rows.append(bytes(row))
    return rows


def _encode(g: SignedGraph, order: list[int], codes: list[bytes]) -> bytes:
    """The encoding of g under order; codes are g's `_code_rows`."""
    n = g.n
    out = bytearray([n])
    if n > 1:
        gather = itemgetter(*order)
        for i in range(n - 1):
            out.extend(gather(codes[order[i]])[i + 1 :])
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


def _canonical_search(g: SignedGraph, inv: list[tuple] | None = None, stop: bytes | None = None):
    """Return (canonical encoding, order achieving it, automorphisms found,
    order of the sign-preserving automorphism group).

    order[i] is the vertex at position i.  Each automorphism is a tuple p
    mapping vertex x to p[x].  inv, when given, is g's `_vertex_invariants`.
    With stop, the search ends at the first leaf whose encoding is stop and
    returns it as the encoding and order (module docstring); the group
    order is then that of an unfinished search.
    """
    n = g.n
    pos, neg = g.pos, g.neg
    codes = _code_rows(g)
    best_enc: bytes | None = None
    best_order: list[int] | None = None
    first_enc: bytes | None = None
    first_order: list[int] | None = None
    group_order = 1
    gens: list[tuple[int, ...]] = []
    moved: list[int] = []  # moved[k]: bitmask of the points gens[k] moves
    for cls in _twin_classes(pos, neg):
        # transpositions of consecutive twins generate the class's symmetric group
        for a, b in zip(cls, cls[1:]):
            t = list(range(n))
            t[a], t[b] = b, a
            gens.append(tuple(t))
            moved.append(1 << a | 1 << b)
    seen = {tuple(range(n)), *gens}
    path: list[int] = []  # the vertices individualised so far
    first_path: list[int] = []

    def rec(cells, pmask) -> int:
        """Search below one node; return the depth the search goes on at:
        the node's own, or after a leaf with the first leaf's encoding, the
        depth of its deepest common ancestor with the first leaf; -1 stops
        the search."""
        nonlocal best_enc, best_order, first_enc, first_order, first_path, group_order
        depth = len(path)
        for target, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            order = [c.bit_length() - 1 for c in cells]
            enc = _encode(g, order, codes)
            if first_enc is None:
                first_enc, first_order, first_path = enc, order, path[:]
            if best_enc is None or enc < best_enc:
                best_enc, best_order = enc, order
            if enc == stop:
                return -1
            for ref_enc, ref in ((first_enc, first_order), (best_enc, best_order)):
                if enc == ref_enc and ref is not order:
                    tphi = tuple(_witness(ref, order))
                    if tphi not in seen:
                        seen.add(tphi)
                        gens.append(tphi)
                        moved.append(sum(1 << x for x in range(n) if tphi[x] != x))
            if enc == first_enc and order is not first_order:
                # jump back: the rest of the ancestor's current child is an
                # image of its first child's subtree (module docstring)
                common = 0
                while path[common] == first_path[common]:
                    common += 1
                return common
            return depth
        on_first_path = first_enc is None
        explored: list[int] = []
        # orbits on the cell of the automorphisms found so far that fix the
        # prefix (pmask), folded in as they are found; each maps the cell
        # onto itself, since `_refine` is invariant
        parent: list[int] | None = None
        folded = 0

        def fold() -> None:
            nonlocal parent, folded
            if parent is None:
                parent = list(range(n))
            for k in range(folded, len(gens)):
                if not pmask & moved[k]:
                    p = gens[k]
                    for x in _bits(cell & moved[k]):
                        rx, ry = _find(parent, x), _find(parent, p[x])
                        if rx != ry:
                            parent[rx] = ry
            folded = len(gens)

        for v in _bits(cell):
            # skip v when such an automorphism maps an explored sibling onto
            # it; that subtree is an image of an explored one
            if explored:
                fold()
                rv = _find(parent, v)
                if any(_find(parent, u) == rv for u in explored):
                    continue
            explored.append(v)
            bit = 1 << v
            child = cells[:target] + [bit, cell ^ bit] + cells[target + 1 :]
            path.append(v)
            back = rec(_refine(pos, neg, child, (target,)), pmask | bit)
            path.pop()
            if back < depth:
                return back
        if on_first_path:
            # the class of the first child is its orbit (module docstring)
            fold()
            rv = _find(parent, explored[0])
            group_order *= sum(1 for w in _bits(cell) if _find(parent, w) == rv)
        return depth

    cells = _initial_cells(g, inv)
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

    Fast path: unequal fingerprints decide non-isomorphism without
    canonicalizing.  Otherwise g is
    canonicalised and h searched only until a leaf matches g's canonical
    form (module docstring).  The witness w maps vertices of g to vertices
    of h and is verified, signs included, by relabelling g's rows with it
    before being returned.
    """
    if g.n != h.n:
        return (False, None)
    inv_g, inv_h = _vertex_invariants(g), _vertex_invariants(h)
    if sorted(inv_g) != sorted(inv_h):
        return (False, None)
    enc_g, order_g, _, _ = _canonical_search(g, inv_g)
    enc_h, order_h, _, _ = _canonical_search(h, inv_h, enc_g)
    if enc_g != enc_h:
        return (False, None)
    w = _witness(order_g, order_h)
    if _relabel(g.pos, w) != tuple(h.pos) or _relabel(g.neg, w) != tuple(h.neg):
        raise RuntimeError("isomorphism witness failed verification")
    return (True, w)


def automorphism_count(g: SignedGraph | UGraph) -> int:
    """Order of the automorphism group of g, read off one canonical search:
    the sign-preserving group of a signed graph, and of an unsigned graph
    the group of its all-positive signing."""
    return _canonical_search(g if isinstance(g, SignedGraph) else all_positive(g))[3]
