"""Seeded benchmark inputs, built without any srsg code.

Seed 0 is the shipped fixtures; a seed s > 0 relabels every shipped host by
a vertex permutation drawn from `random.Random(f"{s}:{name}")`.  A seed can
have several input sets: set 0 is the one above, and set k > 0 relabels by
`f"{s}/{k}"` in place of s.  The
generated families K_{m,m} and rook m x m keep their construction labelling
at every seed: their cost depends on the labelling by up to 10x (K8,8 at
rho=4 visits 173k DFS nodes as built, 0.5M or 1.7M relabelled; rook 6x6
canonicalises in 0.2 to 1.3 s), so a relabelling would let the seed pick
the workload.  The inputs are written as graph6 files into one directory
per seed, which is all the program is given.  The graph6 codec and the
graph families here are the benchmark's own, so they also serve as oracles.
"""

from __future__ import annotations

import os
import random
import shutil

FIXTURE_FILES = ("6reg_order8.g6", "6reg_order9.g6", "6reg_order10.g6")

# srsg.catalog underlying-graph name -> shipped file under fixtures/targets
TARGET_FILES = {
    "G8": "g8.g6",
    "G9": "g9.g6",
    "K333": "k333.g6",
    "K66": "k66.g6",
    "GQ22": "gq22.g6",
    "Paley13": "paley13.g6",
    "S2_12_underlying": "s2_12u.g6",
    "S3_12_underlying": "s3_12u.g6",
    "S1_15_underlying": "s1_15u.g6",
    "S16_underlying": "s16u.g6",
}

# hosts the shipped fixtures lack: K_{m,m} and the m x m rook graph
KMM_SIZES = range(4, 11)
ROOK_SIZES = range(4, 7)
KMM_FILE = "kmm.g6"
ROOK_FILE = "rook.g6"


def decode_graph6(line: str) -> tuple[int, set[tuple[int, int]]]:
    """(n, edge set of (u, v) with u < v) for a single-byte-header graph6 line."""
    s = line.strip()
    n = ord(s[0]) - 63
    bits = []
    for ch in s[1:]:
        v = ord(ch) - 63
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    edges = set()
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t]:
                edges.add((i, j))
            t += 1
    return n, edges


def encode_graph6(n: int, edges) -> str:
    es = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in es else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for t in range(0, len(bits), 6):
        v = 0
        for b in bits[t : t + 6]:
            v = (v << 1) | b
        out.append(chr(v + 63))
    return "".join(out)


def permutation(seed, name: str, n: int) -> list[int]:
    """Identity at seed 0, otherwise a seeded shuffle specific to `name`."""
    perm = list(range(n))
    if seed:
        random.Random(f"{seed}:{name}").shuffle(perm)
    return perm


def relabel_edges(edges, perm):
    """Apply a vertex permutation to (u, v) or (u, v, sign) edges."""
    return [(perm[e[0]], perm[e[1]]) + tuple(e[2:]) for e in edges]


def kmm_edges(m: int) -> list[tuple[int, int]]:
    return [(i, m + j) for i in range(m) for j in range(m)]


def rook_edges(m: int) -> list[tuple[int, int]]:
    n = m * m
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u // m == v // m or u % m == v % m
    ]


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="ascii") as fh:
        return [s.strip() for s in fh if s.strip() and not s.startswith("#")]


def _write_lines(path: str, lines: list[str]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))
    os.replace(tmp, path)


def _relabel_file(src: str, dst: str, seed, stem: str) -> None:
    if seed == 0:
        shutil.copyfile(src, dst)
        return
    out = []
    for i, line in enumerate(_read_lines(src)):
        n, edges = decode_graph6(line)
        out.append(encode_graph6(n, relabel_edges(edges, permutation(seed, f"{stem}[{i}]", n))))
    _write_lines(dst, out)


def prepare(root: str, out_dir: str, seed: int, part: int = 0) -> str:
    """Write the graph6 inputs of one input set of a seed under out_dir and
    return that directory."""
    if part and not seed:
        raise ValueError("seed 0 has one input set, the shipped fixtures")
    fixtures = os.path.join(root, "fixtures")
    d = os.path.join(out_dir, f"seed{seed}-{part}" if part else f"seed{seed}")
    if part:
        seed = f"{seed}/{part}"
    os.makedirs(os.path.join(d, "targets"), exist_ok=True)
    for f in FIXTURE_FILES:
        _relabel_file(os.path.join(fixtures, f), os.path.join(d, f), seed, f)
    for name, f in TARGET_FILES.items():
        _relabel_file(
            os.path.join(fixtures, "targets", f), os.path.join(d, "targets", f), seed, name
        )
    for fname, family, sizes in (
        (KMM_FILE, kmm_edges, KMM_SIZES),
        (ROOK_FILE, rook_edges, ROOK_SIZES),
    ):
        lines = []
        for m in sizes:
            edges = family(m)
            lines.append(encode_graph6(max(v for e in edges for v in e) + 1, edges))
        _write_lines(os.path.join(d, fname), lines)
    return d
