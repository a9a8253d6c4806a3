"""Inputs of the benchmark workloads, made from a seed without networkx.

Each workload is a list of operations; an operation is one argv for
``graphcoherence.cli.main`` plus, for ``classify``, the graph document it
reads.  Census workloads take no input file and ignore the seed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 1

# Every workload runs serially in one process (no threads, no pool), which
# keeps the timings meaningful on a 2-vCPU host.
WORKLOAD_NAMES = ("census-racg", "census-coxeter", "classify-search", "classify-proofs")

# Calls are kept short (at most 0.1-0.3 s on a 2.1 GHz Xeon vCPU) so that a
# run pairs many of them with the seed copy's calls; see run.py.  For that
# reason the gallery has the cocktail-party graph K(2,2,2,2), not
# K(2,2,2,2,2), whose canonical labeling alone takes about 0.5 s.
CENSUS_ARGV = {
    # 1,099 labeled graphs in 52 classes: enumeration, LabeledGraph.build and
    # canonical labeling of many tiny graphs dominate; classification is small.
    "census-racg": ["census", "--flavor", "racg", "--max-vertices", "5"],
    # 1,978 edge-coloured graphs in 154 classes: far fewer memo hits, so
    # classification, re-verification and classify_components carry weight.
    "census-coxeter": [
        "census", "--flavor", "coxeter", "--max-vertices", "4", "--labels", "2,3,4", "--max-edges", "4",
    ],
}


@dataclass(frozen=True)
class Operation:
    """One call of the command line entry point.  An operation with a
    ``document`` reads it from ``<directory>/<name>.json``."""

    name: str
    args: tuple[str, ...]
    document: Optional[str] = None

    def argv(self, directory: str) -> list[str]:
        if self.document is None:
            return list(self.args)
        return [*self.args, os.path.join(directory, f"{self.name}.json")]


# -- graph builders: (flavor, vertex count, [(i, j, label)]) over ids 0..n-1 --


def cycle(n: int, labels=(2,)) -> list[tuple[int, int, int]]:
    """The n-cycle, edge k labeled labels[k % len(labels)]."""
    return [(k, (k + 1) % n, labels[k % len(labels)]) for k in range(n)]


def path(n: int, label: int = 2) -> list[tuple[int, int, int]]:
    return [(k, k + 1, label) for k in range(n - 1)]


def cocktail_party(parts: int) -> list[tuple[int, int, int]]:
    """K(2,...,2): 2*parts vertices, all pairs joined except 2k -- 2k+1."""
    return [
        (i, j, 2)
        for i, j in itertools.combinations(range(2 * parts), 2)
        if i // 2 != j // 2
    ]


def grid(rows: int, cols: int) -> list[tuple[int, int, int]]:
    """rows x cols grid; vertex r*cols + c."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, 2))
            if r + 1 < rows:
                edges.append((v, v + cols, 2))
    return edges


def wheel(n: int) -> list[tuple[int, int, int]]:
    """Wheel on n vertices: hub 0 joined to the rim cycle 1..n-1."""
    rim = [(1 + i, 1 + j, m) for i, j, m in cycle(n - 1)]
    return [(0, k, 2) for k in range(1, n)] + rim


def complete_bipartite(a: int, b: int) -> list[tuple[int, int, int]]:
    return [(i, a + j, 2) for i in range(a) for j in range(b)]


def disjoint_union(*parts: tuple[int, list]) -> tuple[int, list[tuple[int, int, int]]]:
    """Union of (vertex count, edges) parts, shifting ids part by part."""
    n, edges = 0, []
    for size, part in parts:
        edges.extend((i + n, j + n, m) for i, j, m in part)
        n += size
    return n, edges


def random_regular(n: int, d: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """Uniform random simple d-regular graph by the pairing model: match
    n*d points at random, and start over on a loop or a repeated edge."""
    if n * d % 2:
        raise ValueError("n*d must be even")
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[k : k + 2])) for k in range(0, len(points), 2)}
        if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
            return [(u, v, 2) for u, v in sorted(pairs)]


def proof_gallery() -> list[tuple[str, str, int, list[tuple[int, int, int]]]]:
    """(name, flavor, vertex count, edges) of graphs that resolve with
    evidence across graph products, Coxeter and Artin groups."""
    return [
        ("cocktail-party-4", "racg", 8, cocktail_party(4)),
        ("cycle-12", "racg", 12, cycle(12)),
        ("grid-3x4", "racg", 12, grid(3, 4)),
        ("wheel-12", "racg", 12, wheel(12)),
        ("c6-plus-c6", "racg", *disjoint_union((6, cycle(6)), (6, cycle(6)))),
        ("k33-plus-c6", "racg", *disjoint_union((6, complete_bipartite(3, 3)), (6, cycle(6)))),
        ("coxeter-cycle-12-3", "coxeter", 12, cycle(12, (3,))),
        ("coxeter-cycle-12-45", "coxeter", 12, cycle(12, (4, 5))),
        ("artin-path-12-3", "artin", 12, path(12, 3)),
        ("artin-cycle-12-3", "artin", 12, cycle(12, (3,))),
    ]


def graph_document(
    flavor: str, n: int, edges: list[tuple[int, int, int]], rng: random.Random, shuffle: bool
) -> str:
    """JSON graph file; with ``shuffle`` the vertex order, the vertex ids,
    the edge order and each edge's orientation are permuted by ``rng``."""
    ids = [f"v{k}" for k in range(n)]
    order = list(range(n))
    edge_items = [(i, j, m) for i, j, m in edges]
    if shuffle:
        ids = [f"v{k}" for k in rng.sample(range(100, 1000), n)]
        rng.shuffle(order)
        rng.shuffle(edge_items)
        edge_items = [(j, i, m) if rng.random() < 0.5 else (i, j, m) for i, j, m in edge_items]
    doc = {
        "flavor": flavor,
        "vertices": [{"id": ids[k]} for k in order],
        "edges": [{"u": ids[i], "v": ids[j], "label": m} for i, j, m in edge_items],
    }
    return json.dumps(doc, indent=1) + "\n"


def operations(workload: str, seed: int) -> list[Operation]:
    """The workload's operations for ``seed``."""
    if workload in CENSUS_ARGV:
        return [Operation(workload, tuple(CENSUS_ARGV[workload]))]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classify-search":
        # Random graphs have trivial automorphism groups, so the separator
        # search shows cleanly and canonical labeling stays small.
        graphs = [(f"regular-4-10-{k}", "racg", 10, random_regular(10, 4, rng)) for k in range(5)]
        shuffle = False
    elif workload == "classify-proofs":
        graphs = proof_gallery()
        shuffle = True
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    for name, flavor, n, edges in graphs:
        doc = graph_document(flavor, n, edges, rng, shuffle)
        ops.append(Operation(name, ("classify",), doc))
    return ops
