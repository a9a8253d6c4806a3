"""
Classifying a handful of named graphs
=====================================

Build a few small vertex-edge-labeled graphs, run the coherence
classifier on each, and print the evidence it returns.
"""

from graphcoherence import (
    Classifier,
    artin_graph,
    coxeter_graph,
    cycle_edges,
    graph_product_graph,
    racg,
)
from graphcoherence.labeled_graph import cyclic

classifier = Classifier()


def show(title, G):
    verdict = classifier.classify(G)
    print(f"{title}: {verdict.status}")
    if verdict.proof is not None:
        print(f"  proof root: {verdict.proof.rule} on {verdict.proof.vertices}")
    if verdict.witness is not None:
        print(f"  witness: {verdict.witness.kind}")
    for note in verdict.notes:
        print(f"  note: {note.code}")
    print()


# a square with order-2 vertex groups: two commuting infinite dihedral
# factors, so every subgroup is finitely generated
square = racg(["a", "b", "c", "d"], cycle_edges(["a", "b", "c", "d"]))
show("square (order-2 vertex groups)", square)

# complete bipartite 3x3: a direct product of two 3-generator free
# products, each containing a rank-2 free group
k33 = racg("abcdef", [(x, y) for x in "abc" for y in "def"])
show("complete bipartite 3x3", k33)

# the same square shape but with Z/3 vertex groups: now each diagonal
# pair already contains a rank-2 free group
Z3 = cyclic(3)
z3_square = graph_product_graph(
    [(v, Z3) for v in "abcd"], cycle_edges(list("abcd"))
)
show("square (order-3 vertex groups)", z3_square)

# the pentagon with Z/3 vertex groups is a genuinely open case
z3_pentagon = graph_product_graph(
    [(v, Z3) for v in "abcde"], cycle_edges(list("abcde"))
)
show("pentagon (order-3 vertex groups)", z3_pentagon)

# complete graph on 4 vertices with infinite cyclic vertex groups,
# consecutive generators braiding (label 3) and distant ones commuting:
# a triangle carries two heavy labels, which embeds a bad product
braid_edges = [
    ("a", "b", 3), ("b", "c", 3), ("c", "d", 3),
    ("a", "c", 2), ("a", "d", 2), ("b", "d", 2),
]
show("braid graph on 4 strands", artin_graph("abcd", braid_edges))

# the same labeled graph with order-2 vertex groups is the symmetric
# group on five letters: finite, hence coherent
show("braid graph, order-2 groups", coxeter_graph("abcd", braid_edges))

# a long cycle with order-2 groups splits as an amalgam over a
# two-vertex separator
ids = [f"v{i}" for i in range(6)]
show("hexagon (order-2 vertex groups)", racg(ids, cycle_edges(ids)))
