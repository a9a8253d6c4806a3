"""
Recognizing finite and affine reflection groups
===============================================

Every graph with order-2 vertex groups defines a reflection group.
Splitting its defining graph on commuting (label-2) edges gives diagram
components (the join factors of the graph); each is finite, affine or
indefinite.  A component is matched to the classical tables of finite
and affine diagrams, and one that matches none is indefinite by their
classification theorem.

Convention: a missing edge imposes no relation at all.  So to realize a
classical diagram as a graph, every unbonded pair of diagram nodes gets
an explicit label-2 edge.
"""

import itertools
import math

from graphcoherence import coxeter_graph, racg
from graphcoherence.group_model import classify_components, finiteness
from graphcoherence.labeled_graph import cycle_edges


def diagram(ids, bonds):
    """Coxeter diagram -> graph: unbonded pairs become label-2 edges."""
    edges = []
    for u, v in itertools.combinations(ids, 2):
        m = bonds.get((u, v), bonds.get((v, u), 2))
        if m is not None:
            edges.append((u, v, m))
    return coxeter_graph(ids, edges)


def describe(title, G):
    fin = finiteness(G)
    order = "infinite" if fin.order == math.inf else str(int(fin.order))
    print(f"{title}: order {order}")
    for vertices, t in classify_components(G):
        print(f"  component {vertices}: {t.name} ({t.kind})")
    print()


# a chain with bonds 3, 4 is the symmetry group of the cube
describe("cube symmetries", diagram("abc", {("a", "b"): 3, ("b", "c"): 4}))

# a pentagon bond gives the H3 icosahedral group
describe("icosahedron symmetries", diagram("abc", {("a", "b"): 5, ("b", "c"): 3}))

# a 3,3,3 triangle tiles the plane by equilateral triangles: affine
describe(
    "(3,3,3) triangle",
    coxeter_graph("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]),
)

# the square with order-2 groups: the diagram components are the two
# diagonals, each an infinite dihedral pair
ids = ["a", "b", "c", "d"]
describe("square", racg(ids, cycle_edges(ids)))

# two isolated vertices generate the infinite dihedral group itself
describe("free pair of involutions", racg(["a", "b"]))

# orders of the whole classical A family, against the factorial formula
for n in range(1, 7):
    ids = [f"g{i}" for i in range(n)]
    G = diagram(ids, {(ids[i], ids[i + 1]): 3 for i in range(n - 1)})
    fin = finiteness(G)
    print(f"A{n}: order {int(fin.order):>5}  (should be {n + 1}! = {math.factorial(n + 1)})")
