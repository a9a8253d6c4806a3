"""Group-theoretic semantics of labeled graphs.

A graph with every edge labeled 2 presents the graph product of its
vertex groups; an all-Z graph presents an Artin group; an all-Z2 graph
presents a Coxeter group.  This module evaluates the properties of
those groups that the classification engine consumes: finiteness,
slenderness (every subgroup finitely generated), free subgroups of rank
two, and explicit presentations.

Coxeter conventions: the matrix entry of an edge is its label, and a
missing edge means infinity.  The standard diagram joins two generators
whenever their entry is 3 or more (including infinity), that is,
whenever they do not commute, so its connected components are the
graph's join factors (:func:`join_factors`).  A component of rank 3
or more with an infinite bond or a label above 6 is indefinite by an
elementary lemma (proved at :func:`_match_component`), with no
arithmetic.  Any other component is typed by looking the canonical key
of its bond graph up in a table of the finite and affine templates,
whose spectra are checked once, when the table is built: a matched
component is a relabelling of its template.  :func:`_diagram_kind`
types a template or an unmatched complete component labelled 2..6
from its position-labelled pairs, by one symmetric elimination in
plain Python.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .labeled_graph import (
    Flavor,
    InternalInvariantError,
    LabeledGraph,
    Z2,
    canonical_key,
    detect_flavor,
    join_factors,
    mask_positions,
)

# Pivots within EIG_TOL of 0 count as zero in :func:`_diagram_kind`.
EIG_TOL = 1e-9

SLENDER = "slender"
NOT_SLENDER = "not_slender"
UNKNOWN = "unknown"


class UnsupportedFlavorError(ValueError):
    """The labels of the graph define no group in this model."""


def require_group(G: LabeledGraph) -> Flavor:
    """G's flavor, or :class:`UnsupportedFlavorError` if its labels
    define no group."""
    flavor = detect_flavor(G)
    if not flavor.any:
        raise UnsupportedFlavorError("edge labels above 2 require all-Z or all-Z2 vertex groups")
    return flavor


# -- diagram kinds -------------------------------------------------------------


def _diagram_kind(r: int, labels: Sequence[tuple[int, int, int]]) -> str:
    """Kind of the connected diagram on positions 0..r-1 (r >= 3):
    "finite", "affine" or "indefinite".

    Its cosine matrix B has 1 on the diagonal, -cos(pi/m) for each pair
    (i, j, m) in ``labels`` and -1 (m infinite) for other pairs.  One
    symmetric elimination B = L D L^T, without pivoting, stops at the
    first pivot d_k not above ``EIG_TOL``: below -EIG_TOL, or within
    EIG_TOL of 0 before the last step, is indefinite; within EIG_TOL of
    0 at the last step is affine; all pivots positive is finite.  Write
    B_k for the leading block on positions 0..k; B_{k-1} is positive
    definite when d_k is reached.

    1. Sylvester's law of inertia: L is unit lower triangular, so B and
       D have as many negative, zero and positive eigenvalues as each
       other.  The pivot signs give the eigenvalue signs.
    2. Interlacing: d_k is the least x^T B_k x over x with x_k = 1.  An
       eigenvector of lam = lam_min(B_k) scaled to x_k = 1 has
       ||x|| >= 1, so lam <= d_k, and d_k <= lam <= 0 once d_k <= 0: the
       first non-positive pivot is at least as large in magnitude as
       the least eigenvalue of its block.  So an eigenvalue of B_k below
       -EIG_TOL makes d_k negative (fact 1) and then below -EIG_TOL,
       and a last pivot within EIG_TOL of 0 puts lam_min(B) within
       EIG_TOL of 0 (it is positive if d_k is): the kind agrees with
       counting eigenvalues below and within EIG_TOL of 0 wherever that
       count's decision was clear.
    3. A pivot within EIG_TOL of 0 before the last step puts lam_min(B_k)
       within EIG_TOL of 0 or below (fact 2), for a block on fewer than
       r positions.  A component of B_k with that least eigenvalue is
       indefinite, affine, or finite with least eigenvalue
       1 - cos(pi/h) <= EIG_TOL, so with Coxeter number h >= 70,249:
       I2(m) with m >= 70,249 (or a type of rank 35,125 or more, far
       beyond any diagram typed here).
       In each case the connected diagram B, which properly contains it,
       is indefinite:
       - indefinite: B has the component's negative eigenvalue (Cauchy
         interlacing);
       - affine: its null vector z is positive (Perron-Frobenius), and a
         generator v outside it bonded to it gives
         (z + eps e_v)^T B (z + eps e_v) = 2 eps z^T B e_v + eps^2 < 0
         for small eps > 0;
       - I2(m) on a, b: a generator c bonded to a or b makes the
         triangle {a, b, c} with labels m, p >= 3 and q >= 2, and
         1/m + 1/p + 1/q <= 1/m + 1/3 + 1/2 < 1: it is hyperbolic, so
         indefinite, and B contains it.
    """
    B = [[1.0 if i == j else -1.0 for j in range(r)] for i in range(r)]
    for i, j, m in labels:
        B[i][j] = B[j][i] = -math.cos(math.pi / m)
    for k, pivot_row in enumerate(B):
        d = pivot_row[k]
        if d <= EIG_TOL:
            return "affine" if k == r - 1 and d >= -EIG_TOL else "indefinite"
        for row in B[k + 1 :]:
            f = row[k] / d
            for j in range(k + 1, r):
                row[j] -= f * pivot_row[j]
    return "finite"


# -- irreducible types --------------------------------------------------------


@dataclass(frozen=True)
class IrreducibleType:
    """Type of one connected standard-diagram component.

    ``kind`` is finite, affine or indefinite.  ``family`` and ``index``
    name the diagram (family "I2" uses ``bond`` for its parameter);
    ``order`` is the group order for finite kinds.
    """

    kind: str
    family: str = ""
    index: int = 0
    bond: Optional[int] = None
    order: Optional[int] = None

    @property
    def name(self) -> str:
        if self.kind == "indefinite":
            return "indefinite"
        prefix = "~" if self.kind == "affine" else ""
        if self.family == "I2":
            return f"I2({self.bond})"
        return f"{prefix}{self.family}{self.index}"


_EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("H", 3): 120,
    ("H", 4): 14400,
}


def _finite_order(family: str, index: int) -> int:
    if family == "A":
        return math.factorial(index + 1)
    if family == "B":
        return 2**index * math.factorial(index)
    if family == "D":
        return 2 ** (index - 1) * math.factorial(index)
    return _EXCEPTIONAL_ORDERS[(family, index)]


Bonds = dict[tuple[int, int], int]


def _path(bonds: Sequence[int]) -> Bonds:
    return {(i, i + 1): m for i, m in enumerate(bonds)}


def _cycle(r: int) -> Bonds:
    bonds: Bonds = {(i, i + 1): 3 for i in range(r - 1)}
    bonds[(0, r - 1)] = 3
    return bonds


def _fork_chain(r: int, end_bond: int) -> Bonds:
    """Two leaves on a hub, then a chain whose final bond is
    ``end_bond``; r vertices total (r >= 4)."""
    bonds: Bonds = {(0, 2): 3, (1, 2): 3}
    for i in range(2, r - 1):
        bonds[(i, i + 1)] = 3
    bonds[(r - 2, r - 1)] = end_bond
    return bonds


def _double_fork(r: int) -> Bonds:
    """Two leaves on each of two hubs joined by a chain; r >= 6.
    Layout: leaves 0, 1 on hub 2; interior 3 .. r-4; hub r-1 with
    leaves r-3, r-2."""
    bonds: Bonds = {(0, 2): 3, (1, 2): 3, (r - 3, r - 1): 3, (r - 2, r - 1): 3}
    prev = 2
    for i in range(3, r - 3):
        bonds[(prev, i)] = 3
        prev = i
    bonds[(prev, r - 1)] = 3
    return bonds


def _arm_star(arms: Sequence[int]) -> Bonds:
    bonds: Bonds = {}
    nxt = 1
    for length in arms:
        prev = 0
        for _ in range(length):
            bonds[(min(prev, nxt), max(prev, nxt))] = 3
            prev = nxt
            nxt += 1
    return bonds


def _bond_key(r: int, bonds: Bonds) -> str:
    """Canonical key of the all-Z2 graph on r vertices whose edges are
    the bonds (position pairs i < j), labeled with their orders."""
    D = LabeledGraph(
        vertices=tuple(map(str, range(r))),
        groups=(Z2,) * r,
        edges=tuple(sorted((i, j, m) for (i, j), m in bonds.items())),
    )
    return canonical_key(D, cap=r)


def _template_bonds(r: int) -> list[tuple[IrreducibleType, Bonds]]:
    """Every finite and affine diagram on r >= 3 vertices, with its
    bonds."""
    out: list[tuple[IrreducibleType, Bonds]] = []

    def finite(family: str, index: int, bonds: Bonds) -> None:
        out.append(
            (
                IrreducibleType(
                    "finite", family, index, order=_finite_order(family, index)
                ),
                bonds,
            )
        )

    def affine(family: str, index: int, bonds: Bonds) -> None:
        out.append((IrreducibleType("affine", family, index), bonds))

    if r >= 3:
        finite("A", r, _path([3] * (r - 1)))
        finite("B", r, _path([4] + [3] * (r - 2)))
    if r >= 4:
        finite("D", r, _arm_star([1, 1, r - 3]))
    if r == 3:
        finite("H", 3, _path([5, 3]))
    if r == 4:
        finite("H", 4, _path([5, 3, 3]))
        finite("F", 4, _path([3, 4, 3]))
    if r == 6:
        finite("E", 6, _arm_star([1, 2, 2]))
    if r == 7:
        finite("E", 7, _arm_star([1, 2, 3]))
    if r == 8:
        finite("E", 8, _arm_star([1, 2, 4]))

    if r >= 3:
        affine("A", r - 1, _cycle(r))
        affine("C", r - 1, _path([4] + [3] * (r - 3) + [4]))
    if r >= 4:
        affine("B", r - 1, _fork_chain(r, 4))
    if r == 5:
        affine("D", 4, _arm_star([1, 1, 1, 1]))
        affine("F", 4, _path([3, 4, 3, 3]))
    if r >= 6:
        affine("D", r - 1, _double_fork(r))
    if r == 7:
        affine("E", 6, _arm_star([2, 2, 2]))
    if r == 8:
        affine("E", 7, _arm_star([1, 3, 3]))
    if r == 9:
        affine("E", 8, _arm_star([1, 2, 5]))
    if r == 3:
        affine("G", 2, _path([6, 3]))

    return out


@functools.lru_cache(maxsize=None)
def _templates(r: int) -> dict[str, IrreducibleType]:
    """The finite and affine diagram templates on r >= 3 vertices, keyed
    by the canonical key of their bond graph.  Each template's spectrum
    is checked here, once per rank: :func:`_diagram_kind` of its cosine
    matrix (label 2 on every unbonded pair) must be the template's kind,
    positive definite for a finite type and positive semidefinite of
    corank one for an affine type.  Template labels are at most 6, so no
    pivot but an affine template's last is near ``EIG_TOL``."""
    table = {}
    for t, bonds in _template_bonds(r):
        pairs = itertools.combinations(range(r), 2)
        kind = _diagram_kind(r, [(i, j, bonds.get((i, j), 2)) for i, j in pairs])
        if kind != t.kind:
            raise InternalInvariantError(
                f"diagram template {t.name} has spectrum of kind {kind}"
            )
        table[_bond_key(r, bonds)] = t
    return table


def _match_component(G: LabeledGraph, comp: tuple[str, ...]) -> IrreducibleType:
    """Type of the diagram component on the all-Z2 vertices ``comp``, a
    join factor of ``G`` in ambient order: rank 1 and 2 directly.  A
    larger component with a missing pair (an infinite bond) or a label
    above 6 is indefinite by the lemma below, with no arithmetic; any
    other is looked up by its bond key in :func:`_templates`, and one
    that matches no template must be indefinite by
    :func:`_diagram_kind` of its own cosine matrix.

    Lemma: a connected diagram of rank >= 3 with a bond a-b whose label
    is m >= 7 or m infinite is indefinite.  Connectivity gives a vertex
    c bonded to a, say, with label >= 3 or infinite, and the pair b-c
    has label >= 2 or infinite.  For x = e_a + e_b + e_c / 2,
    x^T B x = 9/4 + 2 B_ab + B_ac + B_bc <= 7/4 - 2 cos(pi/m), as
    B_ac <= -1/2 and B_bc <= 0.  That is negative: B_ab = -1 for m
    infinite, and cos(pi/m) >= 1 - pi^2/(2 m^2) > 1 - 10/98 > 7/8 for
    m >= 7.  So B has a negative eigenvalue.  The bound 7 is sharp for
    this x, since cos(pi/6) < 7/8.  No finite or affine template of
    rank >= 3 has a missing pair or a label above 6, so the lemma
    agrees with the table.
    """
    r = len(comp)
    if r == 1:
        return IrreducibleType("finite", "A", 1, order=2)
    pos = {G.index(v): k for k, v in enumerate(comp)}
    labels = [(pos[i], pos[j], m) for i, j, m in G.edges if i in pos and j in pos]
    complete = len(labels) == r * (r - 1) // 2
    if r == 2:
        if not complete:
            return IrreducibleType("affine", "A", 1)
        m = labels[0][2]
        if m == 3:
            return IrreducibleType("finite", "A", 2, order=6)
        if m == 4:
            return IrreducibleType("finite", "B", 2, order=8)
        return IrreducibleType("finite", "I2", 2, bond=m, order=2 * m)
    if complete and max(m for _, _, m in labels) <= 6:
        t = _templates(r).get(_bond_key(r, {(i, j): m for i, j, m in labels if m != 2}))
        if t is not None:
            return t
        if _diagram_kind(r, labels) != "indefinite":
            raise InternalInvariantError("unmatched diagram component is not actually indefinite")
    return IrreducibleType("indefinite")


def classify_components(
    G: LabeledGraph,
) -> tuple[tuple[tuple[str, ...], IrreducibleType], ...]:
    """Type of every standard-diagram component of an all-Z2 graph, in
    the order of :func:`join_factors`, each typed by
    :func:`_match_component`: indefinite by its lemma when a component
    of rank 3 or more has an infinite bond or a label above 6, else a
    key lookup in the spectrum-checked template table, or an indefinite
    type backed by the elimination of :func:`_diagram_kind`.  Other
    graphs raise :class:`UnsupportedFlavorError`."""
    if not detect_flavor(G).coxeter:
        raise UnsupportedFlavorError(
            "a Coxeter matrix needs every vertex group of order two"
        )
    return tuple((comp, _match_component(G, comp)) for comp in join_factors(G))


# -- finiteness ---------------------------------------------------------------


@dataclass(frozen=True)
class FinitenessResult:
    finite: bool
    order: float  # an int when finite, math.inf otherwise
    mode: str  # coxeter | graph_product | artin
    components: tuple[tuple[tuple[str, ...], IrreducibleType], ...] = ()


def finiteness(G: LabeledGraph) -> FinitenessResult:
    """Finiteness for any supported flavor.

    Coxeter graphs go through the diagram classification; other graph
    products are finite exactly when the graph is complete and every
    vertex group is finite; Artin groups are always infinite.
    """
    flavor = require_group(G)
    if flavor.coxeter:
        comps = classify_components(G)
        finite = all(t.kind == "finite" for _, t in comps)
        order = math.prod(t.order for _, t in comps) if finite else math.inf
        return FinitenessResult(finite=finite, order=order, mode="coxeter", components=comps)
    if flavor.graph_product:
        finite = G.is_complete() and all(not g.is_infinite for g in G.groups)
        order = math.prod(g.order() for g in G.groups) if finite else math.inf
        return FinitenessResult(finite=finite, order=order, mode="graph_product")
    return FinitenessResult(finite=False, order=math.inf, mode="artin")


# -- free subgroups of rank two ----------------------------------------------


@dataclass(frozen=True)
class F2Certificate:
    """Witness that the group contains a rank-two free subgroup.

    ``free_pair``: two nonadjacent vertices whose group orders p, q
    satisfy (p-1)(q-1) >= 2, that is, are not both 2 (every vertex
    group has order at least 2); the kernel of the retraction from the
    free product onto the direct product is then free of rank at least
    two.
    ``independent_triple``: three pairwise nonadjacent vertices; a free
    product of three nontrivial groups always contains F2.
    """

    kind: str
    vertices: tuple[str, ...]


def f2_certificates(G: LabeledGraph) -> Iterator[F2Certificate]:
    """Every F2 certificate in scan order: free pairs, then independent
    triples, each in the lexicographic order of their vertex positions
    (the order of ``itertools.combinations``).

    Triples are walked on the adjacency bitsets: for each nonadjacent
    pair i < j, the third vertices k > j are the bits of
    ``~(adj[i] | adj[j]) >> (j + 1)``, lowest first.
    """
    for u, v in G.nonadjacent_pairs():
        if not (G.group(u).is_order_two and G.group(v).is_order_two):
            yield F2Certificate(kind="free_pair", vertices=(u, v))
    adj = G.adjacency_masks
    vs = G.vertices
    n = G.n
    full = (1 << n) - 1
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i] >> j & 1:
                continue
            above = j + 1
            for k in mask_positions((full & ~(adj[i] | adj[j])) >> above << above):
                yield F2Certificate(
                    kind="independent_triple", vertices=(vs[i], vs[j], vs[k])
                )


def f2_certificate_valid(G: LabeledGraph, cert: F2Certificate) -> bool:
    try:
        for v in cert.vertices:
            G.index(v)
    except Exception:
        return False
    if len(set(cert.vertices)) != len(cert.vertices):
        return False
    if any(G.has_edge(a, b) for a, b in itertools.combinations(cert.vertices, 2)):
        return False
    if cert.kind == "free_pair":
        if len(cert.vertices) != 2:
            return False
        u, v = cert.vertices
        return not (G.group(u).is_order_two and G.group(v).is_order_two)
    if cert.kind == "independent_triple":
        return len(cert.vertices) == 3
    return False


# -- slenderness --------------------------------------------------------------


@dataclass(frozen=True)
class IndefiniteComponent:
    """Diagram component of indefinite type; the reflection subgroup it
    generates contains a free group."""

    vertices: tuple[str, ...]

    kind = "indefinite_component"


@dataclass(frozen=True)
class SlenderFactor:
    """One direct factor of a slender group: a finitely generated
    abelian vertex group, or a finite or affine Coxeter piece."""

    vertices: tuple[str, ...]
    kind: str  # abelian | finite | affine
    type: Optional[IrreducibleType] = None


@dataclass(frozen=True)
class SlenderCertificate:
    """Outcome of the slenderness test.

    Slender verdicts carry a factor partition of the vertex set whose
    parts pairwise commute; the group is the direct product of the
    factor subgroups, each finite, f.g. abelian, or affine.  Negative
    verdicts carry an F2 certificate or an indefinite component.
    """

    verdict: str
    reason: str
    factors: Optional[tuple[SlenderFactor, ...]] = None
    obstruction: Optional[Union[F2Certificate, IndefiniteComponent]] = None

    @property
    def finite_factor_count(self) -> int:
        return sum(1 for f in self.factors or () if f.kind == "finite")

    @property
    def affine_factor_count(self) -> int:
        return sum(1 for f in self.factors or () if f.kind == "affine")

    @property
    def abelian_factor_count(self) -> int:
        return sum(1 for f in self.factors or () if f.kind == "abelian")


def is_slender(G: LabeledGraph) -> SlenderCertificate:
    """Decide whether every subgroup is finitely generated.

    A group that is (finite) x (f.g. abelian) x (affine reflection
    pieces) is slender, and direct products of slender groups are
    slender.  One loop types the join factors in place.  Coxeter graphs
    are decided completely: every factor is a diagram component.  Other
    graph products first scan for an F2 certificate; failing that, a
    one-vertex factor is abelian and every multi-vertex factor is
    forced to be all-Z2 and is typed as a diagram component.  Artin
    graphs with a label >= 3 stay unknown.
    """
    flavor = require_group(G)
    if not flavor.coxeter:
        cert = next(f2_certificates(G), None)
        if cert is not None:
            return SlenderCertificate(
                verdict=NOT_SLENDER, reason="f2-certificate", obstruction=cert
            )
        if not flavor.graph_product:
            # All-Z with some label >= 3.
            return SlenderCertificate(verdict=UNKNOWN, reason="artin-label-ge-3")
    factors: list[SlenderFactor] = []
    for members in join_factors(G):
        if not flavor.coxeter:
            if len(members) == 1:
                factors.append(SlenderFactor(vertices=members, kind="abelian"))
                continue
            if not all(G.group(v).is_order_two for v in members):
                raise InternalInvariantError(
                    "multi-vertex join factor without an F2 certificate "
                    "must have all groups of order two"
                )
        t = _match_component(G, members)
        if t.kind == "indefinite":
            return SlenderCertificate(
                verdict=NOT_SLENDER,
                reason="indefinite-diagram-component",
                obstruction=IndefiniteComponent(vertices=members),
            )
        factors.append(SlenderFactor(vertices=members, kind=t.kind, type=t))
    return SlenderCertificate(
        verdict=SLENDER,
        reason=(
            "diagram-components-finite-or-affine"
            if flavor.coxeter
            else "direct-product-of-slender-factors"
        ),
        factors=tuple(factors),
    )


# -- presentations ------------------------------------------------------------

# The largest Artin label whose braid relation is written out letter by
# letter; at 10^8 that relation is already 200 MB of text.
LITERAL_BRAID_MAX = 10**8


def _generator_names(G: LabeledGraph) -> dict[str, list[str]]:
    names: dict[str, list[str]] = {}
    for v, g in zip(G.vertices, G.groups):
        k = g.factor_count()
        names[v] = [v] if k == 1 else [f"{v}_{i}" for i in range(1, k + 1)]
    return names


def emit_presentation(G: LabeledGraph) -> str:
    """Render a finite presentation of the group as ASCII text.

    Coxeter graphs use reflection relations v^2 and (u v)^m; Artin
    graphs use braid relations (uvu... = vuv..., m letters each), written
    as powers (uv)^k = (vu)^k for m = 2k and (uv)^k u = (vu)^k v for
    m = 2k + 1 once m exceeds ``LITERAL_BRAID_MAX``; other graph products
    list torsion powers and commutators.  Generators are juxtaposed when
    every name is a single character.
    """
    flavor = require_group(G)
    names = _generator_names(G)
    gens = [g for v in G.vertices for g in names[v]]
    juxt = all(len(g) == 1 for g in gens)

    def word(letters: Sequence[str]) -> str:
        return "".join(letters) if juxt else " ".join(letters)

    rels: list[str] = []
    if flavor.coxeter:
        for v in G.vertices:
            rels.append(f"{v}^2")
        for u, v, m in G.edge_list():
            rels.append(f"({word([u, v])})^{m}")
    elif flavor.artin:
        for u, v, m in G.edge_list():
            if m > LITERAL_BRAID_MAX:
                k, odd = divmod(m, 2)
                left = f"({word([u, v])})^{k}" + (f" {u}" if odd else "")
                right = f"({word([v, u])})^{k}" + (f" {v}" if odd else "")
            else:
                left = word([u if i % 2 == 0 else v for i in range(m)])
                right = word([v if i % 2 == 0 else u for i in range(m)])
            rels.append(f"{left} = {right}")
    else:
        for v, g in zip(G.vertices, G.groups):
            vnames = names[v]
            torsion_names = vnames[g.rank :]
            for gen, d in zip(torsion_names, g.torsion):
                rels.append(f"{gen}^{d}")
            for a, b in itertools.combinations(vnames, 2):
                rels.append(f"[{a}, {b}]")
        for u, v, _ in G.edge_list():
            for a in names[u]:
                for b in names[v]:
                    rels.append(f"[{a}, {b}]")
    body = f" {', '.join(rels)} " if rels else " "
    return f"< {', '.join(gens)} |{body}>"
