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
graph's join factors (:func:`join_factors`).  Components are typed
with no arithmetic.  One of rank 3 or more with an infinite bond or a
label above 6 is indefinite by an elementary lemma (proved at
:func:`_match_component`).  Any other is looked up by the canonical key
of its bond graph in a table of the finite and affine templates, and
one that matches no template is indefinite by the classification of
the positive definite and positive semidefinite Coxeter graphs
(Coxeter 1935; Humphreys, *Reflection Groups and Coxeter Groups*,
1990, sections 2.5-2.7).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .labeled_graph import (
    Flavor,
    GraphValidationError,
    InternalInvariantError,
    LabeledGraph,
    Z2,
    canonical_key,
    detect_flavor,
    join_factors,
    listed_positions,
    mask_positions,
    positions_mask,
    substructure,
)

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
    by the canonical key of their bond graph."""
    return {_bond_key(r, bonds): t for t, bonds in _template_bonds(r)}


def _match_component(G: LabeledGraph, comp: tuple[str, ...]) -> IrreducibleType:
    """Type of the diagram component on the all-Z2 vertices ``comp``, a
    join factor of ``G`` in ambient order, with no arithmetic: rank 1
    and 2 directly.  A larger component with a missing pair (an
    infinite bond) or a label above 6 is indefinite by the lemma below.
    Any other is looked up by its bond key in :func:`_templates`, and
    one that matches no template is indefinite by the classification
    theorem below.

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
    agrees with the table.  The lemma also guards the lookup: the bond
    key has no edge for a missing pair, as for a label 2, so it cannot
    tell an infinite bond from a commuting pair.

    Theorem (Coxeter 1935; Humphreys, *Reflection Groups and Coxeter
    Groups*, 1990, sections 2.5-2.7): a connected Coxeter graph whose
    cosine matrix is positive definite is of type A_n, B_n, D_n, E_6,
    E_7, E_8, F_4, H_3, H_4 or I_2(m), and one whose cosine matrix is
    positive semidefinite but not definite is of type ~A_n, ~B_n, ~C_n,
    ~D_n, ~E_6, ~E_7, ~E_8, ~F_4 or ~G_2.  :func:`_template_bonds`
    lists every one of these of rank r >= 3, and the bond key is an
    isomorphism invariant of the labelled diagram, so a complete
    component that matches no key of ``_templates(r)`` is neither: it
    is indefinite.
    """
    r = len(comp)
    if r == 1:
        return IrreducibleType("finite", "A", 1, order=2)
    _, labels = substructure(G, list(map(G.index, comp)))
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
    return IrreducibleType("indefinite")


def classify_components(
    G: LabeledGraph,
) -> tuple[tuple[tuple[str, ...], IrreducibleType], ...]:
    """Type of every standard-diagram component of an all-Z2 graph, in
    the order of :func:`join_factors`, each typed by
    :func:`_match_component` with no arithmetic: indefinite by its lemma
    when a component of rank 3 or more has an infinite bond or a label
    above 6, else a key lookup in the table of finite and affine
    templates, and indefinite, by the classification of the positive
    definite and semidefinite Coxeter graphs, when no key matches.
    Other graphs raise :class:`UnsupportedFlavorError`."""
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


def order_two_mask(G: LabeledGraph) -> int:
    """The positions of G's vertices of order two, as a bitmask."""
    mask = 0
    for i, g in enumerate(G.groups):
        if g.is_order_two:
            mask |= 1 << i
    return mask


def free_pairs(adj: Sequence[int], order_two: int, within: int) -> Iterator[tuple[int, int]]:
    """The free pairs i < j inside the vertex mask ``within``, in
    lexicographic order: nonadjacent, and not both in ``order_two``."""
    for i in mask_positions(within):
        partners = within & ~adj[i] & -1 << i + 1
        if order_two >> i & 1:
            partners &= ~order_two
        for j in mask_positions(partners):
            yield i, j


def first_f2_certificate(adj: Sequence[int], order_two: int, within: int) -> Optional[tuple]:
    """The positions of the first F2 certificate inside the vertex mask
    ``within`` in scan order: free pairs, then independent triples, each
    in lexicographic order (the order of ``itertools.combinations``)."""
    pair = next(free_pairs(adj, order_two, within), None)
    if pair is not None:
        return pair
    for i in mask_positions(within):
        for j in mask_positions(within & ~adj[i] & -1 << i + 1):
            third = within & ~(adj[i] | adj[j]) & -1 << j + 1
            if third:
                return i, j, (third & -third).bit_length() - 1
    return None


def f2_certificate(vertices: Sequence[str], positions: tuple[int, ...]) -> F2Certificate:
    """The certificate on the vertices at ``positions``."""
    kind = "free_pair" if len(positions) == 2 else "independent_triple"
    return F2Certificate(kind=kind, vertices=tuple(vertices[p] for p in positions))


def f2_certificate_valid(G: LabeledGraph, cert: F2Certificate) -> bool:
    """Whether ``cert`` lists in an array distinct vertices of G (read
    by :func:`listed_positions`), pairwise nonadjacent, that are two not
    both of order two (``free_pair``) or three (``independent_triple``);
    checked on G's bitsets."""
    try:
        mask = positions_mask(listed_positions(G, cert.vertices))
    except GraphValidationError:
        return False
    k = len(cert.vertices)
    if any(G.adjacency_masks[i] & mask for i in mask_positions(mask)):
        return False
    if cert.kind == "free_pair":
        return k == 2 and mask & ~order_two_mask(G) != 0
    return cert.kind == "independent_triple" and k == 3


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
    graph products first take the first F2 certificate in scan order,
    from :func:`first_f2_certificate`; failing that, a one-vertex factor
    is abelian and every multi-vertex factor is forced to be all-Z2 and
    is typed as a diagram component.  Artin graphs with a label >= 3
    stay unknown.
    """
    flavor = require_group(G)
    if not flavor.coxeter:
        pos = first_f2_certificate(G.adjacency_masks, order_two_mask(G), (1 << G.n) - 1)
        if pos is not None:
            cert = f2_certificate(G.vertices, pos)
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
# The most relations a presentation may have.  Its text grows with the
# count (4.5 M commutators of a rank-3,000 vertex are 78 MB), so a group
# of huge rank, whose commutators number about rank^2 / 2, is refused
# before any generator is named.
PRESENTATION_RELATIONS_MAX = 10**8


def _generator_names(G: LabeledGraph) -> dict[str, list[str]]:
    names: dict[str, list[str]] = {}
    for v, g in zip(G.vertices, G.groups):
        k = g.factor_count()
        names[v] = [v] if k == 1 else [f"{v}_{i}" for i in range(1, k + 1)]
    return names


def emit_presentation(G: LabeledGraph) -> str:
    """Render a finite presentation of the group as ASCII text: the
    pieces of :func:`presentation_pieces`, joined."""
    return "".join(presentation_pieces(G))


# Relations per piece of a presentation's text.
_RELATIONS_PER_PIECE = 4096


def presentation_pieces(G: LabeledGraph) -> Iterator[str]:
    """The text of a finite presentation of the group, in pieces of at
    most ``_RELATIONS_PER_PIECE`` relations each, so a writer never
    holds the whole text.

    Coxeter graphs use reflection relations v^2 and (u v)^m; Artin
    graphs use braid relations (uvu... = vuv..., m letters each), written
    as powers (uv)^k = (vu)^k for m = 2k and (uv)^k u = (vu)^k v for
    m = 2k + 1 once m exceeds ``LITERAL_BRAID_MAX``; other graph products
    list torsion powers and commutators.  Generators are juxtaposed when
    every name is a single character.

    A vertex with k cyclic factors, t of them torsion, has t torsion
    relations and k(k-1)/2 commutators, and an edge uv has k_u k_v
    commutators; for Coxeter and Artin graphs (k = 1) that is one
    relation per Z/2 vertex and one per edge.  Above
    ``PRESENTATION_RELATIONS_MAX`` relations in all the first ``next``
    raises :class:`GraphValidationError`, before any piece is made.
    """
    flavor = require_group(G)
    k = [g.factor_count() for g in G.groups]
    relations = sum(len(g.torsion) + c * (c - 1) // 2 for g, c in zip(G.groups, k))
    if relations + sum(k[i] * k[j] for i, j, _ in G.edges) > PRESENTATION_RELATIONS_MAX:
        raise GraphValidationError(f"presentation has over {PRESENTATION_RELATIONS_MAX} relations")
    names = _generator_names(G)
    gens = [g for v in G.vertices for g in names[v]]
    juxt = all(len(g) == 1 for g in gens)

    def word(letters: Sequence[str]) -> str:
        return "".join(letters) if juxt else " ".join(letters)

    def rels() -> Iterator[str]:
        if flavor.coxeter:
            for v in G.vertices:
                yield f"{v}^2"
            for u, v, m in G.edge_list():
                yield f"({word([u, v])})^{m}"
        elif flavor.artin:
            for u, v, m in G.edge_list():
                if m > LITERAL_BRAID_MAX:
                    k, odd = divmod(m, 2)
                    left = f"({word([u, v])})^{k}" + (f" {u}" if odd else "")
                    right = f"({word([v, u])})^{k}" + (f" {v}" if odd else "")
                else:
                    left = word([u if i % 2 == 0 else v for i in range(m)])
                    right = word([v if i % 2 == 0 else u for i in range(m)])
                yield f"{left} = {right}"
        else:
            for v, g in zip(G.vertices, G.groups):
                vnames = names[v]
                torsion_names = vnames[g.rank :]
                for gen, d in zip(torsion_names, g.torsion):
                    yield f"{gen}^{d}"
                for a, b in itertools.combinations(vnames, 2):
                    yield f"[{a}, {b}]"
            for u, v, _ in G.edge_list():
                for a in names[u]:
                    for b in names[v]:
                        yield f"[{a}, {b}]"

    yield f"< {', '.join(gens)} |"
    # Each relation is preceded by " " if it is the first, by ", " if not.
    sep = " "
    stream = rels()
    while piece := list(itertools.islice(stream, _RELATIONS_PER_PIECE)):
        yield sep + ", ".join(piece)
        sep = ", "
    yield " >"
