"""Coherence classification with machine-checkable evidence.

The classifier decides, where current theory allows, whether the group
of a labeled graph is coherent (every finitely generated subgroup is
finitely presented).  Positive verdicts carry a proof tree whose leaves
are closure facts (abelian, slender, chordal all-Z graphs, the
all-Z criteria, large-label all-Z2 graphs) and whose internal nodes are
free products and amalgams over slender separator subgroups.  Negative
verdicts carry a witness: a join of two F2-bearing sides (giving
F2 x F2), an induced long cycle in an all-Z graph, a violation of the
all-Z criteria, or an induced subgraph carrying one of those.
Everything else is Unknown, with structured notes saying why.

The rule table (``STEPS`` and ``PROOF_RULES``) fixes the prover order:
decisive criteria for all-Z graphs first, then the incoherence witness
scan, slenderness, the large-label criterion, free-product splitting, a
clique-separator split for chordal graphs, exhaustive slender-separator
search, and finally Unknown bookkeeping.  It also holds the verifier
and text suffix of every proof-node rule.  In the same way each witness
dataclass holds its verifier and its one-line text, so witnesses are
verified and rendered from here and callers need no code per kind.

Verdicts are computed on the canonical representative of the input, so
isomorphic inputs receive corresponding evidence, and a per-classifier
memo makes repeated sub-classifications cheap.  A memo entry holds the
verdicts of the parts it was built from by reference, each with the id
map from the part's canonical ids to the entry's, and nothing is
renamed during the recursion.  Evidence is renamed in one place,
:func:`to_jsonable`, which writes a memo entry's JSON form in one walk
that composes the id maps on the way down and resolves the references
as it writes; :func:`from_jsonable` is the one reader.  The census
writes that JSON, and :meth:`Classifier.classify` returns it parsed
back, so every verdict that leaves the classifier is the parsed form
of the JSON the engine writes.  A second memo canonicalizes each
subgraph structure once, and a third decides its slenderness once, for
both classification and the proof checks run through the same
classifier.  Parts and separators are looked up in the memos by their
vertex positions, so a hit builds no graph.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from .decomposition import (
    Split,
    dirac_split,
    separator_splits,
    slender_separators,
    verify_split,
)
from .group_model import (
    SLENDER,
    F2Certificate,
    IrreducibleType,
    SlenderCertificate,
    f2_certificate,
    f2_certificate_valid,
    first_f2_certificate,
    free_pairs,
    is_slender,
    order_two_mask,
    require_group,
)
from .labeled_graph import (
    ChordalityResult,
    DEFAULT_VERTEX_CAP,
    InternalInvariantError,
    LabeledGraph,
    canonical_form,
    detect_flavor,
    induced_as_listed,
    is_chordal,
    is_induced_chordless_cycle,
    label_two_masks,
    mask_positions,
    positional_key,
    shape_classify,
    substructure,
    verify_peo,
)

COHERENT = "COHERENT"
INCOHERENT = "INCOHERENT"
UNKNOWN = "UNKNOWN"


def format_vertex_set(vertices) -> str:
    """Vertex ids as the text renderings show them: {a,b,c}."""
    return "{" + ",".join(vertices) + "}"


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for the classifier.

    ``max_search_vertices`` caps canonicalization, memoization and all
    recursive rules; above it only the size-independent rules run, so 0
    runs those alone.  ``disabled_rules`` names steps of STEPS to skip
    and exists for cross-validating one rule against another.
    """

    max_search_vertices: int = DEFAULT_VERTEX_CAP
    disabled_rules: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.max_search_vertices < 0:
            raise ValueError(
                f"max_search_vertices must be at least 0, got {self.max_search_vertices}"
            )
        unknown = frozenset(self.disabled_rules) - frozenset(STEP_NAMES)
        if unknown:
            raise ValueError(f"unknown rule names: {sorted(unknown)}")
        object.__setattr__(self, "disabled_rules", frozenset(self.disabled_rules))


@dataclass(frozen=True)
class ProofNode:
    """One node of a coherence proof.

    ``vertices`` are ids in the graph the proof is about; ``key`` is the
    canonical key of the induced subgraph (or a raw serialization above
    the canonicalization cap, prefixed "raw:").  ``data`` holds
    rule-specific evidence and is JSON-ready.
    """

    rule: str
    vertices: tuple[str, ...]
    key: str
    data: dict = field(default_factory=dict)
    children: tuple["ProofNode", ...] = ()


# Each witness kind carries its verifier, which rechecks it against a
# graph from scratch and names a failure by ``path``, and its one-line
# text rendering.


@dataclass(frozen=True)
class JoinEmbedding:
    """Two disjoint vertex sets, fully joined by label-2 edges, each
    carrying an F2 certificate: the group contains F2 x F2."""

    side_a: tuple[str, ...]
    side_b: tuple[str, ...]
    cert_a: F2Certificate
    cert_b: F2Certificate

    kind = "join_embedding"

    def verify(self, G: LabeledGraph, path: tuple[str, ...]) -> VerificationOutcome:
        sa, sb = set(self.side_a), set(self.side_b)
        if not sa or not sb or (sa & sb):
            return _fail(path, "sides must be disjoint and nonempty")
        try:
            if not all(G.edge_label(x, y) == 2 for x in self.side_a for y in self.side_b):
                return _fail(path, "sides are not fully joined by label-2 edges")
            if set(self.cert_a.vertices) - sa or set(self.cert_b.vertices) - sb:
                return _fail(path, "certificates leave their sides")
            if not f2_certificate_valid(G.induced(self.side_a), self.cert_a):
                return _fail(path, "side A certificate fails")
            if not f2_certificate_valid(G.induced(self.side_b), self.cert_b):
                return _fail(path, "side B certificate fails")
        except Exception as e:
            return _fail(path, f"witness refers to unknown vertices: {e}")
        return _OK

    def text(self) -> str:
        certs = ", ".join(
            f"{c.kind} {format_vertex_set(c.vertices)}" for c in (self.cert_a, self.cert_b)
        )
        return (
            f"{self.kind} {format_vertex_set(self.side_a)} x "
            f"{format_vertex_set(self.side_b)} (certs: {certs})"
        )


@dataclass(frozen=True)
class DromsCycle:
    """Induced chordless cycle of length >= 4 in an all-Z label-2 graph."""

    cycle: tuple[str, ...]

    kind = "droms_cycle"

    def verify(self, G: LabeledGraph, path: tuple[str, ...]) -> VerificationOutcome:
        if not detect_flavor(G).raag:
            return _fail(path, "cycle witness requires an all-Z label-2 graph")
        if not is_induced_chordless_cycle(G, self.cycle):
            return _fail(path, "cycle is not induced and chordless")
        return _OK

    def text(self) -> str:
        return f"{self.kind} {format_vertex_set(self.cycle)}"


@dataclass(frozen=True)
class WiseGordonViolation:
    """Failure of one of the three decisive conditions for all-Z graphs:
    an induced long cycle, a 3- or 4-clique with two labels above 2, or
    the five-edge square over a heavy edge."""

    violation: str  # long_cycle | clique_big_labels | forbidden_square
    vertices: tuple[str, ...]

    kind = "wise_gordon"

    def verify(self, G: LabeledGraph, path: tuple[str, ...]) -> VerificationOutcome:
        if not detect_flavor(G).artin:
            return _fail(path, "violation witness requires an all-Z graph")
        try:
            for v in self.vertices:
                G.index(v)
        except Exception as e:
            return _fail(path, f"violation refers to unknown vertices: {e}")
        if len(set(self.vertices)) != len(self.vertices):
            return _fail(path, "violation repeats vertices")
        if self.violation == "long_cycle":
            if not is_induced_chordless_cycle(G, self.vertices):
                return _fail(path, "stored cycle is not induced and chordless")
            return _OK
        if self.violation == "clique_big_labels":
            if len(self.vertices) not in (3, 4):
                return _fail(path, "clique violation needs 3 or 4 vertices")
            big = 0
            for a, b in itertools.combinations(self.vertices, 2):
                m = G.edge_label(a, b)
                if m is None:
                    return _fail(path, "violation vertices are not a clique")
                if m > 2:
                    big += 1
            if big < 2:
                return _fail(path, "clique has fewer than two labels above 2")
            return _OK
        if self.violation == "forbidden_square":
            if len(self.vertices) != 4:
                return _fail(path, "square violation needs 4 vertices")
            a, b, c, d = self.vertices
            m = G.edge_label(a, b)
            if m is None or m <= 2:
                return _fail(path, "first two vertices must carry a heavy edge")
            if G.has_edge(c, d):
                return _fail(path, "last two vertices must be nonadjacent")
            if not all(G.edge_label(x, y) == 2 for x in (c, d) for y in (a, b)):
                return _fail(path, "square sides must be label-2 edges")
            return _OK
        return _fail(path, f"unknown violation kind {self.violation!r}")

    def text(self) -> str:
        return f"{self.kind} {self.violation} {format_vertex_set(self.vertices)}"


@dataclass(frozen=True)
class IncoherentFactor:
    """An induced subgraph whose group is incoherent; incoherence of a
    parabolic subgroup passes to the whole group."""

    vertices: tuple[str, ...]
    inner: "Witness"

    kind = "incoherent_factor"

    def verify(self, G: LabeledGraph, path: tuple[str, ...]) -> VerificationOutcome:
        try:
            sub = G.induced(self.vertices)
        except Exception as e:
            return _fail(path, f"factor vertices invalid: {e}")
        return verify_witness(sub, self.inner, path + ("inner",))

    def text(self) -> str:
        return f"{self.kind} {format_vertex_set(self.vertices)}: {self.inner.text()}"


Witness = Union[JoinEmbedding, DromsCycle, WiseGordonViolation, IncoherentFactor]


@dataclass(frozen=True)
class UnknownNote:
    """Structured reason a graph stayed unclassified."""

    code: str
    vertices: tuple[str, ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    status: str
    proof: Optional[ProofNode] = None
    witness: Optional[Witness] = None
    notes: tuple[UnknownNote, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in (COHERENT, INCOHERENT, UNKNOWN):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == COHERENT and (self.proof is None or self.witness is not None):
            raise ValueError("coherent verdicts carry exactly a proof tree")
        if self.status == INCOHERENT and (self.witness is None or self.proof is not None):
            raise ValueError("incoherent verdicts carry exactly a witness")
        if self.status == UNKNOWN and (
            self.proof is not None or self.witness is not None or not self.notes
        ):
            raise ValueError("unknown verdicts carry notes and no evidence")


# -- decisive checks for all-Z graphs ----------------------------------------


def wise_gordon_check(G: LabeledGraph) -> Optional[WiseGordonViolation]:
    """First violation of the three decisive conditions for Artin
    graphs, in scan order, or None when all hold.

    The conditions: the graph is chordal; every 3- or 4-clique carries
    at most one label above 2; and no heavy edge {a, b} has two
    nonadjacent vertices c, d each joined to both a and b by label-2
    edges.
    """
    return _wise_gordon_violation(G, is_chordal(G))


def _wise_gordon_violation(G: LabeledGraph, ch: ChordalityResult) -> Optional[WiseGordonViolation]:
    """``wise_gordon_check(G)`` given G's chordality ``ch`` (a chordal
    G gets only the clique and square scan), on the adjacency bitsets.

    Cliques come from ``_cliques``, in the lexicographic order of their
    vertex positions: the order of ``itertools.combinations`` with the
    non-cliques skipped, so the first clique with two labels above 2 is
    the first such combination.  Labels are read on cliques only.  Over
    a heavy edge {a, b} the square's c and d lie in the label-2 common
    neighbourhood S = ``two[a] & two[b]``, which never holds a or b;
    the first pair in ``itertools.combinations`` order is the least c
    in S with a non-neighbour above it in S, and the least such d.
    """
    if not ch:
        return WiseGordonViolation(violation="long_cycle", vertices=ch.cycle)
    labels = G._adj
    adj = G.adjacency_masks
    ids = G.vertices
    for size in (3, 4):
        for clique in _cliques(adj, size):
            if sum(labels[a][b] > 2 for a, b in itertools.combinations(clique, 2)) >= 2:
                return WiseGordonViolation(
                    violation="clique_big_labels", vertices=tuple(ids[i] for i in clique)
                )
    two = label_two_masks(G)
    for a, b, m in G.edges:
        if m <= 2:
            continue
        square = two[a] & two[b]
        for c in mask_positions(square):
            far = (square & ~adj[c]) >> (c + 1)
            if far:
                d = c + (far & -far).bit_length()
                return WiseGordonViolation(
                    violation="forbidden_square", vertices=(ids[a], ids[b], ids[c], ids[d])
                )
    return None


def _cliques(adj: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """The ``size``-cliques of the graph with adjacency bitsets ``adj``,
    as increasing position tuples in lexicographic order: each next
    vertex is a bit, lowest first, of the clique's common neighbourhood
    above its last vertex."""

    def grow(clique: tuple[int, ...], common: int) -> Iterator[tuple[int, ...]]:
        if len(clique) == size:
            yield clique
            return
        above = clique[-1] + 1
        for v in mask_positions(common >> above << above):
            yield from grow(clique + (v,), common & adj[v])

    for a in range(len(adj)):
        yield from grow((a,), adj[a])


def witness_join_incoherence(G: LabeledGraph) -> Optional[JoinEmbedding]:
    """First pair of disjoint F2-certified sets joined completely by
    label-2 edges, if any; the group then contains F2 x F2, which is
    incoherent.

    "First" is the first pair (A, B), in ``itertools.combinations``
    order, of the F2 certificates in scan order: free pairs, then
    independent triples, each lexicographic by position; A in scan
    order, B over the later certificates.  The scan runs on positions:
    with ``two[i]`` the bitset of label-2 neighbours of vertex i and
    ``joined(A)`` the AND of ``two`` over A's vertices, B pairs with A iff
    ``mask(B) & ~joined(A) == 0``, which also makes the two disjoint,
    since ``two[i]`` never holds i.  Certificates A are walked as
    position tuples in scan order, and for each the first certificate
    inside ``joined(A)`` (``first_f2_certificate``) is its partner;
    only the pair returned is built as certificates.

    Lemma: this is the first ``combinations`` pair.  "B pairs with A"
    says every vertex of B is label-2 joined to every vertex of A, so
    the relation is symmetric.  Let A be the first certificate that has
    any partner.  A partner B before A would have A as a partner and
    so contradict A's choice; so every partner of A comes after A, and
    A is also the first certificate with a later partner, the first A
    of ``combinations``.  Its least partner is then its least later
    partner, the B of ``combinations``.

    Every certificate has at least two vertices, so an A whose
    ``joined`` has fewer than two bits has no partner.  Hence no
    certificate with a partner holds a vertex v with fewer than two
    label-2 neighbours, since ``joined(A)`` lies inside ``two[v]`` for
    every v of A: the scan walks only the other vertices, and returns at
    once when there are none.  For the same reason a triple (i, j, k)
    has no partner when ``two[i] & two[j]`` already has fewer than two
    bits, and every k after that pair is skipped.
    """
    two = label_two_masks(G)
    rich = 0
    for i, t in enumerate(two):
        if t.bit_count() >= 2:
            rich |= 1 << i
    if not rich:
        return None
    adj = G.adjacency_masks
    order_two = order_two_mask(G)

    def sides() -> Iterator[tuple[tuple[int, ...], int]]:
        for i, j in free_pairs(adj, order_two, rich):
            yield (i, j), two[i] & two[j]
        for i in mask_positions(rich):
            for j in mask_positions(rich & ~adj[i] & -1 << i + 1):
                prefix = two[i] & two[j]
                if prefix.bit_count() < 2:
                    continue
                for k in mask_positions(rich & ~(adj[i] | adj[j]) & -1 << j + 1):
                    yield (i, j, k), prefix & two[k]

    for a, joined in sides():
        if joined.bit_count() < 2:
            continue
        b = first_f2_certificate(adj, order_two, joined)
        if b is not None:
            ca, cb = (f2_certificate(G.vertices, side) for side in (a, b))
            return JoinEmbedding(side_a=ca.vertices, side_b=cb.vertices, cert_a=ca, cert_b=cb)
    return None


# -- the classifier ------------------------------------------------------------


def _raw_key(G: LabeledGraph) -> str:
    return "raw:" + positional_key(G.groups, G.edges)


class Classifier:
    """Memoizing coherence classifier.

    Safe to reuse across graphs; the verdict memo is keyed by canonical
    form, and verdicts are computed on canonical representatives so
    equal inputs (and isomorphic ones, up to the isomorphism) receive
    identical evidence.  A memo entry's evidence holds each part's
    entry by reference, with the placement that maps the part's
    canonical ids to the entry's (see :meth:`_classify_part`).  Evidence
    leaves the classifier only as the JSON that :func:`to_jsonable`
    writes from a memo entry through an id map, renaming each node once
    and copying every memo dict; :meth:`classify` returns that JSON
    parsed back by :func:`from_jsonable`, so the verdict a caller checks
    is the one the JSON form holds, and no reference or memo dict
    reaches a caller.

    A second memo, shared by the classifier's classification and by the
    proof checks run through it, maps a graph's positional structure,
    its ``groups`` and ``edges``, to its canonical key and the canonical
    order of its positions (see :meth:`node_key`).  ``canonical_form``
    reads nothing else of a graph, so a hit returns exactly the key it
    would compute and the placement is the graph's ids at that order:
    a key check against the memo is as strong as one that recomputes
    the key.  Each memo of the classifier lives as long as it and holds
    no graph and no vertex id.

    Every verdict-memo miss goes through :meth:`_canonical`, the one
    miss path, with a canonical representative CG and its key ``key``:
    :meth:`_memo_entry` builds CG from the canonical order the form
    memo holds as G's positions, in one pass of
    :func:`induced_as_listed` (G's vertices in canonical order, named
    "0", "1", ..., which is ``canonical_relabel(G, placement)`` with no
    vertex id looked up), and :meth:`classify_canonical_jsonable` takes
    CG and ``key`` from its caller.  The miss enters CG's structure in
    the form memo, with the identity order, whenever ``positional_key``
    of CG is ``key``; so a key written for another structure never
    enters the memo.  Lemma: the entry is exact.  ``canonical_form``
    defines ``key`` as ``positional_key`` of G in G's canonical order
    ``best``, so CG has the structure of G listed in order ``best``.
    Colour refinement reads only structure, so CG's identity order has
    the rows of G's order ``best``, the least row sequence of any order
    of G.  Every order of CG is an order of G composed with ``best`` and
    has that order's rows, so the identity attains CG's least rows too;
    and it is the lexicographically smallest index tuple of all.  A
    proof node lists its part's ids in the part's canonical order, so
    the verifier, which induces each node in listed order, checks its
    key by a memo hit.

    Parts are looked up by position.  Lemma: the subgraph of G induced
    on distinct positions P, in the order listed, has the structure
    ``substructure(G, P)``, since :func:`induced_as_listed` builds every
    such graph from exactly that structure.  So a memo keyed by
    structure is read for a part with no graph built.  A prover's part
    is classified by :meth:`_classify_part` from its positions P in the
    graph holding it.  When the form memo holds the part's structure
    with ``(key, order)`` and the verdict memo holds ``key``, the hook
    returns what :meth:`_memo_entry` returns for the built part: its
    ``_form`` is that stored form, its entry is the stored verdict, and
    its placement, the part's ids at ``order``, is ``G.vertices[P[i]]``
    for i in ``order``.  ``require_group`` would pass on the part too.
    Every induced subgraph of a graph whose labels define a group
    defines one, since each of the three ways to define one is a
    condition on every vertex group (all Z, or all Z/2) or on every
    edge label (all 2), and the part's groups and labels are some of
    G's.  The provers run only on such graphs: :meth:`_memo_entry`
    checks each graph it classifies, and
    :meth:`classify_canonical_jsonable` takes the canonical
    representative of such a graph.  So a hit builds no graph and makes
    no check, and any miss builds the part and goes through
    :meth:`_memo_entry`.

    A third memo maps a graph's positional structure to ``is_slender``
    of the graph with that structure whose vertices are named "0", "1",
    ... by position.  It decides the premises the proofs rest on: a
    slender leaf and a dirac split's separator in the provers, and a
    slender leaf and an amalgam's separator in the verifier.  Its one
    lookup, :meth:`_stored_slender`, returns the stored certificate of
    G or of G's subgraph induced on given positions, and builds a graph
    only on a miss, and none when G's own ids are those names, as a
    canonical representative's are.  The separator checks read only its
    verdict.  The slender-leaf prover writes its factors in G's ids
    through ``to_jsonable(cert.factors, _id_map(G.vertices))``, the one
    renamer, and the slender-leaf verifier writes them the same way and
    compares.  Lemma: ``to_jsonable(stored, _id_map(G.vertices))`` is
    ``to_jsonable(is_slender(G))``.  ``is_slender`` reads only G's
    groups, edges and vertex positions, as do ``detect_flavor``,
    ``first_f2_certificate``, ``join_factors`` and ``_match_component``,
    which it calls, and it uses ``G.vertices`` only to name the
    vertices it returns.  So two graphs of one structure get
    certificates that differ only in those names, position for
    position: the stored one names position i "i", and
    ``_id_map(G.vertices)`` maps "i" to ``G.vertices[i]``.  Only
    ``is_slender``'s own output enters the memo, never a value read from
    evidence, so a tampered proof cannot poison it; and every comparison
    the verifier makes still runs, against a certificate equal to a
    fresh one.  The memo spares computations, not checks.  The amalgam
    search's separator walk, which meets each separator once per graph,
    calls ``is_slender`` directly.
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self._cache: dict[str, Verdict] = {}
        self._forms: dict[tuple, tuple[str, tuple[int, ...]]] = {}
        self._slender: dict[tuple, SlenderCertificate] = {}

    def classify(self, G: LabeledGraph) -> Verdict:
        """G's verdict, with its evidence in G's ids: the parsed form of
        the JSON that :func:`to_jsonable` writes for G's memo entry
        through the id map into G's ids.  Above the search cap G's
        verdict is computed in G's own ids, holds no memo dict, and is
        written with no map."""
        verdict, placement = self._memo_entry(G)
        mapping = None if placement is None else _id_map(placement)
        return from_jsonable(Verdict, to_jsonable(verdict, mapping))

    def _classify_part(self, G: LabeledGraph, positions: Sequence[int]) -> Verdict:
        """The verdict of the part of G induced on the increasing vertex
        ``positions``, as a part of G's evidence: its evidence holds the
        part's memo entry by reference, with the placement into G's ids,
        so nothing is renamed until a public method resolves the whole
        tree.  The provers call this hook only, and only below the
        search cap, so the part has a placement.  When the form memo and
        the verdict memo both hold the part's structure, no graph is
        built (see :class:`Classifier`); any miss builds the part and
        takes it through :meth:`_memo_entry`."""
        form = self._forms.get(substructure(G, positions))
        verdict = None if form is None else self._cache.get(form[0])
        if verdict is None:
            verdict, placement = self._memo_entry(induced_as_listed(G, positions))
        else:
            ids = G.vertices
            placement = tuple(ids[positions[i]] for i in form[1])
        if verdict.status == COHERENT:
            return Verdict(COHERENT, proof=_Ref(verdict.proof, placement))
        if verdict.status == INCOHERENT:
            return Verdict(INCOHERENT, witness=_Ref(verdict.witness, placement))
        return Verdict(UNKNOWN, notes=tuple(_Ref(note, placement) for note in verdict.notes))

    def _memo_entry(self, G: LabeledGraph) -> tuple[Verdict, Optional[tuple[str, ...]]]:
        """G's memo entry, in the ids of G's canonical representative,
        and the placement that maps them to G's; above the search cap,
        G's verdict in its own ids and None."""
        require_group(G)
        key, order = self._form(G)
        if order is None:
            return self._apply_rules(G, key, big=True), None
        verdict = self._cache.get(key)
        if verdict is None:
            CG = induced_as_listed(G, order, tuple(map(str, range(G.n))))
            verdict = self._canonical(CG, key)
        return verdict, tuple(G.vertices[i] for i in order)

    def node_key(self, G: LabeledGraph) -> tuple[str, Optional[tuple[str, ...]]]:
        """The key that G's proof nodes carry, with the placement that
        realizes it: ``canonical_form(G)``, computed once per positional
        structure, or the raw key and None above the search cap."""
        key, order = self._form(G)
        return key, None if order is None else tuple(G.vertices[i] for i in order)

    def _form(self, G: LabeledGraph) -> tuple[str, Optional[tuple[int, ...]]]:
        """:meth:`node_key` with the placement as G's positions."""
        cap = self.config.max_search_vertices
        if G.n > cap:
            return _raw_key(G), None
        structure = (G.groups, G.edges)
        form = self._forms.get(structure)
        if form is None:
            key, placement = canonical_form(G, cap=cap)
            form = self._forms[structure] = key, tuple(map(G.index, placement))
        return form

    def classify_canonical_jsonable(self, CG: LabeledGraph, key: str) -> dict:
        """JSON form of the verdict of a canonical representative whose
        canonical key is already known: ``CG`` is
        ``canonical_relabel(G, placement)`` for ``(key, placement) =
        canonical_form(G)``, with at most ``max_search_vertices``
        vertices.  It is written in CG's ids, in one walk of
        :func:`to_jsonable` through the identity map, which copies every
        memo dict it writes."""
        verdict = self._cache.get(key) or self._canonical(CG, key)
        return to_jsonable(verdict, {v: v for v in CG.vertices})

    def _canonical(self, CG: LabeledGraph, key: str) -> Verdict:
        """The one miss path: the memo entry of a canonical
        representative ``CG`` with key ``key`` that the verdict memo
        misses, computed and entered; its evidence may hold references.
        CG's structure enters the form memo with the identity order
        whenever CG's positional key is ``key`` (see :class:`Classifier`)."""
        verdict = self._cache[key] = self._apply_rules(CG, key, big=False)
        structure = (CG.groups, CG.edges)
        if positional_key(*structure) == key:
            self._forms[structure] = key, tuple(range(CG.n))
        return verdict

    def _stored_slender(
        self, G: LabeledGraph, positions: Optional[Sequence[int]] = None
    ) -> SlenderCertificate:
        """The slender memo's one lookup: ``is_slender`` of the graph
        with G's structure, or with the structure G induces on the
        vertex ``positions`` in the order listed, whose vertices are
        named "0", "1", ... by position.  Only a miss builds that graph,
        and none when G is it."""
        structure = (G.groups, G.edges) if positions is None else substructure(G, positions)
        cert = self._slender.get(structure)
        if cert is None:
            ids = tuple(map(str, range(len(structure[0]))))
            sub = G if positions is None and G.vertices == ids else LabeledGraph(ids, *structure)
            cert = self._slender[structure] = is_slender(sub)
        return cert

    # G is a canonical representative (ids "0", "1", ...) whose canonical
    # key is ``key``, unless big is set: then ``key`` is the raw key and
    # recursion and memoization are off.
    def _apply_rules(self, G: LabeledGraph, key: str, big: bool) -> Verdict:
        disabled = self.config.disabled_rules
        flavor = detect_flavor(G)
        notes: list[UnknownNote] = []
        for step in STEPS:
            if big and step.recursive:
                detail = (
                    f"{G.n} vertices exceed the search cap of "
                    f"{self.config.max_search_vertices}; recursive rules skipped"
                )
                return Verdict(
                    UNKNOWN, notes=(UnknownNote(code="search-cap-exceeded", detail=detail),)
                )
            if step.name in disabled:
                continue
            verdict = step.prove(self, G, key, flavor, notes)
            if verdict is not None:
                return verdict

        # Unknown bookkeeping.
        shape = shape_classify(G)
        if (
            flavor.graph_product
            and shape.tag == "cycle"
            and shape.length is not None
            and shape.length >= 5
            and all(not g.is_infinite and g.order() >= 3 for g in G.groups)
        ):
            notes.append(
                UnknownNote(
                    code="open-problem",
                    vertices=G.vertices,
                    detail=(
                        "graph product of finite groups of order >= 3 over a "
                        f"cycle of length {shape.length}: no known decision"
                    ),
                )
            )
        elif not notes:
            notes.append(
                UnknownNote(code="no-rule-applied", detail="no applicable rule resolved the graph")
            )
        return Verdict(UNKNOWN, notes=tuple(notes))


def classify(G: LabeledGraph, config: Optional[EngineConfig] = None) -> Verdict:
    """One-shot classification with a fresh memo."""
    return Classifier(config).classify(G)


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class VerificationOutcome:
    ok: bool
    path: tuple[str, ...] = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


_OK = VerificationOutcome(ok=True)


def _fail(path: tuple[str, ...], reason: str) -> VerificationOutcome:
    return VerificationOutcome(ok=False, path=path, reason=reason)


def verify_proof(
    G: LabeledGraph,
    node: ProofNode,
    cap: int = DEFAULT_VERTEX_CAP,
    classifier: Optional[Classifier] = None,
) -> VerificationOutcome:
    """Recheck every node of a coherence proof against the graph.

    The root must cover the whole vertex set; every leaf premise and
    every split invariant is checked again.  Each node's key is compared
    with :meth:`Classifier.node_key` of its induced subgraph, and each
    slenderness premise (a slender or abelian leaf's certificate, an
    amalgam's separator) by the classifier's slender memo, both
    through ``classifier``'s memos (keys under its cap), or else through
    a fresh classifier with cap ``cap``, whose memos start cold.  A hit is
    exactly what ``canonical_form`` or ``is_slender`` returns for that
    subgraph (see :class:`Classifier`), so a warm memo checks as
    strictly as a fresh one: it spares a computation, and every
    comparison still runs.  Each node is induced in the order it lists
    its vertices, which for the classifier's evidence is its part's
    canonical order, so on the classifier that wrote the proof every key
    check and slenderness premise is a memo hit; a node listed in
    another order still verifies, by a search.  A node, a split's side
    or separator, a free product's stored components, or a slender
    leaf's stored factors, that lists a vertex twice is refused, and so
    is a string in place of an array of ids there or in an elimination
    ordering.
    Failures name the offending node by its path from the root.
    """
    clf = classifier or Classifier(EngineConfig(max_search_vertices=cap))
    return _verify_node(G, node, tuple(G.vertices), clf, path=("root",))


def _verify_node(
    G: LabeledGraph,
    node: ProofNode,
    expected: tuple[str, ...],
    clf: Classifier,
    path: tuple[str, ...],
) -> VerificationOutcome:
    """Verify ``node`` on G's subgraph induced in the node's listed
    order, or on G itself when the node lists G's vertices in G's
    order.  The node must list each vertex once, and the set that
    ``expected`` lists."""
    vertices = tuple(node.vertices)
    if len(set(vertices)) != len(vertices):
        return _fail(path, "node lists a vertex twice")
    if sorted(vertices) != sorted(expected):
        return _fail(path, "node vertex set does not match its position in the proof")
    try:
        if vertices == G.vertices:
            sub = G
        else:
            sub = induced_as_listed(G, [G.index(v) for v in vertices], vertices)
    except Exception as e:
        return _fail(path, f"induced subgraph failed: {e}")
    if node.key != clf.node_key(sub)[0]:
        return _fail(path, "stored key does not match the induced subgraph")
    flavor = detect_flavor(sub)
    rule = PROOF_RULES.get(node.rule)
    if rule is None:
        return _fail(path, f"unknown rule {node.rule!r}")
    if rule.leaf and node.children:
        return _fail(path, f"leaf rule {node.rule} must not have children")
    return rule.verify(sub, node, flavor, clf, path)


def verify_witness(
    G: LabeledGraph, w: Witness, _path: tuple[str, ...] = ("witness",)
) -> VerificationOutcome:
    """Recheck an incoherence witness against the graph from scratch."""
    if type(w) not in typing.get_args(Witness):
        return _fail(_path, f"unknown witness type {type(w).__name__}")
    return w.verify(G, _path)


def check_verdict(
    G: LabeledGraph,
    verdict: Verdict,
    subject: str = "the graph",
    classifier: Optional[Classifier] = None,
) -> None:
    """Re-verify the proof of a COHERENT verdict or the witness of an
    INCOHERENT one from scratch, raising :class:`InternalInvariantError`
    if it does not check out.  ``subject`` names the graph in the
    message; ``classifier`` is as in :func:`verify_proof`."""
    if verdict.status == COHERENT:
        kind, outcome = "proof", verify_proof(G, verdict.proof, classifier=classifier)
    elif verdict.status == INCOHERENT:
        kind, outcome = "witness", verify_witness(G, verdict.witness)
    else:
        return
    if not outcome:
        raise InternalInvariantError(
            f"{kind} for {subject} fails verification at "
            f"{'/'.join(outcome.path)}: {outcome.reason}"
        )


# -- the rule table ----------------------------------------------------------------
#
# A prover gets the classifier, the graph, its key, its flavor and the
# note list, and returns a verdict or None to pass the graph on.  Layers
# are called through their module-level names so that wrappers installed
# on those names see every call.


def _prove_droms_chordal(clf, G, key, flavor, notes) -> Optional[Verdict]:
    if not flavor.raag:
        return None
    ch = is_chordal(G)
    if ch:
        node = ProofNode("droms_chordal", G.vertices, key, {"peo": list(ch.peo)})
        return Verdict(COHERENT, proof=node)
    return Verdict(INCOHERENT, witness=DromsCycle(cycle=ch.cycle))


def _prove_wise_gordon(clf, G, key, flavor, notes) -> Optional[Verdict]:
    if not flavor.artin:
        return None
    ch = is_chordal(G)
    violation = _wise_gordon_violation(G, ch)
    if violation is not None:
        return Verdict(INCOHERENT, witness=violation)
    node = ProofNode("wise_gordon", G.vertices, key, {"peo": list(ch.peo)})
    return Verdict(COHERENT, proof=node)


def _prove_witness_scan(clf, G, key, flavor, notes) -> Optional[Verdict]:
    w = witness_join_incoherence(G)
    return None if w is None else Verdict(INCOHERENT, witness=w)


def _prove_slender(clf, G, key, flavor, notes) -> Optional[Verdict]:
    cert = clf._stored_slender(G)
    if cert.verdict != SLENDER:
        return None
    rule = "abelian" if flavor.graph_product and G.is_complete() else "slender"
    factors = to_jsonable(cert.factors, _id_map(G.vertices))
    data = {"certificate": {"reason": cert.reason, "factors": factors}}
    return Verdict(COHERENT, proof=ProofNode(rule, G.vertices, key, data))


def _prove_mccammond_wise(clf, G, key, flavor, notes) -> Optional[Verdict]:
    if not flavor.coxeter or any(m < G.n for _, _, m in G.edges):
        return None
    data = {
        "vertex_count": G.n,
        "min_edge_label": min((m for _, _, m in G.edges), default=None),
    }
    return Verdict(COHERENT, proof=ProofNode("mccammond_wise", G.vertices, key, data))


def _prove_free_product(clf, G, key, flavor, notes) -> Optional[Verdict]:
    comps = G.components()
    if len(comps) < 2:
        return None
    parts = _classify_parts(clf, G, comps)
    if isinstance(parts, Verdict):
        return parts
    for members, v in zip(comps, parts):
        if v.status == UNKNOWN:
            notes.extend(v.notes)
            notes.append(
                UnknownNote(
                    code="component-unknown",
                    vertices=members,
                    detail="a free factor stayed unclassified",
                )
            )
            return None
    data = {"components": [list(m) for m in comps]}
    node = ProofNode("free_product", G.vertices, key, data, tuple(v.proof for v in parts))
    return Verdict(COHERENT, proof=node)


def _prove_dirac_split(clf, G, key, flavor, notes) -> Optional[Verdict]:
    if G.is_complete() or not G.is_connected() or not is_chordal(G):
        return None
    split = dirac_split(G)
    if clf._stored_slender(G, list(map(G.index, split.separator))).verdict != SLENDER:
        return None
    return _amalgam(clf, G, key, split)


def _prove_amalgam_search(clf, G, key, flavor, notes) -> Optional[Verdict]:
    if G.is_complete() or not G.is_connected():
        return None
    examined = 0
    tried = 0
    for sep, comps, slender in slender_separators(G):
        examined += 2 ** len(comps) - 2
        if not slender:
            continue
        for split in separator_splits(G, sep, comps):
            tried += 1
            outcome = _amalgam(clf, G, key, split)
            if outcome is not None:
                return outcome
    notes.append(
        UnknownNote(
            code="search-exhausted",
            detail=(
                f"{examined} separator splits examined, {tried} "
                "slender ones recursed, none resolved both sides"
            ),
        )
    )
    return None


def _amalgam(clf, G: LabeledGraph, key: str, split: Split) -> Optional[Verdict]:
    """Classify both sides of a split over a slender separator."""
    parts = _classify_parts(clf, G, (split.left, split.right))
    if isinstance(parts, Verdict):
        return parts
    if any(v.status != COHERENT for v in parts):
        return None
    node = ProofNode("amalgam", G.vertices, key, to_jsonable(split), tuple(v.proof for v in parts))
    return Verdict(COHERENT, proof=node)


def _classify_parts(clf, G: LabeledGraph, parts) -> Union[Verdict, list[Verdict]]:
    """The verdicts of the subgraphs G induces on ``parts``, classified
    in order; the first INCOHERENT one stops the scan and is returned
    as G's incoherent_factor verdict instead."""
    verdicts = []
    for members in parts:
        v = clf._classify_part(G, sorted(map(G.index, members)))
        if v.status == INCOHERENT:
            return Verdict(INCOHERENT, witness=IncoherentFactor(vertices=members, inner=v.witness))
        verdicts.append(v)
    return verdicts


# A verifier gets the node's induced subgraph, the node, the subgraph's
# flavor, the classifier whose ``node_key`` checks the keys of the
# node's children, and the node's path.


def _verify_abelian(sub, node, flavor, clf, path) -> VerificationOutcome:
    if not (flavor.graph_product and sub.is_complete()):
        return _fail(path, "abelian leaf requires a complete label-2 graph")
    return _verify_slender(sub, node, flavor, clf, path)


def _verify_slender(sub, node, flavor, clf, path) -> VerificationOutcome:
    """A stored certificate must give the reason ``is_slender`` gives and
    the same factors.  The classifier's certificate is written in
    ``sub``'s ids, as the prover writes it, and the factors are compared
    as a set of (vertex set, kind, type), since renaming can reorder
    them; a factor whose vertices are not an array matches none.  The
    certificate's factors partition the vertices, so once the sets
    agree, stored factors that list more than ``sub.n`` vertices in all
    list some vertex twice."""
    cert = clf._stored_slender(sub)
    if cert.verdict != SLENDER:
        return _fail(path, "slender leaf on a non-slender subgraph")
    stored = node.data.get("certificate")
    if stored is None:
        return _OK
    if not isinstance(stored, dict) or stored.get("reason") != cert.reason:
        return _fail(path, "stored slenderness reason does not match the subgraph")
    try:
        listed = [(f["vertices"], f["kind"], f["type"]) for f in stored["factors"]]
        arrays = all(isinstance(vs, list) for vs, _, _ in listed)
        factors = arrays and {(frozenset(vs), kind, t) for vs, kind, t in listed}
    except (KeyError, TypeError):
        factors = None
    written = to_jsonable(cert.factors, _id_map(sub.vertices))
    if factors != {(frozenset(f["vertices"]), f["kind"], f["type"]) for f in written}:
        return _fail(path, "stored slender factors do not match the subgraph")
    if sum(len(vs) for vs, _, _ in listed) != sub.n:
        return _fail(path, "stored slender factors list a vertex twice")
    return _OK


def _stored_chordality(sub, node) -> Optional[ChordalityResult]:
    """``sub``'s chordality by the node's stored elimination ordering,
    which proves it once it verifies (Fulkerson & Gross 1965), or by
    ``is_chordal`` if none is stored; None if it does not verify."""
    peo = node.data.get("peo")
    if peo is None:
        return is_chordal(sub)
    if not isinstance(peo, list):
        return None
    try:
        if verify_peo(sub, peo):
            return ChordalityResult(chordal=True, peo=tuple(peo))
    except TypeError:
        pass
    return None


def _verify_droms_chordal(sub, node, flavor, clf, path) -> VerificationOutcome:
    if not flavor.raag:
        return _fail(path, "droms_chordal leaf requires an all-Z label-2 graph")
    ch = _stored_chordality(sub, node)
    if ch is None:
        return _fail(path, "stored elimination ordering does not verify")
    if not ch:
        return _fail(path, "droms_chordal leaf on a non-chordal graph")
    return _OK


def _verify_wise_gordon(sub, node, flavor, clf, path) -> VerificationOutcome:
    if not flavor.artin:
        return _fail(path, "wise_gordon leaf requires an all-Z graph")
    ch = _stored_chordality(sub, node)
    if ch is None:
        return _fail(path, "stored elimination ordering does not verify")
    if _wise_gordon_violation(sub, ch) is not None:
        return _fail(path, "decisive conditions fail on this subgraph")
    return _OK


def _verify_mccammond_wise(sub, node, flavor, clf, path) -> VerificationOutcome:
    if not flavor.coxeter:
        return _fail(path, "mccammond_wise leaf requires an all-Z2 graph")
    if not all(m >= sub.n for _, _, m in sub.edges):
        return _fail(path, "some edge label is below the vertex count")
    if node.data.get("vertex_count", sub.n) != sub.n:
        return _fail(path, "stored vertex count does not match the subgraph")
    smallest = min((m for _, _, m in sub.edges), default=None)
    if "min_edge_label" in node.data and node.data["min_edge_label"] != smallest:
        return _fail(path, "stored minimum edge label does not match the subgraph")
    return _OK


def _verify_free_product(sub, node, flavor, clf, path) -> VerificationOutcome:
    if len(node.children) < 2:
        return _fail(path, "free_product needs at least two factors")
    sets = [set(c.vertices) for c in node.children]
    union: set[str] = set()
    for s in sets:
        if union & s:
            return _fail(path, "free factors overlap")
        union |= s
    if union != set(node.vertices):
        return _fail(path, "free factors do not cover the node")
    try:
        # Components must be arrays of ids; anything else matches no factor.
        comps = node.data.get("components")
        if comps is not None and all(isinstance(c, list) for c in comps):
            if any(len(set(c)) != len(c) for c in comps):
                return _fail(path, "stored components list a vertex twice")
            comps = [set(c) for c in comps]
        same = comps is None or comps == sets
    except TypeError:
        same = False
    if not same:
        return _fail(path, "stored components do not match the factors")
    for a, b in itertools.combinations(range(len(sets)), 2):
        for u in sets[a]:
            for w in sub.neighbors(u):
                if w in sets[b]:
                    return _fail(path, "edge between free factors")
    parts = [(f"factor[{i}]", child.vertices) for i, child in enumerate(node.children)]
    return _verify_children(sub, node, parts, clf, path)


def _verify_amalgam(sub, node, flavor, clf, path) -> VerificationOutcome:
    try:
        split = from_jsonable(Split, node.data)
    except KeyError as e:
        return _fail(path, f"amalgam node missing field {e}")
    except ValueError as e:
        return _fail(path, f"amalgam node has a malformed field: {e}")
    for name in ("left", "right", "separator"):
        side = getattr(split, name)
        if len(set(side)) != len(side):
            return _fail(path, f"amalgam {name} lists a vertex twice")
    if set(split.left) | set(split.right) != set(node.vertices):
        return _fail(path, "amalgam sides do not cover the node")
    if not split.separator:
        return _fail(path, "amalgam separator is empty")
    if not verify_split(sub, split):
        return _fail(path, "split invariants fail")
    separator = sorted(map(sub.index, split.separator))
    if clf._stored_slender(sub, separator).verdict != SLENDER:
        return _fail(path, "separator subgroup is not slender")
    if len(node.children) != 2:
        return _fail(path, "amalgam needs exactly two children")
    lefts = set(node.children[0].vertices)
    rights = set(node.children[1].vertices)
    if lefts != set(split.left) or rights != set(split.right):
        return _fail(path, "children do not match the split sides")
    return _verify_children(sub, node, (("left", split.left), ("right", split.right)), clf, path)


def _verify_children(sub, node, parts, clf, path) -> VerificationOutcome:
    """Verify each child of ``node`` against its expected vertex set;
    ``parts`` pairs each child's path step with that set."""
    for (step, expected), child in zip(parts, node.children):
        r = _verify_node(sub, child, expected, clf, path + (step,))
        if not r:
            return r
    return _OK


def _amalgam_suffix(node: ProofNode) -> str:
    return (
        f" separator={format_vertex_set(node.data['separator'])}"
        f" method={node.data.get('method', '?')}"
    )


def _mccammond_wise_suffix(node: ProofNode) -> str:
    m = node.data.get("min_edge_label")
    return f" min_label={m}" if m is not None else " (no edges)"


@dataclass(frozen=True)
class Step:
    """One prover step.  ``recursive`` steps classify subgraphs and are
    skipped above the search cap."""

    name: str
    prove: Callable[..., Optional[Verdict]]
    recursive: bool = False


@dataclass(frozen=True)
class ProofRule:
    """How a proof node of one rule is verified and shown: ``leaf``
    nodes have no children, and ``suffix`` follows the node's vertex set
    in the text rendering."""

    leaf: bool
    verify: Callable[..., VerificationOutcome]
    suffix: Callable[[ProofNode], str] = lambda node: ""


STEPS = (
    Step("droms_chordal", _prove_droms_chordal),
    Step("wise_gordon", _prove_wise_gordon),
    Step("witness_scan", _prove_witness_scan),
    Step("slender", _prove_slender),
    Step("mccammond_wise", _prove_mccammond_wise),
    Step("free_product", _prove_free_product, recursive=True),
    Step("dirac_split", _prove_dirac_split, recursive=True),
    Step("amalgam_search", _prove_amalgam_search, recursive=True),
)
STEP_NAMES = tuple(step.name for step in STEPS)

PROOF_RULES = {
    "abelian": ProofRule(leaf=True, verify=_verify_abelian),
    "slender": ProofRule(leaf=True, verify=_verify_slender),
    "droms_chordal": ProofRule(leaf=True, verify=_verify_droms_chordal),
    "wise_gordon": ProofRule(leaf=True, verify=_verify_wise_gordon),
    "mccammond_wise": ProofRule(
        leaf=True, verify=_verify_mccammond_wise, suffix=_mccammond_wise_suffix
    ),
    "free_product": ProofRule(
        leaf=False,
        verify=_verify_free_product,
        suffix=lambda node: f" factors={len(node.children)}",
    ),
    "amalgam": ProofRule(leaf=False, verify=_verify_amalgam, suffix=_amalgam_suffix),
}


# -- the evidence walker -------------------------------------------------------------
#
# Evidence objects are frozen dataclasses holding tuples, JSON-ready
# dicts and plain values.  What the walkers need to know about a type
# is worked out once and cached under the exact type (or type hint), so
# each value costs one dict lookup.

# Fields and data keys whose strings are vertex ids.
_ID_FIELDS = frozenset(
    {"vertices", "cycle", "side_a", "side_b", "peo", "separator", "left", "right", "components"}
)
_PLANS: dict = {}


def _plan(hint) -> tuple:
    """What the walkers need to know about a type or type hint:
    ("class", dataclass, its ``kind`` class attribute or None,
    ((field, type hint, required), ...)), ("tuple", item type hint),
    ("optional", type hint), ("union", {kind class attribute:
    dataclass}) or ("plain", the type its values must have, or None)."""
    plan = _PLANS.get(hint)
    if plan is not None:
        return plan
    origin = typing.get_origin(hint)
    if origin is tuple:
        plan = ("tuple", typing.get_args(hint)[0])
    elif origin is Union:
        args = typing.get_args(hint)
        options = tuple(a for a in args if a is not type(None))
        if len(options) < len(args):
            plan = ("optional", Union[options])
        else:
            plan = ("union", {a.kind: a for a in options if hasattr(a, "kind")})
    elif dataclasses.is_dataclass(hint):
        types = typing.get_type_hints(hint)
        fields = tuple(
            (
                f.name,
                types[f.name],
                f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING,
            )
            for f in dataclasses.fields(hint)
        )
        kind = None if "kind" in types else getattr(hint, "kind", None)
        plan = ("class", hint, kind, fields)
    else:
        plan = ("plain", hint if isinstance(hint, type) else None)
    _PLANS[hint] = plan
    return plan


def to_jsonable(obj, mapping: Optional[dict[str, str]] = None):
    """JSON-ready form of an evidence object: a dataclass becomes a dict
    with its ``kind`` class attribute first and then its fields in
    declaration order, tuples become lists, and a diagram type its name.
    Dicts are proof data, which is JSON-ready already, and are shared.

    With ``mapping``, every vertex id is renamed through it as the form
    is written, and dicts are copied renamed.  This is the one walker
    that renames evidence or resolves a memo reference: a reference
    ``_Ref(t, p)`` is written as

        to_jsonable(_Ref(t, p), m) == to_jsonable(t, m ∘ p)

    (see :func:`_id_map`), in the same walk, and that is the form that
    renaming at every level of the recursion would write.  Write J_m(x)
    for ``to_jsonable(x, m)``.  Renaming at every level writes a part's
    evidence t into the ids of the graph holding it, J_p(t), and the
    whole into the caller's, J_m applied to a tree that holds J_p(t);
    the claim is J_m(J_p(t)) == J_{m∘p}(t) whenever every id of t is a
    key of p and every value of p a key of m.  Proof: J_m writes x's
    structure unchanged, with the same kinds, field names, dict keys
    and values, and changes only the strings at id places (the fields
    and dict keys in ``_ID_FIELDS``, at any depth of nested sequences),
    each id v to m[v].  A dataclass field becomes the dict key of its
    name, so the id places of J_p(t) are those of t, and J_m(J_p(t))
    holds m[p[v]] where t holds v and the same structure elsewhere,
    which is J_{m∘p}(t).  A reference's placement maps the part's
    canonical ids onto ids of the graph holding it, so the condition
    holds at every reference, and by induction on the nesting depth of
    references, resolving each through the composed map equals
    renaming level by level."""
    t = type(obj)
    if t is tuple or t is list:
        return [x if type(x) is str else to_jsonable(x, mapping) for x in obj]
    if t is _Ref:
        return to_jsonable(obj.target, _id_map(obj.placement, mapping))
    if t is dict:
        if mapping is None:
            return obj
        return {
            k: _rename(v, mapping) if k in _ID_FIELDS else to_jsonable(v, mapping)
            for k, v in obj.items()
        }
    if t is IrreducibleType:
        return obj.name
    plan = _plan(t)
    if plan[0] != "class":
        return obj
    out = {} if plan[2] is None else {"kind": plan[2]}
    for name, _, _ in plan[3]:
        value = getattr(obj, name)
        if type(value) is str:
            out[name] = value
        elif mapping is not None and name in _ID_FIELDS:
            # Id fields of the evidence dataclasses are flat tuples of ids.
            out[name] = [mapping[x] for x in value]
        else:
            out[name] = to_jsonable(value, mapping)
    return out


def from_jsonable(hint, obj):
    """Rebuild a value of type ``hint`` from its JSON form.

    ``hint`` is a dataclass, ``tuple[X, ...]``, an Optional, a Union of
    dataclasses told apart by their ``kind``, or a plain type such as
    ``str`` or ``dict``, whose values pass through.  Missing fields take
    their defaults; a missing required field raises KeyError.  A value
    of another JSON type than its hint's, including null where no
    Optional allows it, raises ValueError naming the field.
    """
    plan = _plan(hint)
    how = plan[0]
    if how == "plain":
        if plan[1] is not None and not isinstance(obj, plan[1]):
            raise _mistyped(plan[1], obj)
        return obj
    if how == "optional":
        return None if obj is None else from_jsonable(plan[1], obj)
    if how == "tuple":
        if type(obj) is not list and type(obj) is not tuple:
            raise _mistyped(list, obj)
        item = plan[1]
        if all(type(x) is item for x in obj):
            return tuple(obj)
        return tuple(from_jsonable(item, x) for x in obj)
    if type(obj) is not dict:
        raise _mistyped(dict, obj)
    if how == "union":
        kind = obj.get("kind")
        cls = plan[1].get(kind) if type(kind) is str else None
        if cls is None:
            raise ValueError(f"unknown witness kind {kind!r}")
        return from_jsonable(cls, obj)
    values = {}
    for name, t, required in plan[3]:
        if required or name in obj:
            value = obj[name]
            # A value of exactly its plain hint type (str, dict) is ready.
            if type(value) is not t:
                try:
                    value = from_jsonable(t, value)
                except ValueError as e:
                    raise ValueError(f"{name}: {e}") from None
            values[name] = value
    return plan[1](**values)


_JSON_TYPES = {
    str: "a string", dict: "an object", list: "an array", tuple: "an array",
    bool: "a boolean", int: "a number", float: "a number", type(None): "null",
}


def _mistyped(expected: type, obj) -> ValueError:
    got = _JSON_TYPES.get(type(obj), type(obj).__name__)
    return ValueError(f"expected {_JSON_TYPES.get(expected, expected.__name__)}, got {got}")


class _Ref:
    """A memo entry's evidence (``target``, in the ids "0", "1", ... of
    its canonical representative) standing, inside a larger graph's
    evidence, for ``target`` renamed through ``_id_map(placement)``:
    canonical id ``str(i)`` names the vertex ``placement[i]`` of the
    larger graph.  It lives only in memo entries and in
    :meth:`Classifier._classify_part` verdicts; only :func:`to_jsonable`
    resolves it."""

    __slots__ = ("target", "placement")

    def __init__(self, target, placement: tuple[str, ...]) -> None:
        self.target = target
        self.placement = placement


def _id_map(placement: tuple[str, ...], outer: Optional[dict[str, str]] = None) -> dict[str, str]:
    """The map ``str(i) -> placement[i]``, followed by ``outer`` when
    given: the composition ``outer ∘ placement``."""
    if outer is None:
        return {str(i): v for i, v in enumerate(placement)}
    return {str(i): outer[v] for i, v in enumerate(placement)}


def _rename(ids, mapping: dict[str, str]):
    """A sequence of vertex ids, or of such sequences, renamed."""
    return type(ids)([mapping[x] if type(x) is str else _rename(x, mapping) for x in ids])


def verdict_to_jsonable(v: Verdict) -> dict:
    return to_jsonable(v)


def verdict_from_jsonable(obj: dict) -> Verdict:
    return from_jsonable(Verdict, obj)
