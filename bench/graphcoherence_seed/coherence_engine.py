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

Rule order: decisive criteria for all-Z graphs first, then the
incoherence witness scan, slenderness, the large-label criterion,
free-product splitting, a clique-separator split for chordal graphs,
exhaustive slender-separator search, and finally Unknown bookkeeping.

Verdicts are computed on the canonical representative of the input and
mapped back, so isomorphic inputs receive corresponding evidence, and a
per-classifier memo makes repeated sub-classifications cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .decomposition import Split, dirac_split, enumerate_separator_splits, verify_split
from .group_model import (
    NOT_SLENDER,
    SLENDER,
    F2Certificate,
    UnsupportedFlavorError,
    contains_f2_certificate,
    f2_certificate_valid,
    is_slender,
)
from .labeled_graph import (
    DEFAULT_VERTEX_CAP,
    LabeledGraph,
    canonical_form,
    detect_flavor,
    is_chordal,
    is_induced_chordless_cycle,
    shape_classify,
    verify_peo,
)

COHERENT = "COHERENT"
INCOHERENT = "INCOHERENT"
UNKNOWN = "UNKNOWN"

LEAF_RULES = ("abelian", "slender", "droms_chordal", "wise_gordon", "mccammond_wise")
INNER_RULES = ("free_product", "amalgam")
DISABLEABLE_RULES = frozenset(
    {
        "droms_chordal",
        "wise_gordon",
        "witness_scan",
        "slender",
        "mccammond_wise",
        "free_product",
        "dirac_split",
        "amalgam_search",
    }
)


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for the classifier.

    ``max_search_vertices`` caps canonicalization, memoization and all
    recursive rules; above it only the size-independent rules run.
    ``disabled_rules`` must be a subset of DISABLEABLE_RULES and exists
    for cross-validating one rule against another.
    """

    max_search_vertices: int = DEFAULT_VERTEX_CAP
    disabled_rules: frozenset = frozenset()
    separator_size_cap: Optional[int] = None

    def __post_init__(self) -> None:
        unknown = frozenset(self.disabled_rules) - DISABLEABLE_RULES
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


@dataclass(frozen=True)
class JoinEmbedding:
    """Two disjoint vertex sets, fully joined by label-2 edges, each
    carrying an F2 certificate: the group contains F2 x F2."""

    side_a: tuple[str, ...]
    side_b: tuple[str, ...]
    cert_a: F2Certificate
    cert_b: F2Certificate

    kind = "join_embedding"


@dataclass(frozen=True)
class DromsCycle:
    """Induced chordless cycle of length >= 4 in an all-Z label-2 graph."""

    cycle: tuple[str, ...]

    kind = "droms_cycle"


@dataclass(frozen=True)
class WiseGordonViolation:
    """Failure of one of the three decisive conditions for all-Z graphs:
    an induced long cycle, a 3- or 4-clique with two labels above 2, or
    the five-edge square over a heavy edge."""

    violation: str  # long_cycle | clique_big_labels | forbidden_square
    vertices: tuple[str, ...]

    kind = "wise_gordon"


@dataclass(frozen=True)
class IncoherentFactor:
    """An induced subgraph whose group is incoherent; incoherence of a
    parabolic subgroup passes to the whole group."""

    vertices: tuple[str, ...]
    inner: "Witness"

    kind = "incoherent_factor"


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
    ch = is_chordal(G)
    if not ch:
        return WiseGordonViolation(violation="long_cycle", vertices=ch.cycle)
    for size in (3, 4):
        for combo in itertools.combinations(G.vertices, size):
            labels = []
            clique = True
            for a, b in itertools.combinations(combo, 2):
                m = G.edge_label(a, b)
                if m is None:
                    clique = False
                    break
                labels.append(m)
            if clique and sum(1 for m in labels if m > 2) >= 2:
                return WiseGordonViolation(violation="clique_big_labels", vertices=combo)
    for a, b, m in G.edge_list():
        if m <= 2:
            continue
        others = [v for v in G.vertices if v not in (a, b)]
        for c, d in itertools.combinations(others, 2):
            if G.has_edge(c, d):
                continue
            if all(
                G.edge_label(x, y) == 2
                for x in (c, d)
                for y in (a, b)
            ):
                return WiseGordonViolation(
                    violation="forbidden_square", vertices=(a, b, c, d)
                )
    return None


def witness_join_incoherence(G: LabeledGraph) -> Optional[JoinEmbedding]:
    """First pair of disjoint F2-certified sets joined completely by
    label-2 edges, if any; the group then contains F2 x F2, which is
    incoherent."""
    certs: list[F2Certificate] = []
    for u, v in G.nonadjacent_pairs():
        if (G.group(u).order() - 1) * (G.group(v).order() - 1) >= 2:
            certs.append(F2Certificate(kind="free_pair", vertices=(u, v)))
    for triple in itertools.combinations(G.vertices, 3):
        if all(not G.has_edge(a, b) for a, b in itertools.combinations(triple, 2)):
            certs.append(F2Certificate(kind="independent_triple", vertices=triple))
    for ca, cb in itertools.combinations(certs, 2):
        sa, sb = set(ca.vertices), set(cb.vertices)
        if sa & sb:
            continue
        if all(
            G.edge_label(x, y) == 2 for x in ca.vertices for y in cb.vertices
        ):
            return JoinEmbedding(
                side_a=ca.vertices, side_b=cb.vertices, cert_a=ca, cert_b=cb
            )
    return None


# -- the classifier ------------------------------------------------------------


def _raw_key(G: LabeledGraph) -> str:
    vertex_part = ";".join(g.key() for g in G.groups)
    edge_part = ",".join(f"{i}-{j}:{m}" for i, j, m in G.edges)
    return f"raw:{G.n};{vertex_part};{edge_part}"


class Classifier:
    """Memoizing coherence classifier.

    Safe to reuse across graphs; the memo is keyed by canonical form,
    and verdicts are computed on canonical representatives so equal
    inputs (and isomorphic ones, up to the isomorphism) receive
    identical evidence.
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self._cache: dict[str, Verdict] = {}

    def classify(self, G: LabeledGraph) -> Verdict:
        flavor = detect_flavor(G)
        if not flavor.any:
            raise UnsupportedFlavorError(
                "edge labels above 2 require all-Z or all-Z2 vertex groups"
            )
        cap = self.config.max_search_vertices
        if G.n > cap:
            return self._apply_rules(G, big=True)
        key, placement = canonical_form(G, cap=cap)
        cached = self._cache.get(key)
        if cached is None:
            CG = G.permuted(placement).relabeled(
                {v: str(i) for i, v in enumerate(placement)}
            )
            cached = self._apply_rules(CG, big=False)
            self._cache[key] = cached
        mapping = {str(i): v for i, v in enumerate(placement)}
        return _remap_verdict(cached, mapping)

    # Rule pipeline.  G is a canonical representative (ids "0", "1", ...)
    # unless big is set, in which case recursion and memoization are off.
    def _apply_rules(self, G: LabeledGraph, big: bool) -> Verdict:
        disabled = self.config.disabled_rules
        flavor = detect_flavor(G)
        notes: list[UnknownNote] = []

        # Decisive criteria for all-Z graphs.
        if flavor.raag and "droms_chordal" not in disabled:
            ch = is_chordal(G)
            if ch:
                return Verdict(
                    COHERENT,
                    proof=self._leaf(G, "droms_chordal", {"peo": list(ch.peo)}),
                )
            return Verdict(INCOHERENT, witness=DromsCycle(cycle=ch.cycle))
        if flavor.artin and "wise_gordon" not in disabled:
            violation = wise_gordon_check(G)
            if violation is None:
                peo = is_chordal(G).peo
                return Verdict(
                    COHERENT, proof=self._leaf(G, "wise_gordon", {"peo": list(peo)})
                )
            return Verdict(INCOHERENT, witness=violation)

        # Incoherence witness scan.
        if "witness_scan" not in disabled:
            w = witness_join_incoherence(G)
            if w is not None:
                return Verdict(INCOHERENT, witness=w)

        # Slender groups are coherent.
        if "slender" not in disabled:
            cert = is_slender(G)
            if cert.verdict == SLENDER:
                rule = (
                    "abelian"
                    if flavor.graph_product and G.is_complete()
                    else "slender"
                )
                return Verdict(
                    COHERENT, proof=self._leaf(G, rule, _slender_data(cert))
                )

        # Large labels everywhere (all-Z2 graphs).
        if flavor.coxeter and "mccammond_wise" not in disabled:
            if all(m >= G.n for _, _, m in G.edges):
                data = {
                    "vertex_count": G.n,
                    "min_edge_label": min((m for _, _, m in G.edges), default=None),
                }
                return Verdict(COHERENT, proof=self._leaf(G, "mccammond_wise", data))

        if big:
            notes.append(
                UnknownNote(
                    code="search-cap-exceeded",
                    detail=(
                        f"{G.n} vertices exceed the search cap of "
                        f"{self.config.max_search_vertices}; recursive rules skipped"
                    ),
                )
            )
            return Verdict(UNKNOWN, notes=tuple(notes))

        # Free product over connected components.
        if "free_product" not in disabled:
            comps = G.components()
            if len(comps) >= 2:
                outcome = self._free_product(G, comps, notes)
                if outcome is not None:
                    return outcome

        # Amalgams over slender separators.
        connected = G.is_connected()
        if connected and not G.is_complete():
            if "dirac_split" not in disabled and is_chordal(G):
                outcome = self._try_split(G, dirac_split(G))
                if outcome is not None:
                    return outcome
            if "amalgam_search" not in disabled:
                cap = self.config.separator_size_cap
                examined = 0
                tried = 0
                for split in enumerate_separator_splits(G, cap):
                    examined += 1
                    if is_slender(G.induced(split.separator)).verdict != SLENDER:
                        continue
                    tried += 1
                    outcome = self._try_split(G, split, prechecked=True)
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

    def _leaf(self, G: LabeledGraph, rule: str, data: dict) -> ProofNode:
        return ProofNode(
            rule=rule, vertices=G.vertices, key=self._node_key(G), data=data
        )

    def _node_key(self, G: LabeledGraph) -> str:
        if G.n <= self.config.max_search_vertices:
            return canonical_form(G, cap=self.config.max_search_vertices)[0]
        return _raw_key(G)

    def _free_product(
        self, G: LabeledGraph, comps, notes: list[UnknownNote]
    ) -> Optional[Verdict]:
        children = []
        for comp in comps:
            members = tuple(sorted(comp, key=G.index))
            sub = G.induced(members)
            v = self.classify(sub)
            if v.status == INCOHERENT:
                return Verdict(
                    INCOHERENT,
                    witness=IncoherentFactor(vertices=members, inner=v.witness),
                )
            children.append((members, v))
        unknowns = [(members, v) for members, v in children if v.status == UNKNOWN]
        if unknowns:
            members, v = unknowns[0]
            notes.extend(v.notes)
            notes.append(
                UnknownNote(
                    code="component-unknown",
                    vertices=members,
                    detail="a free factor stayed unclassified",
                )
            )
            return None
        return Verdict(
            COHERENT,
            proof=ProofNode(
                rule="free_product",
                vertices=G.vertices,
                key=self._node_key(G),
                data={"components": [list(m) for m, _ in children]},
                children=tuple(v.proof for _, v in children),
            ),
        )

    def _try_split(
        self, G: LabeledGraph, split: Split, prechecked: bool = False
    ) -> Optional[Verdict]:
        if not prechecked:
            if is_slender(G.induced(split.separator)).verdict != SLENDER:
                return None
        left_v = self.classify(G.induced(split.left))
        if left_v.status == INCOHERENT:
            return Verdict(
                INCOHERENT,
                witness=IncoherentFactor(vertices=split.left, inner=left_v.witness),
            )
        right_v = self.classify(G.induced(split.right))
        if right_v.status == INCOHERENT:
            return Verdict(
                INCOHERENT,
                witness=IncoherentFactor(vertices=split.right, inner=right_v.witness),
            )
        if left_v.status == COHERENT and right_v.status == COHERENT:
            return Verdict(
                COHERENT,
                proof=ProofNode(
                    rule="amalgam",
                    vertices=G.vertices,
                    key=self._node_key(G),
                    data={
                        "separator": list(split.separator),
                        "left": list(split.left),
                        "right": list(split.right),
                        "method": split.method,
                    },
                    children=(left_v.proof, right_v.proof),
                ),
            )
        return None


def _slender_data(cert) -> dict:
    return {
        "certificate": {
            "reason": cert.reason,
            "factors": [
                {
                    "vertices": list(f.vertices),
                    "kind": f.kind,
                    "type": f.type.name if f.type else None,
                }
                for f in cert.factors or ()
            ],
        }
    }


def classify(G: LabeledGraph, config: Optional[EngineConfig] = None) -> Verdict:
    """One-shot classification with a fresh memo."""
    return Classifier(config).classify(G)


# -- remapping between canonical and input ids --------------------------------

_ID_LIST_KEYS = ("peo", "separator", "left", "right")


def _remap_data(data: dict, mapping: dict[str, str]) -> dict:
    out: dict = {}
    for k, v in data.items():
        if k in _ID_LIST_KEYS:
            out[k] = [mapping[x] for x in v]
        elif k == "components":
            out[k] = [[mapping[x] for x in comp] for comp in v]
        elif k == "certificate":
            cert = dict(v)
            cert["factors"] = [
                {**f, "vertices": [mapping[x] for x in f["vertices"]]}
                for f in v.get("factors", [])
            ]
            out[k] = cert
        else:
            out[k] = v
    return out


def _remap_proof(node: ProofNode, mapping: dict[str, str]) -> ProofNode:
    return ProofNode(
        rule=node.rule,
        vertices=tuple(mapping[v] for v in node.vertices),
        key=node.key,
        data=_remap_data(node.data, mapping),
        children=tuple(_remap_proof(c, mapping) for c in node.children),
    )


def _remap_witness(w: Witness, mapping: dict[str, str]) -> Witness:
    if isinstance(w, JoinEmbedding):
        return JoinEmbedding(
            side_a=tuple(mapping[v] for v in w.side_a),
            side_b=tuple(mapping[v] for v in w.side_b),
            cert_a=F2Certificate(
                kind=w.cert_a.kind, vertices=tuple(mapping[v] for v in w.cert_a.vertices)
            ),
            cert_b=F2Certificate(
                kind=w.cert_b.kind, vertices=tuple(mapping[v] for v in w.cert_b.vertices)
            ),
        )
    if isinstance(w, DromsCycle):
        return DromsCycle(cycle=tuple(mapping[v] for v in w.cycle))
    if isinstance(w, WiseGordonViolation):
        return WiseGordonViolation(
            violation=w.violation, vertices=tuple(mapping[v] for v in w.vertices)
        )
    if isinstance(w, IncoherentFactor):
        return IncoherentFactor(
            vertices=tuple(mapping[v] for v in w.vertices),
            inner=_remap_witness(w.inner, mapping),
        )
    raise TypeError(f"unknown witness type {type(w).__name__}")


def _remap_verdict(v: Verdict, mapping: dict[str, str]) -> Verdict:
    return Verdict(
        status=v.status,
        proof=_remap_proof(v.proof, mapping) if v.proof else None,
        witness=_remap_witness(v.witness, mapping) if v.witness else None,
        notes=tuple(
            UnknownNote(
                code=n.code,
                vertices=tuple(mapping[x] for x in n.vertices),
                detail=n.detail,
            )
            for n in v.notes
        ),
    )


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class VerificationOutcome:
    ok: bool
    path: tuple[str, ...] = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _fail(path: tuple[str, ...], reason: str) -> VerificationOutcome:
    return VerificationOutcome(ok=False, path=path, reason=reason)


def verify_proof(
    G: LabeledGraph, node: ProofNode, cap: int = DEFAULT_VERTEX_CAP
) -> VerificationOutcome:
    """Recheck every node of a coherence proof against the graph.

    The root must cover the whole vertex set; every leaf premise and
    every split invariant is recomputed from scratch.  Failures name
    the offending node by its path from the root.
    """
    return _verify_node(G, node, tuple(G.vertices), cap, path=("root",))


def _verify_node(
    G: LabeledGraph,
    node: ProofNode,
    expected: tuple[str, ...],
    cap: int,
    path: tuple[str, ...],
) -> VerificationOutcome:
    if sorted(node.vertices) != sorted(expected):
        return _fail(path, "node vertex set does not match its position in the proof")
    try:
        sub = G.induced(node.vertices)
    except Exception as e:
        return _fail(path, f"induced subgraph failed: {e}")
    expected_key = (
        canonical_form(sub, cap=cap)[0] if sub.n <= cap else _raw_key(sub)
    )
    if node.key != expected_key:
        return _fail(path, "stored key does not match the induced subgraph")
    flavor = detect_flavor(sub)

    if node.rule in LEAF_RULES and node.children:
        return _fail(path, f"leaf rule {node.rule} must not have children")

    if node.rule == "abelian":
        if not (flavor.graph_product and sub.is_complete()):
            return _fail(path, "abelian leaf requires a complete label-2 graph")
        return VerificationOutcome(ok=True)
    if node.rule == "slender":
        if is_slender(sub).verdict != SLENDER:
            return _fail(path, "slender leaf on a non-slender subgraph")
        return VerificationOutcome(ok=True)
    if node.rule == "droms_chordal":
        if not flavor.raag:
            return _fail(path, "droms_chordal leaf requires an all-Z label-2 graph")
        peo = node.data.get("peo")
        if peo is not None and not verify_peo(sub, peo):
            return _fail(path, "stored elimination ordering does not verify")
        if not is_chordal(sub):
            return _fail(path, "droms_chordal leaf on a non-chordal graph")
        return VerificationOutcome(ok=True)
    if node.rule == "wise_gordon":
        if not flavor.artin:
            return _fail(path, "wise_gordon leaf requires an all-Z graph")
        if wise_gordon_check(sub) is not None:
            return _fail(path, "decisive conditions fail on this subgraph")
        return VerificationOutcome(ok=True)
    if node.rule == "mccammond_wise":
        if not flavor.coxeter:
            return _fail(path, "mccammond_wise leaf requires an all-Z2 graph")
        if not all(m >= sub.n for _, _, m in sub.edges):
            return _fail(path, "some edge label is below the vertex count")
        return VerificationOutcome(ok=True)

    if node.rule == "free_product":
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
        for a, b in itertools.combinations(range(len(sets)), 2):
            for u in sets[a]:
                for w in sub.neighbors(u):
                    if w in sets[b]:
                        return _fail(path, "edge between free factors")
        for i, child in enumerate(node.children):
            r = _verify_node(
                sub, child, child.vertices, cap, path + (f"factor[{i}]",)
            )
            if not r:
                return r
        return VerificationOutcome(ok=True)

    if node.rule == "amalgam":
        try:
            split = Split(
                separator=tuple(node.data["separator"]),
                left=tuple(node.data["left"]),
                right=tuple(node.data["right"]),
                method=node.data.get("method", "search"),
            )
        except KeyError as e:
            return _fail(path, f"amalgam node missing field {e}")
        if set(split.left) | set(split.right) != set(node.vertices):
            return _fail(path, "amalgam sides do not cover the node")
        if not split.separator:
            return _fail(path, "amalgam separator is empty")
        if not verify_split(sub, split):
            return _fail(path, "split invariants fail")
        if is_slender(sub.induced(split.separator)).verdict != SLENDER:
            return _fail(path, "separator subgroup is not slender")
        if len(node.children) != 2:
            return _fail(path, "amalgam needs exactly two children")
        lefts = set(node.children[0].vertices)
        rights = set(node.children[1].vertices)
        if lefts != set(split.left) or rights != set(split.right):
            return _fail(path, "children do not match the split sides")
        r = _verify_node(sub, node.children[0], split.left, cap, path + ("left",))
        if not r:
            return r
        return _verify_node(sub, node.children[1], split.right, cap, path + ("right",))

    return _fail(path, f"unknown rule {node.rule!r}")


def verify_witness(
    G: LabeledGraph, w: Witness, _path: tuple[str, ...] = ("witness",)
) -> VerificationOutcome:
    """Recheck an incoherence witness against the graph from scratch."""
    if isinstance(w, JoinEmbedding):
        sa, sb = set(w.side_a), set(w.side_b)
        if not sa or not sb or (sa & sb):
            return _fail(_path, "sides must be disjoint and nonempty")
        try:
            if not all(
                G.edge_label(x, y) == 2 for x in w.side_a for y in w.side_b
            ):
                return _fail(_path, "sides are not fully joined by label-2 edges")
            if set(w.cert_a.vertices) - sa or set(w.cert_b.vertices) - sb:
                return _fail(_path, "certificates leave their sides")
            if not f2_certificate_valid(G.induced(w.side_a), w.cert_a):
                return _fail(_path, "side A certificate fails")
            if not f2_certificate_valid(G.induced(w.side_b), w.cert_b):
                return _fail(_path, "side B certificate fails")
        except Exception as e:
            return _fail(_path, f"witness refers to unknown vertices: {e}")
        return VerificationOutcome(ok=True)
    if isinstance(w, DromsCycle):
        if not detect_flavor(G).raag:
            return _fail(_path, "cycle witness requires an all-Z label-2 graph")
        if not is_induced_chordless_cycle(G, w.cycle):
            return _fail(_path, "cycle is not induced and chordless")
        return VerificationOutcome(ok=True)
    if isinstance(w, WiseGordonViolation):
        if not detect_flavor(G).artin:
            return _fail(_path, "violation witness requires an all-Z graph")
        return _verify_wise_gordon_violation(G, w, _path)
    if isinstance(w, IncoherentFactor):
        try:
            sub = G.induced(w.vertices)
        except Exception as e:
            return _fail(_path, f"factor vertices invalid: {e}")
        return verify_witness(sub, w.inner, _path + ("inner",))
    return _fail(_path, f"unknown witness type {type(w).__name__}")


def _verify_wise_gordon_violation(
    G: LabeledGraph, w: WiseGordonViolation, path: tuple[str, ...]
) -> VerificationOutcome:
    try:
        for v in w.vertices:
            G.index(v)
    except Exception as e:
        return _fail(path, f"violation refers to unknown vertices: {e}")
    if len(set(w.vertices)) != len(w.vertices):
        return _fail(path, "violation repeats vertices")
    if w.violation == "long_cycle":
        if not is_induced_chordless_cycle(G, w.vertices):
            return _fail(path, "stored cycle is not induced and chordless")
        return VerificationOutcome(ok=True)
    if w.violation == "clique_big_labels":
        if len(w.vertices) not in (3, 4):
            return _fail(path, "clique violation needs 3 or 4 vertices")
        big = 0
        for a, b in itertools.combinations(w.vertices, 2):
            m = G.edge_label(a, b)
            if m is None:
                return _fail(path, "violation vertices are not a clique")
            if m > 2:
                big += 1
        if big < 2:
            return _fail(path, "clique has fewer than two labels above 2")
        return VerificationOutcome(ok=True)
    if w.violation == "forbidden_square":
        if len(w.vertices) != 4:
            return _fail(path, "square violation needs 4 vertices")
        a, b, c, d = w.vertices
        m = G.edge_label(a, b)
        if m is None or m <= 2:
            return _fail(path, "first two vertices must carry a heavy edge")
        if G.has_edge(c, d):
            return _fail(path, "last two vertices must be nonadjacent")
        if not all(G.edge_label(x, y) == 2 for x in (c, d) for y in (a, b)):
            return _fail(path, "square sides must be label-2 edges")
        return VerificationOutcome(ok=True)
    return _fail(path, f"unknown violation kind {w.violation!r}")


# -- serialization ---------------------------------------------------------------


def proof_to_jsonable(node: ProofNode) -> dict:
    return {
        "rule": node.rule,
        "vertices": list(node.vertices),
        "key": node.key,
        "data": node.data,
        "children": [proof_to_jsonable(c) for c in node.children],
    }


def proof_from_jsonable(obj: dict) -> ProofNode:
    return ProofNode(
        rule=obj["rule"],
        vertices=tuple(obj["vertices"]),
        key=obj["key"],
        data=obj.get("data", {}),
        children=tuple(proof_from_jsonable(c) for c in obj.get("children", [])),
    )


def witness_to_jsonable(w: Witness) -> dict:
    if isinstance(w, JoinEmbedding):
        return {
            "kind": w.kind,
            "side_a": list(w.side_a),
            "side_b": list(w.side_b),
            "cert_a": {"kind": w.cert_a.kind, "vertices": list(w.cert_a.vertices)},
            "cert_b": {"kind": w.cert_b.kind, "vertices": list(w.cert_b.vertices)},
        }
    if isinstance(w, DromsCycle):
        return {"kind": w.kind, "cycle": list(w.cycle)}
    if isinstance(w, WiseGordonViolation):
        return {"kind": w.kind, "violation": w.violation, "vertices": list(w.vertices)}
    if isinstance(w, IncoherentFactor):
        return {
            "kind": w.kind,
            "vertices": list(w.vertices),
            "inner": witness_to_jsonable(w.inner),
        }
    raise TypeError(f"unknown witness type {type(w).__name__}")


def witness_from_jsonable(obj: dict) -> Witness:
    kind = obj.get("kind")
    if kind == "join_embedding":
        return JoinEmbedding(
            side_a=tuple(obj["side_a"]),
            side_b=tuple(obj["side_b"]),
            cert_a=F2Certificate(
                kind=obj["cert_a"]["kind"], vertices=tuple(obj["cert_a"]["vertices"])
            ),
            cert_b=F2Certificate(
                kind=obj["cert_b"]["kind"], vertices=tuple(obj["cert_b"]["vertices"])
            ),
        )
    if kind == "droms_cycle":
        return DromsCycle(cycle=tuple(obj["cycle"]))
    if kind == "wise_gordon":
        return WiseGordonViolation(
            violation=obj["violation"], vertices=tuple(obj["vertices"])
        )
    if kind == "incoherent_factor":
        return IncoherentFactor(
            vertices=tuple(obj["vertices"]), inner=witness_from_jsonable(obj["inner"])
        )
    raise ValueError(f"unknown witness kind {kind!r}")


def verdict_to_jsonable(v: Verdict) -> dict:
    return {
        "status": v.status,
        "proof": proof_to_jsonable(v.proof) if v.proof else None,
        "witness": witness_to_jsonable(v.witness) if v.witness else None,
        "notes": [
            {"code": n.code, "vertices": list(n.vertices), "detail": n.detail}
            for n in v.notes
        ],
    }


def verdict_from_jsonable(obj: dict) -> Verdict:
    return Verdict(
        status=obj["status"],
        proof=proof_from_jsonable(obj["proof"]) if obj.get("proof") else None,
        witness=witness_from_jsonable(obj["witness"]) if obj.get("witness") else None,
        notes=tuple(
            UnknownNote(
                code=n["code"],
                vertices=tuple(n.get("vertices", ())),
                detail=n.get("detail", ""),
            )
            for n in obj.get("notes", [])
        ),
    )
