"""Shared oracles and graph builders for the test suite.

Everything here is deliberately independent of the package internals:
brute-force chordality, the LexBFS chordality test on lists and dicts,
brute-force isomorphism, brute-force F2 evidence, the Wise-Gordon scan
tuple by tuple, the DOT reader with token objects, the kind of a Coxeter
diagram by a float elimination of its cosine matrix, the canonical
representative in two builds, concrete permutation models for
reflection group orders, and random graph generators.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from graphcoherence import (
    AbelianGroupLabel,
    Classifier,
    F2Certificate,
    LabeledGraph,
    Z,
    Z2,
    artin_graph,
    canonical_form,
    coxeter_graph,
    cyclic,
    cycle_edges,
    graph_product_graph,
    path_edges,
    raag,
    racg,
)
from graphcoherence.coherence_engine import JoinEmbedding, WiseGordonViolation
from graphcoherence.labeled_graph import (
    ChordalityResult,
    GraphValidationError,
    InternalInvariantError,
    _flavored_graph,
    canonical_relabel,
    is_chordal,
    mask_components,
)

# ---------------------------------------------------------------------------
# brute-force automorphism count over all vertex permutations.


def brute_force_automorphism_count(G: LabeledGraph) -> int:
    """How many vertex permutations keep every group and every pair's
    edge label (or non-edge)."""
    label = [[G.edge_label(u, v) for v in G.vertices] for u in G.vertices]
    pairs = list(itertools.combinations(range(G.n), 2))
    return sum(
        all(G.groups[p[v]] == G.groups[v] for v in range(G.n))
        and all(label[p[i]][p[j]] == label[i][j] for i, j in pairs)
        for p in itertools.permutations(range(G.n))
    )


# ---------------------------------------------------------------------------
# census generation by dedupe: every child of every parent, canonicalized,
# the first child per key kept (the census's generation before canonical
# augmentation, without its one-extension-per-orbit pruning).


def dedupe_next_level(parents, edge_labels, max_edges=None) -> dict[str, LabeledGraph]:
    """The canonical representatives, by key, of the classes one vertex
    larger than the graphs ``parents``: each parent joined to a new
    vertex in every way, by edges labelled from ``edge_labels``, within
    ``max_edges``."""
    classes: dict[str, LabeledGraph] = {}
    for P in parents:
        for c in itertools.product((0, *edge_labels), repeat=P.n):
            new = tuple((v, P.n, m) for v, m in enumerate(c) if m)
            if max_edges is not None and P.m + len(new) > max_edges:
                continue
            child = LabeledGraph(
                P.vertices + (str(P.n),), P.groups + P.groups[:1], tuple(sorted(P.edges + new))
            )
            key, placement = canonical_form(child)
            if key not in classes:
                classes[key] = canonical_relabel(child, placement)
    return classes


# ---------------------------------------------------------------------------
# the canonical representative in two builds: G reordered by ``permuted``,
# then renamed by ``relabeled`` (the package's canonical_relabel before it
# built the representative in one pass).


def reference_canonical_relabel(G: LabeledGraph, placement) -> LabeledGraph:
    """G in the vertex order ``placement`` (as computed by
    :func:`canonical_form`), with vertices renamed "0", "1", ... in
    that order."""
    return G.permuted(placement).relabeled({v: str(i) for i, v in enumerate(placement)})


# ---------------------------------------------------------------------------
# the separator walk one subset at a time: each subset's mask built bit by
# bit from itertools.combinations, its components by one mask_components
# call (the walk before its neighbourhood tables and subset stepper).


def oracle_walk_separators(G: LabeledGraph):
    """``decomposition.walk_separators``'s yields: every separator of a
    connected non-complete graph, by size and then lexicographically by
    position, with the components it leaves."""
    if not G.is_connected() or G.is_complete():
        return
    adj = G.adjacency_masks
    full = (1 << G.n) - 1
    for size in range(1, G.n - 1):
        for combo in itertools.combinations(range(G.n), size):
            sep = 0
            for i in combo:
                sep |= 1 << i
            comps = mask_components(adj, full & ~sep)
            if len(comps) >= 2:
                yield sep, comps


# ---------------------------------------------------------------------------
# brute-force chordality: scan every vertex subset of size >= 4 and check
# whether it induces a chordless cycle (2-regular and connected).


def brute_force_chordless_cycle(G: LabeledGraph) -> tuple[str, ...] | None:
    n = G.n
    for size in range(4, n + 1):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            degs = {}
            ok = True
            for v in subset:
                d = sum(1 for w in G.neighbors(G.vertices[v]) if G.index(w) in inside)
                if d != 2:
                    ok = False
                    break
                degs[v] = d
            if not ok:
                continue
            # 2-regular induced subgraph is a disjoint union of cycles;
            # connectivity makes it a single chordless cycle.
            start = subset[0]
            seen = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for w in G.neighbors(G.vertices[v]):
                    wi = G.index(w)
                    if wi in inside and wi not in seen:
                        seen.add(wi)
                        stack.append(wi)
            if len(seen) == size:
                order = [subset[0]]
                prev = None
                while len(order) < size:
                    cur = order[-1]
                    for w in G.neighbors(G.vertices[cur]):
                        wi = G.index(w)
                        if wi in inside and wi != prev:
                            prev = cur
                            order.append(wi)
                            break
                return tuple(G.vertices[i] for i in order)
    return None


def brute_force_is_chordal(G: LabeledGraph) -> bool:
    return brute_force_chordless_cycle(G) is None


# ---------------------------------------------------------------------------
# chordality on lists and dicts: the package's LexBFS, elimination test and
# cycle search before they ran on the adjacency bitsets, kept as the oracle
# for the evidence ``is_chordal`` returns, which must be the same.


def reference_lex_bfs_order(G: LabeledGraph) -> list[int]:
    buckets: list[list[int]] = [list(range(G.n))]
    order: list[int] = []
    while buckets:
        bucket = buckets[0]
        v = bucket.pop(0)
        if not bucket:
            buckets.pop(0)
        order.append(v)
        nbrs = set(G._adj[v])
        refined: list[list[int]] = []
        for b in buckets:
            inside = [x for x in b if x in nbrs]
            outside = [x for x in b if x not in nbrs]
            if inside:
                refined.append(inside)
            if outside:
                refined.append(outside)
        buckets = refined
    return order


def reference_cycle_through(G: LabeledGraph, v: int, p: int, w: int) -> Optional[tuple[str, ...]]:
    adj = G._adj
    banned = (set(adj[v]) | {v}) - {p, w}
    prev: dict[int, Optional[int]] = {p: None}
    queue = deque([p])
    while queue:
        x = queue.popleft()
        if x == w:
            cycle = [v]
            while x is not None:
                cycle.append(x)
                x = prev[x]
            start = cycle.index(min(cycle))
            cycle = cycle[start:] + cycle[:start]
            if cycle[-1] < cycle[1]:
                cycle[1:] = cycle[:0:-1]
            return tuple(G.vertices[i] for i in cycle)
        for y in sorted(adj[x]):
            if y in banned or y in prev:
                continue
            prev[y] = x
            queue.append(y)
    return None


def reference_is_chordal(G: LabeledGraph) -> ChordalityResult:
    visit = reference_lex_bfs_order(G)
    rank = {i: r for r, i in enumerate(visit)}
    adj = G._adj
    for v in reversed(visit):
        earlier = sorted((u for u in adj[v] if rank[u] < rank[v]), key=rank.__getitem__)
        for w in reversed(earlier[:-1]):
            p = earlier[-1]
            if w not in adj[p]:
                cycle = reference_cycle_through(G, v, p, w)
                if cycle is None:
                    raise InternalInvariantError("non-chordal graph must contain a chordless cycle")
                return ChordalityResult(chordal=False, cycle=cycle)
    return ChordalityResult(chordal=True, peo=tuple(G.vertices[i] for i in reversed(visit)))


# ---------------------------------------------------------------------------
# brute-force labeled-graph isomorphism (small n only).


def brute_force_isomorphic(G: LabeledGraph, H: LabeledGraph) -> bool:
    if G.n != H.n or G.m != H.m:
        return False
    if sorted(g.key() for g in G.groups) != sorted(h.key() for h in H.groups):
        return False
    gv, hv = G.vertices, H.vertices
    for perm in itertools.permutations(range(H.n)):
        if any(G.groups[i].key() != H.groups[perm[i]].key() for i in range(G.n)):
            continue
        good = True
        for i in range(G.n):
            for j in range(i + 1, G.n):
                a = G.edge_label(gv[i], gv[j])
                b = H.edge_label(hv[perm[i]], hv[perm[j]])
                if a != b:
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


# ---------------------------------------------------------------------------
# brute-force F2 evidence: the certificate scan over every vertex pair and
# triple, and the pairwise join-witness scan with set intersection and
# edge_label, as the package computed them before its bitset scans.


def brute_force_f2_certificates(G: LabeledGraph) -> list[F2Certificate]:
    certs = []
    for u, v in itertools.combinations(G.vertices, 2):
        if not G.has_edge(u, v) and (
            (G.group(u).order() - 1) * (G.group(v).order() - 1) >= 2
        ):
            certs.append(F2Certificate(kind="free_pair", vertices=(u, v)))
    for triple in itertools.combinations(G.vertices, 3):
        if all(not G.has_edge(a, b) for a, b in itertools.combinations(triple, 2)):
            certs.append(F2Certificate(kind="independent_triple", vertices=triple))
    return certs


def brute_force_join_witness(G: LabeledGraph) -> JoinEmbedding | None:
    for ca, cb in itertools.combinations(brute_force_f2_certificates(G), 2):
        if set(ca.vertices) & set(cb.vertices):
            continue
        if all(G.edge_label(x, y) == 2 for x in ca.vertices for y in cb.vertices):
            return JoinEmbedding(
                side_a=ca.vertices, side_b=cb.vertices, cert_a=ca, cert_b=cb
            )
    return None


# ---------------------------------------------------------------------------
# the Wise-Gordon scan over position tuples: every 3- and 4-combination in
# itertools.combinations order, tested for being a clique with two labels
# above 2, then every pair of other vertices over each heavy edge (the
# package's scan before it ran on bitsets).  The long cycle is
# is_chordal's, which has its own oracle.


def brute_force_wise_gordon(G: LabeledGraph) -> WiseGordonViolation | None:
    ch = is_chordal(G)
    if not ch:
        return WiseGordonViolation(violation="long_cycle", vertices=ch.cycle)
    adj = G._adj
    ids = G.vertices
    for size in (3, 4):
        for combo in itertools.combinations(range(G.n), size):
            pairs = list(itertools.combinations(combo, 2))
            if all(b in adj[a] for a, b in pairs) and sum(adj[a][b] > 2 for a, b in pairs) >= 2:
                return WiseGordonViolation(
                    violation="clique_big_labels", vertices=tuple(ids[i] for i in combo)
                )
    for a, b, m in G.edges:
        if m <= 2:
            continue
        others = [v for v in range(G.n) if v not in (a, b)]
        for c, d in itertools.combinations(others, 2):
            if d not in adj[c] and all(adj[x].get(y) == 2 for x in (c, d) for y in (a, b)):
                return WiseGordonViolation(
                    violation="forbidden_square", vertices=(ids[a], ids[b], ids[c], ids[d])
                )
    return None


# ---------------------------------------------------------------------------
# the classifier that renames evidence at every level of its recursion.


class EagerClassifier(Classifier):
    """A classifier whose provers get each part's verdict already
    renamed into the part's ids, as ``classify`` returns it.  Its memo
    entries then hold plain evidence, and a node at depth d of a proof
    is copied d times: the classifier before memo entries held their
    parts by reference, kept as the oracle for resolving references
    through composed id maps."""

    def _classify_part(self, G, positions):
        return self.classify(G.induced([G.vertices[i] for i in positions]))


# ---------------------------------------------------------------------------
# random generators (plain random module, caller passes a seeded Random).

GROUP_POOL = (Z, Z2, cyclic(3), cyclic(6), AbelianGroupLabel(rank=1, torsion=(2,)))


def random_labeled_graph(
    rng: random.Random,
    max_n: int,
    groups: tuple[AbelianGroupLabel, ...] = (Z2,),
    labels: tuple[int, ...] = (2,),
    min_n: int = 1,
) -> LabeledGraph:
    n = rng.randint(min_n, max_n)
    ids = [f"v{i}" for i in range(n)]
    verts = [(v, rng.choice(groups)) for v in ids]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                edges.append((ids[i], ids[j], rng.choice(labels)))
    return LabeledGraph.build(verts, edges)


def random_chordal_graph(rng: random.Random, max_n: int, min_n: int = 1) -> LabeledGraph:
    """Grow a chordal graph by repeatedly attaching a new vertex to a
    clique inside the existing neighborhood of a random vertex."""

    n = rng.randint(min_n, max_n)
    ids = [f"v{i}" for i in range(n)]
    adj: dict[str, set[str]] = {ids[0]: set()}
    for v in ids[1:]:
        anchor = rng.choice(sorted(adj))
        base = sorted(adj[anchor] | {anchor})
        k = rng.randint(0, len(base))
        clique = []
        for u in rng.sample(base, k):
            if all(x in adj[u] for x in clique):
                clique.append(u)
        if rng.random() < 0.9 and anchor not in clique:
            clique.append(anchor)
        adj[v] = set()
        for u in clique:
            adj[u].add(v)
            adj[v].add(u)
    edges = sorted(
        (u, w) for u in ids for w in adj[u] if u < w
    )
    return racg(ids, edges)


# ---------------------------------------------------------------------------
# a DOT writer for the subset the package reads: every ID quoted, with
# \" the only escape, so an ID that ends in a backslash or holds one
# before a quote cannot be written.


def dot_quote(text: str) -> str:
    if text.endswith("\\") or '\\"' in text:
        raise ValueError(f"{text!r} cannot be quoted in the DOT subset")
    return '"' + text.replace('"', '\\"') + '"'


def dot_document(G: LabeledGraph, flavor: str | None = None) -> str:
    """G as a DOT document: the flavor statement if given, one vertex
    statement per vertex in order with its group, then one edge
    statement per edge with its label."""
    lines = ["graph {"]
    if flavor is not None:
        lines.append(f"  flavor={dot_quote(flavor)};")
    for v, g in zip(G.vertices, G.groups):
        lines.append(f"  {dot_quote(v)} [group={dot_quote(str(g))}];")
    for u, v, m in G.edge_list():
        lines.append(f"  {dot_quote(u)} -- {dot_quote(v)} [label={m}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the DOT reader as the package had it before its tokens became tuples: a
# frozen token object per token, the statement splitter and the statement
# rules, kept verbatim as the reference for the differential test.  It calls
# the package's own _flavored_graph and AbelianGroupLabel.parse.


# One token of the DOT subset, at each position the first of: whitespace
# or a comment (skipped), a quoted string with \" escapes, an identifier
# or numeral, the edge operator, one punctuation character, or any other
# character, which no statement accepts.
_DOT_TOKEN = re.compile(
    r'(?P<skip>\s+|//[^\n]*|#[^\n]*|/\*.*?\*/)'
    r'|(?P<quoted>"(?:[^"\\]|\\.)*")'
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*|-?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?))"
    r"|(?P<op>--|[;\[\]=,{}])"
    r"|(?P<other>.)",
    re.DOTALL,
)


@dataclass(frozen=True)
class _DotToken:
    kind: str  # quoted, id, op or other
    text: str
    start: int
    end: int

    @property
    def is_id(self) -> bool:
        return self.kind in ("id", "quoted")

    def value(self) -> str:
        """The ID a quoted string or identifier stands for."""
        if self.kind == "quoted":
            return self.text[1:-1].replace('\\"', '"')
        return self.text

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "id" and self.text == text


def _dot_tokens(text: str) -> list[_DotToken]:
    return [
        _DotToken(m.lastgroup, m.group(), m.start(), m.end())
        for m in _DOT_TOKEN.finditer(text)
        if m.lastgroup != "skip"
    ]


def _dot_attrs(
    tokens: Sequence[_DotToken], text: str, kind: str, allowed: Iterable[str]
) -> dict[str, str]:
    """The ``ID = ID`` pairs, each with an optional comma or semicolon,
    of the attribute list ``tokens`` (whose source is ``text``), each
    key one of ``allowed``."""
    attrs = {}
    k = 0
    while k < len(tokens):
        pair = tokens[k : k + 3]
        if len(pair) < 3 or not (pair[0].is_id and pair[1].is_op("=") and pair[2].is_id):
            raise GraphValidationError(f"malformed attribute list [{text.strip()}]")
        attrs[pair[0].value()] = pair[2].value()
        k += 3
        if k < len(tokens) and (tokens[k].is_op(",") or tokens[k].is_op(";")):
            k += 1
    extra = set(attrs) - set(allowed)
    if extra:
        raise GraphValidationError(f"unknown {kind} attributes: {sorted(extra)}")
    return attrs


def _dot_statements(
    text: str,
) -> Iterator[tuple[list[_DotToken], Optional[list[_DotToken]], str, str]]:
    """``(head, attrs, attr_text, source)`` for each statement of a DOT
    document's body: its tokens before a trailing attribute list, that
    list's tokens (None without a list) and source, and the statement's
    source.

    Outside an attribute list a statement ends at a ``;`` or, as the
    ``;`` is optional in DOT, where the next one can only start: at a
    line break between an ID or ``]`` and an ID.  So ``a b`` on one
    line stays one malformed statement, a line break before ``--``,
    ``=`` or ``[`` continues the statement, and only the end of the
    body ends an unclosed ``[``, as a malformed statement."""
    tokens = _dot_tokens(text)
    # The header: [strict] graph [ID] {
    k = 1 if tokens and tokens[0].is_keyword("strict") else 0
    is_graph = k < len(tokens) and tokens[k].is_keyword("graph")
    k += 1
    if k < len(tokens) and tokens[k].is_id:
        k += 1
    if not (is_graph and k < len(tokens) and tokens[k].is_op("{")):
        raise GraphValidationError(
            "unrecognized document: expected JSON or 'graph ... { ... }'"
        )
    if not tokens[-1].is_op("}"):
        raise GraphValidationError("DOT document does not end with '}'")
    stmt: list[_DotToken] = []
    depth = 0
    end = _DotToken("op", ";", 0, 0)
    for tok in tokens[k + 1 : -1] + [end]:
        line_break = (
            depth == 0
            and tok.is_id
            and bool(stmt)
            and (stmt[-1].is_id or stmt[-1].is_op("]"))
            and "\n" in text[stmt[-1].end : tok.start]
        )
        if not (tok is end or (depth == 0 and tok.is_op(";")) or line_break):
            depth = max(depth + tok.is_op("[") - tok.is_op("]"), 0)
            stmt.append(tok)
            continue
        if not stmt:
            continue
        source = text[stmt[0].start : stmt[-1].end]
        head, attrs, attr_text = stmt, None, ""
        if stmt[-1].is_op("]"):
            opening = max((i for i, t in enumerate(stmt) if t.is_op("[")), default=None)
            if opening is not None:
                head, attrs = stmt[:opening], stmt[opening + 1 : -1]
                attr_text = text[stmt[opening].end : stmt[-1].start]
        if any(t.is_op("[") or t.is_op("]") for t in head):
            raise GraphValidationError(f"malformed statement {source!r}")
        yield head, attrs, attr_text, source
        stmt = [tok] if line_break else []


def reference_parse_dot(text: str) -> LabeledGraph:
    flavor = None
    declared: dict[str, AbelianGroupLabel | None] = {}
    vertex_order: list[str] = []
    edge_items: list[tuple[str, str, int]] = []

    def note_vertex(vid: str, group: AbelianGroupLabel | None) -> None:
        if vid not in declared:
            declared[vid] = group
            vertex_order.append(vid)
        elif group is not None:
            if declared[vid] is not None and declared[vid] != group:
                raise GraphValidationError(f"vertex {vid!r} declared with two groups")
            declared[vid] = group

    for head, attr_tokens, attr_text, source in _dot_statements(text):
        listed = attr_tokens is not None
        attr_tokens = attr_tokens or []
        if len(head) == 1 and head[0].is_keyword("graph"):
            flavor = _dot_attrs(attr_tokens, attr_text, "graph", ("flavor",)).get("flavor", flavor)
            continue
        if len(head) == 1 and (head[0].is_keyword("node") or head[0].is_keyword("edge")):
            if attr_tokens:
                raise GraphValidationError(f"{head[0].text} default attributes are not supported")
            continue
        if len(head) == 3 and not listed and head[0].is_id and head[1].is_op("=") and head[2].is_id:
            name = head[0].value()
            if name != "flavor":
                raise GraphValidationError(f"unknown graph attribute {name!r}")
            flavor = head[2].value()
            continue
        ids, ops = head[::2], head[1::2]
        if not (len(head) % 2 and all(t.is_id for t in ids) and all(t.is_op("--") for t in ops)):
            raise GraphValidationError(f"malformed statement {source!r}")
        chain = [t.value() for t in ids]
        if len(chain) == 1:
            attrs = _dot_attrs(attr_tokens, attr_text, "vertex", ("group",))
            group = AbelianGroupLabel.parse(attrs["group"]) if "group" in attrs else None
            note_vertex(chain[0], group)
        else:
            label = 2
            attrs = _dot_attrs(attr_tokens, attr_text, "edge", ("label",))
            if "label" in attrs:
                try:
                    label = int(attrs["label"])
                except ValueError:
                    raise GraphValidationError(
                        f"edge label must be an integer, got {attrs['label']!r}"
                    ) from None
            for vid in chain:
                note_vertex(vid, None)
            for u, v in zip(chain, chain[1:]):
                edge_items.append((u, v, label))

    return _flavored_graph(flavor, [(vid, declared[vid]) for vid in vertex_order], edge_items)


# ---------------------------------------------------------------------------
# concrete reflection-group models: orders computed by BFS closure over
# actual permutation-like elements, nothing shared with the package.


def _closure_order(generators, compose, identity) -> int:
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in generators:
                h = compose(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def symmetric_group_order(n_gens: int) -> int:
    """Order of the group generated by adjacent transpositions of
    n_gens + 1 points, acting on tuples."""

    size = n_gens + 1
    identity = tuple(range(size))

    def transposition(i):
        p = list(range(size))
        p[i], p[i + 1] = p[i + 1], p[i]
        return tuple(p)

    gens = [transposition(i) for i in range(n_gens)]
    compose = lambda a, b: tuple(a[b[i]] for i in range(size))
    return _closure_order(gens, compose, identity)


def signed_permutation_order(n: int) -> int:
    """Order of the signed permutation group on n coordinates, generated
    by adjacent swaps plus a sign flip on the last coordinate."""

    identity = tuple(range(1, n + 1))
    gens = []
    for i in range(n - 1):
        p = list(range(1, n + 1))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    flip = list(range(1, n + 1))
    flip[-1] = -flip[-1]
    gens.append(tuple(flip))

    def compose(a, b):
        out = []
        for i in range(n):
            v = b[i]
            w = a[abs(v) - 1]
            out.append(w if v > 0 else -w)
        return tuple(out)

    return _closure_order(gens, compose, identity)


def even_signed_permutation_order(n: int) -> int:
    """Like the signed model but the extra generator flips two signs,
    keeping the sign-change count even."""

    identity = tuple(range(1, n + 1))
    gens = []
    for i in range(n - 1):
        p = list(range(1, n + 1))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    extra = list(range(1, n + 1))
    extra[n - 2], extra[n - 1] = -extra[n - 1], -extra[n - 2]
    gens.append(tuple(extra))

    def compose(a, b):
        out = []
        for i in range(n):
            v = b[i]
            w = a[abs(v) - 1]
            out.append(w if v > 0 else -w)
        return tuple(out)

    return _closure_order(gens, compose, identity)


def dihedral_order(m: int) -> int:
    """Order of the group generated by two reflections of a regular
    m-gon, modeled as maps k -> (a - k) mod 2m on half-vertices."""

    # reflection through axis a: k -> (a - k) mod 2m; compose as affine maps
    identity = (1, 0)          # (sign, shift): k -> sign*k + shift mod 2m
    r1 = (-1, 0)
    r2 = (-1, 2)
    mod = 2 * m

    def compose(a, b):
        # apply b first, then a
        sa, ta = a
        sb, tb = b
        return (sa * sb, (sa * tb + ta) % mod)

    return _closure_order([r1, r2], compose, identity)


# ---------------------------------------------------------------------------
# the kind of a connected Coxeter diagram by one float elimination of its
# cosine matrix.  The package types components by its template table and the
# classification theorem alone; this is the oracle the table is checked
# against.

# Pivots within EIG_TOL of 0 count as zero in :func:`diagram_kind`.
EIG_TOL = 1e-9


def diagram_kind(r: int, labels: Sequence[tuple[int, int, int]]) -> str:
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


# ---------------------------------------------------------------------------
# named graphs used across test modules.


def complete_bipartite_racg() -> LabeledGraph:
    sides = ("a", "b", "c"), ("d", "e", "f")
    return racg(list(sides[0] + sides[1]), [(u, v) for u in sides[0] for v in sides[1]])


def cycle_racg(n: int) -> LabeledGraph:
    ids = [f"v{i}" for i in range(n)]
    return racg(ids, cycle_edges(ids))


def cycle_graph_product(n: int, group: AbelianGroupLabel) -> LabeledGraph:
    ids = [f"v{i}" for i in range(n)]
    return graph_product_graph([(v, group) for v in ids], cycle_edges(ids))


def heavy_square_edges() -> list[tuple[str, str, int]]:
    # complete graph on four corners, a path of label-3 edges along
    # bottom-right-top, everything else label 2
    return [
        ("bl", "br", 3),
        ("br", "tr", 3),
        ("tr", "tl", 3),
        ("bl", "tl", 2),
        ("bl", "tr", 2),
        ("br", "tl", 2),
    ]


def braid_like_artin_k4() -> LabeledGraph:
    return artin_graph(["bl", "br", "tl", "tr"], heavy_square_edges())


def symmetric_coxeter_k4() -> LabeledGraph:
    return coxeter_graph(["bl", "br", "tl", "tr"], heavy_square_edges())


def triangle_coxeter_333() -> LabeledGraph:
    return coxeter_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])


def prism_racg() -> LabeledGraph:
    ids = ["a1", "a2", "a3", "b1", "b2", "b3"]
    edges = [
        ("a1", "a2"), ("a2", "a3"), ("a1", "a3"),
        ("b1", "b2"), ("b2", "b3"), ("b1", "b3"),
        ("a1", "b1"), ("a2", "b2"), ("a3", "b3"),
    ]
    return racg(ids, edges)


def path_racg(n: int) -> LabeledGraph:
    ids = [f"v{i}" for i in range(n)]
    return racg(ids, path_edges(ids))


def path_raag(ids: list[str]) -> LabeledGraph:
    return raag(ids, path_edges(ids))


def diamond_racg() -> LabeledGraph:
    # complete graph on four vertices minus the bottom-top edge
    return racg(
        ["bottom", "left", "right", "top"],
        [
            ("bottom", "left"),
            ("bottom", "right"),
            ("left", "right"),
            ("left", "top"),
            ("right", "top"),
        ],
    )
