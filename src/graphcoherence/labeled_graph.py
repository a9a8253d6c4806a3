"""Vertex-edge-labeled simplicial graphs and their structure theory.

A graph here carries a finitely generated abelian group on every vertex
and an integer label >= 2 on every edge.  This module owns the data
model, the two input formats (a JSON document and a small DOT subset,
whose tokens are plain tuples), chordality testing with self-verifying
evidence (one LexBFS pass on the adjacency bitsets gives the elimination
ordering or the cycle; the verifiers read its vertex ids through
:func:`listed_positions`), coarse shape
classification, join-factor decomposition, and a canonical form that is
invariant under label-preserving isomorphism, with the one key codec:
the key writer :func:`positional_key` and its reader
:func:`graph_from_key`.

It is also the one graph core.  Vertex sets can be int bitmasks over
vertex positions (:func:`vertex_mask`, :func:`mask_vertices`, and
:func:`mask_positions` to step through one); every graph carries its
adjacency bitsets (``LabeledGraph.adjacency_masks``, built on first
use), :func:`label_two_masks` builds those of its label-2 edges, and
:func:`mask_components` is the one components walk for one-off calls,
used for graph components, join factors, clique-separator checks and
the dirac split; the separator search grows its components from its
own neighbourhood tables.  :func:`listed_positions` is the one reader
of a stored id array: evidence checks take positions from it, and it
refuses a non-array, an unknown id and a repeated one.
:func:`substructure` reads the groups and edges a graph induces on
vertex positions in a given order, with no graph built; canonical keys,
diagram components and memo lookups read edges through it.
:func:`induced_as_listed`, built on it, is the one builder of a graph in
a given vertex order, for induced subgraphs, reorderings, canonical
representatives and verified proof nodes.  The
components of a Coxeter group's standard diagram are the join factors
of its all-Z2 graph.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence


class GraphValidationError(ValueError):
    """Raised when a graph document or construction is malformed."""


class RepeatedVertexError(GraphValidationError):
    """Raised by :func:`listed_positions` when an id array lists a vertex
    twice."""


class VertexCapError(ValueError):
    """Raised when a canonical form is requested above the vertex cap."""


class InternalInvariantError(RuntimeError):
    """A self-check that must hold by theory failed; indicates a bug."""


# Default ceiling for canonical forms.  Callers may raise it, but the
# search-based classification never does.
DEFAULT_VERTEX_CAP = 12


@dataclass(frozen=True, order=True)
class AbelianGroupLabel:
    """A finitely generated abelian group in invariant factor form.

    ``rank`` counts infinite cyclic factors.  ``torsion`` lists the
    invariant factors d1 | d2 | ... | dk, each at least 2.  The trivial
    group is not allowed as a vertex label.
    """

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or self.rank < 0:
            raise GraphValidationError("group rank must be a nonnegative integer")
        if self.rank == 0 and not self.torsion:
            raise GraphValidationError("vertex groups must be nontrivial")
        for d in self.torsion:
            if not isinstance(d, int) or d < 2:
                raise GraphValidationError(
                    "torsion invariant factors must be integers >= 2"
                )
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise GraphValidationError(
                    "torsion invariants must form a divisibility chain"
                )
        # Kept outside the fields, so eq, order and repr ignore it;
        # canonical labeling reads it once per vertex per call.
        object.__setattr__(self, "_key", f"{self.rank}|{','.join(map(str, self.torsion))}")

    def __hash__(self) -> int:
        # ``_key`` names (rank, torsion) one to one, so this agrees with
        # eq; a str caches its hash, so each label is hashed once.
        return hash(self._key)

    @property
    def is_infinite(self) -> bool:
        return self.rank > 0

    @property
    def is_infinite_cyclic(self) -> bool:
        return self.rank == 1 and not self.torsion

    @property
    def is_order_two(self) -> bool:
        return self.rank == 0 and self.torsion == (2,)

    def order(self) -> float:
        """Group order; ``math.inf`` when the rank is positive."""
        if self.rank > 0:
            return math.inf
        return math.prod(self.torsion)

    def factor_count(self) -> int:
        """Number of cyclic factors, i.e. generators in the presentation."""
        return self.rank + len(self.torsion)

    def key(self) -> str:
        """Compact stable encoding used inside canonical keys."""
        return self._key

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z_{d}" for d in self.torsion)
        return " x ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "AbelianGroupLabel":
        """Parse the short forms used by the DOT subset.

        Accepts ``Z``, ``Z^r``, ``Z_d`` and the bare ``Zd`` shorthand
        (e.g. ``Z2``).  Products are only expressible in the JSON format.
        """
        s = text.strip()
        if s == "Z":
            return cls(rank=1)
        m = re.fullmatch(r"Z(\^|_?)(\d+)", s)
        if not m:
            raise GraphValidationError(f"cannot parse group label {text!r}")
        try:
            k = int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise GraphValidationError("group label has an integer too long to read") from None
        return cls(rank=k) if m.group(1) == "^" else cls(torsion=(k,))

    @classmethod
    def from_jsonable(cls, obj: object) -> "AbelianGroupLabel":
        """An object ``{"rank": r, "torsion": [...]}`` or one of the
        short strings :meth:`parse` accepts."""
        if isinstance(obj, str):
            return cls.parse(obj)
        if not isinstance(obj, dict):
            raise GraphValidationError("vertex group must be a string or an object")
        extra = set(obj) - {"rank", "torsion"}
        if extra:
            raise GraphValidationError(f"unknown group fields: {sorted(extra)}")
        rank = obj.get("rank", 0)
        torsion = obj.get("torsion", [])
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise GraphValidationError("group rank must be an integer")
        if not isinstance(torsion, list):
            raise GraphValidationError("group torsion must be a list")
        return cls(rank=rank, torsion=tuple(torsion))

    def to_jsonable(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


Z = AbelianGroupLabel(rank=1)
Z2 = AbelianGroupLabel(torsion=(2,))


def cyclic(n: int) -> AbelianGroupLabel:
    """The cyclic group of order n (n >= 2)."""
    return AbelianGroupLabel(torsion=(n,))


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable simplicial graph with group-labeled vertices and
    integer-labeled edges.

    ``vertices`` fixes the ambient vertex order used by every
    deterministic scan.  ``edges`` stores (i, j, label) index triples
    with i < j, sorted.  Construct through :meth:`build`; the raw
    constructor expects already-normalized tuples.
    """

    vertices: tuple[str, ...]
    groups: tuple[AbelianGroupLabel, ...]
    edges: tuple[tuple[int, int, int], ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)
    _adj: tuple = field(init=False, repr=False, compare=False, hash=False)
    _masks: Optional[tuple] = field(init=False, repr=False, compare=False, hash=False)
    _flavor: Optional["Flavor"] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        index = {v: i for i, v in enumerate(self.vertices)}
        adj: list[dict[int, int]] = [dict() for _ in self.vertices]
        for i, j, m in self.edges:
            adj[i][j] = m
            adj[j][i] = m
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "_masks", None)
        object.__setattr__(self, "_flavor", None)

    def __hash__(self) -> int:
        return hash((self.vertices, self.groups, self.edges))

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Adjacency bitsets: bit j of entry i is set iff vertices i and
        j (by position) are adjacent.  Built on first use and kept, since
        most graphs (census candidates, memo hits) never need them."""
        masks = self._masks
        if masks is None:
            adj = [0] * self.n
            for i, j, _ in self.edges:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            masks = tuple(adj)
            object.__setattr__(self, "_masks", masks)
        return masks

    @classmethod
    def build(
        cls,
        vertex_items: Iterable[tuple[str, AbelianGroupLabel]],
        edge_items: Iterable[tuple[str, str, int]] = (),
    ) -> "LabeledGraph":
        """Validating constructor from (id, group) and (u, v, label) items."""
        items = list(vertex_items)
        if not items:
            raise GraphValidationError("graph must have at least one vertex")
        ids = [v for v, _ in items]
        if len(set(ids)) != len(ids):
            dup = next(v for v in ids if ids.count(v) > 1)
            raise GraphValidationError(f"duplicate vertex id {dup!r}")
        for v, g in items:
            if not isinstance(v, str) or not v:
                raise GraphValidationError(f"vertex id must be a nonempty string, got {v!r}")
            if not isinstance(g, AbelianGroupLabel):
                raise GraphValidationError(f"vertex {v!r} has no group label")
        index = {v: i for i, v in enumerate(ids)}
        seen: set[tuple[int, int]] = set()
        edges: list[tuple[int, int, int]] = []
        for u, v, m in edge_items:
            if u not in index or v not in index:
                missing = u if u not in index else v
                raise GraphValidationError(f"edge endpoint {missing!r} is not a vertex")
            if u == v:
                raise GraphValidationError(f"self-loop at {u!r}")
            if not isinstance(m, int) or isinstance(m, bool) or m < 2:
                raise GraphValidationError(
                    f"edge {u!r}--{v!r} label must be an integer >= 2, got {m!r}"
                )
            i, j = sorted((index[u], index[v]))
            if (i, j) in seen:
                raise GraphValidationError(f"duplicate edge {u!r}--{v!r}")
            seen.add((i, j))
            edges.append((i, j, m))
        return cls(
            vertices=tuple(ids),
            groups=tuple(g for _, g in items),
            edges=tuple(sorted(edges)),
        )

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphValidationError(f"unknown vertex {v!r}") from None

    def group(self, v: str) -> AbelianGroupLabel:
        return self.groups[self.index(v)]

    def has_edge(self, u: str, v: str) -> bool:
        return self._index.get(v, -1) in self._adj[self.index(u)]

    def edge_label(self, u: str, v: str) -> Optional[int]:
        return self._adj[self.index(u)].get(self.index(v))

    def neighbors(self, v: str) -> tuple[str, ...]:
        i = self.index(v)
        return tuple(self.vertices[j] for j in sorted(self._adj[i]))

    def degree(self, v: str) -> int:
        return len(self._adj[self.index(v)])

    def edge_list(self) -> Iterator[tuple[str, str, int]]:
        for i, j, m in self.edges:
            yield self.vertices[i], self.vertices[j], m

    # -- derived structure ------------------------------------------------

    def induced(self, subset: Iterable[str]) -> "LabeledGraph":
        """Induced subgraph on ``subset``, keeping the ambient vertex order."""
        return induced_as_listed(self, sorted({self.index(v) for v in subset}))

    def relabeled(self, mapping: dict[str, str]) -> "LabeledGraph":
        """Rename vertex ids, keeping order and structure."""
        new_ids = tuple(mapping.get(v, v) for v in self.vertices)
        if len(set(new_ids)) != len(new_ids):
            raise GraphValidationError("relabeling collides vertex ids")
        return LabeledGraph(vertices=new_ids, groups=self.groups, edges=self.edges)

    def permuted(self, order: Sequence[str]) -> "LabeledGraph":
        """The same graph with its ambient vertex order changed."""
        if sorted(order) != sorted(self.vertices) or len(order) != self.n:
            raise GraphValidationError("permutation must list every vertex once")
        return induced_as_listed(self, [self.index(v) for v in order], tuple(order))

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components, each in ambient vertex order, ordered by
        smallest vertex position."""
        full = (1 << self.n) - 1
        return tuple(
            mask_vertices(self, c) for c in mask_components(self.adjacency_masks, full)
        )

    def is_connected(self) -> bool:
        return len(mask_components(self.adjacency_masks, (1 << self.n) - 1)) == 1

    def nonadjacent_pairs(self) -> Iterator[tuple[str, str]]:
        for i, j in itertools.combinations(range(self.n), 2):
            if j not in self._adj[i]:
                yield self.vertices[i], self.vertices[j]


# -- flavor detection ------------------------------------------------------


@dataclass(frozen=True)
class Flavor:
    """Which group constructions the labels of a graph support.

    ``graph_product`` means every edge label is 2; ``artin`` means every
    vertex group is infinite cyclic; ``coxeter`` means every vertex
    group has order 2.  A right-angled Artin (Coxeter) graph is an Artin
    (Coxeter) graph that is also a graph product.
    """

    graph_product: bool
    artin: bool
    coxeter: bool

    @property
    def raag(self) -> bool:
        return self.graph_product and self.artin

    @property
    def racg(self) -> bool:
        return self.graph_product and self.coxeter

    @property
    def any(self) -> bool:
        return self.graph_product or self.artin or self.coxeter

    def tags(self) -> tuple[str, ...]:
        out = []
        if self.graph_product:
            out.append("graph_product")
        if self.artin:
            out.append("artin")
        if self.coxeter:
            out.append("coxeter")
        return tuple(out)


# The eight flavors, by (graph_product, artin, coxeter), made once.
_FLAVORS = {bits: Flavor(*bits) for bits in itertools.product((False, True), repeat=3)}


def detect_flavor(G: LabeledGraph) -> Flavor:
    """The flavor of ``G``, computed on first use and kept on the graph
    like its adjacency bitsets."""
    flavor = G._flavor
    if flavor is None:
        groups = G.groups
        flavor = _FLAVORS[
            all(m == 2 for _, _, m in G.edges),
            all(g.is_infinite_cyclic for g in groups),
            all(g.is_order_two for g in groups),
        ]
        object.__setattr__(G, "_flavor", flavor)
    return flavor


# -- convenience builders ---------------------------------------------------


def _auto_ids(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def coxeter_graph(
    n_or_ids, edge_items: Iterable[tuple[str, str, int]] = ()
) -> LabeledGraph:
    """All-Z2 graph; edges may carry any labels."""
    ids = _auto_ids(n_or_ids) if isinstance(n_or_ids, int) else list(n_or_ids)
    return LabeledGraph.build([(v, Z2) for v in ids], edge_items)


def artin_graph(
    n_or_ids, edge_items: Iterable[tuple[str, str, int]] = ()
) -> LabeledGraph:
    """All-Z graph; edges may carry any labels."""
    ids = _auto_ids(n_or_ids) if isinstance(n_or_ids, int) else list(n_or_ids)
    return LabeledGraph.build([(v, Z) for v in ids], edge_items)


def graph_product_graph(
    vertex_items: Iterable[tuple[str, AbelianGroupLabel]],
    edge_pairs: Iterable[tuple[str, str]] = (),
) -> LabeledGraph:
    """Arbitrary vertex groups; every edge labeled 2."""
    return LabeledGraph.build(vertex_items, [(u, v, 2) for u, v in edge_pairs])


def racg(n_or_ids, edge_pairs: Iterable[tuple[str, str]] = ()) -> LabeledGraph:
    ids = _auto_ids(n_or_ids) if isinstance(n_or_ids, int) else list(n_or_ids)
    return LabeledGraph.build([(v, Z2) for v in ids], [(u, v, 2) for u, v in edge_pairs])


def raag(n_or_ids, edge_pairs: Iterable[tuple[str, str]] = ()) -> LabeledGraph:
    ids = _auto_ids(n_or_ids) if isinstance(n_or_ids, int) else list(n_or_ids)
    return LabeledGraph.build([(v, Z) for v in ids], [(u, v, 2) for u, v in edge_pairs])


def cycle_edges(ids: Sequence[str]) -> list[tuple[str, str]]:
    return [(ids[i], ids[(i + 1) % len(ids)]) for i in range(len(ids))]


def path_edges(ids: Sequence[str]) -> list[tuple[str, str]]:
    return [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]


def complete_edges(ids: Sequence[str]) -> list[tuple[str, str]]:
    return list(itertools.combinations(ids, 2))


# -- parsing ----------------------------------------------------------------

_FLAVOR_DEFAULTS = {
    "artin": Z,
    "coxeter": Z2,
    "raag": Z,
    "racg": Z2,
    "graph_product": None,
}


def parse_graph(text: str) -> LabeledGraph:
    """Parse a JSON or DOT graph document.

    The format is detected from the first nonblank character: ``{`` or
    ``[`` starts JSON, anything else must be the DOT subset.  Byte-order
    marks are rejected rather than skipped.
    """
    if text.startswith("\ufeff"):
        raise GraphValidationError("document starts with a byte-order mark")
    stripped = text.lstrip()
    if not stripped:
        raise GraphValidationError("empty graph document")
    if stripped[0] in "{[":
        return _parse_json(text)
    return _parse_dot(text)


def _parse_json(text: str) -> LabeledGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphValidationError(f"invalid JSON: {e}") from None
    except ValueError:  # an integer with more digits than int() converts
        raise GraphValidationError("invalid JSON: an integer too long to read") from None
    except RecursionError:
        raise GraphValidationError("invalid JSON: nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise GraphValidationError("top-level JSON value must be an object")
    extra = set(doc) - {"flavor", "vertices", "edges"}
    if extra:
        raise GraphValidationError(f"unknown top-level fields: {sorted(extra)}")
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise GraphValidationError("'vertices' must be a nonempty list")
    vertex_items = []
    for entry in raw_vertices:
        if not isinstance(entry, dict):
            raise GraphValidationError("each vertex must be an object")
        if "id" not in entry:
            raise GraphValidationError("vertex entry missing 'id'")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise GraphValidationError(f"vertex id must be a string, got {vid!r}")
        extra = set(entry) - {"id", "group"}
        if extra:
            raise GraphValidationError(f"unknown vertex fields: {sorted(extra)}")
        group = AbelianGroupLabel.from_jsonable(entry["group"]) if "group" in entry else None
        vertex_items.append((vid, group))

    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphValidationError("'edges' must be a list")
    edge_items = []
    for entry in raw_edges:
        if not isinstance(entry, dict):
            raise GraphValidationError("each edge must be an object")
        extra = set(entry) - {"u", "v", "label"}
        if extra:
            raise GraphValidationError(f"unknown edge fields: {sorted(extra)}")
        if "u" not in entry or "v" not in entry:
            raise GraphValidationError("edge entry missing 'u' or 'v'")
        if not isinstance(entry["u"], str) or not isinstance(entry["v"], str):
            raise GraphValidationError(
                f"edge endpoints must be vertex ids, got {entry['u']!r} and {entry['v']!r}"
            )
        label = entry.get("label", 2)
        edge_items.append((entry["u"], entry["v"], label))
    return _flavored_graph(doc.get("flavor"), vertex_items, edge_items)


# One token of the DOT subset, at each position the first of: whitespace
# or a comment (skipped), a quoted string with \" escapes, an identifier
# or numeral, the edge operator, one punctuation character, or any other
# character, which no statement accepts.
_DOT_TOKEN = re.compile(
    r'(?P<skip>\s+|//[^\n]*|#[^\n]*|/\*.*?\*/)'
    r'|"(?P<quoted>(?:[^"\\]|\\.)*)"'
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*|-?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?))"
    r"|(?P<op>--|[;\[\]=,{}])"
    r"|(?P<other>.)",
    re.DOTALL,
)

_DOT_IDS = ("id", "quoted")
# The token kinds of an ``ID = ID`` pair.
_DOT_PAIRS = {(a, "=", b) for a in _DOT_IDS for b in _DOT_IDS}


def _dot_attrs(
    tokens: Sequence[tuple], text: str, kind: str, allowed: Iterable[str]
) -> dict[str, str]:
    """The ``ID = ID`` pairs, each with an optional comma or semicolon,
    of the attribute list ``tokens`` (whose source is ``text``), each
    key one of ``allowed``."""
    attrs = {}
    k = 0
    while k < len(tokens):
        pair = tokens[k : k + 3]
        if tuple(t[0] for t in pair) not in _DOT_PAIRS:
            raise GraphValidationError(f"malformed attribute list [{text.strip()}]")
        attrs[pair[0][1]] = pair[2][1]
        k += 3
        if k < len(tokens) and tokens[k][0] in (",", ";"):
            k += 1
    extra = set(attrs) - set(allowed)
    if extra:
        raise GraphValidationError(f"unknown {kind} attributes: {sorted(extra)}")
    return attrs


def _dot_statements(text: str) -> Iterator[tuple[list[tuple], Optional[list[tuple]], str, str]]:
    """``(head, attrs, attr_text, source)`` for each statement of a DOT
    document's body: its tokens before a trailing attribute list, that
    list's tokens (None without a list) and source, and the statement's
    source.

    A token is a tuple ``(kind, value, start, end)`` locating its text:
    ``kind`` is ``id``, ``quoted``, an operator's own text or ``other``,
    and ``value`` is the text, unquoted for a quoted ID, each \\" a quote.

    Outside an attribute list a statement ends at a ``;`` or, as the
    ``;`` is optional in DOT, where the next one can only start: at a
    line break between an ID or ``]`` and an ID.  So ``a b`` on one
    line stays one malformed statement, a line break before ``--``,
    ``=`` or ``[`` continues the statement, and only the end of the
    body ends an unclosed ``[``, as a malformed statement."""
    tokens = []
    for m in _DOT_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "quoted":
            tokens.append((kind, m.group(kind).replace('\\"', '"'), m.start(), m.end()))
        elif kind != "skip":
            tokens.append((m.group() if kind == "op" else kind, m.group(), m.start(), m.end()))
    # The header: [strict] graph [ID] {
    k = 1 if tokens and tokens[0][:2] == ("id", "strict") else 0
    is_graph = k < len(tokens) and tokens[k][:2] == ("id", "graph")
    k += 1
    if k < len(tokens) and tokens[k][0] in _DOT_IDS:
        k += 1
    if not (is_graph and k < len(tokens) and tokens[k][0] == "{"):
        raise GraphValidationError(
            "unrecognized document: expected JSON or 'graph ... { ... }'"
        )
    if tokens[-1][0] != "}":
        raise GraphValidationError("DOT document does not end with '}'")
    stmt: list[tuple] = []
    depth = 0
    # The body's tokens, then an end marker of its own kind.
    for tok in tokens[k + 1 : -1] + [("end", "", 0, 0)]:
        kind = tok[0]
        line_break = (
            depth == 0
            and kind in _DOT_IDS
            and bool(stmt)
            and stmt[-1][0] in ("id", "quoted", "]")
            and "\n" in text[stmt[-1][3] : tok[2]]
        )
        if not (kind == "end" or (depth == 0 and kind == ";") or line_break):
            depth = max(depth + (kind == "[") - (kind == "]"), 0)
            stmt.append(tok)
            continue
        if not stmt:
            continue
        source = text[stmt[0][2] : stmt[-1][3]]
        head, attrs, attr_text = stmt, None, ""
        if stmt[-1][0] == "]":
            opening = max((i for i, t in enumerate(stmt) if t[0] == "["), default=None)
            if opening is not None:
                head, attrs = stmt[:opening], stmt[opening + 1 : -1]
                attr_text = text[stmt[opening][3] : stmt[-1][2]]
        if any(t[0] in ("[", "]") for t in head):
            raise GraphValidationError(f"malformed statement {source!r}")
        yield head, attrs, attr_text, source
        stmt = [tok] if line_break else []


def _parse_dot(text: str) -> LabeledGraph:
    flavor = None
    # Each vertex's group, None while undeclared, in order of first mention.
    declared: dict[str, AbelianGroupLabel | None] = {}
    edge_items: list[tuple[str, str, int]] = []
    for head, attr_tokens, attr_text, source in _dot_statements(text):
        kinds = tuple(t[0] for t in head)
        if attr_tokens is None and kinds in _DOT_PAIRS:
            name = head[0][1]
            if name != "flavor":
                raise GraphValidationError(f"unknown graph attribute {name!r}")
            flavor = head[2][1]
            continue
        attr_tokens = attr_tokens or []
        if len(head) == 1 and head[0][:2] == ("id", "graph"):
            flavor = _dot_attrs(attr_tokens, attr_text, "graph", ("flavor",)).get("flavor", flavor)
            continue
        if len(head) == 1 and head[0][:2] in (("id", "node"), ("id", "edge")):
            if attr_tokens:
                raise GraphValidationError(f"{head[0][1]} default attributes are not supported")
            continue
        ids, ops = kinds[::2], kinds[1::2]
        if not (len(head) % 2 and all(k in _DOT_IDS for k in ids) and all(k == "--" for k in ops)):
            raise GraphValidationError(f"malformed statement {source!r}")
        chain = [t[1] for t in head[::2]]
        if len(chain) == 1:
            attrs = _dot_attrs(attr_tokens, attr_text, "vertex", ("group",))
            group = AbelianGroupLabel.parse(attrs["group"]) if "group" in attrs else None
            if declared.get(chain[0]) is None:
                declared[chain[0]] = group
            elif group not in (None, declared[chain[0]]):
                raise GraphValidationError(f"vertex {chain[0]!r} declared with two groups")
        else:
            label = 2
            attrs = _dot_attrs(attr_tokens, attr_text, "edge", ("label",))
            if "label" in attrs:
                raw = attrs["label"]
                try:
                    label = int(raw)
                except ValueError:
                    # A long label is named by its length, so the error stays one short line.
                    got = repr(raw) if len(raw) <= 40 else f"a label of {len(raw)} characters"
                    raise GraphValidationError(
                        f"edge label must be an integer, got {got}"
                    ) from None
            for vid in chain:
                declared.setdefault(vid, None)
            for u, v in zip(chain, chain[1:]):
                edge_items.append((u, v, label))

    return _flavored_graph(flavor, list(declared.items()), edge_items)


def _flavored_graph(
    flavor: object,
    vertex_items: Sequence[tuple[str, Optional[AbelianGroupLabel]]],
    edge_items: Sequence[tuple[str, str, int]],
) -> LabeledGraph:
    """The graph of a parsed document under its ``flavor`` (None when it
    names none): the flavor must be known, it supplies the group of every
    vertex that declares none and must agree with every declared one, and
    the right-angled flavors allow label 2 only."""
    if flavor is not None and (not isinstance(flavor, str) or flavor not in _FLAVOR_DEFAULTS):
        raise GraphValidationError(
            f"unknown flavor {flavor!r}; expected one of {sorted(_FLAVOR_DEFAULTS)}"
        )
    default = _FLAVOR_DEFAULTS.get(flavor)
    groups = []
    for vid, g in vertex_items:
        if g is None:
            if default is None:
                raise GraphValidationError(
                    f"vertex {vid!r} has no group and no flavor supplies one"
                )
            g = default
        elif default is not None and g != default:
            raise GraphValidationError(
                f"vertex {vid!r} group {g} conflicts with flavor {flavor!r}"
            )
        groups.append((vid, g))
    G = LabeledGraph.build(groups, edge_items)
    if flavor in ("raag", "racg", "graph_product"):
        bad = next((e for e in G.edges if e[2] != 2), None)
        if bad is not None:
            u, v, m = bad
            raise GraphValidationError(
                f"flavor {flavor!r} requires label 2 on every edge, "
                f"got {m} on {G.vertices[u]!r}--{G.vertices[v]!r}"
            )
    return G


def graph_to_jsonable(G: LabeledGraph) -> dict:
    return {
        "vertices": [
            {"id": v, "group": g.to_jsonable()} for v, g in zip(G.vertices, G.groups)
        ],
        "edges": [{"u": u, "v": v, "label": m} for u, v, m in G.edge_list()],
    }


# -- chordality ---------------------------------------------------------------


@dataclass(frozen=True)
class ChordalityResult:
    """Outcome of a chordality test, carrying checkable evidence.

    Exactly one of ``peo`` (a perfect elimination ordering) and
    ``cycle`` (an induced chordless cycle of length >= 4) is set.
    """

    chordal: bool
    peo: Optional[tuple[str, ...]] = None
    cycle: Optional[tuple[str, ...]] = None

    def __bool__(self) -> bool:
        return self.chordal


def _lex_bfs_order(G: LabeledGraph) -> list[int]:
    """Lexicographic BFS visit order over vertex positions.

    Partition refinement on the adjacency bitsets: the next vertex is
    the lowest bit of the first part, and every part splits into its
    neighbours (kept in front) and the rest.
    """
    adj = G.adjacency_masks
    parts = [(1 << G.n) - 1]
    order: list[int] = []
    while parts:
        v = (parts[0] & -parts[0]).bit_length() - 1
        order.append(v)
        parts[0] ^= 1 << v
        parts = [half for part in parts for half in (part & adj[v], part & ~adj[v]) if half]
    return order


def verify_peo(G: LabeledGraph, peo: Sequence[str]) -> bool:
    """True iff ``peo`` is a perfect elimination ordering of G: an array
    listing every vertex once (read by :func:`listed_positions`), where
    at each vertex the neighbours later in the ordering form a clique.
    """
    try:
        order = listed_positions(G, peo)
    except GraphValidationError:
        return False
    rank = {p: r for r, p in enumerate(order)}
    adj = G._adj
    later = ([q for q in adj[p] if rank[q] > rank[p]] for p in order)
    return len(order) == G.n and all(
        b in adj[a] for ps in later for a, b in itertools.combinations(ps, 2)
    )


def is_induced_chordless_cycle(G: LabeledGraph, cycle: Sequence[str]) -> bool:
    """True iff ``cycle`` is an array of distinct vertex ids (read by
    :func:`listed_positions`) listing an induced cycle of length >= 4."""
    try:
        order = listed_positions(G, cycle)
    except GraphValidationError:
        return False
    k, on = len(order), set(order)
    return k >= 4 and all(
        on.intersection(G._adj[p]) == {order[i - 1], order[(i + 1) % k]}
        for i, p in enumerate(order)
    )


def _cycle_through(G: LabeledGraph, v: int, p: int, w: int) -> Optional[tuple[str, ...]]:
    """Chordless cycle v, p, ..., w for vertex positions v, p, w with p
    and w nonadjacent neighbours of v; None if no p--w path avoids
    N[v] - {p, w}.

    A shortest such path (neighbours taken lowest bit first) has no
    chords, and the avoidance rules out chords through v.  The cycle is
    returned in ids from its smallest position, toward the smaller of
    that vertex's two cycle neighbours.
    """
    adj = G.adjacency_masks
    reached = (adj[v] | 1 << v) & ~(1 << w) | 1 << p
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
        fresh = adj[x] & ~reached
        reached |= fresh
        for y in mask_positions(fresh):
            prev[y] = x
            queue.append(y)
    return None


def is_chordal(G: LabeledGraph) -> ChordalityResult:
    """Chordality with evidence: a perfect elimination ordering, or an
    induced chordless cycle of length >= 4.

    Uses lexicographic BFS (Rose, Tarjan & Lueker 1976): the reverse
    visit order is a perfect elimination ordering iff G is chordal.
    Vertex v passes if each neighbour w visited before it is adjacent to
    p, the last of them (Tarjan & Yannakakis 1984): the bitset
    ``earlier & ~adj[p]`` less p is empty.  At the last-visited w in it,
    ``_cycle_through(v, p, w)`` finds a cycle, by the lemma below
    with a = w, b = p and c = v.

    Lemma: in a LexBFS order let a < b < c, with ac an edge and ab not.
    Then some a--b path has its internal vertices before a and outside
    N(c).  Proof, by induction on a's place: when b was chosen its label
    was at least c's, so the first vertex d before b where N(b) and N(c)
    differ is in N(b) - N(c); d < a, as a is in N(c) - N(b), and before
    d the two agree.  If da is an edge, the path is a, d, b.  Otherwise d, a, b
    meet the hypothesis, so some d--a path has its internal vertices
    before d and outside N(b), hence outside N(c); extend it by db.

    ``_lex_bfs_order`` keeps its parts ordered as the labels are, so the
    lemma holds for its order.  The test runs on the adjacency bitsets, while
    ``verify_peo`` and ``is_induced_chordless_cycle`` check the evidence
    through ids.
    """
    visit = _lex_bfs_order(G)
    rank = {i: r for r, i in enumerate(visit)}.__getitem__
    adj = G.adjacency_masks
    before = (1 << G.n) - 1
    for v in reversed(visit):
        before ^= 1 << v
        earlier = adj[v] & before
        if not earlier:
            continue
        p = max(mask_positions(earlier), key=rank)
        missing = earlier & ~adj[p] & ~(1 << p)
        if missing:
            cycle = _cycle_through(G, v, p, max(mask_positions(missing), key=rank))
            if cycle is None:
                raise InternalInvariantError("non-chordal graph must contain a chordless cycle")
            return ChordalityResult(chordal=False, cycle=cycle)
    return ChordalityResult(chordal=True, peo=tuple(G.vertices[i] for i in reversed(visit)))


# -- shape classification -----------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """Coarse isomorphism-type tags ignoring labels.

    ``tag`` is one of complete, cycle, path, tree, discrete, other.  A
    single vertex is tagged complete.  ``length`` gives the edge count
    of a path or the vertex count of a cycle.
    """

    tag: str
    length: Optional[int] = None


def shape_classify(G: LabeledGraph) -> Shape:
    n, m = G.n, G.m
    if G.is_complete():
        return Shape(tag="complete")
    connected = G.is_connected()
    degrees = [G.degree(v) for v in G.vertices]
    if connected and n >= 3 and all(d == 2 for d in degrees):
        return Shape(tag="cycle", length=n)
    if connected and m == n - 1:
        if all(d <= 2 for d in degrees):
            return Shape(tag="path", length=m)
        return Shape(tag="tree")
    if m == 0:
        return Shape(tag="discrete")
    return Shape(tag="other")


# -- join factors -------------------------------------------------------------


def join_factors(G: LabeledGraph) -> tuple[tuple[str, ...], ...]:
    """Finest partition V = V1 | ... | Vk with every pair from different
    parts joined by a label-2 edge.

    The group then splits as the direct product of the part subgroups.
    Parts are the connected components of the non-commuting relation
    (nonadjacent, or adjacent with label >= 3), each in ambient vertex
    order, ordered by smallest vertex position.
    """
    full = (1 << G.n) - 1
    return tuple(mask_vertices(G, c) for c in mask_components(noncommuting_masks(G), full))


def noncommuting_masks(G: LabeledGraph) -> list[int]:
    """Bitsets of the non-commuting relation: bit j of entry i is set iff
    i != j and vertices i and j (by position) are not joined by a
    label-2 edge.  Its components are G's join factors."""
    full = (1 << G.n) - 1
    return [full & ~(two | 1 << i) for i, two in enumerate(label_two_masks(G))]


def label_two_masks(G: LabeledGraph) -> list[int]:
    """Label-2 neighbour bitsets: bit j of entry i is set iff vertices
    i and j (by position) are joined by a label-2 edge."""
    two = [0] * G.n
    for i, j, m in G.edges:
        if m == 2:
            two[i] |= 1 << j
            two[j] |= 1 << i
    return two


# -- vertex bitmasks ------------------------------------------------------------


def positions_mask(positions: Iterable[int]) -> int:
    """The bitmask of vertex positions; a repeated position counts
    once."""
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


def vertex_mask(G: LabeledGraph, vertices: Iterable[str]) -> int:
    """Bitmask of a vertex set over vertex positions; a repeated id
    counts once."""
    return positions_mask(map(G.index, vertices))


def listed_positions(G: LabeledGraph, ids) -> list[int]:
    """The positions of the vertices that a stored id array lists, in
    its order: the one reader of the id lists that evidence stores.

    Raises :class:`GraphValidationError` if ``ids`` is not a list or a
    tuple (so a string of one-character ids is refused), or lists an
    item that is not an id of G, and :class:`RepeatedVertexError` if it
    lists a vertex twice.  Each message completes a sentence whose
    subject names the list, as in "node lists a vertex twice"."""
    if not isinstance(ids, (list, tuple)):
        raise GraphValidationError("does not list vertex ids in an array")
    positions = [G._index.get(v, -1) if type(v) is str else -1 for v in ids]
    if -1 in positions:
        raise GraphValidationError(f"lists unknown vertex {ids[positions.index(-1)]!r}")
    if len(set(positions)) != len(positions):
        raise RepeatedVertexError("lists a vertex twice")
    return positions


def mask_vertices(G: LabeledGraph, mask: int) -> tuple[str, ...]:
    """The vertices of a bitmask, in ambient order."""
    return tuple(v for i, v in enumerate(G.vertices) if mask >> i & 1)


def mask_positions(mask: int) -> Iterator[int]:
    """The positions of a bitmask's members, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_components(adj: Sequence[int], avail: int) -> tuple[int, ...]:
    """Connected components of the subgraph induced on the bitmask
    ``avail`` by the adjacency bitsets ``adj``, as bitmasks ordered by
    smallest vertex position."""
    comps = []
    while avail:
        comp = frontier = avail & -avail
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & avail & ~comp
            comp |= frontier
        comps.append(comp)
        avail &= ~comp
    return tuple(comps)


# -- canonical form -----------------------------------------------------------


def _initial_colors(n: int, vkeys: Sequence[str], adj: Sequence[dict[int, int]]):
    sigs = [
        (vkeys[i], len(adj[i]), tuple(sorted(adj[i].values()))) for i in range(n)
    ]
    return _rank(sigs)


def _rank(sigs: list) -> list[int]:
    order = {s: c for c, s in enumerate(sorted(set(sigs)))}
    return [order[s] for s in sigs]


def _refine_colors(n: int, colors: list[int], adj: Sequence[dict[int, int]]):
    """Refine ranked colours until stable.  A round that splits no class
    returns ranks equal to its input, so the loop stops on the class
    count, and a discrete colouring needs no round."""
    classes = len(set(colors))
    while classes < n:
        # m * n + colour sorts as the pair (m, colour) does.
        sigs = [
            (colors[i], tuple(sorted([m * n + colors[j] for j, m in adj[i].items()])))
            for i in range(n)
        ]
        new = _rank(sigs)
        new_classes = max(new) + 1
        if new_classes == classes:
            return colors
        colors, classes = new, new_classes
    return colors


def _orbit_root(orbits: list[int], v: int) -> int:
    while orbits[v] != v:
        v = orbits[v]
    return v


def _join_orbits(orbits: list[int], perm: Sequence[int]) -> None:
    """Merge the cycles of the vertex permutation ``perm`` into the
    union-find forest ``orbits``, whose roots are the orbits' least
    vertices."""
    for a, b in enumerate(perm):
        if a != b:
            while orbits[a] != a:
                a = orbits[a]
            while orbits[b] != b:
                b = orbits[b]
            orbits[max(a, b)] = min(a, b)


def _canonical_order(
    n: int, vkeys: Sequence[str], adj: Sequence[dict[int, int]], group: bool = False
) -> tuple[tuple[int, ...], Optional[tuple[int, list[list[int]]]]]:
    """The canonical order of :func:`canonical_form`, the
    lexicographically smallest vertex order whose row sequence is
    lexicographically least, and with ``group`` the automorphism group,
    both found by :func:`_canonical_search`.

    Colour refinement orders the vertices as their vkeys do, so each row
    is kept as one int: the colour, then one base-``base`` digit per
    placed vertex, an edge's label sorting below the non-edge digit.
    """
    colors = _refine_colors(n, _initial_colors(n, vkeys, adj), adj)
    non_edge = max(map(max, map(dict.values, filter(None, adj))), default=1) + 1
    return _canonical_search(colors, adj, non_edge, non_edge + 1, group=group)


def _canonical_search(
    rows: list[int],
    adj: Sequence[dict[int, int]],
    non_edge: int,
    base: int,
    tiebreak: Optional[Callable[[list[int]], object]] = None,
    group: bool = False,
) -> tuple[tuple[int, ...], Optional[tuple[int, list[list[int]]]]]:
    """The lexicographically smallest vertex order with the least row
    sequence, and with ``group`` the automorphism group as its order and
    generators, each a vertex map ``v -> perm[v]`` (else None).

    Vertex v starts with the row ``rows[v]``; placing a vertex w appends
    the digit ``adj[v].get(w, non_edge)``, below ``base``, to the row of
    every unplaced v.  With ``tiebreak``, orders whose row sequences are
    equal compare next by ``tiebreak(order)``, and an automorphism must
    keep it too.

    One depth-first search over vertex orders.  A node places, in
    ascending order, only the vertices whose row is least there (any
    other makes the rows larger), so leaves come in lexicographic order,
    and a leaf becomes the best only when it is strictly smaller: the
    best is the first leaf attaining its rows (and tiebreak).  The
    prunes skip only leaves that are larger or equal with a larger
    order:

    - A node whose rows so far equal the best leaf's and whose next row
      exceeds the best leaf's there is cut.
    - A leaf equal to the best leaf gives the automorphism ``best[i] ->
      order[i]`` (equal rows mean equal row digits and labels).  It
      fixes their common prefix and maps the best leaf's branch at the
      first difference onto this leaf's, so the search returns to that
      depth.
    - Each node merges into its vertex orbits the automorphisms found
      below it that did not return past it, which all fix its prefix,
      and places only the least vertex of each orbit: the branch of any
      other is the image of the least one's.

    |Aut| is the product, over the depths d of the best leaf's path, of
    the orbit of ``best[d]`` under the automorphisms fixing ``best[:d]``
    (orbit-stabilizer down the chain of pointwise stabilizers), and the
    node at depth d of that path merges exactly that orbit, after
    McKay & Piperno, "Practical graph isomorphism II" (2014): each w in
    it is at least ``best[d]``, since the best comes first, and a w
    placed after ``best[d]`` has a leaf equal to the final best, so its
    branch returns to depth d with an automorphism mapping ``best[d]``
    to w, or w is skipped as the image of an earlier vertex of the
    orbit.  A node that merged an automorphism has the best leaf below
    it from then on, so each node that ends with orbits records them as
    the best path's at its depth, and a new best starts the record
    afresh.  The automorphisms found generate Aut: those fixing
    ``best[:d]`` move ``best[d]`` over its whole orbit under the
    stabilizer of ``best[:d]``, for every d.
    """
    n = len(rows)
    order: list[int] = []
    path_rows: list[int] = []
    best: list[int] = []
    best_rows: list[int] = []
    best_tie = None
    # depth -> orbits of the node there on the best leaf's path, if any.
    best_orbits: dict[int, list[int]] = {}
    automorphisms: list[list[int]] = []
    # The row of a placed vertex, above every unplaced row at any depth
    # (those stay below (max(rows) + 1) * base**depth); an int, since
    # math.inf * base overflows once base is above ~1.8e308.
    placed = (max(rows, default=0) + 1) * base**n

    def search(rows: list, equal: bool) -> int:
        """Search below ``order``, whose unplaced vertices have ``rows``
        (placed ones have larger rows); ``equal`` says the rows so far
        equal the best leaf's.  Returns the depth to resume at, or n."""
        nonlocal best_tie
        depth = len(order)
        least = min(rows)
        if equal:
            if least > best_rows[depth]:
                return n
            equal = least == best_rows[depth]
        path_rows.append(least)
        if depth == n - 1:
            # A leaf: the one vertex left goes last.
            order.append(rows.index(least))
            back = n
            if not equal:
                best[:], best_rows[:] = order, path_rows
                best_orbits.clear()
                if tiebreak is not None:
                    best_tie = tiebreak(order)
            elif tiebreak is None or (tie := tiebreak(order)) == best_tie:
                automorphisms.append([b for _, b in sorted(zip(best, order))])
                back = next(i for i, (a, b) in enumerate(zip(best, order)) if a != b)
            elif tie < best_tie:
                best[:], best_tie = order, tie
                best_orbits.clear()
            order.pop()
            path_rows.pop()
            return back
        orbits = None
        merged = len(automorphisms)
        for v, row in enumerate(rows):
            if row != least or orbits is not None and orbits[v] != v:
                continue
            col = adj[v]
            child = [r * base + col.get(w, non_edge) for w, r in enumerate(rows)]
            child[v] = placed
            order.append(v)
            back = search(child, equal)
            order.pop()
            if back < depth:
                break
            # The best leaf now shares this path's rows: if they were
            # below its rows, this first child reached a new best.
            equal = True
            if len(automorphisms) > merged:
                if orbits is None:
                    orbits = list(range(n))
                for perm in automorphisms[merged:]:
                    _join_orbits(orbits, perm)
                merged = len(automorphisms)
        else:
            back = n
            if orbits is not None:
                best_orbits[depth] = orbits
        path_rows.pop()
        return back

    if n:
        search(rows, False)
    del search  # it refers to itself; free it now, not at the next collection
    if not group:
        return tuple(best), None
    size = 1
    for depth, orbits in best_orbits.items():
        root = _orbit_root(orbits, best[depth])
        size *= sum(_orbit_root(orbits, v) == root for v in range(n))
    return tuple(best), (size, automorphisms)


def canonical_form(
    G: LabeledGraph, cap: int = DEFAULT_VERTEX_CAP
) -> tuple[str, tuple[str, ...]]:
    """Canonical key and the vertex placement realizing it.

    The key is equal for two graphs exactly when some bijection of
    vertices preserves both group labels and edge labels.  The
    placement lists the input's vertex ids in canonical order.

    Exactly: give each vertex v the row ``(colour(v), vkey(v), codes)``
    at its position in a vertex order, where ``vkey`` is the group's
    :meth:`AbelianGroupLabel.key`, ``colour`` is its colour-refinement
    class (ranked, so it sorts as ``vkey`` does) and ``codes`` holds,
    for each earlier position, ``(0, m)`` for an edge labelled m and
    ``(1,)`` for a non-edge.  The canonical order is the
    lexicographically smallest index tuple among the orders whose row
    sequence is lexicographically least; the key is
    :func:`positional_key` of the graph in that order and the placement
    is that order's vertex ids.
    """
    if G.n > cap:
        raise VertexCapError(f"graph has {G.n} vertices, above the cap of {cap}")
    order, _ = _canonical_order(G.n, [g.key() for g in G.groups], G._adj)
    return positional_key(*substructure(G, order)), tuple(G.vertices[i] for i in order)


# Version of the key format that census records are keyed by; bump it
# whenever :func:`positional_key` or :func:`canonical_form` changes keys.
RECORD_KEY_FORMAT = 1


def positional_key(
    groups: Sequence[AbelianGroupLabel], edges: Iterable[tuple[int, int, int]]
) -> str:
    """The one key writer: ``"n;<group keys>;<edges as i-j:m>"`` for a
    graph's ``groups`` and sorted (i, j, label) ``edges`` by position, in
    its own vertex order.  :func:`graph_from_key` reads it back."""
    vertex_part = ";".join(g.key() for g in groups)
    edge_part = ",".join(f"{i}-{j}:{m}" for i, j, m in edges)
    return f"{len(groups)};{vertex_part};{edge_part}"


def graph_from_key(key: str) -> LabeledGraph:
    """The graph whose :func:`positional_key` is ``key``, with vertices
    named "0", "1", ... by position: for a canonical key, the canonical
    representative.  A malformed key raises a ``ValueError``."""
    head, *rest = key.split(";")
    n = int(head)
    if len(rest) != n + 1:
        raise ValueError(f"malformed key {key!r}")
    vertex_items = []
    for i, part in enumerate(rest[:n]):
        rank_s, torsion_s = part.split("|")
        torsion = tuple(int(x) for x in torsion_s.split(",") if x)
        vertex_items.append((str(i), AbelianGroupLabel(rank=int(rank_s), torsion=torsion)))
    edge_items = []
    if rest[n]:
        for token in rest[n].split(","):
            pos, m = token.rsplit(":", 1)
            i, j = pos.split("-")
            edge_items.append((i, j, int(m)))
    return LabeledGraph.build(vertex_items, edge_items)


def canonical_key(G: LabeledGraph, cap: int = DEFAULT_VERTEX_CAP) -> str:
    return canonical_form(G, cap)[0]


def substructure(
    G: LabeledGraph, positions: Sequence[int]
) -> tuple[tuple[AbelianGroupLabel, ...], tuple[tuple[int, int, int], ...]]:
    """The ``(groups, edges)`` of G's subgraph induced on the distinct
    vertex ``positions``, in the order listed: the vertex at
    ``positions[p]`` is position p, and the edges are sorted (p, q,
    label) triples with p < q, read from G's adjacency dicts in one
    pass and building no graph."""
    at = {i: p for p, i in enumerate(positions)}.get
    adj = G._adj
    edges = [
        (p, q, m)
        for p, i in enumerate(positions)
        for j, m in adj[i].items()
        if (q := at(j, -1)) > p
    ]
    edges.sort()
    groups = G.groups
    return tuple([groups[i] for i in positions]), tuple(edges)


def induced_as_listed(
    G: LabeledGraph, positions: Sequence[int], ids: Optional[tuple[str, ...]] = None
) -> LabeledGraph:
    """G's subgraph induced on the distinct vertex ``positions``, in the
    order listed, with the vertex at ``positions[p]`` named ``ids[p]``,
    or by its id in G without ``ids``: the graph of
    :func:`substructure`, with no other validation."""
    if not positions:
        raise GraphValidationError("induced subgraph needs at least one vertex")
    if ids is None:
        ids = tuple([G.vertices[i] for i in positions])
    return LabeledGraph(ids, *substructure(G, positions))


def canonical_relabel(G: LabeledGraph, placement: Sequence[str]) -> LabeledGraph:
    """G in the vertex order ``placement`` (as computed by
    :func:`canonical_form`), which lists every vertex of G once, with
    vertices renamed "0", "1", ... in that order."""
    positions = [G.index(v) for v in placement]
    if sorted(positions) != list(range(G.n)):
        raise GraphValidationError("permutation must list every vertex once")
    return induced_as_listed(G, positions, tuple(map(str, range(G.n))))


def canonical_graph(
    G: LabeledGraph, cap: int = DEFAULT_VERTEX_CAP
) -> tuple[LabeledGraph, tuple[str, ...]]:
    """Canonical representative with vertices renamed "0", "1", ... in
    canonical order, plus the placement mapping positions back to input
    ids.
    """
    _, placement = canonical_form(G, cap)
    return canonical_relabel(G, placement), placement
