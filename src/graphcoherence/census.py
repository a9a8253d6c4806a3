"""Exhaustive sweeps over small graphs, one isomorphism class at a time.

Grows the isomorphism classes of a configured kind one vertex at a time
by McKay's canonical augmentation (each class on n-1 vertices gets one
more vertex in every way up to its automorphisms, and a graph so grown
is kept exactly when its new vertex lies in the automorphism orbit of
the last vertex of its canonical order, so each class is grown once
and no graph is canonicalized only to be dropped as a repeat),
classifies each class once (optionally in worker processes),
re-verifies its evidence against the class's own representative, and
tallies each class by verdict per (vertex count, edge count) cell,
weighted by the n!/|Aut| labeled graphs it stands for.  Classes come
in the order in which :func:`enumerate_graphs`, the labeled
enumeration, first meets them.
Records are written one JSON line per isomorphism class, in that order
and keyed by canonical form, after a header line naming the engine and
key format that wrote them; an existing record file from the same
engine is resumed rather than recomputed: its stored verdicts are
re-verified like new ones, on the same representatives and in the same
processes, and each stored record must be the one its class and its
verdict give.
"""

from __future__ import annotations

import fcntl
import itertools
import json
import math
import os
import signal
import string
import sys
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Optional

from . import __version__
from .coherence_engine import (
    Classifier,
    EngineConfig,
    check_verdict,
    verdict_from_jsonable,
    COHERENT,
    INCOHERENT,
    UNKNOWN,
)
from .labeled_graph import (
    InternalInvariantError,
    LabeledGraph,
    RECORD_KEY_FORMAT,
    VertexCapError,
    Z,
    Z2,
    _canonical_search,
    _join_orbits,
    _orbit_root,
    _rank,
    _refine_colors,
    detect_flavor,
    graph_from_key,  # re-exported: the reader of record keys
    positional_key,
)

_FLAVOR_GROUPS = {"racg": Z2, "raag": Z, "coxeter": Z2}


@dataclass(frozen=True)
class CensusConfig:
    """What to sweep.

    ``flavor``: racg and raag fix every label to 2; coxeter keeps all-Z2
    vertices and ranges each edge over ``edge_labels``.  ``dedup``
    counts isomorphism classes once instead of every labeled graph.
    ``verify`` rechecks every proof and witness, new or resumed, against
    its class's canonical representative.
    """

    flavor: str = "racg"
    min_vertices: int = 1
    max_vertices: int = 5
    max_edges: Optional[int] = None
    edge_labels: tuple[int, ...] = (2,)
    dedup: bool = False
    verify: bool = True

    def __post_init__(self) -> None:
        if self.flavor not in _FLAVOR_GROUPS:
            raise ValueError(f"unknown census flavor {self.flavor!r}")
        if self.min_vertices < 1 or self.max_vertices < self.min_vertices:
            raise ValueError("vertex bounds must satisfy 1 <= min <= max")
        if self.flavor != "coxeter" and tuple(self.edge_labels) != (2,):
            raise ValueError("edge labels other than 2 need the coxeter flavor")
        if any(m < 2 for m in self.edge_labels):
            raise ValueError("edge labels must be >= 2")
        if len(set(self.edge_labels)) != len(self.edge_labels):
            raise ValueError("edge labels must be distinct")
        if self.max_edges is not None and self.max_edges < 0:
            raise ValueError("max_edges must be >= 0")
        object.__setattr__(self, "edge_labels", tuple(self.edge_labels))


def _vertex_ids(n: int) -> list[str]:
    letters = string.ascii_lowercase
    if n <= len(letters):
        return list(letters[:n])
    return [f"v{i}" for i in range(n)]


def enumerate_graphs(config: CensusConfig) -> Iterator[LabeledGraph]:
    """Every labeled graph in the sweep, in a fixed deterministic order:
    vertex count ascending, then edge subsets by bitmask, then label
    assignments lexicographically.  The census visits its classes in
    the order in which this first meets them, without calling it."""
    group = _FLAVOR_GROUPS[config.flavor]
    for n in range(config.min_vertices, config.max_vertices + 1):
        ids = _vertex_ids(n)
        vertex_items = [(v, group) for v in ids]
        pairs = list(itertools.combinations(ids, 2))
        for mask in range(1 << len(pairs)):
            chosen = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            if config.max_edges is not None and len(chosen) > config.max_edges:
                continue
            for labels in itertools.product(config.edge_labels, repeat=len(chosen)):
                yield LabeledGraph.build(
                    vertex_items, [(u, v, m) for (u, v), m in zip(chosen, labels)]
                )


@dataclass
class CensusReport:
    """Aggregated results of the sweep ``config``.

    ``cells`` maps (vertex count, edge count) to verdict counts; counts
    are per labeled graph unless the census deduplicates.  ``elapsed``
    is wall time and deliberately excluded from the JSON form so equal
    sweeps serialize identically.
    """

    config: CensusConfig
    cells: dict = field(default_factory=dict)
    total: int = 0
    class_count: int = 0
    incoherent: tuple = ()
    unknown: tuple = ()
    elapsed: float = 0.0

    def smallest_incoherent(self) -> Optional[tuple[int, int]]:
        return min(((n, e) for n, e, _ in self.incoherent), default=None)

    def table(self) -> str:
        lines = [
            f"{'n':>3} {'e':>3} {'total':>8} {'coherent':>9} "
            f"{'incoherent':>11} {'unknown':>8}"
        ]
        for (n, e) in sorted(self.cells):
            counts = self.cells[(n, e)]
            total = sum(counts.values())
            lines.append(
                f"{n:>3} {e:>3} {total:>8} {counts.get(COHERENT, 0):>9} "
                f"{counts.get(INCOHERENT, 0):>11} {counts.get(UNKNOWN, 0):>8}"
            )
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        config = self.config
        return {
            "flavor": config.flavor,
            "min_vertices": config.min_vertices,
            "max_vertices": config.max_vertices,
            "max_edges": config.max_edges,
            "edge_labels": list(config.edge_labels),
            "dedup": config.dedup,
            "total": self.total,
            "class_count": self.class_count,
            "cells": [
                {
                    "n": n,
                    "e": e,
                    "counts": {k: v for k, v in sorted(self.cells[(n, e)].items())},
                }
                for (n, e) in sorted(self.cells)
            ],
            "incoherent": [
                {"n": n, "e": e, "key": key} for n, e, key in self.incoherent
            ],
            "unknown": [
                {"n": n, "e": e, "key": key, "codes": list(codes)}
                for n, e, key, codes in self.unknown
            ],
            "smallest_incoherent": list(hit) if (hit := self.smallest_incoherent()) else None,
        }


def records_header(engine_config: EngineConfig) -> dict:
    """The first line of a new record file: what wrote its verdicts.  A
    file is resumed only under an equal header, so stored verdicts never
    mix engine configurations or package versions.  The census range is
    left out on purpose: a wider sweep reuses a narrower one's records."""
    return {
        "header": "graphcoherence census records",
        "version": __version__,
        "key_format": RECORD_KEY_FORMAT,
        "engine": {
            "max_search_vertices": engine_config.max_search_vertices,
            "disabled_rules": sorted(engine_config.disabled_rules),
        },
    }


def _describe_header(header: dict) -> str:
    engine = header.get("engine")
    if not isinstance(engine, dict):
        engine = {}
    rules = ", ".join(map(str, engine.get("disabled_rules") or ())) or "none"
    return (
        f"graphcoherence {header.get('version')} (key format "
        f"{header.get('key_format')}, cap {engine.get('max_search_vertices')}, "
        f"disabled steps: {rules})"
    )


def _locked_records(path: str):
    """The record file opened for appending, under an exclusive lock that
    closing it releases; a file another census holds is refused with a
    ``ValueError`` before anything reads or writes it."""
    fh = open(path, "a", encoding="utf-8")
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        fh.close()
        raise ValueError(f"record file {path} is in use by another census") from None
    return fh


def _load_records(path: str, header: dict) -> dict[str, bytes]:
    """Records of an existing record file, by canonical key, each kept
    as its raw line for :func:`_record_job` to parse when its class
    comes: a parsed record takes several times the memory of its line.

    The first line is the file's header (see :func:`records_header`); it
    must equal ``header``, or the file is refused with a ``ValueError``.
    A file from before headers existed is read as it is, with a note on
    stderr.

    A last line with no newline that does not parse is what a run
    interrupted mid-write leaves behind: it is dropped with a note on
    stderr and cut from the file, so that appended records start on a
    line of their own.  Any other line that does not parse, and any
    record without a string key, a status and a verdict that parses,
    whose status is not its verdict's, or whose key an earlier line
    already has, is an error naming ``path:line``, so every line is
    parsed and checked here, before any work starts: a later line would
    otherwise replace an earlier one unverified.
    """
    records: dict[str, bytes] = {}
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    # lines[-1] is what follows the last newline: empty unless cut off.
    complete_bytes = 0
    for line_no, line in enumerate(lines, 1):
        if line.strip():
            try:
                rec = json.loads(line)
            except (RecursionError, ValueError) as e:
                if line_no < len(lines):
                    raise ValueError(f"corrupt census record at {path}:{line_no}: {e}") from None
                print(
                    f"note: dropped the cut-off last record at {path}:{line_no}",
                    file=sys.stderr,
                )
                with open(path, "r+b") as fh:
                    fh.truncate(complete_bytes)
                return records
            if line_no == 1 and isinstance(rec, dict) and "header" in rec:
                if rec != header:
                    raise ValueError(
                        f"record file {path} was written by {_describe_header(rec)}, "
                        f"not by this run's {_describe_header(header)}; "
                        "use another --out file"
                    )
            else:
                try:
                    records[_checked_key(rec, records)] = line
                except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as e:
                    raise ValueError(
                        f"corrupt census record at {path}:{line_no}: {type(e).__name__}: {e}"
                    ) from None
                if line_no == 1:
                    print(
                        f"note: {path} has no header line; its records are reused "
                        "without checking which engine wrote them",
                        file=sys.stderr,
                    )
        complete_bytes += len(line) + 1
    if lines[-1].strip():
        with open(path, "ab") as fh:
            fh.write(b"\n")
    return records


def _checked_key(rec: dict, earlier: dict) -> str:
    """The key of a stored record, once its verdict parses and has the
    record's status, and no ``earlier`` record has that key: the census
    counts and re-verifies the verdict, and only one per key."""
    verdict = verdict_from_jsonable(rec["verdict"])
    if verdict.status != rec["status"]:
        raise ValueError(f"status {rec['status']!r} is not its verdict's {verdict.status!r}")
    if type(rec["key"]) is not str:
        raise TypeError("the key is not a string")
    if rec["key"] in earlier:
        raise ValueError("an earlier line has the same key")
    return rec["key"]


def _least_member(G: LabeledGraph, label_rank: dict[int, int]) -> tuple[int, tuple[int, ...]]:
    """Where :func:`enumerate_graphs` first yields a graph isomorphic to
    ``G``, as ``(mask, ranks)``.

    ``G`` is a census graph, so its vertex groups are all equal.  The
    enumeration goes by edge mask, bit k for pair k of
    ``combinations(positions, 2)``, then by the edges' labels in pair
    order, ranked by ``label_rank``.  The mask's most significant bit is
    the pair (n-2, n-1), then come (n-3, n-1), (n-3, n-2), (n-4, n-1)
    and so on: filling positions from n-1 downwards, each placed
    vertex's row of bits towards the vertices placed before it extends
    the mask from the top.  So the least mask is the least row sequence
    of :func:`_canonical_search` with a non-edge digit 0 below the edge
    digit 1, and orders reaching it tie-break on their label ranks.
    """
    n = G.n
    bits = [dict.fromkeys(nbrs, 1) for nbrs in G._adj]

    def ranked_edges(order: list[int]) -> list[tuple[int, int, int]]:
        pos = [0] * n
        for t, v in enumerate(order):
            pos[v] = n - 1 - t
        return sorted(
            (pos[i], pos[j], label_rank[m]) if pos[i] < pos[j] else (pos[j], pos[i], label_rank[m])
            for i, j, m in G.edges
        )

    order, _ = _canonical_search(
        [0] * n, bits, 0, 2, ranked_edges if len(label_rank) > 1 else None
    )
    edges = ranked_edges(list(order))
    mask = sum(1 << (a * (2 * n - a - 3) // 2 + b - 1) for a, b, _ in edges)
    return mask, tuple(r for _, _, r in edges)


def _extensions(
    n: int, generators: list[list[int]], config: CensusConfig, room: int
) -> Iterator[tuple[int, ...]]:
    """The ways ``c`` to join a new vertex to vertices 0..n-1 by at most
    ``room`` edges labelled from ``config.edge_labels``, one per orbit
    of the group that ``generators`` generate, the first of each orbit
    in a fixed order (so any generating set gives the same ways):
    ``c[v]`` is the label of the edge to v, or 0 for none.  An
    automorphism g maps the graph joined by ``c`` onto the one joined by
    ``c'``, ``c'[g[v]] = c[v]``, so one way per orbit reaches every
    class."""
    seen: set[tuple[int, ...]] = set()
    for size in range(room + 1):
        for nbrs in itertools.combinations(range(n), size):
            for labels in itertools.product(config.edge_labels, repeat=size):
                c = [0] * n
                for v, m in zip(nbrs, labels):
                    c[v] = m
                c = tuple(c)
                if c in seen:
                    continue
                seen.add(c)
                orbit = [c]
                for x in orbit:
                    for g in generators:
                        y = [0] * n
                        for v, m in enumerate(x):
                            y[g[v]] = m
                        y = tuple(y)
                        if y not in seen:
                            seen.add(y)
                            orbit.append(y)
                yield c


# A class of the census: its canonical key, its canonical representative
# (vertices "0", "1", ... in canonical order) and its automorphism group,
# as its order and generators on the representative's positions.
_Class = tuple[str, LabeledGraph, tuple[int, list[list[int]]]]


def _next_level(
    parents: Iterable[tuple[LabeledGraph, list[list[int]]]], config: CensusConfig, cap: int
) -> list[_Class]:
    """The classes one vertex larger than ``parents``, within
    ``max_edges``.  ``parents`` are the canonical representatives of
    the classes of one size within ``max_edges``, each once and with
    generators of its automorphism group.

    Canonical augmentation, after McKay, "Isomorph-free exhaustive
    generation" (J. Algorithms 1998).  A child joins a new vertex v to
    a parent P by a way ``c`` from :func:`_extensions`, one per orbit of
    Aut(P); it is accepted when v lies in the Aut(child)-orbit of the
    last vertex of the child's canonical order (that of
    :func:`~graphcoherence.labeled_graph.canonical_form`).  An
    isomorphism maps one canonical order onto the other up to an
    automorphism, so it maps the orbit of the last vertex onto the
    orbit of the last vertex, and the test is isomorphism-invariant.

    Theorem: with one way per orbit of Aut(P) and this
    isomorphism-invariant test, each class one vertex larger is
    accepted exactly once.  At least once: deleting a vertex w in the
    last vertex's orbit of a class G leaves a parent's class, since
    deleting a vertex never adds edges (so a parent above ``max_edges``
    has no child within it); the way that joins w's neighbourhood to
    that parent, or the one ``_extensions`` keeps of its orbit, gives a
    child isomorphic to G with v sent to w, which is accepted.  At most
    once: an isomorphism between two accepted children, composed with
    an automorphism, fixes v; it then maps one parent onto the other,
    which are so the same parent, and restricts to an automorphism of
    it mapping one way onto the other, which are so in one orbit and
    the same way.

    Two exact filters reject most children before any search.  Colours
    are isomorphism-invariant, so the last vertex's orbit has its
    colours, and:

    - The search places a vertex of least row first and each row
      begins with the vertex's refined colour, so the last vertex has
      the largest refined colour.
    - ``_rank`` sorts each refined signature by the colour it refines
      first, so the largest refined class lies in the largest initial
      class, by (vkey, degree, sorted labels).

    So a child is rejected unless v has the largest initial colour,
    which comes from P's degrees and labels and from ``c`` before the
    child is built, then unless v has the largest refined colour, and
    only then is it searched once.  That search also gives an accepted
    child's key, its representative and its group, the generators
    mapped onto canonical positions for the next level's
    ``_extensions``.  A key repeated within a level raises
    ``InternalInvariantError``, so every run checks that the generation
    is isomorph-free.
    """
    # Any non-edge digit above every label gives the same canonical order.
    non_edge = max(config.edge_labels) + 1
    classes: list[_Class] = []
    keys: set[str] = set()
    for P, generators in parents:
        n = P.n
        if n >= cap:
            raise VertexCapError(f"graph has {n + 1} vertices, above the cap of {cap}")
        vertices, groups = P.vertices + (str(n),), P.groups + P.groups[:1]
        # Initial colours without the vkey, which every census vertex shares.
        colours = [(len(nbrs), tuple(sorted(nbrs.values()))) for nbrs in P._adj]
        top = max(degree for degree, _ in colours)
        tops = [u for u, (degree, _) in enumerate(colours) if degree == top]
        room = n if config.max_edges is None else min(n, config.max_edges - P.m)
        for c in _extensions(n, generators, config, room):
            # Degrees first: v has degree n - c.count(0), and a vertex of
            # P has its degree in P, plus one if c joins it to v.
            degree = n - c.count(0)
            if degree < top or degree == top and any(c[u] for u in tops):
                continue
            labels = tuple(sorted(filter(None, c)))
            new = (degree, labels)
            child_colours = colours[:]
            for u, m in enumerate(c):
                if m:
                    d, around = colours[u]
                    child_colours[u] = (d + 1, tuple(sorted(around + (m,))))
            if max(child_colours) > new:
                continue
            child_colours.append(new)
            adj = list(P._adj)
            row = {}
            for u, m in enumerate(c):
                if m:
                    adj[u] = {**adj[u], n: m}
                    row[u] = m
            adj.append(row)
            refined = _refine_colors(n + 1, _rank(child_colours), adj)
            if refined[n] < max(refined):
                continue
            order, (size, automorphisms) = _canonical_search(
                refined, adj, non_edge, non_edge + 1, group=True
            )
            if order[-1] != n:
                orbits = list(range(n + 1))
                for perm in automorphisms:
                    _join_orbits(orbits, perm)
                if _orbit_root(orbits, n) != _orbit_root(orbits, order[-1]):
                    continue
            pos = [0] * (n + 1)
            for p, u in enumerate(order):
                pos[u] = p
            edges = tuple(
                sorted(
                    (pos[a], pos[b], m) if pos[a] < pos[b] else (pos[b], pos[a], m)
                    for a, b, m in P.edges + tuple((u, n, m) for u, m in row.items())
                )
            )
            # All vertex groups are equal, so canonical order keeps ``groups``.
            key = positional_key(groups, edges)
            if key in keys:
                raise InternalInvariantError(f"census class {key} was generated twice")
            keys.add(key)
            generators_at = [[pos[perm[u]] for u in order] for perm in automorphisms]
            classes.append((key, LabeledGraph(vertices, groups, edges), (size, generators_at)))
    return classes


def _classes(
    config: CensusConfig, cap: int
) -> Iterator[tuple[int, int, str, LabeledGraph, int]]:
    """``(n, e, key, CG, weight)`` for each isomorphism class of the
    sweep, in order of first appearance in :func:`enumerate_graphs`:
    its cell, its canonical key, its canonical representative and the
    number n!/|Aut| of labeled graphs in it.  Classes are grown one
    vertex at a time from the single vertex by :func:`_next_level`, so
    those below ``min_vertices`` are grown but not yielded."""
    label_rank = {m: r for r, m in enumerate(config.edge_labels)}
    G = LabeledGraph(("0",), (_FLAVOR_GROUPS[config.flavor],), ())
    level: list[_Class] = [(positional_key(G.groups, ()), G, (1, []))]
    for n in range(1, config.max_vertices + 1):
        if n > 1:
            level = _next_level(((CG, gens) for _, _, CG, (_, gens) in ranked), config, cap)
        ranked = sorted((_least_member(CG, label_rank), key, CG, group) for key, CG, group in level)
        if n < config.min_vertices:
            continue
        for _, key, CG, (size, _) in ranked:
            yield n, CG.m, key, CG, math.factorial(n) // size


def _record(n: int, e: int, key: str, CG: LabeledGraph, verdict_obj: dict) -> dict:
    """The record of the class ``key`` in cell (n, e), whose canonical
    representative is ``CG``, with the verdict JSON ``verdict_obj``: its
    summary fields are read off the class and the verdict, whose root
    rule is its proof's rule or its witness's kind."""
    proof, witness = verdict_obj["proof"], verdict_obj["witness"]
    return {
        "key": key,
        "n": n,
        "e": e,
        "flavor": list(detect_flavor(CG).tags()),
        "status": verdict_obj["status"],
        "rule": proof["rule"] if proof else witness and witness["kind"],
        "notes": [note["code"] for note in verdict_obj["notes"]],
        "verdict": verdict_obj,
    }


def _record_job(classifier: Classifier, verify: bool, job: tuple) -> tuple:
    """``(n, e, key, rec, weight)`` for a class from :func:`_classes`
    paired with its stored record's line, or None: the stored record,
    parsed from that line, or else a new one classifying the canonical
    representative.  With ``verify`` set, the record's verdict, parsed
    back from its JSON form, is re-verified on that representative, and
    a stored record is then checked twice more, or refused with a
    ``ValueError``: an UNKNOWN verdict has no evidence to check, so it
    must be the verdict that classifying the representative again
    writes; and the record must be the one :func:`_record` builds from
    its class and its verdict, so its summary fields are those."""
    n, e, key, CG, weight, line = job
    if line is None:
        rec = _record(n, e, key, CG, classifier.classify_canonical_jsonable(CG, key))
    else:
        rec = json.loads(line)
    if verify:
        check_verdict(CG, verdict_from_jsonable(rec["verdict"]), subject=key, classifier=classifier)
    if verify and line is not None:
        verdict_obj = rec["verdict"]
        if rec["status"] == UNKNOWN and classifier.classify_canonical_jsonable(CG, key) != verdict_obj:
            raise ValueError(
                f"corrupt census record for class {key}: its UNKNOWN verdict "
                "is not the one this engine gives"
            )
        if rec != _record(n, e, key, CG, verdict_obj):
            raise ValueError(
                f"corrupt census record for class {key}: its summary fields "
                "are not the ones its class and verdict give"
            )
    return n, e, key, rec, weight


# Each pool worker's job, with a classifier whose memo outlives one chunk.
_worker_job: Optional[partial] = None


def _worker_init(engine_config: EngineConfig, verify: bool) -> None:
    """Give the worker its job, and leave a Ctrl-C to the main process,
    which ends the pool: the signal goes to the whole process group."""
    global _worker_job
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_job = partial(_record_job, Classifier(engine_config), verify)


def _pool_job(job: tuple) -> tuple:
    return _worker_job(job)


def run_census(
    config: CensusConfig,
    out_path: Optional[str] = None,
    engine_config: Optional[EngineConfig] = None,
    workers: int = 1,
) -> CensusReport:
    """Run the sweep and return the report.

    One pass grows the isomorphism classes in the calling process,
    classifies each class once, and tallies it with the weight of its
    labeled graphs (or once, with ``dedup``), in order of first
    appearance among the labeled graphs.  With ``out_path`` set, each
    class's record is appended as it is tallied, after a header line in
    a new file; re-running with the same path skips keys that already
    have records (their stored verdicts are still counted and, when
    configured, re-verified as new ones are, an UNKNOWN one by
    classifying its class again, and their summary fields checked
    against their classes and verdicts).  A file whose header
    names another engine configuration or package version is refused
    with a ``ValueError``, and so is a file that another census holds:
    the run keeps an exclusive lock on it from before reading it to its
    end.
    ``workers`` > 1 classifies and re-verifies the classes in that many
    processes, but in no more than ``os.cpu_count()``; stdout and record
    file are identical to the serial run's.
    """
    engine_config = engine_config or EngineConfig()
    cap = engine_config.max_search_vertices
    if config.max_vertices > cap:
        raise ValueError(
            f"census up to {config.max_vertices} vertices exceeds the "
            f"engine cap of {cap}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    workers = min(workers, os.cpu_count() or 1)
    started = time.monotonic()
    header = records_header(engine_config)
    report = CensusReport(config)
    cells: dict[tuple[int, int], Counter] = {}
    incoherent: list[tuple[int, int, str]] = []
    unknown: list[tuple[int, int, str, tuple[str, ...]]] = []
    with ExitStack() as stack:
        out_fh = stack.enter_context(_locked_records(out_path)) if out_path else None
        records = _load_records(out_path, header) if out_path else {}
        # Loading may cut a cut-off header line away, down to 0 bytes.
        if out_fh and os.fstat(out_fh.fileno()).st_size == 0:
            out_fh.write(json.dumps(header) + "\n")
            out_fh.flush()
        jobs = (
            (n, e, key, CG, weight, records.get(key))
            for n, e, key, CG, weight in _classes(config, cap)
        )
        if workers == 1:
            results = map(partial(_record_job, Classifier(engine_config), config.verify), jobs)
        else:
            import multiprocessing

            pool = stack.enter_context(
                multiprocessing.Pool(
                    workers, initializer=_worker_init, initargs=(engine_config, config.verify)
                )
            )
            results = pool.imap(_pool_job, jobs, chunksize=8)
        for n, e, key, rec, weight in results:
            if out_fh and key not in records:
                out_fh.write(json.dumps(rec) + "\n")
                out_fh.flush()
            # The tally reads the stored verdict, the one re-verified.
            verdict_obj = rec["verdict"]
            status = verdict_obj["status"]
            count = 1 if config.dedup else weight
            cells.setdefault((n, e), Counter())[status] += count
            report.total += count
            report.class_count += 1
            if status == INCOHERENT:
                incoherent.append((n, e, key))
            elif status == UNKNOWN:
                codes = tuple(note["code"] for note in verdict_obj["notes"])
                unknown.append((n, e, key, codes))
    report.cells = {cell: dict(counter) for cell, counter in cells.items()}
    report.incoherent = tuple(incoherent)
    report.unknown = tuple(unknown)
    report.elapsed = time.monotonic() - started
    return report
