"""The F2 evidence layer against brute force.

``f2_certificates`` walks independent triples on adjacency bitsets and
``witness_join_incoherence`` pairs certificates through label-2
bitsets; both must return exactly what the plain scans in
``helpers.py`` return: the same certificates in the same order, and the
same first join witness.  Graphs come from every flavor, often built as
a label-2 join of two random graphs with a few cross edges removed or
relabeled, so that witnesses and near misses are both common; up to 12
vertices, they reach every outcome of the join scan.  The benchmark's
proof gallery, and every part the classifier scans in it, is checked
the same way, and a scan builds certificates only for the witness it
returns.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoherence import (
    F2Certificate,
    LabeledGraph,
    Z,
    Z2,
    coherence_engine,
    cyclic,
    group_model,
    parse_graph,
    verify_witness,
    witness_join_incoherence,
)
from graphcoherence.group_model import f2_certificates
from helpers import brute_force_f2_certificates, brute_force_join_witness
from test_node_key_memo import bench_operations

# (vertex groups, edge labels) per flavor; the graph-product groups mix
# orders 2, 3, 4 and infinity, so some nonadjacent pairs are free pairs
# and others (two order-2 vertices) are not.
FAMILIES = {
    "racg": ((Z2,), (2,)),
    "raag": ((Z,), (2,)),
    "coxeter": ((Z2,), (2, 3, 4, 5)),
    "artin": ((Z,), (2, 3, 4)),
    "graph_product": ((Z, Z2, cyclic(3), cyclic(4)), (2,)),
}
# Vertex ids not in ambient order, so confusing ids with positions shows.
IDS = ("h", "c", "q", "a", "x", "m", "b", "z", "e")
IDS_12 = IDS + ("k", "d", "w")


@st.composite
def evidence_graphs(draw, max_n: int = 9, ids: tuple[str, ...] = IDS):
    # The rest comes from a drawn seed: drawing sizes directly keeps
    # most examples at one or two vertices.
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    return random_evidence_graph(random.Random(draw(st.integers(0, 2**32))), family, max_n, ids)


def random_evidence_graph(
    rng: random.Random, family: tuple, max_n: int = 9, ids: tuple[str, ...] = IDS
) -> LabeledGraph:
    groups, labels = family
    n = rng.randint(1, max_n)
    ids = rng.sample(ids, n)
    density = rng.choice((0.0, 0.2, 0.4, 0.7))
    # Split off a second side joined to the first by label-2 edges, then
    # break a few of the cross edges: drop them or give them label > 2.
    cut = rng.randint(0, n - 1) if rng.random() < 0.6 else 0
    side = {v: k < cut for k, v in enumerate(rng.sample(ids, n))}
    broken = rng.randint(0, 2)
    edges = []
    for u, v in itertools.combinations(ids, 2):
        if side[u] != side[v]:
            edges.append((u, v, 2))
        elif rng.random() < density:
            edges.append((u, v, rng.choice(labels)))
    for _ in range(broken):
        cross = [e for e in edges if side[e[0]] != side[e[1]]]
        if not cross:
            break
        edges.remove(e := rng.choice(cross))
        if max(labels) > 2 and rng.random() < 0.5:
            edges.append((e[0], e[1], rng.choice([m for m in labels if m > 2])))
    return LabeledGraph.build([(v, rng.choice(groups)) for v in ids], edges)


@settings(max_examples=600)
@given(evidence_graphs())
def test_f2_evidence_matches_brute_force(G):
    certs = brute_force_f2_certificates(G)
    assert list(f2_certificates(G)) == certs
    assert next(f2_certificates(G), None) == (certs[0] if certs else None)
    witness = witness_join_incoherence(G)
    assert witness == brute_force_join_witness(G)
    if witness is not None:
        assert verify_witness(G, witness)


def test_join_witness_on_bipartite_joins():
    """K(3,3): the sides are independent triples joined by label-2
    edges.  On Z2 vertices one label-3 cross edge leaves no witness.  On
    Z vertices every nonadjacent pair is a free pair; with a-d labeled 3
    the first witness pairs (a, b), whose common label-2 neighbours are
    exactly e and f, with the free pair (e, f)."""
    left, right = ["a", "b", "c"], ["d", "e", "f"]

    def k33(group, heavy):
        return LabeledGraph.build(
            [(v, group) for v in left + right],
            [(u, v, 3 if (u, v) in heavy else 2) for u in left for v in right],
        )

    w = witness_join_incoherence(k33(Z2, ()))
    assert (w.side_a, w.side_b) == (("a", "b", "c"), ("d", "e", "f"))
    assert witness_join_incoherence(k33(Z2, {("a", "d")})) is None
    G = k33(Z, {("a", "d")})
    w = witness_join_incoherence(G)
    assert (w.side_a, w.side_b) == (("a", "b"), ("e", "f"))
    assert w == brute_force_join_witness(G)
    assert verify_witness(G, w)


@settings(max_examples=300)
@given(evidence_graphs(max_n=12, ids=IDS_12))
def test_join_witness_matches_brute_force_up_to_twelve_vertices(G):
    assert witness_join_incoherence(G) == brute_force_join_witness(G)


def outcome(witness) -> str:
    if witness is None:
        return "none"
    short = {"free_pair": "pair", "independent_triple": "triple"}
    return f"{short[witness.cert_a.kind]} x {short[witness.cert_b.kind]}"


# Mostly order-two vertices: a side whose independent sets are all Z2
# has triples but no free pair, which gives pair x triple witnesses.
MOSTLY_Z2 = ((Z2, Z2, Z2, Z, cyclic(3)), (2,))


def test_seeded_graphs_reach_every_outcome():
    """A triple never has a free pair as its partner: the pair comes
    first in scan order and has the triple as its partner."""
    outcomes = {}
    for seed in range(400):
        family = MOSTLY_Z2 if seed % 2 else FAMILIES["racg"]
        G = random_evidence_graph(random.Random(seed), family, 12, IDS_12)
        witness = witness_join_incoherence(G)
        assert witness == brute_force_join_witness(G)
        outcomes[outcome(witness)] = outcomes.get(outcome(witness), 0) + 1
    assert set(outcomes) == {"pair x pair", "pair x triple", "triple x triple", "none"}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_graph_the_gallery_scans_matches_brute_force(monkeypatch, tmp_path, seed):
    """The classify-proofs gallery under the benchmark's shuffled ids,
    and every part the classifier scans on the way."""
    scanned = []
    scan = coherence_engine.witness_join_incoherence

    def checked(G):
        witness = scan(G)
        assert witness == brute_force_join_witness(G)
        scanned.append(outcome(witness))
        return witness

    operations = bench_operations(monkeypatch, "classify-proofs", seed)
    monkeypatch.setattr(coherence_engine, "witness_join_incoherence", checked)
    for op in operations:
        G = parse_graph(op.document)
        assert checked(G) == brute_force_join_witness(G)
        coherence_engine.Classifier().classify(G)
    assert len(scanned) > 2 * len(operations)
    assert {"triple x triple", "none"} <= set(scanned)


def test_a_scan_builds_only_the_certificates_it_returns(monkeypatch):
    built = []

    def counting(**fields):
        built.append(fields["vertices"])
        return F2Certificate(**fields)

    for module in (group_model, coherence_engine):
        monkeypatch.setattr(module, "F2Certificate", counting)
    for seed in range(200):
        rng = random.Random(seed)
        G = random_evidence_graph(rng, FAMILIES[rng.choice(sorted(FAMILIES))], 12, IDS_12)
        built.clear()
        witness = witness_join_incoherence(G)
        sides = [] if witness is None else [witness.side_a, witness.side_b]
        assert built == sides
