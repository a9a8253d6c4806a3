"""Ten acceptance checks, one test function per criterion.

Heavy sweeps (censuses, record files) are computed once in module-scoped
fixtures and shared; ``pytest -v`` shows one pass/fail line per criterion.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random

import numpy as np
import pytest

from graphcoherence import CensusConfig, EngineConfig, canonical_key, run_census
from graphcoherence.census import graph_from_key
from graphcoherence.coherence_engine import (
    COHERENT,
    INCOHERENT,
    UNKNOWN,
    Classifier,
    verdict_from_jsonable,
    verify_proof,
    to_jsonable,
    verify_witness,
)
from graphcoherence.decomposition import dirac_split, verify_split
from graphcoherence.group_model import (
    SLENDER,
    classify_components,
    finiteness,
    is_slender,
)
from graphcoherence.labeled_graph import (
    AbelianGroupLabel,
    LabeledGraph,
    is_chordal,
    is_induced_chordless_cycle,
    verify_peo,
)
from helpers import (
    braid_like_artin_k4,
    brute_force_is_chordal,
    complete_bipartite_racg,
    cycle_graph_product,
    cycle_racg,
    dihedral_order,
    even_signed_permutation_order,
    random_chordal_graph,
    random_labeled_graph,
    signed_permutation_order,
    symmetric_coxeter_k4,
    symmetric_group_order,
    triangle_coxeter_333,
)
from test_group_model import diagram_catalog, independent_cosine_eigs, realize_diagram

Z2 = AbelianGroupLabel(rank=0, torsion=(2,))
Z3 = AbelianGroupLabel(rank=0, torsion=(3,))

NO_IFF = EngineConfig(disabled_rules=frozenset({"droms_chordal", "wise_gordon"}))


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-records")


@pytest.fixture(scope="module")
def racg5(record_dir):
    return run_census(
        CensusConfig(flavor="racg", max_vertices=5),
        out_path=str(record_dir / "racg5.jsonl"),
    )


@pytest.fixture(scope="module")
def racg6_e8():
    return run_census(
        CensusConfig(flavor="racg", min_vertices=6, max_vertices=6, max_edges=8)
    )


@pytest.fixture(scope="module")
def racg6_full(record_dir):
    return run_census(
        CensusConfig(flavor="racg", min_vertices=6, max_vertices=6),
        out_path=str(record_dir / "racg6.jsonl"),
    )


@pytest.fixture(scope="module")
def raag6(record_dir):
    return run_census(
        CensusConfig(flavor="raag", max_vertices=6),
        out_path=str(record_dir / "raag6.jsonl"),
    )


@pytest.fixture(scope="module")
def named_verdicts():
    """Classified instances shared by criteria 8, 9 and 10."""
    default = Classifier()
    no_slender = Classifier(EngineConfig(disabled_rules=frozenset({"slender"})))
    out = {}
    for n in range(4, 11):
        G = cycle_racg(n)
        out[f"racg-C{n}"] = (G, default.classify(G))
    G = cycle_racg(4)
    out["racg-C4-amalgam"] = (G, no_slender.classify(G))
    G = cycle_graph_product(4, Z3)
    out["gp-square-z3"] = (G, default.classify(G))
    G = cycle_graph_product(5, Z3)
    out["gp-pentagon-z3"] = (G, default.classify(G))
    G = braid_like_artin_k4()
    out["artin-braid-k4"] = (G, default.classify(G))
    G = triangle_coxeter_333()
    out["coxeter-333"] = (G, default.classify(G))
    out["coxeter-333-mw"] = (G, no_slender.classify(G))
    return out


def _cell_statuses(report):
    return {status for counts in report.cells.values() for status in counts}


def test_criterion_01_racg_census_to_five_vertices(racg5):
    # every labeled graph on 1..5 vertices, evidence re-verified in-run
    assert racg5.total == 1 + 2 + 8 + 64 + 1024
    assert _cell_statuses(racg5) == {COHERENT}
    assert racg5.incoherent == () and racg5.unknown == ()
    assert racg5.elapsed < 60.0
    print(
        f"criterion 1: {racg5.total} labeled graphs ({racg5.class_count} classes) "
        f"all COHERENT in {racg5.elapsed:.1f}s"
    )


def test_criterion_02_racg_census_six_vertices_sparse(racg6_e8):
    assert racg6_e8.total == sum(math.comb(15, e) for e in range(9))
    assert _cell_statuses(racg6_e8) == {COHERENT}
    assert racg6_e8.incoherent == () and racg6_e8.unknown == ()
    assert racg6_e8.elapsed < 600.0
    print(
        f"criterion 2: n=6 e<=8, {racg6_e8.total} labeled graphs all COHERENT "
        f"in {racg6_e8.elapsed:.1f}s"
    )


def test_criterion_03_smallest_incoherent_is_k33(racg6_full):
    for (n, e), counts in racg6_full.cells.items():
        if e <= 8:
            assert INCOHERENT not in counts, (n, e)
    assert racg6_full.smallest_incoherent() == (6, 9)
    keys = {key for _, _, key in racg6_full.incoherent}
    assert keys == {canonical_key(complete_bipartite_racg())}

    G = complete_bipartite_racg()
    verdict = Classifier().classify(G)
    assert verdict.status == INCOHERENT
    assert to_jsonable(verdict.witness)["kind"] == "join_embedding"
    assert verify_witness(G, verdict.witness)
    print(
        "criterion 3: no incoherent class below 9 edges; the complete "
        "bipartite 3x3 class at (6, 9) is INCOHERENT with a verified witness"
    )


def test_criterion_04_raag_verdicts_match_chordality(raag6, record_dir):
    assert raag6.total == 1 + 2 + 8 + 64 + 1024 + 32768
    assert raag6.unknown == ()
    checked = chordal_classes = 0
    amalgam_only = Classifier(NO_IFF)
    with open(record_dir / "raag6.jsonl", encoding="utf-8") as fh:
        assert "header" in json.loads(next(fh))
        for line in fh:
            rec = json.loads(line)
            G = graph_from_key(rec["key"])
            chordal = bool(is_chordal(G))
            assert (rec["status"] == COHERENT) == chordal, rec["key"]
            assert (rec["status"] == INCOHERENT) == (not chordal), rec["key"]
            checked += 1
            if chordal:
                chordal_classes += 1
                v = amalgam_only.classify(G)
                assert v.status == COHERENT, rec["key"]
                assert verify_proof(G, v.proof), rec["key"]
    assert checked == raag6.class_count
    print(
        f"criterion 4: {raag6.total} labeled graphs in {checked} classes, "
        f"COHERENT iff chordal; {chordal_classes} chordal classes also "
        f"proved by amalgam search alone"
    )


def test_criterion_05_chordality_matches_brute_force():
    import itertools

    evidence_checked = 0

    def check(G):
        nonlocal evidence_checked
        res = is_chordal(G)
        assert bool(res) == brute_force_is_chordal(G)
        if res:
            assert res.cycle is None and verify_peo(G, res.peo)
        else:
            assert res.peo is None and is_induced_chordless_cycle(G, res.cycle)
        evidence_checked += 1

    count = 0
    for n in range(1, 7):
        ids = [f"v{i}" for i in range(n)]
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [
                (ids[i], ids[j], 2)
                for k, (i, j) in enumerate(pairs)
                if mask >> k & 1
            ]
            check(LabeledGraph.build([(v, Z2) for v in ids], edges))
            count += 1
    assert count == 33867

    rng = random.Random(20260819)
    for _ in range(1000):
        check(random_labeled_graph(rng, max_n=9))
    assert evidence_checked == count + 1000
    print(
        f"criterion 5: chordality agrees with the induced-cycle oracle on "
        f"{count} exhaustive + 1000 random graphs, all evidence verified"
    )


def test_criterion_06_dirac_splits_on_random_chordal_graphs():
    rng = random.Random(61803)
    found = 0
    while found < 500:
        G = random_chordal_graph(rng, 10)
        if G.n < 2 or G.is_complete() or len(G.components()) > 1:
            continue
        split = dirac_split(G)
        assert verify_split(G, split)
        sep = set(split.separator)
        left, right = set(split.left), set(split.right)
        assert left | right == set(G.vertices)
        assert sep == left & right
        assert len(left) < G.n and len(right) < G.n
        assert G.induced(split.separator).is_complete()
        for u in left - sep:
            for v in right - sep:
                assert G.edge_label(u, v) is None
        found += 1
    print("criterion 6: 500 random chordal graphs split cleanly on clique separators")


def test_criterion_07_coxeter_types_and_orders():
    tol = 1e-9
    for name, r, bonds in diagram_catalog():
        G = realize_diagram(r, bonds)
        comps = classify_components(G)
        assert len(comps) == 1 and comps[0][1].name == name
        eigs = independent_cosine_eigs(G)
        neg = int(np.sum(eigs < -tol))
        zero = int(np.sum(np.abs(eigs) <= tol))
        assert (neg, zero) == ((0, 1) if name.startswith("~") else (0, 0)), name

    for n in range(1, 6):
        G = realize_diagram(n, {(i, i + 1): 3 for i in range(n - 1)})
        assert finiteness(G).order == symmetric_group_order(n) == math.factorial(n + 1)
    for n in range(2, 5):
        bonds = {(i, i + 1): 3 for i in range(n - 2)}
        bonds[(n - 2, n - 1)] = 4
        G = realize_diagram(n, bonds)
        assert finiteness(G).order == signed_permutation_order(n)
    G = realize_diagram(4, {(0, 1): 3, (1, 2): 3, (1, 3): 3})
    assert finiteness(G).order == even_signed_permutation_order(4) == 192
    for m in range(3, 9):
        G = realize_diagram(2, {(0, 1): m})
        assert finiteness(G).order == dihedral_order(m) == 2 * m

    K = symmetric_coxeter_k4()
    comps = classify_components(K)
    assert comps[0][1].name == "A4"
    assert finiteness(K).order == 120 == symmetric_group_order(4)
    print(
        f"criterion 7: {len(diagram_catalog())} diagrams match the eigenvalue "
        f"oracle; orders match the permutation models"
    )


def test_criterion_08_racg_cycles_split_over_slender_separators(named_verdicts):
    for n in range(4, 11):
        G, default_v = named_verdicts[f"racg-C{n}"]
        assert default_v.status == COHERENT
        amalgam_v = named_verdicts["racg-C4-amalgam"][1] if n == 4 else default_v
        assert amalgam_v.status == COHERENT
        assert amalgam_v.proof.rule == "amalgam"
        sep = tuple(amalgam_v.proof.data["separator"])
        assert len(sep) == 2
        assert is_slender(G.induced(sep)).verdict == SLENDER

    # the 4-cycle is also settled by slenderness directly: no abelian or
    # finite factors, two infinite-dihedral ones
    G, v = named_verdicts["racg-C4"]
    assert v.proof.rule == "slender"
    cert = is_slender(G)
    assert cert.verdict == SLENDER
    assert cert.abelian_factor_count == 0
    assert cert.finite_factor_count == 0
    assert cert.affine_factor_count == 2
    print(
        "criterion 8: cycles C4..C10 COHERENT via 2-vertex slender separators; "
        "both C4 derivations agree"
    )


def test_criterion_09_named_instances(named_verdicts):
    G, v = named_verdicts["gp-square-z3"]
    assert v.status == INCOHERENT
    w = to_jsonable(v.witness)
    assert w["kind"] == "join_embedding"
    assert verify_witness(G, v.witness)

    _, v = named_verdicts["gp-pentagon-z3"]
    assert v.status == UNKNOWN
    assert "open-problem" in {note.code for note in v.notes}

    G, v = named_verdicts["artin-braid-k4"]
    assert v.status == INCOHERENT
    w = to_jsonable(v.witness)
    assert w["kind"] == "wise_gordon" and w["violation"] == "clique_big_labels"
    assert verify_witness(G, v.witness)

    _, v = named_verdicts["coxeter-333"]
    _, v_mw = named_verdicts["coxeter-333-mw"]
    assert v.status == v_mw.status == COHERENT
    assert v.proof.rule == "slender"
    assert v_mw.proof.rule == "mccammond_wise"
    print(
        "criterion 9: Z3-square INCOHERENT, Z3-pentagon UNKNOWN (open-problem), "
        "braid K4 INCOHERENT (clique condition), (3,3,3) COHERENT twice over"
    )


def test_criterion_10_soundness_sweep(record_dir, racg5, racg6_full, raag6, named_verdicts):
    proofs = witnesses = 0
    for stem in ("racg5", "racg6", "raag6"):
        with open(record_dir / f"{stem}.jsonl", encoding="utf-8") as fh:
            assert "header" in json.loads(next(fh))
            for line in fh:
                rec = json.loads(line)
                G = graph_from_key(rec["key"])
                verdict = verdict_from_jsonable(rec["verdict"])
                if verdict.status == COHERENT:
                    assert verify_proof(G, verdict.proof), rec["key"]
                    proofs += 1
                elif verdict.status == INCOHERENT:
                    assert verify_witness(G, verdict.witness), rec["key"]
                    witnesses += 1
    for G, verdict in named_verdicts.values():
        if verdict.status == COHERENT:
            assert verify_proof(G, verdict.proof)
            proofs += 1
        elif verdict.status == INCOHERENT:
            assert verify_witness(G, verdict.witness)
            witnesses += 1

    # mutation tests: each tamper must be rejected
    G, v = named_verdicts["racg-C6"]
    dropped = dataclasses.replace(v.proof, children=v.proof.children[:-1])
    assert not verify_proof(G, dropped)
    data = dict(v.proof.data)
    data["separator"] = ("v0", "v1")  # adjacent pair: not the emitted separator
    broken = dataclasses.replace(v.proof, data=data)
    assert not verify_proof(G, broken)

    G, v = named_verdicts["racg-C4"]
    relabeled = LabeledGraph.build(
        [(x, Z2) for x in "abcd"],
        [("a", "b", 4), ("b", "c", 2), ("c", "d", 2), ("a", "d", 2)],
    )
    renamed = dataclasses.replace(
        v.proof, vertices=tuple("abcd"), key=v.proof.key
    )
    assert not verify_proof(relabeled, renamed)

    G, v = named_verdicts["gp-square-z3"]
    bad_side = dataclasses.replace(v.witness, side_b=(v.witness.side_b[0],) * 2)
    assert not verify_witness(G, bad_side)
    G, v = named_verdicts["artin-braid-k4"]
    flipped = dataclasses.replace(v.witness, violation="forbidden_square")
    assert not verify_witness(G, flipped)

    print(
        f"criterion 10: {proofs} proofs and {witnesses} witnesses re-verified; "
        f"all five tampered artifacts rejected"
    )
