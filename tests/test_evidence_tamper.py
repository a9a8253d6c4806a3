"""Tampered evidence is refused: every id list and every piece of
structure in a stored verdict is mutated, and each mutant must fail to
parse or be refused by ``check_verdict``.

The verdicts are the JSON records of two census sweeps (racg n <= 5,
coxeter n <= 4 with labels 2,3,4,5), the classify-proofs gallery of
``bench/workloads.py`` and ``NESTED_FACTORS``.  The id lists are the
vertices of every proof node, amalgam sides and separators, free-product
components, slender factor vertices, elimination orderings, join sides
and certificates, cycles, violation vertices and factor vertices (the
vertices of a note of an UNKNOWN verdict are not evidence, and no verdict
that carries evidence has notes).  Each list gets four kinds of mutant:
a vertex duplicated, a vertex dropped (at every position), an unknown id
inserted, and a string where the array was.  The structure operators
change each proof node's key, replace its rule by every other rule, drop
or duplicate its last child, swap an amalgam's sides (in its data alone,
and together with its children), reverse a stored elimination ordering,
replace a Wise-Gordon violation by each other kind, and swap a join's
sides together with their certificates.

A mutant may stay valid evidence: a factor that drops a vertex its inner
witness does not use still carries that witness, a mirrored split is a
split, and a rule may be replaced by one whose premise also holds.  Only
the operators on the written allow-lists ``STILL_VALID`` and
``STILL_VALID_STRUCTURE`` may be accepted, and each accepted mutant is
checked again by a brute-force reading of the definitions on plain dicts.

Run as a script, ``python tests/test_evidence_tamper.py racg:6 raag:5``
checks the records of more census sweeps (flavor:max-vertices) the same
way, and prints the mutant count of each operator.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from graphcoherence import Classifier, Z, Z2, parse_graph
from graphcoherence.census import CensusConfig, run_census
from graphcoherence.coherence_engine import (
    PROOF_RULES,
    check_verdict,
    to_jsonable,
    verdict_from_jsonable,
)
from graphcoherence.labeled_graph import InternalInvariantError, graph_from_key

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

# Keys whose value is a list of vertex ids; "components" holds a list of them.
ID_KEYS = frozenset({"vertices", "cycle", "side_a", "side_b", "peo", "separator", "left", "right"})
UNKNOWN_ID = "zz-unknown"

# (kind of the dict holding the list, its key, operator) of the mutants
# that may stay valid evidence.
STILL_VALID = frozenset(
    {
        # The factor may keep every vertex its inner witness uses.
        ("incoherent_factor", "vertices", "drop"),
        # Three vertices of a 4-clique may still carry two labels above 2.
        ("wise_gordon", "vertices", "drop"),
        # A side may be larger than its certificate.
        ("join_embedding", "side_a", "drop"),
        ("join_embedding", "side_b", "drop"),
    }
)


def id_lists(obj, kind=None, path=()):
    """``(path, kind, key)`` of every id list in a verdict's JSON form,
    with the ``kind`` of the dict holding it (None for proof nodes and
    their data)."""
    if isinstance(obj, dict):
        kind = obj.get("kind", kind if "rule" not in obj else None)
        for key, value in obj.items():
            if key == "notes":
                continue
            if key in ID_KEYS and isinstance(value, list) and all(type(v) is str for v in value):
                yield path + (key,), kind, key
            elif key == "components" and isinstance(value, list):
                for i in range(len(value)):
                    yield path + (key, i), kind, key
            else:
                yield from id_lists(value, kind, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from id_lists(value, kind, path + (i,))


def mutants(ids: list, rng: random.Random):
    """``(operator, mutated value)`` for one id list."""
    if ids:
        i = rng.randrange(len(ids))
        j = rng.randrange(len(ids) + 1)
        yield "duplicate", ids[:j] + [ids[i]] + ids[j:]
    for i in range(len(ids)):
        yield "drop", ids[:i] + ids[i + 1 :]
    j = rng.randrange(len(ids) + 1)
    yield "unknown", ids[:j] + [UNKNOWN_ID] + ids[j:]
    yield "string", "".join(ids)


def id_list_mutants(verdict_json: dict, name: str):
    """``(operator, (kind, key))`` for each id-list mutant of the verdict,
    made in place and undone when the next is asked for; the random
    choices are seeded by the case ``name``."""
    rng = random.Random(name)
    for path, kind, key in list(id_lists(verdict_json)):
        holder = verdict_json
        for step in path[:-1]:
            holder = holder[step]
        original = holder[path[-1]]
        for operator, value in mutants(original, rng):
            holder[path[-1]] = value
            try:
                yield operator, (kind, key)
            finally:
                holder[path[-1]] = original


VIOLATIONS = ("long_cycle", "clique_big_labels", "forbidden_square")


def _edited(target: dict, operator: str, changes: dict):
    """``target`` with ``changes`` made in place while the mutant is
    checked, then restored."""
    saved = {k: target[k] for k in changes}
    target.update(changes)
    try:
        yield operator, target
    finally:
        target.update(saved)


def _proof_nodes(node):
    if node is not None:
        yield node
        for child in node["children"]:
            yield from _proof_nodes(child)


def _witnesses(w):
    while w is not None:
        yield w
        w = w.get("inner")


def structure_mutants(verdict_json: dict):
    """``(operator, target)`` for each structure mutant of the verdict,
    ``target`` being the proof node or witness dict changed; each is
    made in place and undone when the next is asked for."""
    for node in _proof_nodes(verdict_json.get("proof")):
        yield from _edited(node, "key", {"key": node["key"] + "x"})
        for rule in PROOF_RULES:
            if rule != node["rule"]:
                yield from _edited(node, f"rule {node['rule']}->{rule}", {"rule": rule})
        children = node["children"]
        if children:
            yield from _edited(node, "drop last child", {"children": children[:-1]})
            yield from _edited(node, "duplicate last child", {"children": children + children[-1:]})
        data = node["data"]
        if node["rule"] == "amalgam":
            swapped = {**data, "left": data["right"], "right": data["left"]}
            yield from _edited(node, "swap split sides", {"data": swapped})
            mirrored = {"data": swapped, "children": children[::-1]}
            yield from _edited(node, "mirror split", mirrored)
        peo = data.get("peo")
        if peo is not None and len(peo) > 1:
            yield from _edited(node, "reverse peo", {"data": {**data, "peo": peo[::-1]}})
    for w in _witnesses(verdict_json.get("witness")):
        if w["kind"] == "wise_gordon":
            for violation in VIOLATIONS:
                if violation != w["violation"]:
                    yield from _edited(w, "violation kind", {"violation": violation})
        if w["kind"] == "join_embedding":
            swap = {"side_a": w["side_b"], "side_b": w["side_a"]}
            swap.update(cert_a=w["cert_b"], cert_b=w["cert_a"])
            yield from _edited(w, "swap join", swap)


# The two families of mutants, each made from a verdict's JSON and the
# name of its case.
FAMILIES = {
    "id lists": id_list_mutants,
    "structure": lambda verdict_json, name: structure_mutants(verdict_json),
}


def tamper(G, verdict_json: dict, clf: Classifier, name: str, family) -> tuple[Counter, list]:
    """Check every mutant of the verdict in one of ``FAMILIES``: returns
    the count of mutants of each operator and the accepted ones as
    ``(operator, where, mutated verdict JSON)``, ``where`` being the
    ``(kind, key)`` of an id list or the target of a structure operator.
    Any exception but a refusal propagates, as a crash."""
    counts = Counter()
    accepted = []
    for operator, where in family(verdict_json, name):
        counts[operator] += 1
        try:
            verdict = verdict_from_jsonable(verdict_json)
        except (ValueError, KeyError, TypeError):
            continue
        try:
            check_verdict(G, verdict, subject=name, classifier=clf)
        except InternalInvariantError:
            continue
        mutant = json.loads(json.dumps(verdict_json))
        accepted.append((operator, json.loads(json.dumps(where)), mutant))
    return counts, accepted


# -- the brute-force witness check ------------------------------------------------


def _plain(G):
    """G as plain dicts: each vertex's group and each edge's label."""
    groups = dict(zip(G.vertices, G.groups))
    labels = {frozenset((u, v)): m for u, v, m in G.edge_list()}
    return groups, labels


def _cycle_holds(labels, cycle) -> bool:
    k = len(cycle)
    return k >= 4 and all(
        (frozenset((cycle[i], cycle[j])) in labels) == ((j - i) % k in (1, k - 1))
        for i, j in itertools.combinations(range(k), 2)
    )


def brute_force_witness(groups: dict, labels: dict, w: dict) -> bool:
    """The witness ``w`` (JSON form) by its definition on the graph with
    these vertex ``groups`` and edge ``labels``."""
    kind = w["kind"]
    ids = [v for key in ("vertices", "cycle", "side_a", "side_b") for v in w.get(key, ())]
    if any(v not in groups for v in ids):
        return False
    if kind == "incoherent_factor":
        factor = w["vertices"]
        if len(set(factor)) != len(factor):
            return False
        inside = {e: m for e, m in labels.items() if e <= set(factor)}
        return brute_force_witness({v: groups[v] for v in factor}, inside, w["inner"])
    if kind == "droms_cycle":
        cycle = w["cycle"]
        raag = all(g == Z for g in groups.values()) and set(labels.values()) <= {2}
        return raag and len(set(cycle)) == len(cycle) and _cycle_holds(labels, cycle)
    if kind == "wise_gordon":
        vs = w["vertices"]
        if not all(g == Z for g in groups.values()) or len(set(vs)) != len(vs):
            return False
        pairs = [labels.get(frozenset(p)) for p in itertools.combinations(vs, 2)]
        if w["violation"] == "long_cycle":
            return _cycle_holds(labels, vs)
        if w["violation"] == "clique_big_labels":
            return len(vs) in (3, 4) and None not in pairs and sum(m > 2 for m in pairs) >= 2
        if len(vs) != 4:
            return False
        a, b, c, d = vs
        heavy = labels.get(frozenset((a, b)), 0) > 2
        sides = [labels.get(frozenset((x, y))) for x in (c, d) for y in (a, b)]
        return heavy and frozenset((c, d)) not in labels and sides == [2, 2, 2, 2]
    sides = w["side_a"], w["side_b"]
    certs = w["cert_a"], w["cert_b"]
    if any(not side or len(set(side)) != len(side) for side in sides):
        return False
    if set(sides[0]) & set(sides[1]):
        return False
    if not all(labels.get(frozenset((x, y))) == 2 for x in sides[0] for y in sides[1]):
        return False
    for side, cert in zip(sides, certs):
        vs = cert["vertices"]
        if not set(vs) <= set(side) or len(set(vs)) != len(vs):
            return False
        if any(frozenset(p) in labels for p in itertools.combinations(vs, 2)):
            return False
        if cert["kind"] == "free_pair":
            if len(vs) != 2 or all(groups[v].is_order_two for v in vs):
                return False
        elif cert["kind"] != "independent_triple" or len(vs) != 3:
            return False
    return True


def _within(labels: dict, vertices) -> list:
    """The labels of the edges among ``vertices``."""
    vs = set(vertices)
    return [m for e, m in labels.items() if e <= vs]


def _is_peo(labels: dict, vertices, peo) -> bool:
    """``peo`` lists ``vertices`` once each, and the later neighbours of
    each vertex are pairwise adjacent."""
    if sorted(peo) != sorted(vertices):
        return False
    adjacent = lambda a, b: frozenset((a, b)) in labels  # noqa: E731
    return all(
        adjacent(a, b)
        for i, v in enumerate(peo)
        for a, b in itertools.combinations([w for w in peo[i + 1 :] if adjacent(v, w)], 2)
    )


def _complete_label_two(groups, labels, node, verdict) -> bool:
    """A complete graph with every label 2: a direct product of f.g.
    abelian groups, so abelian and slender."""
    vs = node["vertices"]
    return all(labels.get(frozenset(p)) == 2 for p in itertools.combinations(vs, 2))


def _large_labels(groups, labels, node, verdict) -> bool:
    """McCammond and Wise's premise: every vertex of order two and every
    label at least the vertex count."""
    vs = node["vertices"]
    return all(groups[v] == Z2 for v in vs) and all(m >= len(vs) for m in _within(labels, vs))


def _chordal_raag(groups, labels, node, verdict) -> bool:
    """All-Z with every label 2, and the stored ordering a perfect
    elimination ordering: chordal, so the Wise-Gordon conditions hold
    (with no label above 2 they ask chordality alone)."""
    vs = node["vertices"]
    raag = all(groups[v] == Z for v in vs) and all(m == 2 for m in _within(labels, vs))
    return raag and _is_peo(labels, vs, node["data"]["peo"])


def _mirrored_split(groups, labels, node, verdict) -> bool:
    """The sides cover the node, meet in the separator, and no edge
    joins their parts outside it."""
    left, right, sep = (set(node["data"][k]) for k in ("left", "right", "separator"))
    crossing = any(frozenset((x, y)) in labels for x in left - sep for y in right - sep)
    return left | right == set(node["vertices"]) and left & right == sep and not crossing


def _reversed_peo(groups, labels, node, verdict) -> bool:
    return _is_peo(labels, node["vertices"], node["data"]["peo"])


def _swapped_join(groups, labels, node, verdict) -> bool:
    return brute_force_witness(groups, labels, verdict["witness"])


# Structure operators whose mutants may stay valid evidence, each with
# its brute-force check of the mutated proof node or witness.
STILL_VALID_STRUCTURE = {
    "rule abelian->slender": _complete_label_two,
    "rule droms_chordal->abelian": _complete_label_two,
    "rule droms_chordal->slender": _complete_label_two,
    "rule abelian->mccammond_wise": _large_labels,
    "rule slender->mccammond_wise": _large_labels,
    "rule droms_chordal->wise_gordon": _chordal_raag,
    "mirror split": _mirrored_split,
    "reverse peo": _reversed_peo,
    "swap join": _swapped_join,
}


# -- inputs --------------------------------------------------------------------------


def census_cases(tmp_dir: Path, flavor: str, max_vertices: int, labels=(2,)):
    """``(name, G, verdict JSON, classifier)`` for each record of a census
    sweep with an ``--out`` file, each on its class's representative; one
    classifier checks the whole sweep, as a resumed census does."""
    config = CensusConfig(flavor=flavor, max_vertices=max_vertices, edge_labels=labels)
    out = tmp_dir / f"{flavor}-{max_vertices}-{'-'.join(map(str, labels))}.jsonl"
    run_census(config, out_path=str(out))
    clf = Classifier()
    for line in out.read_text().splitlines()[1:]:
        rec = json.loads(line)
        yield f"{flavor}:{rec['key']}", graph_from_key(rec["key"]), rec["verdict"], clf


def gallery_cases():
    spec = importlib.util.spec_from_file_location("tamper_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    for op in workloads.operations("classify-proofs", 1):
        G = parse_graph(op.document)
        clf = Classifier()
        yield op.name, G, to_jsonable(clf.classify(G)), clf


def check_cases(cases, family) -> tuple[Counter, Counter]:
    """Tamper with every case by one of ``FAMILIES``; returns the mutant
    count of each operator and the count of allow-listed mutants of each
    that stayed valid evidence."""
    counts = Counter()
    still_valid = Counter()
    for name, G, verdict_json, clf in cases:
        case_counts, accepted = tamper(G, verdict_json, clf, name, family)
        counts += case_counts
        groups, labels = _plain(G)
        for operator, where, mutant in accepted:
            if isinstance(where, dict):
                assert operator in STILL_VALID_STRUCTURE, (name, operator, mutant)
                still = STILL_VALID_STRUCTURE[operator](groups, labels, where, mutant)
                assert still, (name, operator, mutant)
            else:
                kind, key = where
                assert (kind, key, operator) in STILL_VALID, (name, kind, key, operator, mutant)
                assert brute_force_witness(groups, labels, mutant["witness"]), (name, mutant)
            still_valid[operator] += 1
    return counts, still_valid


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """The verdicts of both sweeps, the gallery and ``NESTED_FACTORS``;
    every mutant is undone after its check, so both families share them."""
    from test_evidence_references import NESTED_FACTORS

    tmp = tmp_path_factory.mktemp("tamper")
    clf = Classifier()
    nested = [("nested-factors", NESTED_FACTORS, to_jsonable(clf.classify(NESTED_FACTORS)), clf)]
    return list(
        itertools.chain(
            census_cases(tmp, "racg", 5),
            census_cases(tmp, "coxeter", 4, (2, 3, 4, 5)),
            gallery_cases(),
            nested,
        )
    )


def test_every_id_list_mutant_is_refused_or_still_valid(cases):
    counts, still_valid = check_cases(cases, FAMILIES["id lists"])
    assert sum(counts.values()) >= 20000
    # Dropping x from NESTED_FACTORS's outer factor, or w from the next
    # one, leaves the pentagon's cycle inside each: valid evidence.
    assert still_valid["drop"] >= 2


def test_every_structure_mutant_is_refused_or_still_valid(cases):
    counts, still_valid = check_cases(cases, FAMILIES["structure"])
    assert sum(counts.values()) >= 10000
    # Every operator ran, and every allow-listed one but the droms_chordal
    # rule changes (no chordal RAAG here) met valid evidence.
    operators = ["key", "drop last child", "duplicate last child", "swap split sides"]
    operators += ["mirror split", "reverse peo", "violation kind", "swap join"]
    assert all(counts[operator] for operator in operators), counts
    met = [operator for operator in STILL_VALID_STRUCTURE if "droms" not in operator]
    assert all(still_valid[operator] for operator in met), still_valid


def test_the_brute_force_check_refuses_broken_witnesses():
    """The brute-force check refuses what the engine's checks refuse, on
    one witness of each kind."""
    from test_evidence_references import NESTED_FACTORS

    groups, labels = _plain(NESTED_FACTORS)
    w = to_jsonable(Classifier().classify(NESTED_FACTORS).witness)
    assert brute_force_witness(groups, labels, w)
    cycle = w["inner"]["inner"]["inner"]
    assert not brute_force_witness(groups, labels, {**cycle, "cycle": cycle["cycle"][:-1]})
    assert not brute_force_witness(groups, labels, {**w, "vertices": w["vertices"][1:4]})
    assert not brute_force_witness(groups, labels, {**w, "vertices": w["vertices"] * 2})


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for sweep in argv:
            flavor, n = sweep.split(":")
            cases = list(census_cases(Path(tmp), flavor, int(n)))
            for family, mutants_of in FAMILIES.items():
                counts, still_valid = check_cases(cases, mutants_of)
                total, valid = sum(counts.values()), sum(still_valid.values())
                print(f"{sweep} {family}: {total} mutants, {valid} still valid, none else accepted")
                for operator in sorted(counts):
                    valid = still_valid[operator]
                    print(f"  {operator}: {counts[operator]} mutants, {valid} still valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
