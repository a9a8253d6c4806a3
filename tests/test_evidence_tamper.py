"""Tampered evidence is refused: every id list, every piece of structure
and every field in a stored verdict is mutated, and each mutant must fail
to parse or be refused by ``check_verdict``; every summary field of a
census record is edited, and each edited record must be refused on
resume.

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
and together with its children), reverse a stored elimination ordering
and shuffle it otherwise, replace a Wise-Gordon violation by each other
kind, swap two neighbours in its vertex list and replace each of its
vertices by each vertex of the graph it does not list, swap a
join's sides together with their certificates, move the certificates to
the other sides, and change a certificate's kind.  The field operators
drop each key of every dict in the verdict: each field of the verdict,
its notes, witnesses and proof nodes, and each data key.  The engine
writes every field, so each of those mutants is refused.

A mutant may stay valid evidence: a factor that drops a vertex its inner
witness does not use still carries that witness, a mirrored split is a
split, and a rule may be replaced by one whose premise also holds and
whose data it reads.  Only the operators on the written allow-lists
``STILL_VALID`` and ``STILL_VALID_STRUCTURE`` may be accepted, and each
accepted mutant is checked again by a brute-force reading of the
definitions on plain dicts.

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
from graphcoherence.census import CensusConfig, _checked_key, _record_job, run_census
from graphcoherence.coherence_engine import (
    COHERENT,
    INCOHERENT,
    PROOF_RULES,
    UNKNOWN,
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


def structure_mutants(G, verdict_json: dict, name: str):
    """``(operator, target)`` for each structure mutant of the verdict,
    ``target`` being the proof node or witness dict changed; each is
    made in place and undone when the next is asked for.  The shuffles
    are seeded by the case ``name``."""
    rng = random.Random(name)
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
        if peo is not None and len(peo) > 2:
            shuffled = peo
            while shuffled in (peo, peo[::-1]):
                shuffled = rng.sample(peo, len(peo))
            yield from _edited(node, "shuffle peo", {"data": {**data, "peo": shuffled}})
    for w in _witnesses(verdict_json.get("witness")):
        if w["kind"] == "wise_gordon":
            for violation in VIOLATIONS:
                if violation != w["violation"]:
                    yield from _edited(w, "violation kind", {"violation": violation})
            vertices = w["vertices"]
            for i in range(len(vertices) - 1):
                swapped = vertices[:i] + [vertices[i + 1], vertices[i]] + vertices[i + 2 :]
                yield from _edited(w, "violation vertices", {"vertices": swapped})
            for i, v in itertools.product(range(len(vertices)), G.vertices):
                if v not in vertices:
                    replaced = vertices[:i] + [v] + vertices[i + 1 :]
                    yield from _edited(w, "violation vertices", {"vertices": replaced})
        if w["kind"] == "join_embedding":
            swap = {"side_a": w["side_b"], "side_b": w["side_a"]}
            swap.update(cert_a=w["cert_b"], cert_b=w["cert_a"])
            yield from _edited(w, "swap join", swap)
            certs = {"cert_a": w["cert_b"], "cert_b": w["cert_a"]}
            yield from _edited(w, "certificates to other sides", certs)
            for side in ("cert_a", "cert_b"):
                cert = w[side]
                kind = {"free_pair": "independent_triple"}.get(cert["kind"], "free_pair")
                yield from _edited(w, "certificate kind", {side: {**cert, "kind": kind}})


def _dicts(obj):
    """Every dict in a JSON value, outermost first."""
    if isinstance(obj, dict):
        yield obj
        obj = list(obj.values())
    if isinstance(obj, list):
        for value in obj:
            yield from _dicts(value)


def field_mutants(G, verdict_json: dict, name: str):
    """``("drop KEY", holder)`` for each mutant that drops one key from
    one dict of the verdict, made in place and undone, in the same key
    order, when the next is asked for."""
    for holder in list(_dicts(verdict_json)):
        items = list(holder.items())
        for key, _ in items:
            del holder[key]
            try:
                yield f"drop {key}", holder
            finally:
                holder.clear()
                holder.update(items)


# The three families of mutants, each made from the graph, a verdict's
# JSON and the name of its case.
FAMILIES = {
    "id lists": lambda G, verdict_json, name: id_list_mutants(verdict_json, name),
    "structure": structure_mutants,
    "fields": field_mutants,
}


def tamper(G, verdict_json: dict, clf: Classifier, name: str, family) -> tuple[Counter, list]:
    """Check every mutant of the verdict in one of ``FAMILIES``: returns
    the count of mutants of each operator and the accepted ones as
    ``(operator, where, mutated verdict JSON)``, ``where`` being the
    ``(kind, key)`` of an id list or the target of a structure operator.
    Any exception but a refusal propagates, as a crash."""
    counts = Counter()
    accepted = []
    for operator, where in family(G, verdict_json, name):
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


def _stored_peo(groups, labels, node, verdict) -> bool:
    return _is_peo(labels, node["vertices"], node["data"]["peo"])


def _witness_holds(groups, labels, node, verdict) -> bool:
    return brute_force_witness(groups, labels, verdict["witness"])


# Structure operators whose mutants may stay valid evidence, each with
# its brute-force check of the mutated proof node or witness.  A rule
# change is valid only between rules that store the same data.
STILL_VALID_STRUCTURE = {
    "rule abelian->slender": _complete_label_two,
    "rule droms_chordal->wise_gordon": _chordal_raag,
    "mirror split": _mirrored_split,
    "reverse peo": _stored_peo,
    "shuffle peo": _stored_peo,
    "swap join": _witness_holds,
    "violation vertices": _witness_holds,
}


# -- inputs --------------------------------------------------------------------------


def census_records(tmp_dir: Path, flavor: str, max_vertices: int, labels=(2,)) -> list[dict]:
    """The records of a census sweep with an ``--out`` file."""
    config = CensusConfig(flavor=flavor, max_vertices=max_vertices, edge_labels=labels)
    out = tmp_dir / f"{flavor}-{max_vertices}-{'-'.join(map(str, labels))}.jsonl"
    run_census(config, out_path=str(out))
    return [json.loads(line) for line in out.read_text().splitlines()[1:]]


def census_cases(records: list[dict], flavor: str):
    """``(name, G, verdict JSON, classifier)`` for each record of a census
    sweep, each on its class's representative; one classifier checks the
    whole sweep, as a resumed census does."""
    clf = Classifier()
    for rec in records:
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


# -- census record summaries -----------------------------------------------------------


STATUSES = (COHERENT, INCOHERENT, UNKNOWN)


def summary_mutants(rec: dict):
    """``("edit FIELD", record)`` for one edit of each summary field of a
    census record."""
    edits = {
        "n": rec["n"] + 1,
        "e": rec["e"] + 1,
        "flavor": rec["flavor"] + ["artin"],
        "status": STATUSES[STATUSES.index(rec["status"]) - 1],
        "rule": "bogus",
        "notes": rec["notes"] + ["bogus"],
    }
    for field, value in edits.items():
        yield f"edit {field}", {**rec, field: value}


def resume_refuses(rec: dict, CG, clf: Classifier) -> bool:
    """Whether resuming a census refuses the stored record ``rec`` of the
    class of ``CG``, the class's representative: on loading it, or on
    checking it against ``CG`` as ``_record_job`` does."""
    try:
        _checked_key(rec, {})
        _record_job(clf, True, (CG.n, CG.m, rec["key"], CG, 1, json.dumps(rec).encode()))
    except ValueError:
        return True
    return False


def check_summaries(records: list[dict]) -> Counter:
    """Edit every summary field of every record; returns the mutant
    count of each operator.  Each unedited record is resumed, and each
    edited one refused."""
    clf = Classifier()
    counts = Counter()
    for rec in records:
        CG = graph_from_key(rec["key"])
        assert not resume_refuses(rec, CG, clf), rec["key"]
        for operator, mutant in summary_mutants(rec):
            counts[operator] += 1
            assert resume_refuses(mutant, CG, clf), (operator, mutant)
    return counts


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """The records of both census sweeps, by flavor."""
    tmp = tmp_path_factory.mktemp("tamper")
    return {
        "racg": census_records(tmp, "racg", 5),
        "coxeter": census_records(tmp, "coxeter", 4, (2, 3, 4, 5)),
    }


@pytest.fixture(scope="module")
def cases(sweeps):
    """The verdicts of both sweeps, the gallery and ``NESTED_FACTORS``;
    every mutant is undone after its check, so all families share them."""
    from test_evidence_references import NESTED_FACTORS

    clf = Classifier()
    nested = [("nested-factors", NESTED_FACTORS, to_jsonable(clf.classify(NESTED_FACTORS)), clf)]
    census = [census_cases(records, flavor) for flavor, records in sweeps.items()]
    return list(itertools.chain(*census, gallery_cases(), nested))


def test_every_id_list_mutant_is_refused_or_still_valid(cases):
    counts, still_valid = check_cases(cases, FAMILIES["id lists"])
    assert sum(counts.values()) >= 20000
    # Dropping x from NESTED_FACTORS's outer factor, or w from the next
    # one, leaves the pentagon's cycle inside each: valid evidence.
    assert still_valid["drop"] >= 2


def test_every_structure_mutant_is_refused_or_still_valid(cases):
    counts, still_valid = check_cases(cases, FAMILIES["structure"])
    assert sum(counts.values()) >= 10000
    # Every operator ran, and these allow-listed ones met valid evidence
    # (there is no chordal RAAG here, and no clique violation).
    operators = ["key", "drop last child", "duplicate last child", "swap split sides"]
    operators += ["mirror split", "reverse peo", "shuffle peo", "violation kind"]
    operators += ["violation vertices", "swap join", "certificates to other sides"]
    operators += ["certificate kind"]
    assert all(counts[operator] for operator in operators), counts
    met = ["rule abelian->slender", "mirror split", "reverse peo", "swap join"]
    assert all(still_valid[operator] for operator in met), still_valid


def test_every_field_drop_is_refused(cases):
    counts, still_valid = check_cases(cases, FAMILIES["fields"])
    assert not still_valid
    # Each field of a verdict, note, witness and proof node, and each
    # data key the engine writes, was dropped.
    fields = ["status", "proof", "witness", "notes", "code", "detail"]
    fields += ["rule", "vertices", "key", "data", "children", "kind", "inner"]
    fields += ["side_a", "side_b", "cert_a", "cert_b", "cycle", "violation"]
    fields += ["peo", "certificate", "reason", "factors", "type", "components"]
    fields += ["separator", "left", "right", "method", "vertex_count", "min_edge_label"]
    assert all(counts[f"drop {field}"] for field in fields), counts


def test_every_summary_field_edit_is_refused_on_resume(sweeps):
    counts = Counter()
    for records in sweeps.values():
        counts += check_summaries(records)
    fields = ["n", "e", "flavor", "status", "rule", "notes"]
    assert all(counts[f"edit {field}"] for field in fields), counts


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


def _print_counts(title: str, counts: Counter, still_valid: Counter) -> None:
    total, valid = sum(counts.values()), sum(still_valid.values())
    print(f"{title}: {total} mutants, {valid} still valid, none else accepted")
    for operator in sorted(counts):
        print(f"  {operator}: {counts[operator]} mutants, {still_valid[operator]} still valid")


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for sweep in argv:
            flavor, n = sweep.split(":")
            records = census_records(Path(tmp), flavor, int(n))
            cases = list(census_cases(records, flavor))
            for family, mutants_of in FAMILIES.items():
                _print_counts(f"{sweep} {family}", *check_cases(cases, mutants_of))
            _print_counts(f"{sweep} summaries", check_summaries(records), Counter())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
