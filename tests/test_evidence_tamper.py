"""Tampered evidence is refused: every id list in a stored verdict is
mutated, and each mutant must fail to parse or be refused by
``check_verdict``.

The verdicts are the JSON records of two census sweeps (racg n <= 5,
coxeter n <= 4 with labels 2,3,4,5), the classify-proofs gallery of
``bench/workloads.py`` and ``NESTED_FACTORS``.  The id lists are the
vertices of every proof node, amalgam sides and separators, free-product
components, slender factor vertices, elimination orderings, join sides
and certificates, cycles, violation vertices and factor vertices (the
vertices of a note of an UNKNOWN verdict are not evidence, and no verdict
that carries evidence has notes).  Each list gets four kinds of mutant:
a vertex duplicated, a vertex dropped (at every position), an unknown id
inserted, and a string where the array was.

A mutant may stay valid evidence: a factor that drops a vertex its inner
witness does not use still carries that witness.  Only the operators on
the written allow-list ``STILL_VALID`` may be accepted, and each accepted
mutant is checked again by a brute-force reading of its witness's
definition on plain dicts.

Run as a script, ``python tests/test_evidence_tamper.py racg:6 raag:5``
checks the records of more census sweeps (flavor:max-vertices) the same
way.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

from graphcoherence import Classifier, Z, parse_graph
from graphcoherence.census import CensusConfig, run_census
from graphcoherence.coherence_engine import check_verdict, to_jsonable, verdict_from_jsonable
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


def tamper(G, verdict_json: dict, clf: Classifier, name: str) -> tuple[int, list]:
    """Check every mutant of the verdict: returns the count of mutants
    and the accepted ones as ``(kind, key, operator, mutated verdict
    JSON)``.  Each mutant is made in place and undone after its check;
    any exception but a refusal propagates, as a crash."""
    rng = random.Random(name)
    count = 0
    accepted = []
    for path, kind, key in list(id_lists(verdict_json)):
        holder = verdict_json
        for step in path[:-1]:
            holder = holder[step]
        original = holder[path[-1]]
        for operator, value in mutants(original, rng):
            count += 1
            holder[path[-1]] = value
            try:
                verdict = verdict_from_jsonable(verdict_json)
            except (ValueError, KeyError, TypeError):
                holder[path[-1]] = original
                continue
            try:
                check_verdict(G, verdict, subject=name, classifier=clf)
            except InternalInvariantError:
                pass
            else:
                accepted.append((kind, key, operator, json.loads(json.dumps(verdict_json))))
            finally:
                holder[path[-1]] = original
    return count, accepted


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


def check_cases(cases) -> tuple[int, int]:
    """Tamper with every case; returns the mutant count and the count of
    allow-listed mutants that stayed valid evidence."""
    total = still_valid = 0
    for name, G, verdict_json, clf in cases:
        count, accepted = tamper(G, verdict_json, clf, name)
        total += count
        groups, labels = _plain(G)
        for kind, key, operator, mutant in accepted:
            assert (kind, key, operator) in STILL_VALID, (name, kind, key, operator, mutant)
            assert brute_force_witness(groups, labels, mutant["witness"]), (name, mutant)
        still_valid += len(accepted)
    return total, still_valid


def test_every_id_list_mutant_is_refused_or_still_valid(tmp_path):
    from test_evidence_references import NESTED_FACTORS

    clf = Classifier()
    nested = [("nested-factors", NESTED_FACTORS, to_jsonable(clf.classify(NESTED_FACTORS)), clf)]
    cases = itertools.chain(
        census_cases(tmp_path, "racg", 5),
        census_cases(tmp_path, "coxeter", 4, (2, 3, 4, 5)),
        gallery_cases(),
        nested,
    )
    total, still_valid = check_cases(cases)
    assert total >= 20000
    # Dropping x from NESTED_FACTORS's outer factor, or w from the next
    # one, leaves the pentagon's cycle inside each: valid evidence.
    assert still_valid >= 2


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
            total, still_valid = check_cases(census_cases(Path(tmp), flavor, int(n)))
            print(f"{sweep}: {total} mutants, {still_valid} still valid, none else accepted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
