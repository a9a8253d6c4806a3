"""The command line gives the same answer for a graph written as JSON
and as DOT: classify, decompose, present and finiteness, in text and in
JSON, over graphs of every flavor whose vertex ids hold DOT punctuation,
comment starters, keywords and non-ASCII text."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from graphcoherence import AbelianGroupLabel, LabeledGraph, Z, Z2, cyclic
from graphcoherence.cli import main
from graphcoherence.group_model import LITERAL_BRAID_MAX
from graphcoherence.labeled_graph import graph_to_jsonable, parse_graph
from helpers import dot_document

# Pieces of vertex ids: everything the DOT subset treats specially, plus
# non-ASCII text.  A backslash is kept out, since an id ending in one or
# holding one before a quote cannot be quoted (see helpers.dot_quote).
ID_PIECES = (
    "a", "b", "1", "-", "--", ";", ",", '"', " ", "#", "//", "/*", "*/",
    "{", "}", "[", "]", "=", "é", "Γ", "图",
    "graph", "digraph", "strict", "node", "edge", "subgraph",
)
VERTEX_IDS = st.lists(st.sampled_from(ID_PIECES), min_size=1, max_size=3).map("".join)

# The vertex groups the DOT subset can write: Z, Z^r and Z_d.
PRODUCT_GROUPS = (
    Z, AbelianGroupLabel(rank=2), AbelianGroupLabel(rank=3), *(cyclic(d) for d in range(2, 7))
)
FLAVOR_GROUP = {"racg": Z2, "coxeter": Z2, "raag": Z, "artin": Z}
# Edge labels of Coxeter and Artin graphs.  Artin labels up to
# LITERAL_BRAID_MAX are presented letter by letter, so the middle range
# is left out to keep each presentation short.
LABELS = st.one_of(
    st.integers(2, 6),
    st.integers(7, 1000),
    st.integers(LITERAL_BRAID_MAX + 1, 10**12),
)
COMMANDS = ("classify", "decompose", "present", "finiteness")


@st.composite
def flavored_graphs(draw):
    flavor = draw(st.sampled_from(("racg", "raag", "coxeter", "artin", "graph_product")))
    ids = draw(st.lists(VERTEX_IDS, min_size=1, max_size=8, unique=True))
    if flavor == "graph_product":
        groups = draw(st.lists(st.sampled_from(PRODUCT_GROUPS), min_size=len(ids), max_size=len(ids)))
    else:
        groups = [FLAVOR_GROUP[flavor]] * len(ids)
    pairs = list(itertools.combinations(ids, 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    heavy = flavor in ("coxeter", "artin")
    edges = [(u, v, draw(LABELS) if heavy else 2) for (u, v), c in zip(pairs, chosen) if c]
    return flavor, LabeledGraph.build(list(zip(ids, groups)), edges)


def run(argv: list[str], document: str) -> tuple[int, str]:
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(document)), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(io.StringIO()):
            status = main([*argv, "-"])
    return status, out.getvalue()


@settings(max_examples=150)
@given(flavored_graphs())
def test_json_and_dot_renderings_give_identical_output(case):
    flavor, G = case
    as_json = json.dumps({"flavor": flavor, **graph_to_jsonable(G)})
    as_dot = dot_document(G, flavor)
    assert parse_graph(as_json) == G
    assert parse_graph(as_dot) == G
    for command, fmt in itertools.product(COMMANDS, ("text", "json")):
        argv = [command, "--format", fmt]
        status, out = run(argv, as_json)
        assert status == 0, (argv, out)
        assert run(argv, as_dot) == (0, out), argv
        if command == "classify" and fmt == "json":
            echoed = json.loads(out)["graph"]
            assert parse_graph(json.dumps(echoed)) == G
