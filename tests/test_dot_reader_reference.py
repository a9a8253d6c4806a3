"""The DOT reader against the reader it replaced.

``helpers.reference_parse_dot`` is the DOT reader as it was when each
token was a frozen object with methods; the package now reads tokens as
plain ``(kind, value, start, end)`` tuples.  Both must accept the same
language: on every document they build an equal graph, or raise the
same exception type with the same message.

Documents come in two kinds.  Token soups string together every token
kind (identifiers, numerals, quoted IDs with \\" escapes, each operator,
other characters) with whitespace, line breaks and all three comment
forms between them, mostly inside a graph header.  Statement lists are
built from the subset's statements: chains with and without attribute
lists (pairs split by ``,``, ``;`` or nothing), the ``flavor`` forms,
``node``/``edge`` defaults, ``strict`` and quoted graph IDs, quoted
keywords, unclosed ``[`` and text after ``}``, ended by ``;``, line
breaks or nothing.  Enough of them parse that errors alone cannot pass
the test.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoherence.labeled_graph import _parse_dot
from helpers import reference_parse_dot

IDENTIFIERS = ("a", "b", "v1", "_x", "7", "-1.5", ".5", "graph", "strict", "node", "edge",
               "flavor", "racg", "coxeter", "label", "group", "Z2")
QUOTED = ('"a"', '"b"', '"graph"', '"flavor"', '"a\\"b"', '""', '"Z_3"', '"racg"',
          '"two words"', '"a\nb"', '"--"', '"\\\\"')
OPERATORS = ("--", ";", "[", "]", "=", ",", "{", "}")
OTHER = ("->", "-", "@", "\\", '"', "+", "é")
SEPARATORS = (" ", "", "\n", " \n  ", "\t", "// c\n", "# c\n", "/* c */", "/* a\nb */", "//")


def outcome(text: str, parse) -> tuple:
    """The graph's parts, or the exception's type and message."""
    try:
        G = parse(text)
    except Exception as e:  # any exception must match the reference's
        return ("error", type(e), str(e))
    return ("graph", G.vertices, G.groups, G.edges)


def token_soup(rng: random.Random) -> str:
    tokens = IDENTIFIERS + QUOTED + OPERATORS + OTHER
    body = "".join(
        rng.choice(SEPARATORS) + rng.choice(tokens) for _ in range(rng.randint(0, 14))
    )
    header = rng.choice(("graph {", "strict graph g {", 'graph "g" {', "", "graph"))
    return header + body + rng.choice(("}", "}", " }\n", "", "} x"))


# Pairs (usual, rare): the usual choices make a valid coxeter document,
# so that about one document in five parses; the rare ones break or
# stretch a rule of the subset.
HEADERS = (
    ("graph", "strict graph", "graph g", 'graph "my g"', "strict graph g", "graph graph"),
    ('"graph"', "strict", "graph g h", 'strict "graph"', "digraph", "graph ="),
)
FLAVORS = (
    ("flavor=coxeter", "flavor = coxeter", 'flavor="coxeter"', "graph [flavor=coxeter]",
     "flavor\n= coxeter", "graph [flavor=racg, flavor=coxeter]", "graph [flavor=coxeter;]"),
    ('"flavor"=coxeter', "flavor=racg", "flavor=artin", "flavor=graph_product", "flavor=rag",
     "color=red", '"graph" [flavor=coxeter]', "graph", "graph []", "flavor=coxeter [label=2]",
     "flavor=", "= coxeter"),
)
DEFAULTS = (
    ("node", "edge", "node []", "edge []"),
    ("node [group=Z2]", "edge [label=3]", '"node"', '"edge" [label=3]'),
)
VERTICES = (("a", "b", "c", "d", "e", '"a"', "v1", "_x", "7"), ('"e f"', '"graph"', "node"))
EDGE_OPERATORS = ((" -- ", "--", " --\n  ", "\n-- "), (" - ", " -> ", " -- -- "))
EDGE_KEYS = (("label", '"label"'), ("group", "lable", "flavor"))
EDGE_VALUES = (("2", "3", "4", '"3"', "5"), ("Z2", "Z", '"Z_3"', "Z_2", "x", "-1", "2.5"))
VERTEX_KEYS = (("group",), ("label", "flavor"))
VERTEX_VALUES = (("Z2", '"Z_2"', "Z_2"), ("Z", '"Z^2"', '"Z_3"', "2"))
ASSIGNMENTS = (("=", " = ", "\n= "), ("", "=="))
PAIR_SEPARATORS = ((",", ";", " ", ", ", "\n"), (",,", "=", ";;"))
OPENINGS = ((" [", "[", "\n["), (" [[", "]"))
CLOSINGS = (("]", " ]", "\n]"), ("", "]]", "[]"))
STATEMENT_ENDS = ((";", ";\n", "\n", "\n\n", "; "), (" ", ";;", "// c\n", "", ";]"))
TAILS = (("}", "}\n", "}// c", " } "), ("} x", "} }", "", "}\n;", "}}"))


def mostly(rng: random.Random, choices: tuple[tuple[str, ...], tuple[str, ...]]) -> str:
    """A usual choice 19 times in 20, else a rare one."""
    usual, rare = choices
    return rng.choice(usual if rng.random() < 0.95 else rare)


def attribute_list(rng: random.Random, keys, values) -> str:
    pairs = [
        mostly(rng, keys) + mostly(rng, ASSIGNMENTS) + mostly(rng, values)
        for _ in range(rng.randint(0, 3))
    ]
    text = mostly(rng, PAIR_SEPARATORS).join(pairs)
    return mostly(rng, OPENINGS) + text + mostly(rng, CLOSINGS)


def statement(rng: random.Random) -> str:
    kind = rng.choice(("chain",) * 6 + ("vertex", "flavor", "default"))
    if kind == "flavor":
        return mostly(rng, FLAVORS)
    if kind == "default":
        return mostly(rng, DEFAULTS)
    chain = mostly(rng, VERTICES)
    for _ in range(0 if kind == "vertex" else rng.randint(1, 3)):
        chain += mostly(rng, EDGE_OPERATORS) + mostly(rng, VERTICES)
    if rng.random() < 0.5:
        return chain
    if kind == "vertex":
        return chain + attribute_list(rng, VERTEX_KEYS, VERTEX_VALUES)
    return chain + attribute_list(rng, EDGE_KEYS, EDGE_VALUES)


def statement_list(rng: random.Random) -> str:
    body = mostly(rng, FLAVORS) + mostly(rng, STATEMENT_ENDS) if rng.random() < 0.9 else ""
    for _ in range(rng.randint(0 if rng.random() < 0.05 else 1, 5)):
        body += statement(rng) + mostly(rng, STATEMENT_ENDS)
    return f"{mostly(rng, HEADERS)} {{\n  {body}{mostly(rng, TAILS)}"


def test_dot_reader_accepts_the_language_of_the_token_object_reader():
    parsed = []

    # Documents are built from a drawn seed: drawing each choice directly
    # keeps most examples at their first, shortest alternatives.
    @settings(max_examples=1500, deadline=None)
    @given(st.sampled_from((token_soup, statement_list)), st.integers(0, 2**32))
    def check(document, seed):
        text = document(random.Random(seed))
        expected = outcome(text, reference_parse_dot)
        assert outcome(text, _parse_dot) == expected
        parsed.append(expected[0] == "graph")

    check()
    assert sum(parsed) >= 0.05 * len(parsed), f"{sum(parsed)} of {len(parsed)} parse"
