"""Command line interface.

Subcommands: classify, census, decompose, present, finiteness.  Exit
codes: 0 when a result was computed (an Unknown verdict is a result),
1 for input or usage errors and for an interrupt (Ctrl-C), 2 when an
internal self-check failed.
Output on stdout is byte-identical across runs for the same input;
timing goes to stderr.  The argument parser is built once per process;
each ``main`` call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import itertools
import json
import math
import sys
from typing import Optional, Sequence

from .census import CensusConfig, run_census
from .coherence_engine import (
    PROOF_RULES,
    STEP_NAMES,
    Classifier,
    EngineConfig,
    ProofNode,
    check_verdict,
    to_jsonable,
    verdict_to_jsonable,
)
from .coherence_engine import format_vertex_set as _vset
from .decomposition import dirac_split, separator_splits, slender_separators
from .group_model import (
    SLENDER,
    InternalInvariantError,
    emit_presentation,
    finiteness,
    is_slender,
    require_group,
)
from .labeled_graph import (
    DEFAULT_VERTEX_CAP,
    LabeledGraph,
    detect_flavor,
    graph_to_jsonable,
    is_chordal,
    parse_graph,
    shape_classify,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _read_graph(path: str) -> LabeledGraph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _format_proof(node: ProofNode, indent: int = 0) -> list[str]:
    pad = "  " * indent
    extra = PROOF_RULES[node.rule].suffix(node)
    lines = [f"{pad}{node.rule} {_vset(node.vertices)}{extra}"]
    for child in node.children:
        lines.extend(_format_proof(child, indent + 1))
    return lines


# Python refuses to convert an int of more than 4,300 digits to or from
# a str by default; ``decimal`` writes any int exactly.
_JSON_ORDER_LIMIT = 10**4300


def _order_digits(order: int) -> str:
    return format(decimal.Decimal(order), "f")


def _order_str(order: float) -> str:
    return "infinite" if order == math.inf else _order_digits(int(order))


def _slender_line(cert) -> str:
    if cert.verdict == SLENDER:
        parts = []
        if cert.abelian_factor_count:
            parts.append(f"{cert.abelian_factor_count} abelian")
        if cert.finite_factor_count:
            parts.append(f"{cert.finite_factor_count} finite")
        if cert.affine_factor_count:
            parts.append(f"{cert.affine_factor_count} affine")
        return f"slender: yes ({', '.join(parts)} factors; {cert.reason})"
    if cert.verdict == "not_slender":
        return f"slender: no ({cert.reason})"
    return f"slender: unknown ({cert.reason})"


def _finiteness_jsonable(fin) -> dict:
    """``order`` is None when infinite, an int of at most 4,300 digits,
    and above that the string of its digits, so that every form reads
    back under Python's default limit on integer digits."""
    order = None if fin.order == math.inf else int(fin.order)
    if order is not None and order >= _JSON_ORDER_LIMIT:
        order = _order_digits(order)
    return {"finite": fin.finite, "order": order, "mode": fin.mode}


def _cmd_classify(args) -> int:
    G = _read_graph(args.path)
    config = EngineConfig(
        max_search_vertices=args.max_search_vertices,
        disabled_rules=frozenset(args.disable or ()),
    )
    classifier = Classifier(config)
    verdict = classifier.classify(G)
    check_verdict(G, verdict, subject="the input", classifier=classifier)
    slender = is_slender(G)
    fin = finiteness(G)
    if args.format == "json":
        out = {
            "graph": graph_to_jsonable(G),
            "flavor": list(detect_flavor(G).tags()),
            "shape": shape_classify(G).tag,
            "verdict": verdict_to_jsonable(verdict),
            "slender": {k: v for k, v in to_jsonable(slender).items() if v is not None},
            "finiteness": _finiteness_jsonable(fin),
        }
        print(json.dumps(out, indent=2))
    else:
        print(f"verdict: {verdict.status}")
        print(f"flavor: {', '.join(detect_flavor(G).tags())}")
        print(f"shape: {shape_classify(G).tag}")
        print(_slender_line(slender))
        print("finite: " + ("yes, order " + _order_str(fin.order) if fin.finite else "no"))
        if verdict.proof is not None:
            print("proof:")
            for line in _format_proof(verdict.proof, 1):
                print(line)
        if verdict.witness is not None:
            print(f"witness: {verdict.witness.text()}")
        for note in verdict.notes:
            where = f" {_vset(note.vertices)}" if note.vertices else ""
            detail = f": {note.detail}" if note.detail else ""
            print(f"note: {note.code}{where}{detail}")
    return 0


def _label_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _cmd_census(args) -> int:
    config = CensusConfig(
        flavor=args.flavor,
        min_vertices=args.min_vertices,
        max_vertices=args.max_vertices,
        max_edges=args.max_edges,
        edge_labels=args.labels,
        dedup=args.dedup,
        verify=not args.no_verify,
    )
    report = run_census(
        config,
        out_path=args.out,
        engine_config=EngineConfig(max_search_vertices=args.max_search_vertices),
        workers=args.workers,
    )
    if args.format == "json":
        print(json.dumps(report.to_jsonable(), indent=2))
    else:
        print(report.table())
        hit = report.smallest_incoherent()
        print(
            "smallest incoherent cell: "
            + (f"n={hit[0]} e={hit[1]}" if hit else "none")
        )
        print(f"graphs: {report.total}  classes: {report.class_count}")
    print(f"census took {report.elapsed:.1f}s", file=sys.stderr)
    return 0


def _cmd_decompose(args) -> int:
    G = _read_graph(args.path)
    require_group(G)
    lines: list[str] = []
    obj: dict = {"kind": None, "splits": []}
    comps = G.components()
    if len(comps) >= 2:
        obj["kind"] = "free_product"
        obj["components"] = comps
        lines.append(f"free product of {len(comps)} components:")
        lines.extend(f"  {_vset(c)}" for c in comps)
    elif G.is_complete():
        obj["kind"] = "complete"
        lines.append("complete graph: no separator splits")
    elif is_chordal(G):
        obj["kind"] = "dirac"
        split = dirac_split(G)
        obj["splits"] = [to_jsonable(split)]
        lines.append("clique separator split (chordal):")
        lines.append(_split_line(split))
    else:
        obj["kind"] = "search"
        slender_splits = (
            split
            for sep, comps, slender in slender_separators(G)
            if slender
            for split in separator_splits(G, sep, comps)
        )
        found = list(itertools.islice(slender_splits, 5))
        obj["splits"] = to_jsonable(found)
        if found:
            lines.append(f"first {len(found)} slender separator splits:")
            lines.extend(_split_line(s) for s in found)
        else:
            lines.append("no slender separator splits found")
    if args.format == "json":
        print(json.dumps(obj, indent=2))
    else:
        print("\n".join(lines))
    return 0


def _split_line(split) -> str:
    return (
        f"  separator={_vset(split.separator)} left={_vset(split.left)} "
        f"right={_vset(split.right)}"
    )


def _cmd_present(args) -> int:
    G = _read_graph(args.path)
    text = emit_presentation(G)
    if args.format == "json":
        print(json.dumps({"presentation": text}))
    else:
        print(text)
    return 0


def _cmd_finiteness(args) -> int:
    G = _read_graph(args.path)
    fin = finiteness(G)
    if args.format == "json":
        out = {
            **_finiteness_jsonable(fin),
            "components": [
                {"vertices": list(vs), "type": t.name} for vs, t in fin.components
            ],
        }
        print(json.dumps(out, indent=2))
    else:
        print(
            ("finite, order " + _order_str(fin.order)) if fin.finite else "infinite"
        )
        for vs, t in fin.components:
            print(f"  component {_vset(vs)}: {t.name} ({t.kind})")
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command line parser, built on the first call and shared
    after: argparse sizes help text for the terminal on every
    ``add_argument``, which costs about a millisecond per build.
    Parsing leaves no state on it, since every ``parse_args`` call
    fills a new namespace from the defaults."""
    parser = _Parser(
        prog="graphcoherence",
        description=(
            "Classify coherence, slenderness and finiteness of the group "
            "defined by a vertex-edge-labeled graph."
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="accepted for test-harness compatibility; commands ignore it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_path=True):
        if with_path:
            p.add_argument("path", help="graph file (JSON or DOT subset); - for stdin")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    p = sub.add_parser("classify", help="coherence verdict with proof or witness")
    add_common(p)
    p.add_argument(
        "--max-search-vertices",
        type=int,
        default=DEFAULT_VERTEX_CAP,
        help="cap for recursive rules and canonicalization",
    )
    p.add_argument(
        "--disable",
        action="append",
        choices=STEP_NAMES,
        help="disable a rule (repeatable); for cross-validation",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("census", help="sweep all small graphs of a kind")
    add_common(p, with_path=False)
    p.add_argument("--flavor", choices=("racg", "raag", "coxeter"), default="racg")
    p.add_argument("--min-vertices", type=int, default=1)
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--max-edges", type=int, default=None)
    p.add_argument(
        "--labels",
        type=_label_list,
        default=(2,),
        help="comma-separated edge labels to range over (coxeter flavor)",
    )
    p.add_argument("--dedup", action="store_true", help="count isomorphism classes once")
    p.add_argument("--no-verify", action="store_true", help="skip evidence re-verification")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="classify and re-verify in N processes, at most the CPU count (default 1)",
    )
    p.add_argument("--out", default=None, help="JSONL record file (resumable)")
    p.add_argument("--max-search-vertices", type=int, default=DEFAULT_VERTEX_CAP)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("decompose", help="show separator splits")
    add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("present", help="print a group presentation")
    add_common(p)
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("finiteness", help="finiteness and diagram component types")
    add_common(p)
    p.set_defaults(func=_cmd_finiteness)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, OSError, ValueError) as e:
        # GraphValidationError, UnsupportedFlavorError and VertexCapError
        # are ValueErrors.
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InternalInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
