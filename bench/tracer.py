"""Span tracer that times calls into the package's layers from outside.

Each layer is one module of ``graphcoherence``.  ``Tracer.install``
replaces every traced function with a wrapper, in its defining module or
class and in every module that imported the name, and ``uninstall``
puts the originals back.  A wrapped call records one span (name, start,
end, parent span, operation id); a wrapped generator records one span
per ``next()``, so its time excludes the consumer's work between items.
Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

PACKAGE = "graphcoherence"


@dataclass(frozen=True)
class Target:
    """A traced function: ``module.qualname``, where qualname is a function
    or ``Class.method``.  ``item`` names what a generator yields;
    ``outcome`` names a result property whose share of calls is counted."""

    module: str
    qualname: str
    item: Optional[str] = None
    outcome: Optional[tuple[str, Callable[[object], bool]]] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _is_slender(cert) -> bool:
    return cert.verdict == "slender"


TARGETS = (
    Target("labeled_graph", "canonical_form"),
    Target("labeled_graph", "LabeledGraph.build"),
    Target("labeled_graph", "LabeledGraph.induced"),
    Target("labeled_graph", "detect_flavor"),
    Target("labeled_graph", "is_chordal"),
    Target("labeled_graph", "parse_graph"),
    Target("decomposition", "enumerate_separator_splits", item="splits"),
    Target("decomposition", "dirac_split"),
    Target("group_model", "is_slender", outcome=("slender_share", _is_slender)),
    Target("group_model", "classify_components"),
    Target("group_model", "finiteness"),
    Target("coherence_engine", "Classifier.classify"),
    Target("coherence_engine", "witness_join_incoherence"),
    Target("coherence_engine", "verify_proof"),
    Target("coherence_engine", "verify_witness"),
    Target("census", "run_census"),
    Target("census", "enumerate_graphs", item="graphs"),
    Target("census", "graph_from_key"),
    Target("cli", "main"),
)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Tracer:
    """Records spans for the targets while installed.

    ``spans`` holds (span id, parent span id, operation id, name, start,
    end); parent 0 is the operation itself.  ``calls`` counts calls per
    target, ``items`` what generators yielded, ``hits`` the calls whose
    outcome held, and ``resumes`` each time a generator's body ran
    (every ``next()``, and closing one left unfinished), which is what
    ``cProfile`` counts as calls of a generator function.
    """

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.hits: Counter = Counter()
        self.resumes: Counter = Counter()
        self.operation = 0
        self._stack = [0]
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            module = importlib.import_module(f"{PACKAGE}.{target.module}")
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(target, fn)
                self._set(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(target, fn)
            for mod in _package_modules():
                if getattr(mod, attr, None) is fn:
                    self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, target: Target, fn):
        name = target.name
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self.calls[name] += 1
                return self._iterate(name, fn(*args, **kwargs))

            return traced_generator
        outcome = target.outcome

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            result = self._span(name, fn, args, kwargs)
            if outcome is not None and outcome[1](result):
                self.hits[name] += 1
            return result

        return traced

    # -- recording -----------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.operation, name, start, end))

    def _iterate(self, name: str, gen):
        finished = False
        try:
            while True:
                self.resumes[name] += 1
                try:
                    item = self._span(name, next, (gen,), {})
                except StopIteration:
                    finished = True
                    return
                self.items[name] += 1
                yield item
        finally:
            if not finished:
                self.resumes[name] += 1
                gen.close()

    # -- reporting -----------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per target: calls, self seconds (span minus child spans) and
        inclusive seconds (spans not nested in a span of the same target),
        plus item counts and outcome shares where defined."""
        by_id = {s[0]: s for s in self.spans}
        child_time: Counter = Counter()
        for _, parent, _, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        for span_id, parent, _, name, start, end in self.spans:
            self_s[name] += end - start - child_time[span_id]
            while parent and by_id[parent][3] != name:
                parent = by_id[parent][1]
            if not parent:
                incl_s[name] += end - start
        rows = {}
        for target in self.targets:
            name = target.name
            row = {"calls": self.calls[name], "self_s": self_s[name], "incl_s": incl_s[name]}
            if target.item:
                row[target.item] = self.items[name]
            if target.outcome:
                row[target.outcome[0]] = self.hits[name] / self.calls[name] if self.calls[name] else 0.0
            rows[name] = row
        return rows

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name, "start": start, "end": end}) + "\n")
