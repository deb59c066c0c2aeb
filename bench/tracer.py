"""Outside-in tracer: spans around calls into fabric's public functions.

The tracer keeps every span in memory (name, start, end, parent, trace id)
and computes self times when the run ends.  It instruments the engine
from outside, by replacing module and class attributes for the duration
of a traced run only; every module binding of a wrapped function is
replaced, so ``fabric.compiler.validate`` is traced as well as
``fabric.ingest.validate``.  ``MonadSet.parse`` is called once per node,
so it gets a call counter and busy time per trace instead of spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    trace: int


# (module, attribute path, span name).  A dotted path names a class member.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("fabric.ingest", "parse_graf", "ingest.parse_graf"),
    ("fabric.ingest", "parse_tabular", "ingest.parse_tabular"),
    ("fabric.ingest", "validate", "ingest.validate"),
    ("fabric.compiler", "compile_corpus", "compiler.compile_corpus"),
    ("fabric.compiler", "compile_to_bytes", "compiler.compile_to_bytes"),
    ("fabric.compiler", "build_sections", "compiler.build_sections"),
    ("fabric.compiler", "verify_image", "compiler.verify_image"),
    ("fabric.image", "build_image", "image.build_image"),
    ("fabric.image", "read_directory", "image.read_directory"),
    ("fabric.image", "verify_sections", "image.verify_sections"),
    ("fabric.corpus", "Corpus.from_file", "corpus.from_file"),
    ("fabric.corpus", "Corpus.__init__", "corpus.init"),
    ("fabric.corpus", "Corpus.up", "corpus.up"),
    ("fabric.corpus", "Corpus.down", "corpus.down"),
    ("fabric.corpus", "Corpus.text_of", "corpus.text_of"),
    ("fabric.corpus", "Corpus.passage_of", "corpus.passage_of"),
    ("fabric.featuredoc", "render_docs", "featuredoc.render_docs"),
    ("fabric.query.syntax", "parse", "query.syntax.parse"),
    ("fabric.query.plan", "explain", "query.plan.explain"),
    ("fabric.query.evaluator", "evaluate", "query.evaluator.evaluate"),
    ("fabric.annotations", "save_query", "annotations.save_query"),
    ("fabric.annotations", "build_snapshot", "annotations.build_snapshot"),
    ("fabric.annotations", "export_store", "annotations.export_store"),
    ("fabric.annotations", "import_store", "annotations.import_store"),
    ("fabric.annotations", "margin", "annotations.margin"),
    ("fabric.annotations", "result_page", "annotations.result_page"),
    ("fabric.cli", "main", "cli.main"),
)
COUNTED = ("fabric.model", "MonadSet.parse", "model.monadset_parse")


class Tracer:
    """In-memory span recorder; one trace id per benchmark operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_ops: dict[int, str] = {}  # trace id -> operation name
        self.counts: dict[tuple[int, str], list[float]] = defaultdict(lambda: [0, 0.0])
        self._stack: list[int] = []
        self._trace = 0

    @contextmanager
    def operation(self, op: str) -> Iterator[None]:
        """Start a new trace whose root span is the benchmark operation.
        Spans outside any operation belong to trace 0."""
        outer = self._trace
        self._trace = len(self.trace_ops) + 1
        self.trace_ops[self._trace] = op
        try:
            with self.span("op." + op):
                yield
        finally:
            self._trace = outer

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._trace))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _count(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = self.counts[(self._trace, name)]
                slot[0] += 1
                slot[1] += time.perf_counter() - start

        return counted

    @contextmanager
    def instrument(self) -> Iterator[None]:
        """Patch every binding of every target, and restore them on exit."""
        undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if n == "fabric" or n.startswith("fabric.")]
        try:
            for module_name, path, name in TARGETS + (COUNTED,):
                wrap = self._count if (module_name, path, name) == COUNTED else self._wrap
                owner = sys.modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, classmethod(wrap(raw.__func__, name)))
                    continue
                wrapped = wrap(raw, name)
                holders = [owner] if outer else [m for m in modules if vars(m).get(attr) is raw]
                for holder in holders:
                    undo.append((holder, attr, raw))
                    setattr(holder, attr, wrapped)
            yield
        finally:
            for holder, attr, raw in reversed(undo):
                setattr(holder, attr, raw)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path: Path) -> None:
        """Write spans, self times and per-trace counters as JSON."""
        own = self.self_times()
        doc = {
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self": own[i],
                    "parent": s.parent,
                    "trace": s.trace,
                }
                for i, s in enumerate(self.spans)
            ],
            "traces": {str(t): op for t, op in self.trace_ops.items()},
            "counters": [
                {"trace": t, "name": n, "calls": c, "busy": b}
                for (t, n), (c, b) in sorted(self.counts.items())
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
