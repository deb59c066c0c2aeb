"""Per-layer metrics of a traced run, computed from its spans and counters.

Each metric is the median over the spans (or traces) it names, unless its
comment says otherwise.  Build metrics use the build loop's operations
where a run has them (``build``), else the set-up builds of the served
image (``query`` and ``session``).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import Tracer
from workloads import SCALE, SHAPES, Recorder


def layer_metrics(tracer: Tracer, rec: Recorder, wanted: list[tuple[str, str]]) -> dict[str, tuple[float, str, int]]:
    """The named per-layer metrics as (value, unit, sample count).  Times
    are computed in seconds and scaled to the unit asked for."""
    spans = tracer.spans
    own = tracer.self_times()
    op_of = [tracer.trace_ops.get(s.trace, "") for s in spans]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
    present = set(tracer.trace_ops.values())

    def ops(base: str) -> set[str]:
        return {base} if base in present else {"setup." + base}

    xml, tsv, loads = ops("build_xml"), ops("build_tsv"), ops("load")

    def times(name: str, in_ops=None, parent: str | None = None, self_time: bool = False) -> list[float]:
        return [
            own[i] if self_time else spans[i].end - spans[i].start
            for i in by_name[name]
            if (in_ops is None or op_of[i] in in_ops)
            and (parent is None or (spans[i].parent is not None and spans[spans[i].parent].name == parent))
        ]

    def per_trace(name: str, in_ops) -> list[float]:
        """Spans of this name per trace of the given operations."""
        counts = {t: 0 for t, op in tracer.trace_ops.items() if op in in_ops}
        for i in by_name[name]:
            if spans[i].trace in counts:
                counts[spans[i].trace] += 1
        return list(counts.values())

    def counter(index: int) -> list[float]:
        return [
            v[index]
            for (t, name), v in tracer.counts.items()
            if name == "model.monadset_parse" and tracer.trace_ops.get(t) in xml
        ]

    def verses() -> list[float]:
        """``evaluate`` minus the bare enumeration of the same query."""
        enum = {spans[i].trace: spans[i].end - spans[i].start for i in by_name["query.evaluator.enumerate"]}
        return [
            spans[i].end - spans[i].start - enum[spans[i].trace]
            for i in by_name["query.evaluator.evaluate"]
            if spans[i].trace in enum and spans[spans[i].parent].name.startswith("op.")
        ]

    c = rec.counts
    raw: dict[str, list[float]] = {
        "ingest.parse_graf_s": times("ingest.parse_graf", xml),
        "ingest.parse_tabular_s": times("ingest.parse_tabular", tsv),
        "ingest.validate_s": times("ingest.validate", xml | tsv),
        "ingest.validate_calls": per_trace("ingest.validate", xml | tsv),
        "model.monadset_parse_s": counter(1),
        "model.monadset_parse_calls": counter(0),
        "compiler.build_sections_s": times("compiler.build_sections", xml | tsv),
        "image.build_image_s": times("image.build_image", xml | tsv),
        "compiler.write_s": times("compiler.compile_corpus", xml, self_time=True),
        "corpus.read_ms": times("corpus.from_file", loads, self_time=True),
        "image.read_directory_ms": times("image.read_directory", loads, parent="corpus.init"),
        "image.verify_sections_ms": times("image.verify_sections", loads, parent="corpus.init"),
        "corpus.init_self_ms": times("corpus.init", loads, self_time=True),
        "featuredoc.render_docs_s": times("featuredoc.render_docs", xml),
        "query.syntax.parse_us": times("query.syntax.parse"),
        "query.plan.explain_ms": times("query.plan.explain"),
        **{
            f"query.evaluator.enumerate_ms.{shape}": times("query.evaluator.enumerate", {f"query.{shape}"})
            for shape in SHAPES
        },
        "query.evaluator.verses_ms": verses(),
        "annotations.save_query_ms": times("annotations.save_query"),
        "query.evaluator.evaluate_ms": times("query.evaluator.evaluate", parent="annotations.save_query"),
        "annotations.build_snapshot_ms": times("annotations.build_snapshot"),
        "annotations.export_store_ms": times("annotations.export_store"),
        "annotations.import_store_ms": times("annotations.import_store"),
        "annotations.margin_us": times("annotations.margin"),
        "annotations.result_page_us": times("annotations.result_page"),
        "corpus.up_us": times("corpus.up"),
        "corpus.down_us": times("corpus.down"),
        "corpus.text_of_us": times("corpus.text_of"),
        "corpus.passage_of_us": times("corpus.passage_of"),
        **{f"cli.stream_ms.{fmt}": times("cli.main", {f"stream.{fmt}"}) for fmt in ("tsv", "json", "text")},
    }
    units = dict(wanted)
    out: dict[str, tuple[float, str, int]] = {}
    for name, values in raw.items():
        unit = units[name]
        out[name] = (SCALE.get(unit, 1.0) * statistics.median(values) if values else 0.0, unit, len(values))
    # Means per query operation, per saved query and per persisted store;
    # ``truncated`` is thus the share of queries cut short.
    for name, key in (
        ("query.evaluator.matches", "matches"),
        ("query.evaluator.candidates_est", "candidates_est"),
        ("query.evaluator.truncated", "truncated"),
        ("annotations.snapshot_verses", "snapshot_verses"),
        ("annotations.snapshot_nodes", "snapshot_nodes"),
        ("annotations.store_bytes", "store_bytes"),
    ):
        values = c[key]
        out[name] = (statistics.fmean(values) if values else 0.0, units[name], len(values))
    est = sum(c["candidates_est"])
    name = "query.evaluator.matches_per_candidate"
    out[name] = (sum(c["matches"]) / est if est else 0.0, units[name], len(c["matches"]))
    return {name: out[name] for name, _ in wanted}
