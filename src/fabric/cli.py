"""The ``fabric`` command: compile, inspect, query, and annotate corpora.

Exit codes: 0 success, 1 user error (bad paths, bad queries, validation
failures), 2 data corruption (unreadable or checksum-failing image).
Structured output honors ``--format`` (text, json, tsv); query results
stream as they are produced instead of buffering the whole result set.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .annotations import (
    AnnotationStore,
    export_store,
    import_store,
    margin,
    result_page,
    save_query,
)
from .compiler import compile_corpus
from .corpus import Corpus, _find_all
from .errors import (
    FabricError,
    ImageError,
    IngestError,
    QueryError,
    QuerySyntaxError,
    StoreError,
    ValidationFailure,
)
from .featuredoc import render_docs
from .ingest import parse_graf, parse_tabular
from .model import LogicalCorpus
from .query import explain
from .query.evaluator import _Eval

EXIT_OK = 0
EXIT_USER = 1
EXIT_CORRUPT = 2


@dataclass
class CliConfig:
    """Resolved command-line options shared by every subcommand."""

    format: str = "text"
    limit: int | None = None
    timeout: float | None = None

    def fail(self, message: str, code: int = EXIT_USER) -> int:
        if self.format == "json":
            print(json.dumps({"error": message, "exit": code}), file=sys.stderr)
        else:
            print(f"fabric: {message}", file=sys.stderr)
        return code


def _load_corpus(path: str) -> Corpus:
    if not Path(path).exists():
        raise IngestError("image file not found", file=path)
    return Corpus.from_file(path)


def _ingest(src: str) -> LogicalCorpus:
    p = Path(src)
    if p.is_dir():
        return parse_tabular(p)
    return parse_graf(p)


def _verse_labels(corpus: Corpus, verses: np.ndarray) -> list[str]:
    """Label of each passage node id: its ``ref`` feature, else ``n<id>``;
    ``-`` for -1 (no passage)."""
    store = corpus.store("ref")
    codes = np.full(len(verses), -1, dtype=np.int64)
    if store is not None:
        pos = _find_all(store.targets, verses)
        codes[pos >= 0] = store.codes[pos[pos >= 0]]
    return [
        "-" if verse < 0 else f"n{verse}" if code < 0 else store.values[code]  # type: ignore[union-attr]
        for verse, code in zip(verses.tolist(), codes.tolist())
    ]


def _passage_labels(corpus: Corpus, rows: np.ndarray) -> list[str]:
    """The label of the first passage meeting each row (``passage_of``)."""
    first = corpus._first_passages(rows)
    return _verse_labels(corpus, np.where(first < 0, -1, corpus._ids[first].astype(np.int64)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_compile(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _ingest(args.source)
    started = time.perf_counter()
    summary = compile_corpus(corpus, args.out)
    elapsed = time.perf_counter() - started
    if cfg.format == "json":
        print(
            json.dumps(
                {
                    "out": args.out,
                    "bytes": summary.total_bytes,
                    "seconds": round(elapsed, 3),
                    "stats": {
                        "words": summary.stats.words,
                        "nodes": summary.stats.nodes,
                        "edges": summary.stats.edges,
                        "features": summary.stats.features,
                    },
                }
            )
        )
    else:
        s = summary.stats
        print(
            f"compiled {args.out}: {summary.total_bytes} bytes, "
            f"{s.words} words, {s.nodes} nodes, {s.edges} edges, "
            f"{s.features} features ({elapsed:.2f}s)"
        )
    return EXIT_OK


def cmd_info(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _load_corpus(args.image)
    stats = corpus.stats()
    doc = {
        "words": stats.words,
        "nodes": stats.nodes,
        "edges": stats.edges,
        "features": stats.features,
        "otypes": list(corpus.otypes()),
        "slot_otype": corpus.metadata.slot_otype,
        "passage_otype": corpus.metadata.passage_otype,
        "feature_keys": list(corpus.feature_keys()),
        "edge_feature_keys": list(corpus.feature_keys("E")),
        "fingerprint": corpus.fingerprint,
    }
    if cfg.format == "json":
        print(json.dumps(doc))
    elif cfg.format == "tsv":
        for key in ("words", "nodes", "edges", "features"):
            print(f"{key}\t{doc[key]}")
    else:
        print(f"words:        {stats.words}")
        print(f"nodes:        {stats.nodes}")
        print(f"edges:        {stats.edges}")
        print(f"features:     {stats.features}")
        print(f"otypes:       {', '.join(doc['otypes'])}")
        print(f"passage:      {doc['passage_otype']}")
        print(f"feature keys: {', '.join(doc['feature_keys']) or '-'}")
        print(f"fingerprint:  {corpus.fingerprint[:16]}...")
    return EXIT_OK


def _stream_matches(corpus: Corpus, query_text: str, cfg: CliConfig) -> int:
    """Print the matches one chunk of the match table at a time, with the
    otype and passage columns of each chunk gathered in one batch."""
    ev = _Eval(corpus, query_text, cfg.timeout)
    paths, slot = [p.path for p in ev.blocks], corpus.metadata.slot_otype
    shown = 0
    try:
        for cols in ev.table(cfg.limit):
            rows = np.stack(cols, axis=1)  # one match per line, blocks in pre-order
            nodes = corpus._ids[rows].tolist()
            names = np.array(corpus._otypes, dtype=object)[corpus._otype_code[rows]].tolist()
            labels = np.array(_passage_labels(corpus, rows.ravel()), dtype=object).reshape(rows.shape).tolist()
            lines = []
            for i, match in enumerate(zip(nodes, names, labels), start=shown + 1):
                row = list(zip(paths, *match))  # (path, node, otype, passage) per block
                if cfg.format == "tsv":
                    lines += (f"{i}\t{p}\tn{n}\t{t}\t{v}" for p, n, t, v in row)
                elif cfg.format == "json":
                    entries = [{"path": p, "id": n, "otype": t, "passage": v} for p, n, t, v in row]
                    lines.append(json.dumps({"match": i, "nodes": entries}))
                else:
                    parts = " ".join(
                        f"[{p}] n{n}={t}" + (f" {corpus.text_of(n)!r}" if t == slot else "") for p, n, t, _ in row
                    )
                    lines.append(f"match {i} @ {row[0][3]}: {parts}")
            shown += len(rows)
            if lines:
                print("\n".join(lines))
    except KeyboardInterrupt:
        print("-- interrupted, partial results --", file=sys.stderr)
        return EXIT_USER
    if cfg.format == "text":
        status = {"limit": " (limit reached)", "timeout": " (timeout)"}.get(ev.stopped, "")
        print(f"{shown} match(es){status}")
    elif ev.stopped == "timeout":
        cfg.fail(f"timeout after {cfg.timeout}s, {shown} match(es) shown", EXIT_OK)
    return EXIT_OK


def cmd_query(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _load_corpus(args.image)
    if args.query is not None:
        query_text = args.query
    else:
        qpath = Path(args.query_file)
        if not qpath.exists():
            return cfg.fail(f"query file not found: {qpath}")
        query_text = qpath.read_text(encoding="utf-8")
    return _stream_matches(corpus, query_text, cfg)


def cmd_repl(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _load_corpus(args.image)
    limit = cfg.limit
    print(f"loaded {args.image}: {corpus.stats().nodes} nodes", file=sys.stderr)
    print("enter a query, or :load PATH, :limit N, :explain QUERY, :quit", file=sys.stderr)
    while True:
        try:
            line = input("fabric> ").strip()
        except EOFError:
            return EXIT_OK
        except KeyboardInterrupt:
            print(file=sys.stderr)
            return EXIT_OK
        if not line:
            continue
        if line.startswith(":"):
            cmd, _, rest = line.partition(" ")
            rest = rest.strip()
            if cmd == ":quit":
                return EXIT_OK
            if cmd == ":load":
                try:
                    corpus = _load_corpus(rest)
                    print(f"loaded {rest}: {corpus.stats().nodes} nodes", file=sys.stderr)
                except FabricError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                continue
            if cmd == ":limit":
                if rest == "off":
                    limit = None
                    continue
                try:
                    limit = int(rest)
                except ValueError:
                    print("usage: :limit N | :limit off", file=sys.stderr)
                continue
            if cmd == ":explain":
                try:
                    print(explain(corpus, rest).render())
                except (QuerySyntaxError, QueryError) as exc:
                    print(f"error: {exc}", file=sys.stderr)
                continue
            print(f"unknown command {cmd}", file=sys.stderr)
            continue
        sub = CliConfig(format=cfg.format, limit=limit, timeout=cfg.timeout)
        try:
            _stream_matches(corpus, line, sub)
        except (QuerySyntaxError, QueryError) as exc:
            print(f"error: {exc}", file=sys.stderr)


def cmd_features(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _load_corpus(args.image)
    written = render_docs(corpus, args.out_dir)
    if cfg.format == "json":
        print(json.dumps({"out_dir": args.out_dir, "files": written}))
    else:
        print(f"wrote {len(written)} files to {args.out_dir}")
    return EXIT_OK


def _open_store(path: str, corpus: Corpus) -> AnnotationStore:
    if Path(path).exists():
        return import_store(path, corpus)
    return AnnotationStore.for_corpus(corpus)


def _node_arg(raw: str) -> int:
    token = raw[1:] if raw.startswith("n") else raw
    try:
        return int(token)
    except ValueError:
        raise StoreError(f"not a node id: {raw!r}") from None


def cmd_annotate(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _load_corpus(args.image)
    store_path = args.store
    action = args.action

    if action == "save":
        # Locked from read to replace, so two concurrent saves both land.
        try:
            lock = open(f"{store_path}.lock", "a")
        except OSError as exc:  # name the store, not its lock file
            raise OSError(exc.errno, exc.strerror, store_path) from None
        with lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            store = _open_store(store_path, corpus)
            saved = save_query(
                store,
                corpus,
                args.query,
                name=args.name,
                author=args.author,
                description=args.description or "",
                is_public=not args.private,
            )
            export_store(store, store_path)
        if cfg.format == "json":
            print(
                json.dumps(
                    {
                        "id": saved.id,
                        "name": saved.name,
                        "matches": saved.match_count,
                        "verses": saved.verse_count,
                    }
                )
            )
        else:
            print(
                f"saved query {saved.id} {saved.name!r}: "
                f"{saved.match_count} match(es) in {saved.verse_count} verse(s)"
            )
        return EXIT_OK

    if action == "list":
        store = _open_store(store_path, corpus)
        entries = sorted(store.queries.values(), key=lambda s: s.id)
        if cfg.format == "json":
            print(
                json.dumps(
                    [
                        {
                            "id": s.id,
                            "name": s.name,
                            "author": s.author,
                            "public": s.is_public,
                            "matches": s.match_count,
                            "verses": s.verse_count,
                            "stale": s.stale,
                        }
                        for s in entries
                    ]
                )
            )
        else:
            for s in entries:
                vis = "public" if s.is_public else "private"
                stale = " (stale)" if s.stale else ""
                print(
                    f"{s.id}\t{s.name}\t{s.author}\t{vis}\t"
                    f"{s.match_count} match(es), {s.verse_count} verse(s){stale}"
                )
        return EXIT_OK

    if action == "margin":
        store = _open_store(store_path, corpus)
        passage = _node_arg(args.passage)
        entries = margin(
            store, corpus, passage, author=args.author, public_only=args.public_only
        )
        if cfg.format == "json":
            print(
                json.dumps(
                    [
                        {
                            "id": s.id,
                            "name": s.name,
                            "author": s.author,
                            "nodes": list(nodes),
                        }
                        for s, nodes in entries
                    ]
                )
            )
        else:
            for s, nodes in entries:
                shown = ", ".join(f"n{n}" for n in nodes)
                print(f"{s.author}/{s.name} (query {s.id}): {shown}")
        return EXIT_OK

    if action == "page":
        store = _open_store(store_path, corpus)
        saved = store.queries.get(args.id)
        if saved is None:
            return cfg.fail(f"no saved query with id {args.id}")
        if args.page_size < 1:
            return cfg.fail(f"--page-size must be at least 1, not {args.page_size}")
        page = result_page(saved, args.page, args.page_size)
        if cfg.format == "json":
            print(
                json.dumps(
                    {
                        "page": page.page,
                        "total_pages": page.total_pages,
                        "clamped": page.clamped,
                        "entries": [
                            {"verse": verse, "nodes": list(nodes)}
                            for verse, nodes in page.entries
                        ],
                    }
                )
            )
        else:
            print(f"page {page.page}/{page.total_pages}" + (" (clamped)" if page.clamped else ""))
            verses = np.array([verse for verse, _ in page.entries], dtype=np.int64)
            for label, (_, nodes) in zip(_verse_labels(corpus, verses), page.entries):
                shown = ", ".join(f"n{n}" for n in nodes)
                print(f"{label}: {shown}")
        return EXIT_OK

    return cfg.fail(f"unknown annotate action {action!r}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.cache  # built once per process: parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fabric",
        description="Standoff-annotation corpus engine: compile, query, annotate.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "json", "tsv"),
            default="text",
            help="output format (default: text)",
        )

    p = sub.add_parser("compile", help="compile a source corpus to a binary image")
    p.add_argument("source", help="header file (graph XML) or tabular directory")
    p.add_argument("out", help="output image path")
    add_format(p)

    p = sub.add_parser("info", help="show stats and metadata of an image")
    p.add_argument("image")
    add_format(p)

    p = sub.add_parser("query", help="evaluate a query against an image")
    p.add_argument("image")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("-q", "--query", help="query text")
    g.add_argument("-f", "--query-file", help="file containing the query")
    p.add_argument("--limit", type=int, help="stop after N matches")
    p.add_argument("--timeout", type=float, metavar="SECONDS", help="stop after SECONDS of wall time")
    add_format(p)

    p = sub.add_parser("repl", help="interactive query loop")
    p.add_argument("image")
    p.add_argument("--limit", type=int, help="default match limit")
    p.add_argument("--timeout", type=float, metavar="SECONDS", help="time limit of each query")
    add_format(p)

    p = sub.add_parser("features", help="generate feature frequency documentation")
    p.add_argument("image")
    p.add_argument("out_dir")
    add_format(p)

    p = sub.add_parser("annotate", help="saved-query store operations")
    p.add_argument("image")
    p.add_argument("store", help="annotation store JSON file")
    asub = p.add_subparsers(dest="action", required=True)

    ps = asub.add_parser("save", help="evaluate and save a query")
    ps.add_argument("-q", "--query", required=True)
    ps.add_argument("--name", required=True)
    ps.add_argument("--author", required=True)
    ps.add_argument("--description")
    ps.add_argument("--private", action="store_true")
    add_format(ps)

    pl = asub.add_parser("list", help="list saved queries")
    add_format(pl)

    pm = asub.add_parser("margin", help="saved queries touching a passage")
    pm.add_argument("--passage", required=True, help="passage node id (n301 or 301)")
    pm.add_argument("--author", help="only this author")
    pm.add_argument("--public-only", action="store_true")
    add_format(pm)

    pp = asub.add_parser("page", help="one page of a saved query's verses")
    pp.add_argument("--id", type=int, required=True)
    pp.add_argument("--page", type=int, default=1)
    pp.add_argument("--page-size", type=int, default=25)
    add_format(pp)

    return parser


_COMMANDS = {
    "compile": cmd_compile,
    "info": cmd_info,
    "query": cmd_query,
    "repl": cmd_repl,
    "features": cmd_features,
    "annotate": cmd_annotate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for corrupt images
        return EXIT_OK if exc.code == 0 else EXIT_USER
    cfg = CliConfig(
        format=getattr(args, "format", "text"),
        limit=getattr(args, "limit", None),
        timeout=getattr(args, "timeout", None),
    )
    try:
        return _COMMANDS[args.subcommand](args, cfg)
    except ValidationFailure as exc:
        report = exc.report
        if cfg.format == "json":
            print(
                json.dumps(
                    {
                        "error": "validation failed",
                        "issues": [
                            {
                                "code": i.code,
                                "message": i.message,
                                "file": i.file,
                                "line": i.line,
                                "where": i.where,
                            }
                            for i in report.errors
                        ],
                    }
                ),
                file=sys.stderr,
            )
        else:
            for issue in report.errors:
                place = f"{issue.file}:{issue.line}: " if issue.file else ""
                where = f" [{issue.where}]" if issue.where else ""
                print(f"fabric: {place}{issue.code}: {issue.message}{where}", file=sys.stderr)
        return EXIT_USER
    except (QuerySyntaxError, QueryError, IngestError, StoreError) as exc:
        return cfg.fail(str(exc))
    except ImageError as exc:
        return cfg.fail(f"corrupt image: {exc}", EXIT_CORRUPT)
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:  # a path that cannot be read or written
        return cfg.fail(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc))


if __name__ == "__main__":
    sys.exit(main())
