"""The ``fabric`` command: compile, inspect, query, and annotate corpora.

Exit codes: 0 success, 1 user error (bad paths, bad queries, validation
failures), 2 data corruption (unreadable or checksum-failing image).
Structured output honors ``--format`` (text, json, tsv); query results
stream as they are produced instead of buffering the whole result set.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .annotations import (
    AnnotationStore,
    export_store,
    import_store,
    margin,
    result_page,
    save_query,
)
from .compiler import compile_corpus
from .corpus import Corpus
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
from .query import explain, iter_matches, parse

EXIT_OK = 0
EXIT_USER = 1
EXIT_CORRUPT = 2


@dataclass
class CliConfig:
    """Resolved command-line invocation: one subcommand plus its options."""

    subcommand: str
    format: str = "text"
    limit: int | None = None

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


def _passage_label(corpus: Corpus, node: int) -> str:
    verse = corpus.passage_of(node)
    if verse is None:
        return "-"
    ref = corpus.feature(verse, "ref")
    return ref if ref is not None else f"n{verse}"


def _verse_label(corpus: Corpus, verse: int) -> str:
    ref = corpus.feature(verse, "ref")
    return ref if ref is not None else f"n{verse}"


def _block_paths(query) -> dict[int, str]:
    """Pre-order path label for each block: "1", "1.1", "2", ..."""
    paths: dict[int, str] = {}

    def walk(blockstring, prefix: str) -> None:
        for i, block in enumerate(blockstring.blocks, start=1):
            path = f"{prefix}{i}"
            paths[id(block)] = path
            if block.children is not None:
                walk(block.children, path + ".")

    walk(query.root, "")
    return paths


def _flatten(match, blocks):
    """(block, node) pairs in query pre-order for one match."""
    out = []

    def walk(trees):
        for tree in trees:
            out.append(tree.node)
            walk(tree.children)

    walk(match)
    return list(zip(blocks, out))


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
    query = parse(query_text)
    blocks = query.blocks_preorder()
    paths = _block_paths(query)
    shown = 0
    try:
        for i, match in enumerate(iter_matches(corpus, query), start=1):
            if cfg.limit is not None and shown >= cfg.limit:
                break
            shown += 1
            rows = _flatten(match, blocks)
            if cfg.format == "tsv":
                for block, node in rows:
                    print(
                        f"{i}\t{paths[id(block)]}\tn{node}\t{corpus.otype(node)}\t"
                        f"{_passage_label(corpus, node)}"
                    )
            elif cfg.format == "json":
                print(
                    json.dumps(
                        {
                            "match": i,
                            "nodes": [
                                {
                                    "path": paths[id(block)],
                                    "id": node,
                                    "otype": corpus.otype(node),
                                    "passage": _passage_label(corpus, node),
                                }
                                for block, node in rows
                            ],
                        }
                    )
                )
            else:
                parts = " ".join(
                    f"[{paths[id(block)]}] n{node}={corpus.otype(node)}"
                    + (f" {corpus.text_of(node)!r}" if corpus.otype(node) == corpus.metadata.slot_otype else "")
                    for block, node in rows
                )
                print(f"match {i} @ {_passage_label(corpus, rows[0][1])}: {parts}")
    except KeyboardInterrupt:
        print("-- interrupted, partial results --", file=sys.stderr)
        return EXIT_USER
    if cfg.format == "text":
        suffix = " (limit reached)" if cfg.limit is not None and shown == cfg.limit else ""
        print(f"{shown} match(es){suffix}")
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
        sub = CliConfig(subcommand="query", format=cfg.format, limit=limit)
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
            for verse, nodes in page.entries:
                shown = ", ".join(f"n{n}" for n in nodes)
                print(f"{_verse_label(corpus, verse)}: {shown}")
        return EXIT_OK

    return cfg.fail(f"unknown annotate action {action!r}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


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
    add_format(p)

    p = sub.add_parser("repl", help="interactive query loop")
    p.add_argument("image")
    p.add_argument("--limit", type=int, help="default match limit")
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
        subcommand=args.subcommand,
        format=getattr(args, "format", "text"),
        limit=getattr(args, "limit", None),
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


if __name__ == "__main__":
    sys.exit(main())
