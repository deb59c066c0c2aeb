"""The ``fabric`` command: compile, inspect, query, and annotate corpora.

Exit codes: 0 success, 1 user error (bad paths, bad queries, validation
failures), 2 data corruption (unreadable or checksum-failing image).

Every subcommand takes ``--format text|tsv|json``, and ``CliConfig.emit``
prints each result in it: one JSON document, or its text.  Only ``info``
and ``query`` have tsv lines of their own; the other subcommands print
their text under tsv.  Query results stream as they are produced instead
of buffering the whole result set, one JSON document per match.  Errors,
validation failures and warnings go to stderr, in text and tsv one line
each (``fabric: <message>``, ``fabric: <file>:<line>: <code>: <message>
[<where>]``, ``fabric: warning: <message>``), in json one document each
(``{"error": <message>, "exit": <code>}``, ``{"error": "validation
failed", "issues": [{"code", "message", "file", "line", "where"}, ...]}``,
``{"warning": <message>}``).  A warning that the warning filters raise
as an error (``python -W error``) is reported as an error, exit 1.  The
repl's prompts and messages are text.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import json
import re
import sys
import time
import warnings
from dataclasses import asdict, dataclass, replace
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
from .model import CorpusStats, LogicalCorpus
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

    def emit(self, doc: object, text: str = "", tsv: str | None = None, code: int = EXIT_OK, err: bool = False) -> int:
        """Print a result in the chosen format: ``doc`` as one JSON
        document, ``tsv`` where the subcommand has tsv lines, else
        ``text`` (an empty text prints nothing).  Writes to stderr when
        ``err``, else to stdout, and returns ``code``, the exit code."""
        if self.format == "json":
            text = json.dumps(doc)
        elif self.format == "tsv" and tsv is not None:
            text = tsv
        if text:
            print(text, file=sys.stderr if err else sys.stdout)
        return code

    def fail(self, message: str, code: int = EXIT_USER) -> int:
        return self.emit({"error": message, "exit": code}, f"fabric: {message}", code=code, err=True)


def _load_corpus(path: str) -> Corpus:
    if not Path(path).exists():
        raise IngestError("image file not found", file=path)
    return Corpus.from_file(path)


def _ingest(src: str) -> LogicalCorpus:
    p = Path(src)
    if p.is_dir():
        return parse_tabular(p)
    return parse_graf(p)


def _passage_labels(corpus: Corpus, rows: np.ndarray) -> list[str]:
    """The label of the first passage meeting each row (``passage_of``):
    its ``ref`` feature, else ``n<id>``; ``-`` where no passage meets it."""
    first = corpus._first_passages(rows)
    verses = np.where(first < 0, -1, corpus._ids[first].astype(np.int64))
    store = corpus.store("ref")
    codes = np.full(len(verses), -1, dtype=np.int64)
    if store is not None:  # keyed by row
        pos = _find_all(store.targets, first)
        codes[pos >= 0] = store.codes[pos[pos >= 0]]
    return [
        "-" if verse < 0 else f"n{verse}" if code < 0 else store.values[code]  # type: ignore[union-attr]
        for verse, code in zip(verses.tolist(), codes.tolist())
    ]


def _reason(exc: Exception) -> str:
    """An error's message; a failed file operation's as "<path>: <reason>"."""
    return f"{exc.filename}: {exc.strerror}" if isinstance(exc, OSError) and exc.filename else str(exc)


def _counts(stats: CorpusStats) -> dict[str, int]:
    return {"words": stats.words, "nodes": stats.nodes, "edges": stats.edges, "features": stats.features}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_compile(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _ingest(args.source)
    started = time.perf_counter()
    summary = compile_corpus(corpus, args.out)
    elapsed = time.perf_counter() - started
    s = summary.stats
    return cfg.emit(
        {"out": args.out, "bytes": summary.total_bytes, "seconds": round(elapsed, 3), "stats": _counts(s)},
        f"compiled {args.out}: {summary.total_bytes} bytes, {s.words} words, {s.nodes} nodes, "
        f"{s.edges} edges, {s.features} features ({elapsed:.2f}s)",
    )


def cmd_info(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _load_corpus(args.image)
    counts, meta = _counts(corpus.stats()), corpus.metadata
    otypes, keys = list(corpus.otypes()), list(corpus.feature_keys())
    shown = {**counts, "otypes": ", ".join(otypes), "passage": meta.passage_otype,
             "feature keys": ", ".join(keys) or "-", "fingerprint": f"{corpus.fingerprint[:16]}..."}
    return cfg.emit(
        {**counts, "otypes": otypes, "slot_otype": meta.slot_otype, "passage_otype": meta.passage_otype,
         "feature_keys": keys, "edge_feature_keys": list(corpus.feature_keys("E")), "fingerprint": corpus.fingerprint},
        "\n".join(f"{label + ':':<13} {value}" for label, value in shown.items()),
        "\n".join(f"{key}\t{n}" for key, n in counts.items()),
    )


def _slot_texts(corpus: Corpus, rows: np.ndarray) -> dict[int, str]:
    """``text_of`` of each slot-type node among ``rows``, by id.  The load
    checks that each slot node owns one monad, so its text is one slice,
    found with one gather of the slot bounds for all of them.  A row that
    repeats writes its id's entry again."""
    rows = rows[corpus._otype_code[rows] == corpus._otype_rank.get(corpus.metadata.slot_otype, -1)]
    first = corpus._first[rows] - 1
    starts, ends = corpus._slot_starts[first].tolist(), corpus._slot_ends[first].tolist()
    text = corpus.text
    return {n: text[a:b] for n, a, b in zip(corpus._ids[rows].tolist(), starts, ends)}


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
            texts = _slot_texts(corpus, rows.ravel()) if cfg.format == "text" else {}
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
                        f"[{p}] n{n}={t}" + (f" {texts[n]!r}" if t == slot else "") for p, n, t, _ in row
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
        try:
            query_text = qpath.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            return cfg.fail(f"query file is not UTF-8: {qpath}: {exc.reason} at byte {exc.start}")
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
                except (FabricError, OSError) as exc:
                    print(f"error: {_reason(exc)}", file=sys.stderr)
                continue
            if cmd == ":limit":
                try:
                    limit = None if rest == "off" else _integer(rest)
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
        try:
            _stream_matches(corpus, line, replace(cfg, limit=limit))
        except (QuerySyntaxError, QueryError) as exc:
            print(f"error: {exc}", file=sys.stderr)


def cmd_features(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _load_corpus(args.image)
    written = render_docs(corpus, args.out_dir)
    return cfg.emit({"out_dir": args.out_dir, "files": written}, f"wrote {len(written)} files to {args.out_dir}")


def _open_store(path: str, corpus: Corpus) -> AnnotationStore:
    if Path(path).exists():
        return import_store(path, corpus)
    return AnnotationStore.for_corpus(corpus)


def _ascii_number(pattern: str, convert):
    """An argparse type: ``convert`` of a value that ``pattern``, an ASCII
    pattern, matches whole; any other value is a ``ValueError``."""

    def parse(raw: str):
        if re.fullmatch(pattern, raw) is None:
            raise ValueError(raw)
        return convert(raw)

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value: ..."
    return parse


_integer, _seconds = _ascii_number("-?[0-9]+", int), _ascii_number(r"[0-9]+(?:\.[0-9]+)?", float)


def _node_arg(raw: str) -> int:
    """A node id as given on the command line: ASCII digits, after an
    optional "n"."""
    if re.fullmatch("n?[0-9]+", raw) is None:
        raise StoreError(f"not a node id: {raw!r}")
    return int(raw.removeprefix("n"))


def cmd_save(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _load_corpus(args.image)
    # Locked from read to replace, so two concurrent saves both land.
    try:
        lock = open(f"{args.store}.lock", "a")
    except OSError as exc:  # name the store, not its lock file
        raise OSError(exc.errno, exc.strerror, args.store) from None
    with lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        store = _open_store(args.store, corpus)
        saved = save_query(
            store,
            corpus,
            args.query,
            name=args.name,
            author=args.author,
            description=args.description or "",
            is_public=not args.private,
        )
        export_store(store, args.store)
    return cfg.emit(
        {"id": saved.id, "name": saved.name, "matches": saved.match_count, "verses": saved.verse_count},
        f"saved query {saved.id} {saved.name!r}: {saved.match_count} match(es) in {saved.verse_count} verse(s)",
    )


def cmd_list(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _load_corpus(args.image)
    entries = sorted(_open_store(args.store, corpus).queries.values(), key=lambda s: s.id)
    return cfg.emit(
        [{"id": s.id, "name": s.name, "author": s.author, "public": s.is_public, "matches": s.match_count,
          "verses": s.verse_count, "stale": s.stale} for s in entries],
        "\n".join(
            f"{s.id}\t{s.name}\t{s.author}\t{'public' if s.is_public else 'private'}\t"
            f"{s.match_count} match(es), {s.verse_count} verse(s)" + (" (stale)" if s.stale else "")
            for s in entries
        ),
    )


def cmd_margin(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _load_corpus(args.image)
    store = _open_store(args.store, corpus)
    entries = margin(store, corpus, _node_arg(args.passage), author=args.author, public_only=args.public_only)
    return cfg.emit(
        [{"id": s.id, "name": s.name, "author": s.author, "nodes": list(nodes)} for s, nodes in entries],
        "\n".join(f"{s.author}/{s.name} (query {s.id}): " + ", ".join(f"n{n}" for n in nodes) for s, nodes in entries),
    )


def cmd_page(args: argparse.Namespace, cfg: CliConfig) -> int:
    corpus = _load_corpus(args.image)
    saved = _open_store(args.store, corpus).queries.get(args.id)
    if saved is None:
        return cfg.fail(f"no saved query with id {args.id}")
    if args.page_size < 1:
        return cfg.fail(f"--page-size must be at least 1, not {args.page_size}")
    page = result_page(saved, args.page, args.page_size)
    lines = [f"page {page.page}/{page.total_pages}" + (" (clamped)" if page.clamped else "")]
    for verse, nodes in page.entries:  # each verse by its ref feature, else n<id>
        label = corpus.feature(verse, "ref")
        lines.append(f"{f'n{verse}' if label is None else label}: " + ", ".join(f"n{n}" for n in nodes))
    return cfg.emit(
        {"page": page.page, "total_pages": page.total_pages, "clamped": page.clamped,
         "entries": [{"verse": verse, "nodes": list(nodes)} for verse, nodes in page.entries]},
        "\n".join(lines),
    )


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
    p.add_argument("--limit", type=_integer, help="stop after N matches")
    p.add_argument("--timeout", type=_seconds, metavar="SECONDS", help="stop after SECONDS of wall time")
    add_format(p)

    p = sub.add_parser("repl", help="interactive query loop")
    p.add_argument("image")
    p.add_argument("--limit", type=_integer, help="default match limit")
    p.add_argument("--timeout", type=_seconds, metavar="SECONDS", help="time limit of each query")
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
    pp.add_argument("--id", type=_integer, required=True)
    pp.add_argument("--page", type=_integer, default=1)
    pp.add_argument("--page-size", type=_integer, default=25)
    add_format(pp)

    return parser


_COMMANDS = {
    "compile": cmd_compile,
    "info": cmd_info,
    "query": cmd_query,
    "repl": cmd_repl,
    "features": cmd_features,
    # annotate's actions, by action name
    "save": cmd_save,
    "list": cmd_list,
    "margin": cmd_margin,
    "page": cmd_page,
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
    with warnings.catch_warnings():  # which restores showwarning
        warnings.showwarning = lambda message, *_: cfg.emit(
            {"warning": str(message)}, f"fabric: warning: {message}", err=True
        )
        try:
            return _COMMANDS[getattr(args, "action", args.subcommand)](args, cfg)
        except ValidationFailure as exc:
            issues = exc.report.errors
            return cfg.emit(
                {"error": "validation failed", "issues": [asdict(i) for i in issues]},
                "\n".join(
                    f"fabric: {f'{i.file}:{i.line}: ' if i.file else ''}{i.code}: {i.message}"
                    + (f" [{i.where}]" if i.where else "")
                    for i in issues
                ),
                code=EXIT_USER,
                err=True,
            )
        except ImageError as exc:
            return cfg.fail(f"corrupt image: {exc}", EXIT_CORRUPT)
        except BrokenPipeError:
            return EXIT_OK
        # OSError: an unusable path; Warning: a warning the filters raise as an error
        except (QuerySyntaxError, QueryError, IngestError, StoreError, OSError, Warning) as exc:
            return cfg.fail(_reason(exc))


if __name__ == "__main__":
    sys.exit(main())
