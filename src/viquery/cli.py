"""Command-line surface: parse, semantics, ask, generate, batch.

Exit codes: 0 success (>=1 parse where parsing is involved), 2 no parse,
1 usage, load or transform errors, each printed as one ``error: …`` line.
``main`` alone reads files, loads data and parses the query; the ``cmd_*``
handlers only format output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import CatalogError, EvaluationError, format_answer, evaluate, load_catalog
from .grammar import GrammarError, parse_rule_dsl, sample
from .lexicon import BookValue, LexiconError, TimeValue, load_lexicon
from .parser import BlankQueryError, ParseResult, QueryTooLongError, parse
from .semantics import (TransformError, check_families, classify, render_full,
                        render_skeleton, transform)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_PARSE = 2
# what ``str.splitlines`` breaks at, escaped so that an error stays one line
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def data_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


class _ReadError(Exception):
    """A file that is missing, a directory, unreadable or not UTF-8."""


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise _ReadError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")


def _text_value(value: object) -> str:
    if isinstance(value, TimeValue):
        return f"{value.prep} {value.year}"
    if isinstance(value, BookValue):
        if value.title is not None:
            return value.title
        suffix = f" thuộc {value.subject}" if value.subject else ""
        return f"(sách bất kỳ){suffix}"
    return str(value)


def _parse_report(result: ParseResult, json_output: bool) -> str:
    if json_output:
        return json.dumps({
            "rule_id": result.rule_id,
            "family": result.family,
            "bindings": [
                {
                    "category": b.category,
                    "surface": b.surface,
                    # a TimeValue or BookValue becomes an object
                    "value": b.value._asdict() if isinstance(b.value, tuple) else b.value,
                    "ordinal": b.ordinal,
                }
                for b in result.bindings
            ],
        }, ensure_ascii=False)
    lines = [f"rule: {result.rule_id}"]
    for b in result.bindings:
        value = "" if b.value is None else f"  ->  {_text_value(b.value)}"
        lines.append(f"  {b.category}: {b.surface}{value}")
    return "\n".join(lines)


def cmd_parse(args, results: list[ParseResult]) -> None:
    for result in results:
        print(_parse_report(result, args.json))


def cmd_semantics(args, results: list[ParseResult]) -> None:
    first = results[0]
    sem = transform(first)
    qtype = classify(sem)
    if args.json:
        print(json.dumps({
            "rule_id": first.rule_id,
            "family": first.family,
            "question_type": qtype.kind,
            "skeleton": render_skeleton(sem),
            "full": render_full(sem),
        }, ensure_ascii=False))
    else:
        print(render_skeleton(sem))
        print(render_full(sem))


def cmd_ask(args, results: list[ParseResult], catalog) -> None:
    sem = transform(results[0])
    qtype = classify(sem)
    answer = evaluate(sem, catalog)
    text = format_answer(answer, qtype)
    if args.json:
        print(json.dumps({
            "rule_id": results[0].rule_id,
            "question_type": qtype.kind,
            "kind": answer.kind,
            "value": list(answer.value) if isinstance(answer.value, tuple) else answer.value,
            "answer": text,
        }, ensure_ascii=False))
    else:
        print(text)


def derive_seed(base: int, rule_id: str, index: int) -> int:
    import hashlib  # only ``generate`` needs it; it loads OpenSSL

    digest = hashlib.sha256(f"{base}:{rule_id}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def cmd_generate(args, grammar, lexicon) -> None:
    rules = [r for r in grammar if args.rule in ("all", r.id)]
    if not rules and args.rule != "all":
        raise GrammarError(f"unknown rule id {args.rule!r}")
    for rule in rules:
        for i in range(args.count):
            sentence = sample(rule, derive_seed(args.seed, rule.id, i), lexicon)
            print(f"{rule.id}\t{sentence}")


def cmd_batch(text: str, grammar, lexicon) -> int:
    total = parsed = 0
    # _read made "\r\n" and "\r" a "\n"; other line breaks are whitespace here
    for lineno, line in enumerate(text.split("\n"), start=1):
        query = line.strip()
        if not query:
            continue
        total += 1
        try:
            results = parse(query, grammar, lexicon)
            if results:
                parsed += 1
                print(f"{results[0].rule_id}\t{render_skeleton(transform(results[0]))}")
            else:
                print("NO-PARSE")
        except (QueryTooLongError, TransformError) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    print(f"{parsed}/{total}")
    return EXIT_OK if parsed == total else EXIT_NO_PARSE


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors into ``main``'s error path instead of exiting 2;
    ``add_subparsers`` builds the subcommand parsers from this class too."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def build_arg_parser() -> argparse.ArgumentParser:
    root = _ArgumentParser(
        prog="viquery",
        description="Parse restricted Vietnamese book-catalog questions, "
                    "transform them to semantic representations and answer "
                    "them against a local catalog.",
    )
    root.add_argument("--grammar", type=Path, default=None, metavar="PATH",
                      help="grammar rules file (default: built-in rules_v1.bnf)")
    root.add_argument("--lexicon", type=Path, default=None, metavar="PATH",
                      help="lexicon file (default: built-in lexicon_v1.tsv)")
    root.add_argument("--catalog", type=Path, default=None, metavar="PATH",
                      help="catalog file (default: built-in catalog_sample.json)")
    root.add_argument("--json", action="store_true", help="structured JSON output")
    root.add_argument("--seed", type=int, default=0, help="random seed for generation")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="show all parses of one query")
    p.add_argument("query", nargs="?")

    p = sub.add_parser("semantics", help="show the semantic representation")
    p.add_argument("query", nargs="?")

    p = sub.add_parser("ask", help="answer one query against the catalog")
    p.add_argument("query", nargs="?")

    p = sub.add_parser("generate", help="sample sentences from rules")
    p.add_argument("rule", help="rule id or 'all'")
    p.add_argument("count", type=int)

    p = sub.add_parser("batch", help="parse a file of queries, one per line")
    p.add_argument("file", type=Path)
    return root


def main(argv: list[str] | None = None) -> int:
    try:
        # an optional query lets an unknown option such as "-x" be reported
        # before argparse's required-arguments check hides it
        args, unknown = build_arg_parser().parse_known_args(argv)
        if unknown:
            message = f"unrecognized arguments: {' '.join(unknown)}"
            if any(arg.startswith("-") for arg in unknown):
                message += " (put -- before a query that starts with -)"
            raise argparse.ArgumentError(None, message)
        if getattr(args, "query", "") is None:
            raise argparse.ArgumentError(None, "the following arguments are required: query")
        if getattr(args, "count", 0) < 0:
            raise argparse.ArgumentError(None, f"argument count: {args.count} is negative")
        command = args.command
        grammar = parse_rule_dsl(_read(args.grammar or data_path("rules_v1.bnf")))
        if command in ("semantics", "ask", "batch"):
            check_families(grammar)
        lexicon = load_lexicon(_read(args.lexicon or data_path("lexicon_v1.tsv")))
        if command == "generate":
            cmd_generate(args, grammar, lexicon)
            return EXIT_OK
        if command == "batch":
            return cmd_batch(_read(args.file), grammar, lexicon)
        if command == "ask":
            catalog = load_catalog(_read(args.catalog or data_path("catalog_sample.json")))
        results = parse(args.query, grammar, lexicon)
        if not results:
            print("no parse", file=sys.stderr)
            return EXIT_NO_PARSE
        if command == "parse":
            cmd_parse(args, results)
        elif command == "semantics":
            cmd_semantics(args, results)
        else:
            cmd_ask(args, results, catalog)
        return EXIT_OK
    # OSError: stdout closed early, as in ``viquery generate all 20 | head -1``
    except (argparse.ArgumentError, _ReadError, BlankQueryError, QueryTooLongError,
            LexiconError, GrammarError, CatalogError, EvaluationError, TransformError,
            OSError) as exc:
        print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
