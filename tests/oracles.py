"""Independent reference implementations used to cross-check the fast paths.

The parse oracle replaces the parser's backtracking control with explicit
enumeration: it expands every optional/repetition assignment of a rule into
a flat term list (in the parser's preference order) and linearly matches
each expansion.  The legacy parser is the recursive backtracker that the
compiled matcher replaced, kept as a fast differential reference.  The
evaluation oracle re-derives answers per record by walking the semantic tree
directly instead of compiling a filter list; a yes/no question that names
several books holds when each of its one-book readings holds.  The legacy
front end is the regex normalizer and the per-first-syllable bucket scan
that the syllable trie replaced.
"""

from __future__ import annotations

import functools
import itertools
import re
import unicodedata
from dataclasses import dataclass, replace

from viquery.catalog import Answer, BookRecord, Catalog, format_price
from viquery.grammar import Grammar, SyntacticRule, TermKind
from viquery.lexicon import (
    NAME_KINDS,
    Category,
    Lexicon,
    TokenGroup,
    TokenStream,
    normalize,
    scan_constituent,
    tokenize,
)
from viquery.parser import ConstituentBinding, ParseResult
from viquery.semantics import SemanticNode


def _min_flat_len(terms: tuple) -> int:
    return sum(1 for t in terms if t.kind in (TermKind.LITERAL, TermKind.CATEGORY))


def _expansions(terms: tuple, budget: int, capacity: int):
    """All flat (literal|category) expansions, in the parser's preference
    order: optional present before absent, one more repetition before group
    exit.  ``budget`` bounds group iterations, ``capacity`` the flat length
    (every flat term consumes at least one stream position)."""
    if _min_flat_len(terms) > capacity:
        return
    if not terms:
        yield ()
        return
    head, rest = terms[0], terms[1:]
    if head.kind in (TermKind.LITERAL, TermKind.CATEGORY):
        for tail in _expansions(rest, budget, capacity - 1):
            yield (head,) + tail
    elif head.kind is TermKind.OPTIONAL:
        yield from _expansions(head.body + rest, budget, capacity)
        yield from _expansions(rest, budget, capacity)
    else:  # GROUP
        if budget > 0:
            yield from _expansions(head.body + (head,) + rest, budget - 1, capacity)
        yield from _expansions(rest, budget, capacity)


def _bind(rule: SyntacticRule, stream: TokenStream, matched) -> ParseResult:
    counters: dict = {}
    bindings = []
    for category, value, start, end in matched:
        ordinal = counters.get(category, 0)
        counters[category] = ordinal + 1
        bindings.append(ConstituentBinding(
            category, value, stream.span_text(start, end), ordinal))
    return ParseResult(rule.id, rule.family, tuple(bindings))


def _match_flat(flat: tuple, stream: TokenStream, lexicon: Lexicon):
    pos = 0
    matched = []
    for term in flat:
        if term.kind is TermKind.LITERAL:
            if pos >= len(stream) or stream.surface_at(pos) != term.literal:
                return None
            pos += 1
        else:
            found = scan_constituent(stream, pos, term.category)
            if found is None:
                return None
            value, after = found
            matched.append((term.category, value, pos, after))
            pos = after
    if pos != len(stream):
        return None
    return matched


def oracle_match_rule(stream: TokenStream, rule: SyntacticRule,
                      lexicon: Lexicon) -> ParseResult | None:
    n = len(stream)
    for flat in _expansions(rule.terms, n + 1, n):
        matched = _match_flat(flat, stream, lexicon)
        if matched is not None:
            return _bind(rule, stream, matched)
    return None


def oracle_parse(query: str, grammar: Grammar, lexicon: Lexicon) -> list[ParseResult]:
    stream = tokenize(normalize(query), lexicon)
    results = []
    for rule in grammar.rules:
        result = oracle_match_rule(stream, rule, lexicon)
        if result is not None:
            results.append(result)
    return results


# --- legacy front end --------------------------------------------------------

_YEAR_RE = re.compile(r"^[1-9]\d{3}$")
_PUNCT_RE = re.compile(r"\s*([?,])\s*")
_WS_RE = re.compile(r"\s+")


def legacy_normalize(text: str) -> str:
    text = unicodedata.normalize("NFC", text).lower()
    text = _PUNCT_RE.sub(r" \1 ", text)
    return _WS_RE.sub(" ", text).strip()


@functools.lru_cache(maxsize=None)
def _by_first(lexicon: Lexicon) -> dict:
    """First syllable -> (syllables, entry), longest first."""
    by_first: dict = {}
    for entry in lexicon._entries.values():
        syllables = tuple(entry.surface.split(" "))
        by_first.setdefault(syllables[0], []).append((syllables, entry))
    for bucket in by_first.values():
        bucket.sort(key=lambda item: (-len(item[0]), item[1].category.value))
    return by_first


def _match_at(lexicon: Lexicon, syllables: list[str], at: int):
    best = []
    best_len = 0
    for entry_syllables, entry in _by_first(lexicon).get(syllables[at], ()):
        n = len(entry_syllables)
        if n < best_len:
            break  # buckets are length-sorted
        if tuple(syllables[at:at + n]) == entry_syllables:
            if n > best_len:
                best, best_len = [entry], n
            else:
                best.append(entry)
    return best_len, best


def legacy_tokenize(query: str, lexicon: Lexicon) -> TokenStream:
    syllables = query.split(" ") if query else []
    groups: list[TokenGroup] = []
    i = 0
    n = len(syllables)
    while i < n:
        syl = syllables[i]
        if syl in ("?", ","):
            groups.append(TokenGroup(i, i + 1, syl, {Category.PUNCT: syl}))
            i += 1
            continue
        length, matches = _match_at(lexicon, syllables, i)
        if matches:
            span = " ".join(syllables[i:i + length])
            categories = {e.category: e.canonical for e in matches}
            groups.append(TokenGroup(i, i + length, span, categories))
            i += length
            continue
        # maximal unknown run -> proper-name candidates
        j = i
        while j < n and syllables[j] not in ("?", ",") and not _match_at(lexicon, syllables, j)[0]:
            j += 1
        run = " ".join(syllables[i:j])
        categories = dict.fromkeys(NAME_KINDS, run)
        if j - i == 1 and _YEAR_RE.match(run):
            categories[Category.YEAR] = run
        groups.append(TokenGroup(i, j, run, categories))
        i = j
    return TokenStream(tuple(groups))


# --- legacy parser ------------------------------------------------------------
#
# The recursive backtracker the parser used before rules were compiled.  It
# recurses a few frames per token group, so it raises RecursionError on
# questions with about 200 coordinated books; tests keep below that.

@dataclass(frozen=True)
class _Progress:
    """Guard pseudo-term: group iterations must consume at least one group."""

    at: int


def legacy_match_rule(stream: TokenStream, rule: SyntacticRule,
                      lexicon: Lexicon) -> ParseResult | None:
    n = len(stream)

    def match_seq(terms: tuple, pos: int):
        if not terms:
            return [] if pos == n else None
        head, rest = terms[0], terms[1:]
        if isinstance(head, _Progress):
            return match_seq(rest, pos) if pos > head.at else None
        if head.kind is TermKind.LITERAL:
            if pos < n and stream.surface_at(pos) == head.literal:
                return match_seq(rest, pos + 1)
            return None
        if head.kind is TermKind.CATEGORY:
            found = scan_constituent(stream, pos, head.category)
            if found is None:
                return None
            value, after = found
            tail = match_seq(rest, after)
            if tail is None:
                return None
            return [(head.category, value, pos, after)] + tail
        if head.kind is TermKind.OPTIONAL:
            present = match_seq(head.body + rest, pos)
            if present is not None:
                return present
            return match_seq(rest, pos)
        # GROUP: one more iteration first, then exit
        again = match_seq(head.body + (_Progress(pos), head) + rest, pos)
        if again is not None:
            return again
        return match_seq(rest, pos)

    matched = match_seq(rule.terms, 0)
    return None if matched is None else _bind(rule, stream, matched)


def legacy_parse(query: str, grammar: Grammar, lexicon: Lexicon) -> list[ParseResult]:
    stream = tokenize(normalize(query), lexicon)
    results = []
    for rule in grammar.rules:
        result = legacy_match_rule(stream, rule, lexicon)
        if result is not None:
            results.append(result)
    return results


# --- evaluation oracle --------------------------------------------------------

def _record_satisfies(record: BookRecord, node: SemanticNode) -> bool:
    for arg, _rel in node.args:
        if arg.kind == "nested":
            if not _record_satisfies(record, arg.nested):
                return False
        elif arg.kind == "time":
            if arg.focus or arg.time.year is None:
                continue
            year, relation = arg.time.year, arg.time.relation
            if relation == "before" and not record.year < year:
                return False
            if relation == "in" and not record.year == year:
                return False
            if relation == "after" and not record.year > year:
                return False
        elif arg.kind == "entity" and not arg.focus and arg.value is not None:
            if arg.role == "author" and arg.value not in record.authors:
                return False
            if arg.role == "book" and arg.value != record.title:
                return False
            if arg.role == "publisher" and arg.value != record.publisher:
                return False
            if arg.role in ("subject", "field") and arg.value != record.subject:
                return False
            if arg.role == "location" and arg.value != record.place:
                return False
    return True


def _is_book(arg) -> bool:
    """A book entity, or a nested is_of node that holds one ("sách nào
    thuộc chủ đề T")."""
    if arg.kind == "nested":
        return arg.nested.predicate == "is_of" and any(
            inner.kind == "entity" and inner.role == "book" for inner, _rel in arg.nested.args)
    return arg.kind == "entity" and arg.role == "book"


def _one_book_readings(node: SemanticNode):
    """Copies of ``node`` that keep one of its book arguments, nested nodes
    alike; a node with no book argument keeps all of its arguments."""
    books = [i for i, (arg, _rel) in enumerate(node.args) if _is_book(arg)]
    for kept in books or [None]:
        choices = []
        for i, (arg, rel) in enumerate(node.args):
            if i in books and i != kept:
                continue
            if arg.kind == "nested":
                choices.append([(replace(arg, nested=nested), rel)
                                for nested in _one_book_readings(arg.nested)])
            else:
                choices.append([(arg, rel)])
        for args in itertools.product(*choices):
            yield replace(node, args=args)


def _focused_role(node: SemanticNode):
    for arg, _rel in node.args:
        if arg.focus:
            if arg.kind == "amount":
                return "amount"
            if arg.kind == "time":
                return "year"
            return arg.role
        if arg.nested is not None:
            role = _focused_role(arg.nested)
            if role is not None:
                return role
    return None


def oracle_evaluate(sem: SemanticNode, catalog: Catalog) -> Answer:
    if sem.focused:
        return Answer("boolean", all(
            any(_record_satisfies(r, reading) for r in catalog.records)
            for reading in _one_book_readings(sem)))
    hits = [r for r in catalog.records if _record_satisfies(r, sem)]
    role = _focused_role(sem)
    if role == "amount":
        return Answer("count", len(hits))
    values: set[str] = set()
    for record in hits:
        if role == "author":
            values |= set(record.authors)
        elif role == "book":
            values.add(record.title)
        elif role == "publisher":
            values.add(record.publisher)
        elif role in ("subject", "field"):
            values.add(record.subject)
        elif role == "location":
            values.add(record.place)
        elif role == "year":
            values.add(str(record.year))
        elif role == "price":
            values.add(format_price(record))
    return Answer("entities", tuple(sorted(values)))
