"""Compiled matcher: tokens against flat rule patterns, full span only.

Each rule compiles once, when it is built, to a flat program of ``LIT``,
``TOK``, ``CAT``, ``SPLIT``, ``JUMP`` and ``MATCH`` instructions (see
:func:`viquery.grammar.compile_terms`).  An optional ``[body]`` becomes
``SPLIT body, after`` and a group ``{body}`` becomes
``L: SPLIT body, after; body; JUMP L``, so an optional is tried present
before absent and a group tries one more iteration before it exits.

:func:`match_rule` runs a program as an iterative depth-first search that
takes the first branch of every ``SPLIT`` first, so the first complete match
it finds is the first in that priority order and results are deterministic.
A visited set over (instruction, position) explores no state twice: the
search is bounded by program length times the number of token groups, and a
group iteration that consumes nothing is rejected when it returns to its
``SPLIT``.
Bindings are kept in a parent-linked chain, so a step copies nothing.

A ``TOK`` slot (a non-template category) reads the one token group at the
position inline.  A ``CAT`` slot (a template category) consumes one
constituent via :func:`viquery.lexicon.scan_constituent`; :func:`parse`
shares one table of those scan results, by (position, category), among all
rules of a query.  :func:`parse` skips a rule unless the query holds every
key in ``rule.required``: each top-level literal and non-template category,
and what every alternative of each top-level template needs.  A template
match consumes token groups holding each of those keys, so a skipped rule
is one that cannot match.
"""

from __future__ import annotations

from typing import NamedTuple

from .grammar import CAT, JUMP, LIT, SPLIT, TOK, SyntacticRule
from .lexicon import Category, Lexicon, TokenGroup, normalize, scan_constituent, tokenize

#: Longest query :func:`parse` accepts, in characters before normalization.
MAX_QUERY_CHARS = 100_000


class BlankQueryError(ValueError):
    """Raised for empty or whitespace-only input (distinct from no-parse)."""


class QueryTooLongError(ValueError):
    """Raised for input longer than :data:`MAX_QUERY_CHARS` characters."""


class ConstituentBinding(NamedTuple):
    category: Category
    value: object            # str, TimeValue, BookValue, or None (asked slot)
    surface: str
    ordinal: int              # occurrence index per category, from 0


class ParseResult(NamedTuple):
    rule_id: str
    family: str
    bindings: tuple[ConstituentBinding, ...]


_UNSCANNED = object()


def match_rule(groups: tuple[TokenGroup, ...], rule: SyntacticRule,
               scans: dict | None = None) -> ParseResult | None:
    """Match the whole tuple of token groups against one rule, or return None.

    ``scans`` caches :func:`scan_constituent` results by (position,
    category); :func:`parse` passes one table for all rules of a query.
    """
    if scans is None:
        scans = {}
    program = rule.program
    n = len(groups)
    width = n + 1
    visited: set[int] = set()
    stack = [(0, 0, None)]
    while stack:
        pc, pos, chain = stack.pop()
        while True:
            state = pc * width + pos
            if state in visited:
                break
            visited.add(state)
            op, arg, alt = program[pc]
            if op == SPLIT:
                stack.append((alt, pos, chain))
                pc = arg
            elif op == TOK:
                if pos >= n:
                    break
                value = groups[pos].categories.get(arg)
                if value is None:
                    break
                chain = (arg, value, pos, pos + 1, chain)
                pc += 1
                pos += 1
            elif op == CAT:
                key = (pos, arg)
                found = scans.get(key, _UNSCANNED)
                if found is _UNSCANNED:
                    found = scans[key] = scan_constituent(groups, pos, arg)
                if found is None:
                    break
                value, after = found
                chain = (arg, value, pos, after, chain)
                pc += 1
                pos = after
            elif op == LIT:
                if pos >= n or groups[pos].surface != arg:
                    break
                pc += 1
                pos += 1
            elif op == JUMP:
                pc = arg
            elif pos == n:  # MATCH
                return _result(rule, groups, chain)
            else:
                break
    return None


def _result(rule: SyntacticRule, groups: tuple[TokenGroup, ...], chain) -> ParseResult:
    matched = []
    while chain is not None:
        category, value, start, end, chain = chain
        matched.append((category, value, start, end))
    counters: dict[Category, int] = {}
    bindings = []
    for category, value, start, end in reversed(matched):
        ordinal = counters.get(category, 0)
        counters[category] = ordinal + 1
        surface = (groups[start].surface if end - start == 1
                   else " ".join(g.surface for g in groups[start:end]))
        bindings.append(ConstituentBinding(category, value, surface, ordinal))
    return ParseResult(rule.id, rule.family, tuple(bindings))


def parse(query: str, grammar: tuple[SyntacticRule, ...],
          lexicon: Lexicon) -> list[ParseResult]:
    """Normalize, tokenize and match every rule in priority order.

    Returns all successful parses (callers usually take the first); an empty
    list means no rule covers the query.  Blank input raises
    :class:`BlankQueryError`, input longer than :data:`MAX_QUERY_CHARS`
    :class:`QueryTooLongError`.
    """
    if len(query) > MAX_QUERY_CHARS:
        raise QueryTooLongError(
            f"query is {len(query)} characters, longer than {MAX_QUERY_CHARS}")
    normalized = normalize(query)
    if not normalized:
        raise BlankQueryError("query is empty or blank")
    groups = tokenize(normalized, lexicon)
    present = {(LIT, surface) for surface in {group.surface for group in groups}}
    # unpack a list, not a generator: CPython resizes the argument tuple it
    # builds from a generator, and such tuples pile up on its free lists
    present.update((CAT, category)
                   for category in set().union(*[group.categories for group in groups]))
    scans: dict = {}
    results = []
    for rule in grammar:
        if rule.required <= present:
            result = match_rule(groups, rule, scans)
            if result is not None:
                results.append(result)
    return results


def constituents(parse_result: ParseResult) -> list[tuple[Category, str, object]]:
    """Bindings projected for display, in surface order."""
    return [(b.category, b.surface, b.value) for b in parse_result.bindings]
