"""Compiled matcher: tokens against flat rule patterns, full span only.

Each rule compiles once, when it is built, to a flat program of ``LIT``,
``TOK``, ``CAT``, ``SPLIT``, ``JUMP`` and ``MATCH`` instructions (see
:func:`viquery.grammar.compile_program`).  An optional ``[body]`` becomes
``SPLIT body, after`` and a group ``{body}`` becomes
``L: SPLIT body, after; body; JUMP L``, so an optional is tried present
before absent and a group tries one more iteration before it exits.

:func:`match_rule` runs a program as an iterative depth-first search that
takes the first branch of every ``SPLIT`` first, so the first complete match
it finds is the first in that priority order and results are deterministic.
A visited set over (``SPLIT``, position) explores no branch point twice.
Every loop passes through its ``SPLIT``, which rejects a group iteration
that consumes nothing, and the states between two ``SPLIT``s form a
straight line that cannot match on a second walk if it did not on the
first: the search is bounded by ``SPLIT`` states times straight-line
length.  Bindings are kept in a chain of ``(binding, parent)`` links.

One loop runs the programs of rules and of phrase templates.  A ``TOK``
reads the token group at the position inline; a ``CAT`` consumes one
constituent of a template category, which :func:`scan_constituent` matches
by running that template's program.  A rule's ``MATCH`` accepts only after
the last group, a template's wherever it is reached, so the first template
alternative that matches wins and no later one is tried (an atomic ordered
choice).  :func:`parse` shares one table among all rules of a query.  It
holds each span a rule's ``CAT`` scanned, by (position, category), as a
finished ``(category, value, surface)``, and each matched sequence of those
with its :class:`ConstituentBinding` tuple, so parses that bind the same
constituents share one ``bindings`` tuple.

:func:`parse` tries only the rules :func:`candidate_rules` keeps.  It skips
a rule unless the query holds all its ``required`` keys, its first group
one of its ``first`` keys (the body's FIRST set) and, where ``last`` is not
None, the group before the last one of the ``last`` keys (None stands for
no group, in a one-group query), all worked out from the programs (see
:class:`viquery.grammar.SyntacticRule`).  Keys are literals and
categories; a ``Category`` is a ``str`` equal to its value, so a literal
equal to one only lets a rule through.  Every match consumes groups holding
such keys at those places, so a skipped rule is one that cannot match.
"""

from __future__ import annotations

from typing import NamedTuple

from .grammar import CAT, JUMP, LIT, SPLIT, TEMPLATE_PROGRAMS, TOK, SyntacticRule
from .lexicon import BUILDERS, Category, Lexicon, TokenGroup, normalize, tokenize

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

    ``scans`` is the per-query table of spans and bindings tuples that
    :func:`parse` shares among all rules of a query (see the module doc).
    """
    if scans is None:
        scans = {}
    found = _run(rule.program, groups, 0, scans)
    if found is None:
        return None
    chain = found[0]
    matched = []
    while chain is not None:
        binding, chain = chain
        matched.append(binding)
    key = tuple(reversed(matched))
    bindings = scans.get(key)
    if bindings is None:  # ordinals depend on the sequence alone
        counters: dict[Category, int] = {}
        built = []
        for category, value, surface in key:
            ordinal = counters.get(category, 0)
            counters[category] = ordinal + 1
            built.append(ConstituentBinding(category, value, surface, ordinal))
        bindings = scans[key] = tuple(built)
    return ParseResult(rule.id, rule.family, bindings)


def scan_constituent(groups: tuple[TokenGroup, ...], at: int, category: Category):
    """One constituent of the template ``category`` at group index ``at``:
    (the value its ``MATCH``'s builder makes, first unconsumed position) or
    None."""
    found = _run(TEMPLATE_PROGRAMS[category], groups, at, {})
    if found is None:
        return None
    chain, after, builder = found
    values = []
    while chain is not None:
        (_, value, _), chain = chain
        values.append(value)
    return BUILDERS[builder](values[::-1]), after


def _run(program: tuple, groups: tuple[TokenGroup, ...], at: int, scans: dict):
    """Run a program from group index ``at``: (binding chain, end position,
    builder name) at the first ``MATCH`` that accepts, or None.  A rule's
    ``MATCH`` (no builder) accepts only at the end, a template's anywhere."""
    n = len(groups)
    width = n + 1
    visited: set[int] = set()
    stack = [(0, at, None)]
    while stack:
        pc, pos, chain = stack.pop()
        while True:
            op, arg, alt = program[pc]
            if op == SPLIT:
                state = pc * width + pos
                if state in visited:
                    break
                visited.add(state)
                stack.append((alt, pos, chain))
                pc = arg
            elif op == TOK:
                value = groups[pos].categories.get(arg) if pos < n else None
                if value is None:
                    break
                chain = ((arg, value, groups[pos].surface), chain)
                pc += 1
                pos += 1
            elif op == CAT:
                key = (pos, arg)
                span = scans.get(key, _UNSCANNED)
                if span is _UNSCANNED:  # join the surface once per span
                    span = scan_constituent(groups, pos, arg)
                    if span is not None:
                        value, after = span
                        surface = (groups[pos].surface if after == pos + 1 else
                                   " ".join([g.surface for g in groups[pos:after]]))
                        span = ((arg, value, surface), after)
                    scans[key] = span
                if span is None:
                    break
                binding, pos = span
                chain = (binding, chain)
                pc += 1
            elif op == LIT:
                if pos >= n or groups[pos].surface != arg:
                    break
                pc += 1
                pos += 1
            elif op == JUMP:
                pc = arg
            elif arg is not None or pos == n:  # MATCH
                return chain, pos, arg
            else:
                break
    return None


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
    scans: dict = {}
    results = []
    for rule in candidate_rules(groups, grammar):
        result = match_rule(groups, rule, scans)
        if result is not None:
            results.append(result)
    return results


def candidate_rules(groups: tuple[TokenGroup, ...],
                    grammar: tuple[SyntacticRule, ...]) -> list[SyntacticRule]:
    """The rules, in priority order, that :func:`parse` tries on a non-empty
    tuple of token groups (see the module doc)."""
    # unpack a list, not a generator: CPython resizes the argument tuple it
    # builds from a generator, and such tuples pile up on its free lists
    present = {g.surface for g in groups}.union(*[g.categories for g in groups])
    head = {groups[0].surface, *groups[0].categories}
    # None stands for the missing group before the last of a one-group query
    before = {groups[-2].surface, *groups[-2].categories} if len(groups) > 1 else {None}
    return [rule for rule in grammar
            if rule.required <= present and not rule.first.isdisjoint(head)
            and (rule.last is None or not rule.last.isdisjoint(before))]


def constituents(parse_result: ParseResult) -> list[tuple[Category, str, object]]:
    """Bindings projected for display, in surface order."""
    return [(b.category, b.surface, b.value) for b in parse_result.bindings]
