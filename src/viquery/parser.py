"""Compiled matcher: tokens against flat rule patterns, full span only.

Each rule compiles once, when it is built, to one flat program of ``LIT``,
``TOK``, ``ATOM``, ``SPLIT``, ``JUMP`` and ``MATCH`` instructions (see
:func:`viquery.grammar._emit`).  An optional ``[body]`` becomes ``SPLIT
body, after`` and a group ``{body}`` becomes ``L: SPLIT body, after; body;
JUMP L``, so an optional is tried present before absent and a group tries
one more iteration before it exits.

:func:`match_rule` runs a program as an iterative depth-first search that
takes the first branch of every ``SPLIT`` first, so the first complete
match it finds is the first in that priority order and results are
deterministic.  A visited set over (``SPLIT``, position) explores no branch
point twice.  Every loop passes through its ``SPLIT``, which rejects a
group iteration that consumes nothing, and the states between two
``SPLIT``s form a straight line that cannot match on a second walk if it
did not on the first: the search is bounded by ``SPLIT`` states times
straight-line length.  Bindings are kept in a chain of ``(binding,
parent)`` links.

A ``TOK`` reads the token group at the position inline.  A phrase template
slot, ``ATOM c``, is an atomic ordered choice (the Choice/Commit of Medeiros
and Ierusalimschy's parsing machine for PEGs).  :func:`parse` shares one
table among all rules of a query that holds, by (position, category), a
template's ``((category, value, surface), end)`` span, or None where it
does not match.  Where it has no entry, :func:`scan_constituent` tries the
template's straight-line alternatives in order and stores what the first
to match builds; nested templates are read the same way, so searches nest
only as deep as templates do, whatever the input.  The table also holds
each matched sequence of spans with its :class:`ConstituentBinding` tuple,
so parses that bind the same constituents share one ``bindings`` tuple.

:func:`parse` tries only the rules :func:`candidate_rules` keeps.  It skips
a rule unless the query holds all its ``required`` keys and, where ``last``
is not None, the group before the last one of the ``last`` keys (None
stands for no group, in a one-group query), both folded by the walk over
the rule's parts that compiles it (see :class:`viquery.grammar.SyntacticRule`).
Keys are literal surfaces and category names, both plain ``str``s, so a
literal equal to a name only lets a rule through.  Every match consumes such
keys there, so a skipped rule cannot match; a rule that cannot begin the
query is tried, and the first instructions of its program reject it.
"""

from __future__ import annotations

from typing import NamedTuple

from .grammar import ATOM, JUMP, LIT, SPLIT, TOK, SyntacticRule, _template
from .lexicon import BUILDERS, Lexicon, TokenGroup, normalize, tokenize

#: Longest query :func:`parse` accepts, in characters before normalization.
MAX_QUERY_CHARS = 100_000


class BlankQueryError(ValueError):
    """Raised for empty or whitespace-only input (distinct from no-parse)."""


class QueryTooLongError(ValueError):
    """Raised for input longer than :data:`MAX_QUERY_CHARS` characters."""


class ConstituentBinding(NamedTuple):
    category: str
    value: object            # str, TimeValue, BookValue, or None (asked slot)
    surface: str
    ordinal: int              # occurrence index per category, from 0


class ParseResult(NamedTuple):
    rule_id: str
    family: str
    bindings: tuple[ConstituentBinding, ...]


def match_rule(groups: tuple[TokenGroup, ...], rule: SyntacticRule,
               table: dict | None = None) -> ParseResult | None:
    """Match the whole tuple of token groups against one rule, or return None.

    ``table`` is the per-query table of spans and bindings tuples that
    :func:`parse` shares among all rules of a query (see the module doc).
    """
    table = {} if table is None else table
    key = _run(rule.program, groups, table)
    if key is None:
        return None
    bindings = table.get(key)
    if bindings is None:  # ordinals depend on the sequence alone
        counters: dict[str, int] = {}
        built = []
        for category, value, surface in key:
            ordinal = counters.get(category, 0)
            counters[category] = ordinal + 1
            built.append(ConstituentBinding(category, value, surface, ordinal))
        bindings = table[key] = tuple(built)
    return ParseResult(rule.id, rule.family, bindings)


def _run(program: tuple, groups: tuple[TokenGroup, ...], table: dict):
    """Search a rule's ``program`` for the spans (maybe none) its first full
    match binds, or None if nothing matches."""
    n = len(groups)
    width = n + 1
    visited: set[int] = set()
    stack = [(0, 0, None)]
    while stack:
        pc, pos, chain = stack.pop()
        while True:
            op, arg = program[pc]
            if op == SPLIT:
                state = pc * width + pos
                if state in visited:
                    break
                visited.add(state)
                stack.append((pc + arg, pos, chain))
                pc += 1
            elif op == TOK:
                value = groups[pos].categories.get(arg) if pos < n else None
                if value is None:
                    break
                chain = ((arg, value, groups[pos].surface), chain)
                pc += 1
                pos += 1
            elif op == ATOM:
                span = table.get((pos, arg), ())  # (): no entry yet
                if span == ():
                    span = scan_constituent(arg, groups, table, pos)
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
                pc += arg
            elif pos == n:  # MATCH
                matched = []
                while chain is not None:
                    binding, chain = chain
                    matched.append(binding)
                return tuple(reversed(matched))
            else:
                break
    return None


def scan_constituent(category: str, groups: tuple[TokenGroup, ...], table: dict, pos: int):
    """Store under ``(pos, category)`` in ``table``, which has no such entry,
    and return the span ``((category, value, surface), end)`` that the
    template's first alternative to match at group ``pos`` builds, or None."""
    n = len(groups)
    for steps, builder in _template(category)[0]:
        values, end = [], pos
        for op, arg in steps:
            if op == TOK:
                value = groups[end].categories.get(arg) if end < n else None
                if value is None:
                    break
                values.append(value)
                end += 1
            elif op == LIT:
                if end >= n or groups[end].surface != arg:
                    break
                end += 1
            else:  # ATOM
                span = table.get((end, arg), ())
                if span == ():
                    span = scan_constituent(arg, groups, table, end)
                if span is None:
                    break
                (_, value, _), end = span
                values.append(value)
        else:
            surface = " ".join([g.surface for g in groups[pos:end]])
            span = table[pos, category] = ((category, BUILDERS[builder](values), surface), end)
            return span
    table[pos, category] = None
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
    table: dict = {}
    return [result for rule in candidate_rules(groups, grammar)
            if (result := match_rule(groups, rule, table)) is not None]


def candidate_rules(groups: tuple[TokenGroup, ...],
                    grammar: tuple[SyntacticRule, ...]) -> list[SyntacticRule]:
    """The rules, in priority order, that :func:`parse` tries on a non-empty
    tuple of token groups (see the module doc)."""
    # unpack a list, not a generator: CPython resizes the argument tuple it
    # builds from a generator, and such tuples pile up on its free lists
    present = {g.surface for g in groups}.union(*[g.categories for g in groups])
    # None stands for the missing group before the last of a one-group query
    before = {groups[-2].surface, *groups[-2].categories} if len(groups) > 1 else {None}
    return [rule for rule in grammar
            if rule.required <= present
            and (rule.last is None or not rule.last.isdisjoint(before))]

