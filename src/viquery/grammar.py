"""Syntactic rules as data: a small BNF-style DSL, validation and sampling.

Rules are flat patterns over category slots — no nonterminal cascades.  A
rule body is a sequence of ``<category>`` slots, ``[ ... ]`` optionals,
``{ ... }`` zero-or-more groups and double-quoted terminals.  It is held in
the parts a phrase template alternative uses (see
:data:`viquery.lexicon.TEMPLATES`): a slot is its :class:`Category`, a
terminal is a plain ``str`` and a bracket is a :class:`Bracket`.  Since a
``Category`` is a ``str``, code telling parts apart tests ``Category``
first.  File order is priority order for the parser.  Each rule compiles,
when it is built, to the flat program the parser's matcher runs.
"""

from __future__ import annotations

import random
import re
from typing import NamedTuple

from .lexicon import Category, GRAMMAR_CATEGORIES, TEMPLATES, Lexicon
from .semantics import _family_problems


class GrammarError(ValueError):
    """Raised when a grammar document cannot be loaded or sampled."""


class Bracket(NamedTuple):
    """``[body]`` (``opener`` ``"["``): optional; ``{body}`` (``opener``
    ``"{"``): repeated zero or more times."""

    opener: str
    body: tuple


#: Matcher instructions, as ``(op, arg, alt)`` triples.  ``LIT s`` consumes
#: one token group whose surface is ``s``; ``TOK c`` consumes one token group
#: of the non-template category ``c``; ``CAT c`` consumes one constituent of
#: the template category ``c`` (see :data:`viquery.lexicon.TEMPLATES`);
#: ``SPLIT a b`` tries ``a`` first and ``b`` on failure; ``JUMP a`` continues
#: at ``a``; ``MATCH`` accepts at the end of the stream.
LIT, TOK, CAT, SPLIT, JUMP, MATCH = range(6)


def _emit(terms: tuple, program: list) -> None:
    for term in terms:
        if isinstance(term, Category):  # before str: a Category is a str
            program.append((CAT if term in TEMPLATES else TOK, term, 0))
        elif isinstance(term, str):
            program.append((LIT, term, 0))
        else:
            # [body]: SPLIT body, after (present before absent)
            # {body}: L: SPLIT body, after; body; JUMP L (one more iteration
            # before exit)
            split = len(program)
            program.append(None)
            _emit(term.body, program)
            if term.opener == "{":
                program.append((JUMP, split, 0))
            program[split] = (SPLIT, split + 1, len(program))


def compile_terms(terms: tuple) -> tuple[tuple, ...]:
    """Compile a rule body to its matcher program, ending in ``MATCH``."""
    program: list = []
    _emit(terms, program)
    program.append((MATCH, None, 0))
    return tuple(program)


class SyntacticRule(NamedTuple):
    id: str
    family: str
    #: ``Category`` slots, ``str`` literals and :class:`Bracket` parts
    terms: tuple
    #: the compiled body, see :func:`compile_terms`
    program: tuple[tuple, ...]
    #: literals and categories the body consumes wherever it matches (see
    #: :func:`_needs`): a stream lacking any of them cannot match
    required: frozenset
    #: keys of which the first group of every match holds one and, for a
    #: body ending in a literal or a one-token slot (else None), the group
    #: before the last; None in a set: there may be no such group
    first: frozenset
    last: frozenset | None


_FAMILY_RE = re.compile(r"^(.+\d)([a-z])$")
_LHS_RE = re.compile(r"^<([^<>\s]+)>\s*=\s*(.*)$")
_BODY_TOKEN_RE = re.compile(r'<([^<>\s]+)>|"([^"]*)"|([\[{])|([\]}])|(\S+)')
_CATEGORIES = {c.value: c for c in GRAMMAR_CATEGORIES}
#: deepest ``[...]``/``{...}`` nesting a rule body may use
_MAX_NESTING = 32


def family_of(rule_id: str) -> str:
    """Family = rule id with a trailing variant letter removed."""
    m = _FAMILY_RE.match(rule_id)
    return m.group(1) if m else rule_id


def _needs(parts) -> set:
    """The literals and categories that rule terms or template parts consume
    wherever they match: each literal, each non-template category and
    one-category part, and what every alternative of a template category
    needs.  A :class:`Bracket`, or a part that lists several categories such
    as ``(POSSESSIVE, AGENT)``, needs nothing."""
    keys: set = set()
    for part in parts:
        if isinstance(part, Category) and part in TEMPLATES:  # not a literal
            keys |= _TEMPLATE_KEYS[part, 0]
        elif isinstance(part, str):
            keys.add(part)
        elif type(part) is tuple and len(part) == 1:
            keys.add(part[0])
    return keys


def _edge(parts, step: int) -> frozenset:
    """The keys of which the first (``step`` 1) or last (``step`` -1) group
    that rule terms or template parts consume holds one, plus None if they
    can consume none.  A template category gives the union over its
    alternatives."""
    keys: set = {None}
    for part in parts[::step]:
        if isinstance(part, Bracket):
            keys |= _edge(part.body, step)
            continue
        keys.discard(None)
        if isinstance(part, Category) and part in TEMPLATES:  # not a literal
            keys |= _TEMPLATE_KEYS[part, step]
        elif type(part) is tuple:
            keys.update(part)
        else:  # a literal or a non-template category
            keys.add(part)
        break
    return frozenset(keys)


# per template category, worked out once: what every alternative needs (0),
# begins (1) and ends (-1) with; a template nests only earlier templates
_TEMPLATE_KEYS: dict[tuple[Category, int], frozenset] = {}
for _category, _alternatives in TEMPLATES.items():
    _parts = [parts for parts, _build in _alternatives]
    _TEMPLATE_KEYS[_category, 0] = frozenset(set.intersection(*map(_needs, _parts)))
    for _step in (1, -1):
        _TEMPLATE_KEYS[_category, _step] = frozenset().union(*[_edge(p, _step) for p in _parts])


def _rule(rule_id: str, terms: tuple) -> SyntacticRule:
    end = terms[-1]
    # a literal or a one-token slot at the end consumes the last group alone
    anchored = type(end) is str or isinstance(end, Category) and end not in TEMPLATES
    return SyntacticRule(rule_id, family_of(rule_id), terms, compile_terms(terms),
                         frozenset(_needs(terms)), _edge(terms, 1),
                         _edge(terms[:-1], -1) if anchored else None)


def _parse_body(text: str, lineno: int) -> tuple:
    terms: list = []
    stack: list[tuple[str, list]] = []
    for m in _BODY_TOKEN_RE.finditer(text):
        name, literal, opener, closer, other = m.groups()
        if name is not None:
            category = _CATEGORIES.get(name)
            if category is None:
                raise GrammarError(f"line {lineno}: unknown category <{name}>")
            terms.append(category)
        elif literal is not None:
            terms.append(literal)
        elif opener:
            if len(stack) == _MAX_NESTING:
                raise GrammarError(
                    f"line {lineno}: brackets nested deeper than {_MAX_NESTING}")
            stack.append((opener, terms))
            terms = []
        elif closer:
            if not stack or stack[-1][0] + closer not in ("[]", "{}"):
                raise GrammarError(f"line {lineno}: unbalanced {closer!r}")
            opener, parent = stack.pop()
            if not terms:
                raise GrammarError(f"line {lineno}: empty {opener}{closer}")
            parent.append(Bracket(opener, tuple(terms)))
            terms = parent
        else:
            raise GrammarError(f"line {lineno}: unexpected {other!r}")
    if stack:
        raise GrammarError(f"line {lineno}: unbalanced {stack[-1][0]!r}")
    return tuple(terms)


def parse_rule_dsl(document: str) -> tuple[SyntacticRule, ...]:
    """Load a grammar document (one rule per line, ``#`` comments) as a tuple
    of its rules in file order, which is match priority."""
    rules: dict[str, SyntacticRule] = {}
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LHS_RE.match(line)
        if not m:
            raise GrammarError(f"line {lineno}: expected '<ID> = BODY'")
        rule_id, body_text = m.groups()
        if rule_id in rules:
            raise GrammarError(f"line {lineno}: duplicate rule id {rule_id}")
        terms = _parse_body(body_text, lineno)
        if not terms:
            raise GrammarError(f"line {lineno}: empty rule body")
        rules[rule_id] = _rule(rule_id, terms)
    return tuple(rules.values())


def _render_term(term) -> str:
    if isinstance(term, Category):  # before str: a Category is a str
        return f"<{term.value}>"
    if isinstance(term, str):
        return f'"{term}"'
    inner = " ".join(_render_term(t) for t in term.body)
    return f"[{inner}]" if term.opener == "[" else f"{{{inner}}}"


def render_dsl(grammar: tuple[SyntacticRule, ...]) -> str:
    """Render a grammar back to DSL text (reload gives an identical grammar)."""
    lines = [
        f"<{rule.id}> = " + " ".join(_render_term(t) for t in rule.terms)
        for rule in grammar
    ]
    return "\n".join(lines) + "\n"


def _categories_of(terms: tuple):
    for term in terms:
        if isinstance(term, Category):
            yield term
        elif isinstance(term, Bracket):
            yield from _categories_of(term.body)


def validate(grammar: tuple[SyntacticRule, ...], lexicon: Lexicon) -> list[str]:
    """Diagnostics: unrealizable categories, rules not ending in '?', then
    each problem :func:`viquery.semantics.check_families` reports."""
    diagnostics: list[str] = []
    for rule in grammar:
        for category in _categories_of(rule.terms):
            if category in TEMPLATES or lexicon.surfaces(category):
                continue
            diagnostics.append(
                f"{rule.id}: category <{category.value}> has no lexicon entries"
            )
        if type(rule.terms[-1]) is not str or rule.terms[-1] != "?":
            diagnostics.append(f'{rule.id}: rule does not end with "?"')
    diagnostics.extend(_family_problems(grammar))
    return diagnostics


# --- sentence sampling -------------------------------------------------------

def sample(rule: SyntacticRule, seed: int, lexicon: Lexicon) -> str:
    """Generate one sentence from a rule; deterministic for a fixed seed.

    Optionals are included with probability 1/2 and groups repeated 0-2
    times, except that at most one optional time phrase is enabled per
    sentence (rules offering both a fronted and a trailing slot would
    otherwise produce doubly-constrained questions).  A template realizes
    its first alternative.  A token slot picks one of its categories' sorted
    surfaces, one list after another, except that a year is drawn from
    1900-2025.
    """
    rng = random.Random(seed)

    time_slots = [t for t in rule.terms if isinstance(t, Bracket) and t.opener == "["
                  and Category.TIME_PHRASE in _categories_of(t.body)]
    allowed_time = rng.choice(time_slots) if len(time_slots) > 1 else None

    def token(categories: tuple[Category, ...]) -> str:
        if categories == (Category.YEAR,):
            return str(rng.randint(1900, 2025))
        surfaces = [s for category in categories for s in lexicon.surfaces(category)]
        if not surfaces:
            names = "|".join(f"<{category.value}>" for category in categories)
            raise GrammarError(f"category {names} has no realizable surface")
        return rng.choice(surfaces)

    def expand(parts: tuple, out: list[str]) -> None:
        for part in parts:
            if isinstance(part, Category):  # before str: a Category is a str
                if part in TEMPLATES:  # the parts of its first alternative
                    expand(TEMPLATES[part][0][0], out)
                else:
                    out.append(token((part,)))
            elif isinstance(part, str):
                out.append(part)
            elif type(part) is tuple:
                out.append(token(part))
            elif part.opener == "{":
                for _ in range(rng.randint(0, 2)):
                    expand(part.body, out)
            else:
                include = rng.random() < 0.5
                if (len(time_slots) > 1 and part is not allowed_time
                        and Category.TIME_PHRASE in _categories_of(part.body)):
                    include = False
                if include and not out and all(type(t) is str for t in part.body):
                    include = False  # no separator before any content
                if include:
                    expand(part.body, out)

    words: list[str] = []
    expand(rule.terms, words)
    return " ".join(words)
