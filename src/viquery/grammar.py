"""Syntactic rules as data: a small BNF-style DSL, validation and sampling.

Rules are flat patterns over category slots — no nonterminal cascades.  A
rule body is a sequence of ``<category>`` slots, ``[ ... ]`` optionals,
``{ ... }`` zero-or-more groups and double-quoted terminals.  File order is
priority order for the parser.  Each rule compiles, when it is built, to the
flat program the parser's matcher runs.
"""

from __future__ import annotations

import random
import re
from enum import Enum
from typing import NamedTuple

from .lexicon import Category, GRAMMAR_CATEGORIES, TEMPLATES, Lexicon
from .semantics import _family_problems


class GrammarError(ValueError):
    """Raised when a grammar document cannot be loaded or sampled."""


class TermKind(Enum):
    LITERAL = "literal"
    CATEGORY = "category"
    OPTIONAL = "optional"
    GROUP = "group"


class RuleTerm(NamedTuple):
    kind: TermKind
    literal: str | None = None
    category: Category | None = None
    body: tuple["RuleTerm", ...] = ()


#: Matcher instructions, as ``(op, arg, alt)`` triples.  ``LIT s`` consumes
#: one token group whose surface is ``s``; ``TOK c`` consumes one token group
#: of the non-template category ``c``; ``CAT c`` consumes one constituent of
#: the template category ``c`` (see :data:`viquery.lexicon.TEMPLATES`);
#: ``SPLIT a b`` tries ``a`` first and ``b`` on failure; ``JUMP a`` continues
#: at ``a``; ``MATCH`` accepts at the end of the stream.
LIT, TOK, CAT, SPLIT, JUMP, MATCH = range(6)


def _emit(terms: tuple[RuleTerm, ...], program: list) -> None:
    for term in terms:
        if term.kind is TermKind.LITERAL:
            program.append((LIT, term.literal, 0))
        elif term.kind is TermKind.CATEGORY:
            op = CAT if term.category in TEMPLATES else TOK
            program.append((op, term.category, 0))
        else:
            # [body]: SPLIT body, after (present before absent)
            # {body}: L: SPLIT body, after; body; JUMP L (one more iteration
            # before exit)
            split = len(program)
            program.append(None)
            _emit(term.body, program)
            if term.kind is TermKind.GROUP:
                program.append((JUMP, split, 0))
            program[split] = (SPLIT, split + 1, len(program))


def compile_terms(terms: tuple[RuleTerm, ...]) -> tuple[tuple, ...]:
    """Compile a rule body to its matcher program, ending in ``MATCH``."""
    program: list = []
    _emit(terms, program)
    program.append((MATCH, None, 0))
    return tuple(program)


class SyntacticRule(NamedTuple):
    id: str
    family: str
    terms: tuple[RuleTerm, ...]
    #: the compiled body, see :func:`compile_terms`
    program: tuple[tuple, ...]
    #: ``(LIT, s)`` for every top-level literal, ``(CAT, c)`` for every
    #: top-level non-template category, and the keys every alternative of a
    #: top-level template category needs (see :func:`_template_needs`): a
    #: stream lacking any of them cannot match
    required: frozenset[tuple]


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


def _template_needs(category: Category) -> set[tuple]:
    """The ``(LIT, s)``/``(CAT, c)`` keys that every alternative of a template
    category consumes.  A part that lists several categories, e.g.
    ``(POSSESSIVE, AGENT)``, needs none of them."""
    alternatives = []
    for parts, _build in TEMPLATES[category]:
        keys: set[tuple] = set()
        for part in parts:
            if isinstance(part, Category):  # before str: a Category is a str
                keys |= _template_needs(part)
            elif isinstance(part, str):
                keys.add((LIT, part))
            elif len(part) == 1:
                keys.add((CAT, part[0]))
        alternatives.append(keys)
    return set.intersection(*alternatives)


#: what a top-level slot of each template category adds to ``required``
_TEMPLATE_NEEDS = {category: frozenset(_template_needs(category)) for category in TEMPLATES}


def _rule(rule_id: str, terms: tuple[RuleTerm, ...]) -> SyntacticRule:
    required: set[tuple] = set()
    for term in terms:
        if term.kind is TermKind.LITERAL:
            required.add((LIT, term.literal))
        elif term.kind is TermKind.CATEGORY:
            if term.category in TEMPLATES:
                required |= _TEMPLATE_NEEDS[term.category]
            else:
                required.add((CAT, term.category))
    return SyntacticRule(rule_id, family_of(rule_id), terms, compile_terms(terms),
                         frozenset(required))


def _parse_body(text: str, lineno: int) -> tuple[RuleTerm, ...]:
    terms: list[RuleTerm] = []
    stack: list[tuple[str, list[RuleTerm]]] = []
    for m in _BODY_TOKEN_RE.finditer(text):
        name, literal, opener, closer, other = m.groups()
        if name is not None:
            category = _CATEGORIES.get(name)
            if category is None:
                raise GrammarError(f"line {lineno}: unknown category <{name}>")
            terms.append(RuleTerm(TermKind.CATEGORY, category=category))
        elif literal is not None:
            terms.append(RuleTerm(TermKind.LITERAL, literal=literal))
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
            kind = TermKind.OPTIONAL if opener == "[" else TermKind.GROUP
            parent.append(RuleTerm(kind, body=tuple(terms)))
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


def _render_term(term: RuleTerm) -> str:
    if term.kind is TermKind.CATEGORY:
        return f"<{term.category.value}>"
    if term.kind is TermKind.LITERAL:
        return f'"{term.literal}"'
    inner = " ".join(_render_term(t) for t in term.body)
    return f"[{inner}]" if term.kind is TermKind.OPTIONAL else f"{{{inner}}}"


def render_dsl(grammar: tuple[SyntacticRule, ...]) -> str:
    """Render a grammar back to DSL text (reload gives an identical grammar)."""
    lines = [
        f"<{rule.id}> = " + " ".join(_render_term(t) for t in rule.terms)
        for rule in grammar
    ]
    return "\n".join(lines) + "\n"


def _categories_of(terms: tuple[RuleTerm, ...]):
    for term in terms:
        if term.kind is TermKind.CATEGORY:
            yield term.category
        elif term.body:
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
        last = rule.terms[-1]
        if not (last.kind is TermKind.LITERAL and last.literal == "?"):
            diagnostics.append(f'{rule.id}: rule does not end with "?"')
    diagnostics.extend(_family_problems(grammar))
    return diagnostics


# --- sentence sampling -------------------------------------------------------

def _realize(rng: random.Random, lexicon: Lexicon, part) -> str:
    """Sample a surface for a rule slot or a template part.

    A template realizes its first alternative.  A token part picks one of
    its categories' sorted surfaces, one list after another, except that a
    year is drawn from 1900-2025.
    """
    if isinstance(part, Category):
        if part not in TEMPLATES:
            return _realize(rng, lexicon, (part,))
        parts, _build = TEMPLATES[part][0]
        return " ".join(_realize(rng, lexicon, p) for p in parts)
    if isinstance(part, str):
        return part
    if part == (Category.YEAR,):
        return str(rng.randint(1900, 2025))
    surfaces = [s for category in part for s in lexicon.surfaces(category)]
    if not surfaces:
        names = "|".join(f"<{category.value}>" for category in part)
        raise GrammarError(f"category {names} has no realizable surface")
    return rng.choice(surfaces)


def sample(rule: SyntacticRule, seed: int, lexicon: Lexicon) -> str:
    """Generate one sentence from a rule; deterministic for a fixed seed.

    Optionals are included with probability 1/2 and groups repeated 0-2
    times, except that at most one optional time phrase is enabled per
    sentence (rules offering both a fronted and a trailing slot would
    otherwise produce doubly-constrained questions).
    """
    rng = random.Random(seed)

    time_slots = [t for t in rule.terms if t.kind is TermKind.OPTIONAL
                  and Category.TIME_PHRASE in _categories_of(t.body)]
    allowed_time = rng.choice(time_slots) if len(time_slots) > 1 else None

    def expand(terms: tuple[RuleTerm, ...], out: list[str]) -> None:
        for term in terms:
            if term.kind is TermKind.LITERAL:
                out.append(term.literal)
            elif term.kind is TermKind.CATEGORY:
                out.append(_realize(rng, lexicon, term.category))
            elif term.kind is TermKind.OPTIONAL:
                include = rng.random() < 0.5
                if (len(time_slots) > 1 and term is not allowed_time
                        and Category.TIME_PHRASE in _categories_of(term.body)):
                    include = False
                if include and not out and all(
                        t.kind is TermKind.LITERAL for t in term.body):
                    include = False  # no separator before any content
                if include:
                    expand(term.body, out)
            else:  # GROUP
                for _ in range(rng.randint(0, 2)):
                    expand(term.body, out)

    words: list[str] = []
    expand(rule.terms, words)
    return " ".join(words)
