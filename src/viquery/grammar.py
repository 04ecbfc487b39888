"""Syntactic rules as data: a small BNF-style DSL, validation and sampling.

Rules are flat patterns over category slots — no nonterminal cascades.  A
rule body is a sequence of ``<category>`` slots, ``[ ... ]`` optionals,
``{ ... }`` zero-or-more groups and double-quoted terminals.  It is held in
the parts a phrase template alternative uses (see
:data:`viquery.lexicon.TEMPLATES`): a slot is its category's name, a plain
``str``, a terminal is a :class:`~viquery.lexicon.Lit` and a bracket is a
:class:`Bracket`, so code telling parts apart reads each part's type once.
File order is priority order for the parser.  Each rule compiles,
when it is built, to one flat program that the parser's matcher runs, and
each template, once, to its ordered alternatives, each a straight line of
steps that a template slot's ``ATOM`` searches; the walk over parts that
writes both also folds their prefilter keys.
"""

from __future__ import annotations

import functools
import itertools
import re
import sys
from typing import NamedTuple

from .lexicon import GRAMMAR_CATEGORIES, NAME_KINDS, TEMPLATES, Lexicon, Lit, normalize, tokenize
from .semantics import _family_problems


class GrammarError(ValueError):
    """Raised when a grammar document cannot be loaded or sampled."""


class Bracket(NamedTuple):
    """``[body]`` (``opener`` ``"["``): optional; ``{body}`` (``opener``
    ``"{"``): repeated zero or more times."""

    opener: str
    body: tuple


#: Matcher instructions, as ``(op, arg)`` pairs; jumps are relative.
#: ``LIT s`` consumes one token group whose surface is ``s``, ``TOK c`` one
#: of the category ``c``, ``ATOM c`` one span of the template ``c`` (see
#: :func:`_template`); ``SPLIT d`` tries the next instruction, then on
#: failure the one ``d`` further on; ``JUMP d`` goes ``d`` on; ``MATCH``
#: (6 in printed programs) accepts at the end.
LIT, TOK, ATOM, SPLIT, JUMP, MATCH = 0, 1, 2, 3, 4, 6


_NONE = frozenset([None])


def _emit(terms: tuple, program: list) -> tuple:
    """Append the code of a sequence of parts to ``program`` and return its
    keys, folded left over the parts: those every match consumes, those of
    which its last group holds one (None: there may be no such group) and,
    when its last part is one group, those of the group before that part
    (else None)."""
    need, tail, before = frozenset(), _NONE, None
    for term in terms:
        before = None
        if type(term) is Bracket:  # may match nothing
            # [body]: SPLIT body, after (present before absent)
            # {body}: L: SPLIT body, after; body; JUMP L (one more iteration
            # before exit)
            split = len(program)
            program.append(None)
            _, last, _ = _emit(term.body, program)
            if term.opener == "{":
                program.append((JUMP, split - len(program)))
            program[split] = (SPLIT, len(program) - split)
            consumed, last = frozenset(), last | _NONE
        elif type(term) is str and term in TEMPLATES:
            program.append((ATOM, term))
            _, consumed, last = _template(term)
        else:  # one group: a literal or a slot, of one category by now
            key = term.surface if type(term) is Lit else term[0] if type(term) is tuple else term
            program.append((LIT if type(term) is Lit else TOK, key))
            consumed = last = frozenset([key])
            before = tail
        need |= consumed
        tail = last - _NONE | tail if None in last else last
    return need, tail, before


@functools.cache
def _template(category: str) -> tuple[tuple, frozenset, frozenset]:
    """A template's ordered alternatives, compiled once, each a straight line
    of steps and its builder's name, and the keys (see :func:`_emit`) all of
    them consume and those any one's last group holds.  A part of several
    categories becomes one alternative per category, in order."""
    alternatives, keys = [], []
    for parts, builder in TEMPLATES[category]:
        for choice in itertools.product(*[[(c,) for c in part] if type(part) is tuple
                                          else [part] for part in parts]):
            steps: list = []
            keys.append(_emit(choice, steps)[:2])
            alternatives.append((tuple(steps), builder))
    needs, tails = zip(*keys)
    return tuple(alternatives), frozenset.intersection(*needs), frozenset().union(*tails)


def _instructions(program: tuple):
    """``program``'s instructions, each ``ATOM`` followed by its alternatives' steps."""
    for op, arg in program:
        yield op, arg
        if op == ATOM:
            for steps, _ in _template(arg)[0]:
                yield from _instructions(steps)


class SyntacticRule(NamedTuple):
    id: str
    family: str
    #: category slots (``str``), :class:`~viquery.lexicon.Lit` and
    #: :class:`Bracket` parts
    terms: tuple
    #: the compiled body, ending in ``MATCH`` (see :func:`_emit`)
    program: tuple[tuple, ...]
    #: literals and categories the body consumes wherever it matches (see
    #: :func:`_emit`): a stream lacking any of them cannot match
    required: frozenset
    #: for a body ending in a literal or a one-token slot (else None), keys
    #: of which the group before the last of every match holds one; None in
    #: it: there may be no such group
    last: frozenset | None


_FAMILY_RE = re.compile(r"^(.+\d)([a-z])$")
_LHS_RE = re.compile(r"^<([^<>\s]+)>\s*=\s*(.*)$")
_BODY_TOKEN_RE = re.compile(r'<([^<>\s]+)>|"([^"]*)"|([\[{])|([\]}])|(\S+)')
#: deepest ``[...]``/``{...}`` nesting a rule body may use
_MAX_NESTING = 32


def _family_of(rule_id: str) -> str:
    """Family = rule id with a trailing variant letter removed."""
    m = _FAMILY_RE.match(rule_id)
    return m.group(1) if m else rule_id


def _rule(rule_id: str, terms: tuple) -> SyntacticRule:
    program: list = []
    need, _, before = _emit(terms, program)
    program.append((MATCH, None))
    return SyntacticRule(rule_id, _family_of(rule_id), terms, tuple(program), need, before)


def _parse_body(text: str, lineno: int) -> tuple:
    terms: list = []
    stack: list[tuple[str, list]] = []
    for m in _BODY_TOKEN_RE.finditer(text):
        name, literal, opener, closer, other = m.groups()
        if name is not None:
            if name not in GRAMMAR_CATEGORIES:
                raise GrammarError(f"line {lineno}: unknown category <{name}>")
            terms.append(sys.intern(name))
        elif literal is not None:
            if not literal or normalize(literal) != literal:  # LIT reads normalized groups
                raise GrammarError(
                    f'line {lineno}: literal "{literal}" is not a normalized surface')
            terms.append(Lit(literal))
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
    if type(term) is str:
        return f"<{term}>"
    if type(term) is Lit:
        return f'"{term.surface}"'
    inner = " ".join(_render_term(t) for t in term.body)
    return f"[{inner}]" if term.opener == "[" else f"{{{inner}}}"


def render_dsl(grammar: tuple[SyntacticRule, ...]) -> str:
    """Render a grammar back to DSL text (reload gives an identical grammar)."""
    lines = [
        f"<{rule.id}> = " + " ".join(_render_term(t) for t in rule.terms)
        for rule in grammar
    ]
    return "\n".join(lines) + "\n"


def validate(grammar: tuple[SyntacticRule, ...], lexicon: Lexicon) -> list[str]:
    """Diagnostics: unrealizable categories (a year and a name need no
    entry: tokenize gives them to unknown runs), literals that tokenize does
    not make one group (``LIT`` reads one), rules not ending in '?', then
    each problem :func:`viquery.semantics.check_families` reports."""
    diagnostics: list[str] = []
    for rule in grammar:
        for category in dict.fromkeys(arg for op, arg in _instructions(rule.program) if op == TOK):
            if category not in ("year", *NAME_KINDS) and not lexicon.surfaces(category):
                diagnostics.append(f"{rule.id}: category <{category}> has no lexicon entries")
        for surface in dict.fromkeys(arg for op, arg in _instructions(rule.program) if op == LIT):
            if [g.surface for g in tokenize(surface, lexicon)] != [surface]:
                diagnostics.append(f'{rule.id}: literal "{surface}" is not one token group')
        if rule.terms[-1] != Lit("?"):
            diagnostics.append(f'{rule.id}: rule does not end with "?"')
    diagnostics.extend(_family_problems(grammar))
    return diagnostics


# --- sentence sampling -------------------------------------------------------

def _holds_time(term) -> bool:
    """Whether ``term`` is the ``<time_phrase>`` slot or a bracket holding it at any depth."""
    return term == "time_phrase" or type(term) is Bracket and any(map(_holds_time, term.body))


def _realize(parts: tuple, out: list[str], rng, lexicon: Lexicon) -> None:
    """Append the words of a sampled ``parts`` to ``out``, drawing from ``rng``
    in order (see :func:`sample`)."""
    for part in parts:
        if type(part) is Lit:
            out.append(part.surface)
        elif type(part) is Bracket and part.opener == "{":
            for _ in range(rng.randint(0, 2)):
                _realize(part.body, out, rng, lexicon)
        elif type(part) is Bracket:
            include = rng.random() < 0.5  # drawn even if excluded, so later draws keep their order
            if include and not out and all(type(t) is Lit for t in part.body):
                include = False  # no separator before any content
            if include:
                _realize(part.body, out, rng, lexicon)
        elif part in TEMPLATES:  # the parts of its first alternative
            _realize(TEMPLATES[part][0][0], out, rng, lexicon)
        else:  # a token slot: one category (a str) or several (a tuple)
            categories = part if type(part) is tuple else (part,)
            if categories == ("year",):
                out.append(str(rng.randint(1900, 2025)))
                continue
            surfaces = sum(map(lexicon.surfaces, categories), ())
            if not surfaces:
                names = "|".join(f"<{category}>" for category in categories)
                raise GrammarError(f"category {names} has no realizable surface")
            out.append(rng.choice(surfaces))


def sample(rule: SyntacticRule, seed: int, lexicon: Lexicon) -> str:
    """Generate one sentence from a rule; deterministic for a fixed seed.

    Optionals are included with probability 1/2 and groups repeated 0-2
    times, except that at most one of a rule's top-level optional time slots
    is enabled per sentence (rules offering both a fronted and a trailing slot
    would otherwise produce doubly-constrained questions).  A template realizes
    its first alternative.  A token slot picks one of its categories' sorted
    surfaces, one list after another, except that a year is drawn from
    1900-2025.
    """
    import random  # only ``generate`` samples, so ``import viquery.cli`` skips it
    rng = random.Random(seed)

    time_slots = []
    for term in rule.terms:
        if type(term) is Bracket and term.opener == "[" and _holds_time(term):
            time_slots.append(term)
    allowed_time = rng.choice(time_slots) if len(time_slots) > 1 else None
    words: list[str] = []
    for term in rule.terms:
        if allowed_time is not None and term is not allowed_time and term in time_slots:
            rng.random()  # the left-out slot's draw, so later draws keep their order
        else:
            _realize((term,), words, rng, lexicon)
    return " ".join(words)
