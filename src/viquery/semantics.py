"""Verb-centered semantic representations of parsed questions.

Each rule family maps to one predicate with typed (argument, relation)
pairs; interrogative particles, aspect markers and similar function words
are dropped.  Exactly one element of the output tree is focus-marked: a
focused predicate is a yes/no question, a focused argument is the asked-for
element of a wh-question.

:data:`FAMILIES` maps each family to a node ``(predicate, focused, slots)``.
A slot is ``(kind, role, relation, source)``, and its kind is one of:

``ask``     a focused entity of ``role``;
``need``    an entity bound from the ``source`` category, which the parse
            must bind;
``bind``    like ``need``, but unbound when the category is absent (as
            it always is for the ``source`` None);
``opt``     like ``need``, but left out when the category is absent;
``books``   one argument per bound book; a subject-qualified book ("sách
            nào thuộc chủ đề T") becomes a nested ``is_of`` node;
``times``   one argument per bound time phrase;
``year``    the asked year, its preposition from ``source``, else "vào";
``amount``  the asked count;
``node``    the nested node ``source``.

A time argument's relation comes from its preposition, not from the slot.
Adding a family is one :data:`FAMILIES` entry; :func:`check_families` checks
a grammar against the table when it loads, and ``viquery.grammar.validate``
lists the same problems.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # ``grammar`` imports this module for its family check
    from .grammar import SyntacticRule
    from .parser import ParseResult


class TransformError(ValueError):
    """Raised for unregistered families or grammar/semantics mismatches."""


REL_SUB = "rel_sub"
REL_OBJ = "rel_obj"
REL_LOC = "rel_loc"
REL_AMOUNT = "rel_amount"

_PREP_RELATIONS = {"trước": "before", "vào": "in", "trong": "in", "sau": "after"}
#: A time relation's relation name, and the test of a record's year against
#: the constraint's that ``viquery.catalog.evaluate`` applies
_TIME_RELATIONS = {"before": ("rel_time1", operator.lt), "in": ("rel_time2", operator.eq),
                   "after": ("rel_time3", operator.gt)}


class TimeConstraint(NamedTuple):
    year: int | None           # None when the year is what is asked
    relation: str               # before | in | after


@dataclass(frozen=True)
class Argument:
    kind: str                   # entity | time | amount | nested
    role: str | None = None
    value: str | None = None    # None = unbound (asked, or existential)
    time: TimeConstraint | None = None
    nested: "SemanticNode | None" = None
    focus: bool = False


@dataclass(frozen=True)
class SemanticNode:
    predicate: str
    focused: bool
    args: tuple[tuple[Argument, str], ...] = field(default=())


class QuestionType(NamedTuple):
    kind: str                       # wh | yesno
    focus_path: tuple[int, ...]     # arg indices to the focus; () = predicate


def resolve_time(prep: str, year: int | None) -> TimeConstraint:
    """Map a time preposition lemma plus year to a typed constraint."""
    relation = _PREP_RELATIONS.get(prep)
    if relation is None:
        raise TransformError(f"unknown time preposition {prep!r}")
    return TimeConstraint(year, relation)


def find_focus(node: SemanticNode, prefix: tuple[int, ...] = ()):
    """``(path, argument)`` of the first argument whose own ``focus`` is set,
    a nested node searched in place after its argument's flag; else None."""
    for i, (arg, _) in enumerate(node.args):
        if arg.focus:
            return prefix + (i,), arg
        if arg.nested is not None and (hit := find_focus(arg.nested, prefix + (i,))):
            return hit
    return None


def classify(sem: SemanticNode) -> QuestionType:
    """Yes/no when the predicate is focused, otherwise wh with the path that
    :func:`find_focus` gives."""
    if sem.focused:
        return QuestionType("yesno", ())
    hit = find_focus(sem)
    if hit is None:
        raise TransformError("no focused element in semantic tree")
    return QuestionType("wh", hit[0])


# --- rendering ---------------------------------------------------------------

def _render_arg(arg: Argument, full: bool) -> str:
    if arg.kind == "nested":
        return _render_node(arg.nested, full)
    if arg.kind == "time":
        if arg.focus or arg.time.year is None:
            return "year?"
        return f"year={arg.time.year}" if full else "APT"
    if arg.kind == "amount":
        return "book_amount?" if arg.focus else "book_amount"
    # entity
    if full and arg.value is not None:
        return f'{arg.role}="{arg.value}"'
    return arg.role + ("?" if arg.focus else "")


def _render_node(node: SemanticNode, full: bool) -> str:
    parts = [
        f"({_render_arg(arg, full)}, {relation})" for arg, relation in node.args
    ]
    focus = "?" if node.focused else ""
    return f"({node.predicate}{focus} ({', '.join(parts)}))"


def render_skeleton(sem: SemanticNode) -> str:
    """Parenthesized form with role names only; '?' marks the focus."""
    return _render_node(sem, full=False)


def render_full(sem: SemanticNode) -> str:
    """Like the skeleton but with entity values and years instantiated."""
    return _render_node(sem, full=True)


# --- transformation ----------------------------------------------------------

_AUTHOR = ("need", "author", REL_SUB, "author")
_PUBLISHER = ("need", "publisher", REL_SUB, "publisher")
_BOOKS = ("books", "book", REL_OBJ, "book")
_TIMES = ("times", None, None, "time_phrase")
_YEAR = ("year", None, None, "prep_time")
_AMOUNT = ("amount", None, REL_AMOUNT, None)
_ASK_SUBJECT = ("ask", "subject", REL_OBJ, None)
#: Q3.1 / Q3.2: an explicit book, possibly restricted by author, publisher
#: and time
_DESCRIBED_BOOK = ("node", None, REL_SUB, ("is_of", False, (
    ("books", "book", REL_SUB, "book"),
    ("opt", "author", REL_OBJ, "of_author"),
    ("opt", "publisher", REL_OBJ, "by_publisher"),
    _TIMES,
)))
#: Q4.1 / Q4.2: the books of a subject
_BOOKS_OF_SUBJECT = ("node", None, REL_OBJ, ("is_of", False, (
    ("ask", "book", REL_SUB, None),
    ("need", "subject", REL_OBJ, "subject"),
)))

#: The transformation table: family -> node, see the module docstring.
FAMILIES = {
    "Q1.1": ("verb_write", False, (("ask", "author", REL_SUB, None), _BOOKS, _TIMES)),
    "Q1.2": ("verb_be", True, (_AUTHOR, ("node", None, REL_OBJ, (
        "verb_possessive", False, (("bind", "author", REL_SUB, None), _BOOKS))))),
    "Q1.3": ("verb_write", True, (_AUTHOR, _BOOKS, _TIMES)),
    "Q1.4": ("verb_write", False, (_AUTHOR, _BOOKS, _YEAR)),
    "Q2.1": ("verb_publish", False, (("ask", "publisher", REL_SUB, None), _BOOKS, _TIMES)),
    "Q2.2": ("verb_publish", True, (_PUBLISHER, _BOOKS, _TIMES)),
    "Q2.3": ("verb_publish", False, (_PUBLISHER, _BOOKS, _YEAR)),
    "Q3.1": ("is_of", False, (_DESCRIBED_BOOK, _ASK_SUBJECT)),
    "Q3.2": ("is_of", True, (_DESCRIBED_BOOK, ("need", "subject", REL_OBJ, "subject"))),
    # Q3.3 / Q3.4: the (unbound) books some actor wrote or published
    "Q3.3": ("is_of", False, (("node", None, REL_SUB, ("is_of", False, (
        ("bind", "book", REL_SUB, None),
        ("need", "author", REL_OBJ, "author"),
        _TIMES,
    ))), _ASK_SUBJECT)),
    "Q3.4": ("is_of", False, (("node", None, REL_SUB, ("is_of", False, (
        ("bind", "book", REL_SUB, None),
        ("need", "publisher", REL_OBJ, "publisher"),
        _TIMES,
    ))), _ASK_SUBJECT)),
    "Q4.1": ("verb_write", False, (
        ("bind", "author", REL_SUB, "by_author"), _BOOKS_OF_SUBJECT, _TIMES)),
    "Q4.2": ("verb_publish", False, (
        ("bind", "publisher", REL_SUB, "by_publisher"), _BOOKS_OF_SUBJECT, _TIMES)),
    "Q5.1": ("verb_publish", False, (("bind", "publisher", REL_SUB, "publisher"),
                                     _BOOKS, _TIMES, ("ask", "location", REL_LOC, None))),
    "Q5.2": ("verb_locate", False, (_PUBLISHER, ("ask", "location", REL_OBJ, None))),
    "Q6.1": ("verb_cost", False, (("books", "book", REL_SUB, "book"),
                                  ("ask", "price", REL_OBJ, None))),
    "Q7.1": ("verb_have", False, (("need", "source", REL_SUB, "in_elib"),
                                  _BOOKS, _AMOUNT)),
    "Q7.2": ("verb_write", False, (_AUTHOR, _BOOKS, _TIMES, _AMOUNT)),
    "Q7.3": ("verb_publish", False, (_PUBLISHER, _BOOKS, _TIMES, _AMOUNT)),
}


def _needs(node):
    """The categories that a node's ``need`` and ``books`` slots read."""
    for kind, _role, _relation, source in node[2]:
        if kind == "node":
            yield from _needs(source)
        elif kind in ("need", "books"):
            yield source


def _family_problems(grammar: tuple[SyntacticRule, ...]):
    """One message per problem that :func:`check_families` reports; the
    grammar's ``validate`` returns them too."""
    for rule in grammar:
        node = FAMILIES.get(rule.family)
        if node is None:
            yield f"{rule.id}: unregistered family {rule.family!r}"
            continue
        # a top-level slot is its category's name; a literal is a Lit
        yield from (
            f"{rule.id}: family {rule.family} needs <{category}> outside [...] and {{...}}"
            for category in _needs(node) if category not in rule.terms
        )


def check_families(grammar: tuple[SyntacticRule, ...]) -> None:
    """Raise :class:`TransformError` listing every rule whose family is not
    in :data:`FAMILIES`, and every rule that can match without binding a
    category its family needs: such a category must be a top-level term,
    outside any ``[...]`` or ``{...}``."""
    problems = list(_family_problems(grammar))
    if problems:
        raise TransformError("; ".join(problems))


def _build(parse: ParseResult, node) -> SemanticNode:
    predicate, focused, slots = node
    args = []
    for kind, role, relation, source in slots:
        values = [b.value for b in parse.bindings if b.category == source]
        value = values[0] if values else None
        if value is None and kind in ("need", "books"):
            raise TransformError(
                f"{parse.rule_id}: missing mandatory constituent <{source}>"
            )
        if kind == "node":
            args.append((Argument("nested", nested=_build(parse, source)), relation))
        elif kind == "books":
            for book in values:
                if book.subject is None:
                    args.append((Argument("entity", role=role, value=book.title), relation))
                    continue
                nested = SemanticNode("is_of", False, (
                    (Argument("entity", role=role, value=book.title), REL_SUB),
                    (Argument("entity", role="subject", value=book.subject), REL_OBJ),
                ))
                args.append((Argument("nested", nested=nested), relation))
        elif kind in ("times", "year"):
            asked = kind == "year"
            for prep, year in [(value or "vào", None)] if asked else values:
                constraint = resolve_time(prep, year)
                args.append((Argument("time", time=constraint, focus=asked),
                             _TIME_RELATIONS[constraint.relation][0]))
        elif kind == "amount":
            args.append((Argument("amount", focus=True), relation))
        elif kind == "ask":
            args.append((Argument("entity", role=role, focus=True), relation))
        elif value is not None or kind != "opt":  # need, bind, opt
            args.append((Argument("entity", role=role, value=value), relation))
    return SemanticNode(predicate, focused, tuple(args))


def transform(parse: ParseResult) -> SemanticNode:
    """Instantiate the family's semantic structure with the parse bindings."""
    node = FAMILIES.get(parse.family)
    if node is None:
        raise TransformError(f"unregistered family {parse.family!r}")
    return _build(parse, node)
