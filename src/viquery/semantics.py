"""Verb-centered semantic representations of parsed questions.

Each rule family maps to one predicate with typed (argument, relation)
pairs; interrogative particles, aspect markers and similar function words
are dropped.  Exactly one element of the output tree is focus-marked: a
focused predicate is a yes/no question, a focused argument is the asked-for
element of a wh-question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .lexicon import BookValue, Category, TimeValue
from .parser import ConstituentBinding, ParseResult


class TransformError(ValueError):
    """Raised for unregistered families or grammar/semantics mismatches."""


REL_SUB = "rel_sub"
REL_OBJ = "rel_obj"
REL_TIME1 = "rel_time1"
REL_TIME2 = "rel_time2"
REL_TIME3 = "rel_time3"
REL_TIME = "rel_time"      # generic; appears only in the stored skeletons
REL_LOC = "rel_loc"
REL_AMOUNT = "rel_amount"

_PREP_RELATIONS = {"trước": "before", "vào": "in", "trong": "in", "sau": "after"}
_TIME_RELATION_NAMES = {"before": REL_TIME1, "in": REL_TIME2, "after": REL_TIME3}


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


def classify(sem: SemanticNode) -> QuestionType:
    """Yes/no when the predicate is focused, otherwise wh with the path to
    the focused argument."""
    if sem.focused:
        return QuestionType("yesno", ())

    def find(node: SemanticNode, prefix: tuple[int, ...]):
        for i, (arg, _) in enumerate(node.args):
            if arg.focus:
                return prefix + (i,)
            if arg.nested is not None:
                hit = find(arg.nested, prefix + (i,))
                if hit is not None:
                    return hit
        return None

    path = find(sem, ())
    if path is None:
        raise TransformError("no focused element in semantic tree")
    return QuestionType("wh", path)


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


#: Per-family skeletons with every optional argument present, marked [...].
#: The generic rel_time stands for whichever of rel_time1/2/3 the query's
#: preposition resolves to.
FAMILY_SKELETONS = {
    "Q1.1": '(verb_write ((author?, rel_sub), (book, rel_obj), [(APT, rel_time)]))',
    "Q1.2": '(verb_be? ((author, rel_sub), ((verb_possessive ((author, rel_sub), (book, rel_obj))), rel_obj)))',
    "Q1.3": '(verb_write? ((author, rel_sub), (book, rel_obj), [(APT, rel_time)]))',
    "Q1.4": '(verb_write ((author, rel_sub), (book, rel_obj), (year?, rel_time)))',
    "Q2.1": '(verb_publish ((publisher?, rel_sub), (book, rel_obj), [(APT, rel_time)]))',
    "Q2.2": '(verb_publish? ((publisher, rel_sub), (book, rel_obj), [(APT, rel_time)]))',
    "Q2.3": '(verb_publish ((publisher, rel_sub), (book, rel_obj), (year?, rel_time)))',
    "Q3.1": '(is_of (((is_of ((book, rel_sub), [(author, rel_obj)], [(publisher, rel_obj)], [(APT, rel_time)])), rel_sub), (subject?, rel_obj)))',
    "Q3.2": '(is_of? (((is_of ((book, rel_sub), [(author, rel_obj)], [(publisher, rel_obj)], [(APT, rel_time)])), rel_sub), (subject, rel_obj)))',
    "Q3.3": '(is_of (((is_of ((book, rel_sub), (author, rel_obj), [(APT, rel_time)])), rel_sub), (subject?, rel_obj)))',
    "Q3.4": '(is_of (((is_of ((book, rel_sub), (publisher, rel_obj), [(APT, rel_time)])), rel_sub), (subject?, rel_obj)))',
    "Q4.1": '(verb_write ((author, rel_sub), ((is_of ((book?, rel_sub), (subject, rel_obj))), rel_obj), [(APT, rel_time)]))',
    "Q4.2": '(verb_publish ((publisher, rel_sub), ((is_of ((book?, rel_sub), (subject, rel_obj))), rel_obj), [(APT, rel_time)]))',
    "Q5.1": '(verb_publish ((publisher, rel_sub), (book, rel_obj), [(APT, rel_time)], (location?, rel_loc)))',
    "Q5.2": '(verb_locate ((publisher, rel_sub), (location?, rel_obj)))',
    "Q6.1": '(verb_cost ((book, rel_sub), (price?, rel_obj)))',
    "Q7.1": '(verb_have ((source, rel_sub), (book, rel_obj), (book_amount?, rel_amount)))',
    "Q7.2": '(verb_write ((author, rel_sub), (book, rel_obj), [(APT, rel_time)], (book_amount?, rel_amount)))',
    "Q7.3": '(verb_publish ((publisher, rel_sub), (book, rel_obj), [(APT, rel_time)], (book_amount?, rel_amount)))',
}


# --- transformation ----------------------------------------------------------

def _bindings(parse: ParseResult, category: Category) -> list[ConstituentBinding]:
    return [b for b in parse.bindings if b.category is category]


def _first_value(parse: ParseResult, category: Category):
    found = _bindings(parse, category)
    return found[0].value if found else None


def _entity(role: str, value: str | None = None, focus: bool = False) -> Argument:
    return Argument("entity", role=role, value=value, focus=focus)


def _book_args(parse: ParseResult, required: bool = True):
    """(argument, relation) pairs for every bound book constituent.

    A subject-qualified book ("sách nào thuộc chủ đề T") becomes a nested
    is_of node; plain books are entity arguments, unbound when headless.
    """
    books = _bindings(parse, Category.BOOK)
    if not books and required:
        raise TransformError(f"{parse.rule_id}: no book constituent bound")
    pairs = []
    for binding in books:
        value: BookValue = binding.value
        if value.subject is not None:
            nested = SemanticNode("is_of", False, (
                (_entity("book", value.title), REL_SUB),
                (_entity("subject", value.subject), REL_OBJ),
            ))
            pairs.append((Argument("nested", nested=nested), REL_OBJ))
        else:
            pairs.append((_entity("book", value.title), REL_OBJ))
    return pairs


def _bound_time_args(parse: ParseResult):
    pairs = []
    for binding in _bindings(parse, Category.TIME_PHRASE):
        value: TimeValue = binding.value
        constraint = resolve_time(value.prep, value.year)
        pairs.append((
            Argument("time", time=constraint),
            _TIME_RELATION_NAMES[constraint.relation],
        ))
    return pairs


def _asked_time_arg(parse: ParseResult):
    prep = _first_value(parse, Category.PREP_TIME) or "vào"
    constraint = resolve_time(prep, None)
    return (
        Argument("time", time=constraint, focus=True),
        _TIME_RELATION_NAMES[constraint.relation],
    )


def _require(parse: ParseResult, category: Category):
    value = _first_value(parse, category)
    if value is None:
        raise TransformError(
            f"{parse.rule_id}: missing mandatory constituent <{category.value}>"
        )
    return value


_ACTOR_CATEGORY = {"author": Category.AUTHOR, "publisher": Category.PUBLISHER}


def _build_action(parse: ParseResult, predicate: str, actor: str, focus: str):
    if focus == "actor":
        subject = _entity(actor, focus=True)
    else:
        subject = _entity(actor, _require(parse, _ACTOR_CATEGORY[actor]))
    args = [(subject, REL_SUB)]
    args.extend(_book_args(parse))
    if focus == "year":
        args.append(_asked_time_arg(parse))
    else:
        args.extend(_bound_time_args(parse))
    if focus == "amount":
        args.append((Argument("amount", focus=True), REL_AMOUNT))
    return SemanticNode(predicate, focus == "predicate", tuple(args))


def _build_possessive_eq(parse: ParseResult):
    author = _require(parse, Category.AUTHOR)
    inner = SemanticNode("verb_possessive", False, tuple(
        [(_entity("author"), REL_SUB)] + _book_args(parse)
    ))
    return SemanticNode("verb_be", True, (
        (_entity("author", author), REL_SUB),
        (Argument("nested", nested=inner), REL_OBJ),
    ))


def _build_subject_of(parse: ParseResult, described: bool, actor: str | None = None,
                      subject_focus: bool = True):
    inner_args = []
    if described:
        # Q3.1 / Q3.2: an explicit book possibly restricted by author,
        # publisher and time
        inner_args.extend(_book_args(parse))
        inner_args[0] = (inner_args[0][0], REL_SUB)
        of_author = _first_value(parse, Category.OF_AUTHOR)
        if of_author is not None:
            inner_args.append((_entity("author", of_author), REL_OBJ))
        by_publisher = _first_value(parse, Category.BY_PUBLISHER)
        if by_publisher is not None:
            inner_args.append((_entity("publisher", by_publisher), REL_OBJ))
    else:
        # Q3.3 / Q3.4: the (unbound) books some actor wrote or published;
        # the book_type slot is optional in the Q3.4 rules
        inner_args.append((_entity("book"), REL_SUB))
        inner_args.append((_entity(actor, _require(parse, _ACTOR_CATEGORY[actor])), REL_OBJ))
    inner_args.extend(_bound_time_args(parse))
    inner = SemanticNode("is_of", False, tuple(inner_args))
    if subject_focus:
        subject = _entity("subject", focus=True)
    else:
        subject = _entity("subject", _require(parse, Category.SUBJECT))
    return SemanticNode("is_of", not subject_focus, (
        (Argument("nested", nested=inner), REL_SUB),
        (subject, REL_OBJ),
    ))


def _build_qualified_list(parse: ParseResult, predicate: str, actor: str,
                          source: Category):
    actor_value = _first_value(parse, source)
    nested = SemanticNode("is_of", False, (
        (_entity("book", focus=True), REL_SUB),
        (_entity("subject", _require(parse, Category.SUBJECT)), REL_OBJ),
    ))
    args = [
        (_entity(actor, actor_value), REL_SUB),
        (Argument("nested", nested=nested), REL_OBJ),
    ]
    args.extend(_bound_time_args(parse))
    return SemanticNode(predicate, False, tuple(args))


def _build_published_where(parse: ParseResult):
    publisher = _first_value(parse, Category.PUBLISHER)
    args = [(_entity("publisher", publisher), REL_SUB)]
    args.extend(_book_args(parse))
    args.extend(_bound_time_args(parse))
    args.append((_entity("location", focus=True), REL_LOC))
    return SemanticNode("verb_publish", False, tuple(args))


def _build_locate(parse: ParseResult):
    return SemanticNode("verb_locate", False, (
        (_entity("publisher", _require(parse, Category.PUBLISHER)), REL_SUB),
        (_entity("location", focus=True), REL_OBJ),
    ))


def _build_cost(parse: ParseResult):
    args = _book_args(parse)
    return SemanticNode("verb_cost", False, (
        (args[0][0], REL_SUB),
        (_entity("price", focus=True), REL_OBJ),
    ))


def _build_library_count(parse: ParseResult):
    source = _first_value(parse, Category.IN_ELIB) or "elib"
    args = [(_entity("source", source), REL_SUB)]
    args.extend(_book_args(parse))
    args.append((Argument("amount", focus=True), REL_AMOUNT))
    return SemanticNode("verb_have", False, tuple(args))


#: The transformation table: family -> (builder, parameters).
FAMILY_TABLE = {
    "Q1.1": (_build_action, dict(predicate="verb_write", actor="author", focus="actor")),
    "Q1.2": (_build_possessive_eq, {}),
    "Q1.3": (_build_action, dict(predicate="verb_write", actor="author", focus="predicate")),
    "Q1.4": (_build_action, dict(predicate="verb_write", actor="author", focus="year")),
    "Q2.1": (_build_action, dict(predicate="verb_publish", actor="publisher", focus="actor")),
    "Q2.2": (_build_action, dict(predicate="verb_publish", actor="publisher", focus="predicate")),
    "Q2.3": (_build_action, dict(predicate="verb_publish", actor="publisher", focus="year")),
    "Q3.1": (_build_subject_of, dict(described=True, subject_focus=True)),
    "Q3.2": (_build_subject_of, dict(described=True, subject_focus=False)),
    "Q3.3": (_build_subject_of, dict(described=False, actor="author")),
    "Q3.4": (_build_subject_of, dict(described=False, actor="publisher")),
    "Q4.1": (_build_qualified_list, dict(predicate="verb_write", actor="author",
                                           source=Category.BY_AUTHOR)),
    "Q4.2": (_build_qualified_list, dict(predicate="verb_publish", actor="publisher",
                                           source=Category.BY_PUBLISHER)),
    "Q5.1": (_build_published_where, {}),
    "Q5.2": (_build_locate, {}),
    "Q6.1": (_build_cost, {}),
    "Q7.1": (_build_library_count, {}),
    "Q7.2": (_build_action, dict(predicate="verb_write", actor="author", focus="amount")),
    "Q7.3": (_build_action, dict(predicate="verb_publish", actor="publisher", focus="amount")),
}


def transform(parse: ParseResult) -> SemanticNode:
    """Instantiate the family's semantic structure with the parse bindings."""
    entry = FAMILY_TABLE.get(parse.family)
    if entry is None:
        raise TransformError(f"unregistered family {parse.family!r}")
    build, params = entry
    return build(parse, **params)
