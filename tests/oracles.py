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
that the syllable trie replaced.  The legacy transformer is the set of
per-family builder functions that the family data table replaced, and
``FAMILY_SKELETONS`` is the hand-written skeleton of every family, kept as an
independent conformance reference for the table.
"""

from __future__ import annotations

import functools
import itertools
import re
import unicodedata
from dataclasses import dataclass, replace

from viquery.catalog import Answer, BookRecord, format_price
from viquery.grammar import Bracket, SyntacticRule
from viquery.lexicon import (
    NAME_KINDS,
    BookValue,
    Category,
    Lexicon,
    TokenGroup,
    TimeValue,
    normalize,
    scan_constituent,
    tokenize,
)
from viquery.parser import ConstituentBinding, ParseResult
from viquery.semantics import (
    _TIME_RELATION_NAMES,
    REL_AMOUNT,
    REL_LOC,
    REL_OBJ,
    REL_SUB,
    Argument,
    SemanticNode,
    TransformError,
    resolve_time,
)


def _min_flat_len(terms: tuple) -> int:
    return sum(1 for t in terms if not isinstance(t, Bracket))


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
    if not isinstance(head, Bracket):  # a literal or a category
        for tail in _expansions(rest, budget, capacity - 1):
            yield (head,) + tail
    elif head.opener == "[":
        yield from _expansions(head.body + rest, budget, capacity)
        yield from _expansions(rest, budget, capacity)
    else:  # {...}
        if budget > 0:
            yield from _expansions(head.body + (head,) + rest, budget - 1, capacity)
        yield from _expansions(rest, budget, capacity)


def _bind(rule: SyntacticRule, stream: tuple[TokenGroup, ...], matched) -> ParseResult:
    counters: dict = {}
    bindings = []
    for category, value, start, end in matched:
        ordinal = counters.get(category, 0)
        counters[category] = ordinal + 1
        bindings.append(ConstituentBinding(
            category, value, " ".join(g.surface for g in stream[start:end]), ordinal))
    return ParseResult(rule.id, rule.family, tuple(bindings))


def _match_flat(flat: tuple, stream: tuple[TokenGroup, ...], lexicon: Lexicon):
    pos = 0
    matched = []
    for term in flat:
        if not isinstance(term, Category):  # a literal str
            if pos >= len(stream) or stream[pos].surface != term:
                return None
            pos += 1
        else:
            found = scan_constituent(stream, pos, term)
            if found is None:
                return None
            value, after = found
            matched.append((term, value, pos, after))
            pos = after
    if pos != len(stream):
        return None
    return matched


def oracle_match_rule(stream: tuple[TokenGroup, ...], rule: SyntacticRule,
                      lexicon: Lexicon) -> ParseResult | None:
    n = len(stream)
    for flat in _expansions(rule.terms, n + 1, n):
        matched = _match_flat(flat, stream, lexicon)
        if matched is not None:
            return _bind(rule, stream, matched)
    return None


def oracle_parse(query: str, grammar: tuple[SyntacticRule, ...],
                 lexicon: Lexicon) -> list[ParseResult]:
    stream = tokenize(normalize(query), lexicon)
    results = []
    for rule in grammar:
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
    for entry in lexicon.entries:
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


def legacy_tokenize(query: str, lexicon: Lexicon) -> tuple[TokenGroup, ...]:
    syllables = query.split(" ") if query else []
    groups: list[TokenGroup] = []
    i = 0
    n = len(syllables)
    while i < n:
        syl = syllables[i]
        if syl in ("?", ","):
            groups.append(TokenGroup(syl, {Category.PUNCT: syl}))
            i += 1
            continue
        length, matches = _match_at(lexicon, syllables, i)
        if matches:
            span = " ".join(syllables[i:i + length])
            categories = {e.category: e.canonical for e in matches}
            groups.append(TokenGroup(span, categories))
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
        groups.append(TokenGroup(run, categories))
        i = j
    return tuple(groups)


# --- legacy parser ------------------------------------------------------------
#
# The recursive backtracker the parser used before rules were compiled.  It
# recurses a few frames per token group, so it raises RecursionError on
# questions with about 200 coordinated books; tests keep below that.

@dataclass(frozen=True)
class _Progress:
    """Guard pseudo-term: group iterations must consume at least one group."""

    at: int


def legacy_match_rule(stream: tuple[TokenGroup, ...], rule: SyntacticRule,
                      lexicon: Lexicon) -> ParseResult | None:
    n = len(stream)

    def match_seq(terms: tuple, pos: int):
        if not terms:
            return [] if pos == n else None
        head, rest = terms[0], terms[1:]
        if isinstance(head, _Progress):
            return match_seq(rest, pos) if pos > head.at else None
        if isinstance(head, Category):  # before str: a Category is a str
            found = scan_constituent(stream, pos, head)
            if found is None:
                return None
            value, after = found
            tail = match_seq(rest, after)
            if tail is None:
                return None
            return [(head, value, pos, after)] + tail
        if isinstance(head, str):
            if pos < n and stream[pos].surface == head:
                return match_seq(rest, pos + 1)
            return None
        if head.opener == "[":
            present = match_seq(head.body + rest, pos)
            if present is not None:
                return present
            return match_seq(rest, pos)
        # {...}: one more iteration first, then exit
        again = match_seq(head.body + (_Progress(pos), head) + rest, pos)
        if again is not None:
            return again
        return match_seq(rest, pos)

    matched = match_seq(rule.terms, 0)
    return None if matched is None else _bind(rule, stream, matched)


def legacy_parse(query: str, grammar: tuple[SyntacticRule, ...],
                 lexicon: Lexicon) -> list[ParseResult]:
    stream = tokenize(normalize(query), lexicon)
    results = []
    for rule in grammar:
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


def oracle_evaluate(sem: SemanticNode, catalog: tuple[BookRecord, ...]) -> Answer:
    if sem.focused:
        return Answer("boolean", all(
            any(_record_satisfies(r, reading) for r in catalog)
            for reading in _one_book_readings(sem)))
    hits = [r for r in catalog if _record_satisfies(r, sem)]
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


# --- legacy transformer -------------------------------------------------------
#
# The eight family builders and their table, which the data table
# ``viquery.semantics.FAMILIES`` and its walker replaced.

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


def legacy_transform(parse: ParseResult) -> SemanticNode:
    """Instantiate the family's semantic structure with the parse bindings."""
    entry = FAMILY_TABLE.get(parse.family)
    if entry is None:
        raise TransformError(f"unregistered family {parse.family!r}")
    build, params = entry
    return build(parse, **params)
