"""Reference implementations the fast paths are checked against: one per
layer, each written over rule terms, ``TEMPLATES``, lexicon entries or
catalog records, never over a compiled program.

- Front end: ``legacy_normalize`` and ``legacy_tokenize``, the regex
  normalizer and the per-first-syllable bucket scan that the syllable trie
  replaced.
- Templates: ``legacy_scan_constituent``, the recursive part interpreter
  that the compiled template alternatives replaced.
- Parse: ``legacy_parse``, the recursive backtracker that the compiled
  matcher replaced; it scans templates with ``legacy_scan_constituent``.
- Prefilter keys: ``rule_keys``, a rule body's ``required`` and ``last``
  keys as the sets they are defined to be, read off its parts.
- Transform: ``legacy_transform``, the per-family builder functions that
  the family data table replaced, beside ``FAMILY_SKELETONS``, the
  hand-written skeleton of every family.
- Evaluate: ``oracle_evaluate``, which re-derives answers per record by
  walking the semantic tree instead of compiling a filter list; a yes/no
  question that names several books holds when each of its one-book
  readings holds.
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
    Lexicon,
    Lit,
    TokenGroup,
    TimeValue,
    TEMPLATES,
    normalize,
    tokenize,
)
from viquery.parser import ConstituentBinding, ParseResult
from viquery.semantics import (
    _TIME_RELATIONS,
    REL_AMOUNT,
    REL_LOC,
    REL_OBJ,
    REL_SUB,
    Argument,
    SemanticNode,
    TransformError,
    resolve_time,
)


# --- legacy template scanner -------------------------------------------------
#
# The recursive part interpreter the parser used before phrase templates were
# compiled, with value builders of its own: a reference for
# ``viquery.parser.scan_constituent`` that shares only ``TEMPLATES`` with it.

_LEGACY_BUILDERS = {
    "last": lambda *values: values[-1],
    "title": lambda _head, title: BookValue(title, None),
    "any_book": lambda *_values: BookValue(),
    "book_of_subject": lambda *values: BookValue(subject=values[-1]),
    "time": lambda prep, _noun, year: TimeValue(prep, int(year)),
}


def legacy_scan_constituent(groups: tuple[TokenGroup, ...], at: int, category: str):
    """One constituent of ``category`` at group index ``at``: (value, first
    unconsumed position) or None.  A template category matches its first
    matching alternative; other categories consume a single token."""
    n = len(groups)
    if at >= n:
        return None
    alternatives = TEMPLATES.get(category)
    if alternatives is None:
        canonical = groups[at].categories.get(category)
        return None if canonical is None else (canonical, at + 1)
    for parts, builder in alternatives:
        values = []
        pos = at
        for part in parts:
            if type(part) is tuple:  # one token of any of these categories
                categories = groups[pos].categories if pos < n else {}
                for kind in part:
                    value = categories.get(kind)
                    if value is not None:
                        break
                else:  # no category of the part: the alternative fails
                    break
                pos += 1
            elif type(part) is str:  # a nested constituent
                found = legacy_scan_constituent(groups, pos, part)
                if found is None:
                    break
                value, pos = found
            elif pos < n and groups[pos].surface == part.surface:  # a Lit
                value = part.surface
                pos += 1
            else:
                break
            values.append(value)
        else:
            return _LEGACY_BUILDERS[builder](*values), pos
    return None


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
        bucket.sort(key=lambda item: (-len(item[0]), item[1].category))
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
            groups.append(TokenGroup(syl, {"punct": syl}))
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
            categories["year"] = run
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


def legacy_match_rule(stream: tuple[TokenGroup, ...], rule: SyntacticRule) -> ParseResult | None:
    n = len(stream)

    def match_seq(terms: tuple, pos: int):
        if not terms:
            return [] if pos == n else None
        head, rest = terms[0], terms[1:]
        if isinstance(head, _Progress):
            return match_seq(rest, pos) if pos > head.at else None
        if type(head) is str:  # a category
            found = legacy_scan_constituent(stream, pos, head)
            if found is None:
                return None
            value, after = found
            tail = match_seq(rest, after)
            if tail is None:
                return None
            return [(head, value, pos, after)] + tail
        if type(head) is Lit:
            if pos < n and stream[pos].surface == head.surface:
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
    if matched is None:
        return None
    counters: dict = {}
    bindings = []
    for category, value, start, end in matched:
        ordinal = counters.get(category, 0)
        counters[category] = ordinal + 1
        bindings.append(ConstituentBinding(
            category, value, " ".join(g.surface for g in stream[start:end]), ordinal))
    return ParseResult(rule.id, rule.family, tuple(bindings))


def legacy_parse(query: str, grammar: tuple[SyntacticRule, ...],
                 lexicon: Lexicon) -> list[ParseResult]:
    stream = tokenize(normalize(query), lexicon)
    return [result for rule in grammar if (result := legacy_match_rule(stream, rule)) is not None]


# --- prefilter keys -----------------------------------------------------------
#
# A key is a literal's surface or a token slot's category.  A template slot
# has no key of its own: it consumes those of the alternative that matches.

def _part_avoids(part, key: str) -> bool:
    """Whether some match of ``part`` consumes no group of ``key``."""
    if type(part) is Bracket:  # may match nothing
        return True
    if type(part) is Lit:
        return part.surface != key
    if type(part) is tuple:  # one token of any of these categories
        return part != (key,)
    if part in TEMPLATES:
        return any(all(_part_avoids(p, key) for p in parts) for parts, _ in TEMPLATES[part])
    return part != key


def _keys(parts: tuple):
    """Every key that some match of ``parts`` may consume."""
    for part in parts:
        if type(part) is Bracket:
            yield from _keys(part.body)
        elif type(part) is Lit:
            yield part.surface
        elif type(part) is tuple:
            yield from part
        elif part in TEMPLATES:
            for alternative, _ in TEMPLATES[part]:
                yield from _keys(alternative)
        else:
            yield part


def _ends(parts: tuple) -> frozenset:
    """The keys of which the last group of a match of ``parts`` may hold one,
    read right to left; None in it: a match may consume no group."""
    if not parts:
        return frozenset([None])
    *rest, part = parts
    if type(part) is Bracket:  # present: where its body ends; absent: the rest
        return _ends(part.body) - {None} | _ends(tuple(rest))
    if type(part) is Lit:
        return frozenset([part.surface])
    if type(part) is tuple:
        return frozenset(part)
    if part in TEMPLATES:
        return frozenset().union(*[_ends(alternative) for alternative, _ in TEMPLATES[part]])
    return frozenset([part])


def rule_keys(terms: tuple) -> tuple[frozenset, frozenset | None]:
    """A rule body's ``(required, last)``: the keys no match can avoid and,
    for a body that ends in a literal or a one-token slot, the keys the rest
    of the body can end in (else None)."""
    required = frozenset(k for k in _keys(terms) if not all(_part_avoids(p, k) for p in terms))
    *rest, end = terms
    anchored = type(end) is Lit or type(end) is str and end not in TEMPLATES
    return required, _ends(tuple(rest)) if anchored else None


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

def _bindings(parse: ParseResult, category: str) -> list[ConstituentBinding]:
    return [b for b in parse.bindings if b.category is category]


def _first_value(parse: ParseResult, category: str):
    found = _bindings(parse, category)
    return found[0].value if found else None


def _entity(role: str, value: str | None = None, focus: bool = False) -> Argument:
    return Argument("entity", role=role, value=value, focus=focus)


def _book_args(parse: ParseResult, required: bool = True):
    """(argument, relation) pairs for every bound book constituent.

    A subject-qualified book ("sách nào thuộc chủ đề T") becomes a nested
    is_of node; plain books are entity arguments, unbound when headless.
    """
    books = _bindings(parse, "book")
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
    for binding in _bindings(parse, "time_phrase"):
        value: TimeValue = binding.value
        constraint = resolve_time(value.prep, value.year)
        pairs.append((
            Argument("time", time=constraint),
            _TIME_RELATIONS[constraint.relation][0],
        ))
    return pairs


def _asked_time_arg(parse: ParseResult):
    prep = _first_value(parse, "prep_time") or "vào"
    constraint = resolve_time(prep, None)
    return (
        Argument("time", time=constraint, focus=True),
        _TIME_RELATIONS[constraint.relation][0],
    )


def _require(parse: ParseResult, category: str):
    value = _first_value(parse, category)
    if value is None:
        raise TransformError(
            f"{parse.rule_id}: missing mandatory constituent <{category}>"
        )
    return value


def _build_action(parse: ParseResult, predicate: str, actor: str, focus: str):
    if focus == "actor":
        subject = _entity(actor, focus=True)
    else:
        subject = _entity(actor, _require(parse, actor))
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
    author = _require(parse, "author")
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
        of_author = _first_value(parse, "of_author")
        if of_author is not None:
            inner_args.append((_entity("author", of_author), REL_OBJ))
        by_publisher = _first_value(parse, "by_publisher")
        if by_publisher is not None:
            inner_args.append((_entity("publisher", by_publisher), REL_OBJ))
    else:
        # Q3.3 / Q3.4: the (unbound) books some actor wrote or published;
        # the book_type slot is optional in the Q3.4 rules
        inner_args.append((_entity("book"), REL_SUB))
        inner_args.append((_entity(actor, _require(parse, actor)), REL_OBJ))
    inner_args.extend(_bound_time_args(parse))
    inner = SemanticNode("is_of", False, tuple(inner_args))
    if subject_focus:
        subject = _entity("subject", focus=True)
    else:
        subject = _entity("subject", _require(parse, "subject"))
    return SemanticNode("is_of", not subject_focus, (
        (Argument("nested", nested=inner), REL_SUB),
        (subject, REL_OBJ),
    ))


def _build_qualified_list(parse: ParseResult, predicate: str, actor: str,
                          source: str):
    actor_value = _first_value(parse, source)
    nested = SemanticNode("is_of", False, (
        (_entity("book", focus=True), REL_SUB),
        (_entity("subject", _require(parse, "subject")), REL_OBJ),
    ))
    args = [
        (_entity(actor, actor_value), REL_SUB),
        (Argument("nested", nested=nested), REL_OBJ),
    ]
    args.extend(_bound_time_args(parse))
    return SemanticNode(predicate, False, tuple(args))


def _build_published_where(parse: ParseResult):
    publisher = _first_value(parse, "publisher")
    args = [(_entity("publisher", publisher), REL_SUB)]
    args.extend(_book_args(parse))
    args.extend(_bound_time_args(parse))
    args.append((_entity("location", focus=True), REL_LOC))
    return SemanticNode("verb_publish", False, tuple(args))


def _build_locate(parse: ParseResult):
    return SemanticNode("verb_locate", False, (
        (_entity("publisher", _require(parse, "publisher")), REL_SUB),
        (_entity("location", focus=True), REL_OBJ),
    ))


def _build_cost(parse: ParseResult):
    args = _book_args(parse)
    return SemanticNode("verb_cost", False, (
        (args[0][0], REL_SUB),
        (_entity("price", focus=True), REL_OBJ),
    ))


def _build_library_count(parse: ParseResult):
    source = _first_value(parse, "in_elib") or "elib"
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
                                           source="by_author")),
    "Q4.2": (_build_qualified_list, dict(predicate="verb_publish", actor="publisher",
                                           source="by_publisher")),
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
