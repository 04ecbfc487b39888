"""Desk-scale catalog: load book records and answer instantiated questions.

Evaluation is a linear scan: every bound argument of the semantic tree is a
conjunctive filter over record fields (nested nodes flatten onto the same
record), the focused element decides the answer shape.  A yes/no question
that names several books is read once per book.
"""

from __future__ import annotations

import itertools
import json
import operator
import sys
from typing import NamedTuple

from .semantics import QuestionType, SemanticNode, find_focus


class CatalogError(ValueError):
    """Raised when a catalog document cannot be loaded."""


class EvaluationError(ValueError):
    """Raised when a semantic tree cannot be evaluated against records."""


class BookRecord(NamedTuple):
    title: str
    authors: tuple[str, ...]
    publisher: str
    year: int
    subject: str
    place: str
    price: float
    currency: str


class Answer(NamedTuple):
    kind: str                    # boolean | entities | count
    value: object                # bool | tuple[str, ...] | int


_REQUIRED_KEYS = BookRecord._fields
_STRING_KEYS = ("publisher", "subject", "place", "currency")


def load_catalog(document: str) -> tuple[BookRecord, ...]:
    """Parse a JSON array of records; errors carry the record index."""
    try:
        data = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CatalogError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise CatalogError("top level must be an array of records")
    records = []
    for index, item in enumerate(data):
        if not isinstance(item, dict):
            raise CatalogError(f"record {index}: not an object")
        for key in _REQUIRED_KEYS:
            if key not in item:
                raise CatalogError(f"record {index}: missing field {key!r}")
        title = item["title"]
        authors = item["authors"]
        year = item["year"]
        price = item["price"]
        if not isinstance(title, str) or not title.strip():
            raise CatalogError(f"record {index}: title must be a non-empty string")
        if (not isinstance(authors, list) or not authors
                or not all(isinstance(a, str) and a.strip() for a in authors)):
            raise CatalogError(f"record {index}: authors must be a non-empty list")
        if not isinstance(year, int) or not 1000 <= year <= 9999:
            raise CatalogError(f"record {index}: year must be a 4-digit integer")
        if (not isinstance(price, (int, float)) or isinstance(price, bool)
                or not 0 <= price <= sys.float_info.max):  # rejects NaN, inf, 10**400
            raise CatalogError(f"record {index}: price must be a non-negative number")
        for key in _STRING_KEYS:
            if not isinstance(item[key], str):
                raise CatalogError(f"record {index}: {key} must be a string")
            if key != "currency" and not item[key].strip():  # format_price strips a currency
                raise CatalogError(f"record {index}: {key} must not be empty")
        records.append(BookRecord(
            title=title,
            authors=tuple(authors),
            publisher=item["publisher"],
            year=year,
            subject=item["subject"],
            place=item["place"],
            price=float(price),
            currency=item["currency"],
        ))
    return tuple(records)


def format_price(record: BookRecord) -> str:
    amount = record.price
    text = str(int(amount)) if amount == int(amount) else f"{amount:g}"
    return f"{text} {record.currency}".rstrip()


#: argument role -> record projection
_FIELDS = {
    "author": lambda r: set(r.authors),
    "book": lambda r: {r.title},
    "publisher": lambda r: {r.publisher},
    "subject": lambda r: {r.subject},
    "location": lambda r: {r.place},
    "year": lambda r: {str(r.year)},
    "price": lambda r: {format_price(r)},
}
_YEAR = operator.attrgetter("year")
_YEAR_TESTS = {"before": operator.lt, "in": operator.eq, "after": operator.gt}


def _names_book(arg) -> bool:
    if arg.kind == "nested":
        return arg.nested.predicate == "is_of" and any(
            a.kind == "entity" and a.role == "book" for a, _ in arg.nested.args)
    return arg.kind == "entity" and arg.role == "book"


def _readings(node: SemanticNode, split: bool) -> list[list]:
    """Filter lists, one per reading of ``node``; a focused argument adds
    none unless nested.  With ``split``, each node naming several books keeps
    one of them in each reading; without it there is one reading."""
    parts = []       # per argument, the filter lists it may contribute
    books = []
    for arg, _relation in node.args:
        if arg.kind == "nested":
            options = _readings(arg.nested, split)
        elif arg.focus:
            options = [[]]
        elif arg.kind == "time" and arg.time.year is not None:
            if arg.time.relation not in _YEAR_TESTS:
                raise EvaluationError(f"time relation {arg.time.relation!r} has no year test")
            options = [[(_YEAR, _YEAR_TESTS[arg.time.relation], arg.time.year)]]
        elif arg.kind == "entity" and arg.value is not None and arg.role != "source":
            if arg.role not in _FIELDS:
                raise EvaluationError(f"role {arg.role!r} has no record field")
            options = [[(_FIELDS[arg.role], operator.contains, arg.value)]]
        else:
            options = [[]]
        (books if split and _names_book(arg) else parts).append(options)
    if len(books) > 1:
        books = [[f for options in books for f in options]]
    return [[f for filters in choice for f in filters]
            for choice in itertools.product(*parts, *books)]


def _satisfies(record: BookRecord, filters: list) -> bool:
    for field, test, value in filters:
        if not test(field(record), value):
            return False
    return True


def evaluate(sem: SemanticNode, records: tuple[BookRecord, ...]) -> Answer:
    """Answer a question against the catalog's records.

    A yes/no question holds when each of its one-book readings is satisfied
    by some record.  Wh-questions collect the values of the argument that
    ``find_focus`` gives (a ``nested`` one has no role) over the records that
    satisfy every filter; amount questions count those records.
    """
    readings = _readings(sem, split=sem.focused)
    if sem.focused:
        return Answer("boolean", all(
            any(_satisfies(r, filters) for r in records) for filters in readings))
    [filters] = readings
    matching = [r for r in records if _satisfies(r, filters)]
    hit = find_focus(sem)
    if hit is None:
        raise EvaluationError("no focused element to answer")
    focused = hit[1]
    if focused.kind == "amount":
        return Answer("count", len(matching))
    projector = _FIELDS.get("year" if focused.kind == "time" else focused.role)
    if projector is None:
        raise EvaluationError(f"focused role {focused.role!r} has no record field")
    values: set[str] = set()
    for record in matching:
        values |= projector(record)
    return Answer("entities", tuple(sorted(values)))


def format_answer(answer: Answer, qtype: QuestionType) -> str:
    """Render an answer as a short Vietnamese reply line."""
    if answer.kind == "boolean":
        if qtype.kind != "yesno":
            raise EvaluationError("boolean answer for a wh-question")
        return "Có." if answer.value else "Không."
    if qtype.kind != "wh":
        raise EvaluationError(f"{answer.kind} answer for a yes/no question")
    if answer.kind == "count":
        return str(answer.value)
    return ", ".join(answer.value) if answer.value else "Không tìm thấy."
