"""Reference answers for the benchmark, written apart from ``viquery.catalog``.

The evaluator walks viquery's semantic tree record by record over the raw
catalog JSON.  A question that names several books is read once per book:

* a yes/no question holds only if every single-book reading holds;
* a wh-question's readings differ, so only the union of the per-book
  answers is known, and a returned value must lie in it.

``Expected`` carries either one exact answer or such a union, and checks a
formatted answer line (as ``viquery ask`` prints it) against it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass

NOT_FOUND = "Không tìm thấy."


def load_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _price(record: dict) -> str:
    amount = float(record["price"])
    text = str(int(amount)) if amount == int(amount) else f"{amount:g}"
    return f"{text} {record['currency']}".rstrip()


def _values(record: dict, role: str) -> set[str]:
    if role == "author":
        return set(record["authors"])
    if role == "book":
        return {record["title"]}
    if role == "publisher":
        return {record["publisher"]}
    if role in ("subject", "field"):
        return {record["subject"]}
    if role == "location":
        return {record["place"]}
    if role == "year":
        return {str(record["year"])}
    if role == "price":
        return {_price(record)}
    raise ValueError(f"role {role!r} has no record field")


def _holds(record: dict, node) -> bool:
    """Every bound argument of ``node`` (nested ones too) fits ``record``."""
    for arg, _relation in node.args:
        if arg.kind == "nested":
            if not _holds(record, arg.nested):
                return False
        elif arg.kind == "time":
            year = arg.time.year
            if arg.focus or year is None:
                continue
            ok = {"before": record["year"] < year,
                  "in": record["year"] == year,
                  "after": record["year"] > year}[arg.time.relation]
            if not ok:
                return False
        elif arg.kind == "entity":
            if arg.focus or arg.value is None or arg.role == "source":
                continue
            if arg.value not in _values(record, arg.role):
                return False
    return True


def _focus(node):
    """The asked-for role: ``amount``, ``year`` or an entity role."""
    for arg, _relation in node.args:
        if arg.focus:
            return {"amount": "amount", "time": "year"}.get(arg.kind, arg.role)
        if arg.nested is not None:
            found = _focus(arg.nested)
            if found is not None:
                return found
    return None


def _names_book(arg) -> bool:
    if arg.kind == "entity":
        return arg.role == "book"
    return (arg.kind == "nested" and arg.nested.predicate == "is_of"
            and any(a.kind == "entity" and a.role == "book"
                    for a, _ in arg.nested.args))


def readings(node) -> list:
    """One tree per named book: each node keeps one of its book arguments."""
    books = [i for i, (arg, _) in enumerate(node.args) if _names_book(arg)]
    keeps = [[i] for i in books] if len(books) > 1 else [books]
    out = []
    for keep in keeps:
        options = []
        for i, (arg, relation) in enumerate(node.args):
            if i in books and i not in keep:
                continue
            if arg.kind == "nested":
                options.append([(dataclasses.replace(arg, nested=sub), relation)
                                for sub in readings(arg.nested)])
            else:
                options.append([(arg, relation)])
        for args in itertools.product(*options):
            out.append(dataclasses.replace(node, args=tuple(args)))
    return out


@dataclass(frozen=True)
class Expected:
    kind: str                 # yesno | count | entities
    exact: bool               # False: a subset of ``values`` is right
    value: object             # bool | int | tuple of sorted str

    def formatted(self) -> str | None:
        """The one right answer line, or None when several are right."""
        if self.kind == "yesno":
            return "Có." if self.value else "Không."
        if self.kind == "count":
            return str(self.value)
        if not self.exact:
            return None
        return ", ".join(self.value) if self.value else NOT_FOUND

    def accepts(self, line: str) -> bool:
        exact = self.formatted()
        if exact is not None:
            return line == exact
        got = () if line == NOT_FOUND else tuple(line.split(", "))
        return list(got) == sorted(set(got)) and set(got) <= set(self.value)


def expected(sem, records: list[dict]) -> Expected:
    """The reference answer to viquery's semantic tree ``sem``."""
    trees = readings(sem)
    if sem.focused:
        return Expected("yesno", True,
                        all(any(_holds(r, t) for r in records) for t in trees))
    role = _focus(sem)
    if role is None:
        raise ValueError("no focused element")
    if role == "amount":
        if len(trees) != 1:
            raise ValueError("a count over several books has no reference")
        return Expected("count", True, sum(_holds(r, sem) for r in records))
    values: set[str] = set()
    for tree in trees:
        for record in records:
            if _holds(record, tree):
                values |= _values(record, role)
    return Expected("entities", len(trees) == 1, tuple(sorted(values)))


def reads_books_apart(sem, records: list[dict]) -> bool:
    """A yes/no question whose answer changes when its books must all sit
    on one record instead of each on a record of its own."""
    if not sem.focused or len(readings(sem)) == 1:
        return False
    return expected(sem, records).value != any(_holds(r, sem) for r in records)
