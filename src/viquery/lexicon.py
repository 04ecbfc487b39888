"""Vocabulary, normalization and tokenization for restricted Vietnamese queries.

The lexicon is closed-world: a set of closed-class entries (question words,
verbs, heads, particles) plus open-class gazetteers of proper names (authors,
titles, publishers, subjects, fields, places).  Tokenization is deterministic
longest-match over syllables, walked in a syllable trie built at load; spans
matching no entry become proper-name candidates so that questions about
unlisted titles still parse.  The phrase templates are data here too.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Mapping
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple


class Category(str, Enum):
    """Token and rule-slot categories.

    The first block is the category inventory the grammar may reference;
    the second block holds lexical-only kinds (proper-name gazetteers,
    year literals, punctuation and minor head/marker words) that appear on
    tokens but never in syntactic rules.
    """

    # grammar categories
    WHAT_AUTHOR = "what_author"
    WHAT_PUBLISHER = "what_publisher"
    WHAT_TIME = "what_time"
    WHAT_SUBJECT = "what_subject"
    WHAT_PLACE = "what_place"
    WHAT_PRICE = "what_price"
    AUTHOR = "author"
    PUBLISHER = "publisher"
    BOOK = "book"
    SUBJECT = "subject"
    FIELD = "field"
    BOOK_TYPE = "book_type"
    CREATOR = "creator"
    PRICE = "price"
    TIME_PHRASE = "time_phrase"
    PREP_TIME = "prep_time"
    VPERFECT = "vperfect"
    VPASSIVE = "vpassive"
    VERB_WRITE = "verb_write"
    VERB_PUBLISH = "verb_publish"
    VERB_BE = "verb_be"
    VERB_HAVE = "verb_have"
    VERB_LOCATE = "verb_locate"
    VERB_BUY = "verb_buy"
    VERB_COST = "verb_cost"
    IS_OF = "is_of"
    POSSESSIVE = "possessive"
    OF_AUTHOR = "of_author"
    BY_AUTHOR = "by_author"
    BY_PUBLISHER = "by_publisher"
    CONJUNCTION = "conjunction"
    PLURAL = "plural"
    HOW_MANY = "how_many"
    IN_ELIB = "in_elib"
    INTERROGATIVE1 = "interrogative1"
    INTERROGATIVE2 = "interrogative2"
    INTERROGATIVE3 = "interrogative3"
    INTERROGATIVE4 = "interrogative4"
    # lexical-only kinds
    NOUN_TIME = "noun_time"
    AGENT = "agent"
    NAME_AUTHOR = "name_author"
    NAME_BOOK = "name_book"
    NAME_PUBLISHER = "name_publisher"
    NAME_SUBJECT = "name_subject"
    NAME_FIELD = "name_field"
    NAME_PLACE = "name_place"
    YEAR = "year"
    PUNCT = "punct"


#: Categories a syntactic rule may reference.
GRAMMAR_CATEGORIES = frozenset(
    c for c in Category
    if c not in {
        Category.NOUN_TIME, Category.AGENT, Category.YEAR, Category.PUNCT,
        Category.NAME_AUTHOR, Category.NAME_BOOK, Category.NAME_PUBLISHER,
        Category.NAME_SUBJECT, Category.NAME_FIELD, Category.NAME_PLACE,
    }
)

#: Proper-name gazetteer kinds, in the order an unknown run lists them.
NAME_KINDS = (
    Category.NAME_AUTHOR,
    Category.NAME_BOOK,
    Category.NAME_PUBLISHER,
    Category.NAME_SUBJECT,
    Category.NAME_FIELD,
    Category.NAME_PLACE,
)

_YEAR_RE = re.compile(r"^[1-9]\d{3}$")


class LexiconError(ValueError):
    """Raised when a lexicon document cannot be loaded."""


class LexiconEntry(NamedTuple):
    category: Category
    surface: str          # normalized, space-separated syllables
    canonical: str        # lemma or entity id (entity ids keep display casing)


class TimeValue(NamedTuple):
    """Raw time constituent: preposition lemma plus a year (None = asked)."""

    prep: str | None
    year: int | None


class BookValue(NamedTuple):
    """Book constituent value: bound title, or unbound (any book), optionally
    qualified by a subject ("sách nào thuộc chủ đề T")."""

    title: str | None = None
    subject: str | None = None


class TokenGroup(NamedTuple):
    """One span's surface and the canonical form of each category it has;
    several categories are a tie that the parser resolves by rule demand.
    A lexicon surface's group is built once at load and shared by every
    span of that surface, so ``categories`` is read-only."""

    surface: str
    categories: Mapping[Category, str]


_PUNCT_GROUPS = {p: TokenGroup(p, MappingProxyType({Category.PUNCT: p})) for p in "?,"}


class Lexicon:
    """The loaded entries in file order, unique by (category, surface) as
    :func:`load_lexicon` checks, plus two indexes built once from them: the
    syllable trie that :func:`tokenize` walks and each category's sorted
    surfaces."""

    def __init__(self, entries: tuple[LexiconEntry, ...]):
        self.entries = entries
        by_category: dict[Category, list[str]] = {}
        by_surface: dict[str, dict[Category, str]] = {}
        for entry in entries:
            by_category.setdefault(entry.category, []).append(entry.surface)
            by_surface.setdefault(entry.surface, {})[entry.category] = entry.canonical
        self._surfaces = {c: tuple(sorted(s)) for c, s in by_category.items()}
        # syllable trie: a node maps a syllable to (child node, the group of
        # the surface that ends there, or None); each group's read-only map
        # lists its categories in value order
        self._trie: dict[str, tuple[dict, TokenGroup | None]] = {}
        for surface, categories in by_surface.items():
            *head, last = surface.split(" ")
            node = self._trie
            for syllable in head:
                node = node.setdefault(syllable, ({}, None))[0]
            ordered = sorted(categories.items(), key=lambda item: item[0].value)
            group = TokenGroup(surface, MappingProxyType(dict(ordered)))
            node[last] = (node.get(last, ({}, None))[0], group)
        # "?" and "," are one span of their shared group, whatever is listed
        self._trie.update((p, ({}, group)) for p, group in _PUNCT_GROUPS.items())

    def surfaces(self, category: Category) -> tuple[str, ...]:
        return self._surfaces.get(category, ())


def normalize(text: str) -> str:
    """Canonical query form: NFC, lowercased, '?' and ',' split off,
    whitespace collapsed.  Idempotent and total."""
    text = unicodedata.normalize("NFC", text).lower()
    return " ".join(text.replace("?", " ? ").replace(",", " , ").split())


def load_lexicon(document: str) -> Lexicon:
    """Parse a lexicon document (see data/lexicon_v1.tsv for the format)."""
    entries: list[LexiconEntry] = []
    seen: set[tuple[Category, str]] = set()
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise LexiconError(
                f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        cat_name, surface, canonical = (f.strip() for f in fields)
        try:
            category = Category(cat_name)
        except ValueError:
            raise LexiconError(f"line {lineno}: unknown category {cat_name!r}") from None
        surface = normalize(surface)
        if not surface:
            raise LexiconError(f"line {lineno}: empty surface")
        canonical = unicodedata.normalize("NFC", canonical)
        key = (category, surface)
        if key in seen:
            raise LexiconError(
                f"line {lineno}: duplicate entry ({cat_name}, {surface!r})"
            )
        seen.add(key)
        entries.append(LexiconEntry(category, surface, canonical))
    return Lexicon(tuple(entries))


def _name_group(syllables: list[str]) -> TokenGroup:
    run = " ".join(syllables)
    categories = dict.fromkeys(NAME_KINDS, run)
    if len(syllables) == 1 and _YEAR_RE.match(run):
        categories[Category.YEAR] = run
    return TokenGroup(run, MappingProxyType(categories))


def tokenize(query: str, lexicon: Lexicon) -> tuple[TokenGroup, ...]:
    """Deterministic longest-match segmentation of a normalized query.

    At each syllable the longest lexicon surface wins; equal-length matches
    in several categories all go on the same span.  Unmatched syllables are
    grouped into maximal runs and become proper-name candidates of every
    gazetteer kind (plus a year literal when the run is a single 4-digit
    number).  Entries are unique by (category, surface), so a span never
    holds one category twice.  The lexicon's trie is walked once per
    position.  Each lexicon surface has one group, built once and shared by
    all its spans, and "?" and "," the groups every lexicon's trie holds at
    its root; only an unknown run gets a new group.
    """
    syllables = query.split(" ") if query else []
    trie = lexicon._trie
    groups: list[TokenGroup] = []
    run = None  # start of the pending unknown run
    i = 0
    n = len(syllables)
    while i < n:
        group = None
        node = trie
        k = i
        while k < n:
            hit = node.get(syllables[k])
            if hit is None:
                break
            node, found = hit
            k += 1
            if found is not None:
                group, end = found, k
        if group is None:
            if run is None:
                run = i
            i += 1
            continue
        if run is not None:
            groups.append(_name_group(syllables[run:i]))
            run = None
        groups.append(group)
        i = end
    if run is not None:
        groups.append(_name_group(syllables[run:]))
    return tuple(groups)


# --- constituent templates ---------------------------------------------------
#
# A template category maps to its ordered alternatives, each a tuple of parts
# and the name of the builder that makes the constituent's value.  A part is
# a tuple of token categories (one token of the first of them it has, as
# one alternative per category), a literal surface or a Category (a nested
# constituent); a rule body in ``viquery.grammar`` uses the last two, plus
# brackets.  Each slot inlines its template into the rule's program as an
# atomic group: the first alternative that matches wins.  The sampler
# realizes the first.

#: Value builders by name, over the values of an alternative's non-literal parts
BUILDERS = {
    "last": lambda values: values[-1],
    "title": lambda values: BookValue(values[-1]),
    "any_book": lambda values: BookValue(),
    "book_of_subject": lambda values: BookValue(subject=values[-1]),
    "time": lambda values: TimeValue(values[0], int(values[-1])),
}

_C = Category
TEMPLATES = {
    _C.AUTHOR: [(((_C.CREATOR,), (_C.NAME_AUTHOR,)), "last")],
    _C.PUBLISHER: [(((_C.PUBLISHER,), (_C.NAME_PUBLISHER,)), "last")],
    # a bare name follows a multi-syllable is_of surface such as "thuộc chủ
    # đề", which absorbs the head
    _C.SUBJECT: [(((_C.SUBJECT,), (_C.NAME_SUBJECT,)), "last"),
                 (((_C.NAME_SUBJECT,),), "last")],
    # "nào" after the head marks an unbound book ("any/which book"), which
    # may carry a subject qualifier: "sách nào thuộc chủ đề T"
    _C.BOOK: [(((_C.BOOK_TYPE,), (_C.NAME_BOOK,)), "title"),
              (((_C.BOOK_TYPE,), "nào", (_C.IS_OF,), _C.SUBJECT), "book_of_subject"),
              (((_C.BOOK_TYPE,), "nào"), "any_book"),
              (((_C.BOOK_TYPE,),), "any_book")],
    _C.TIME_PHRASE: [(((_C.PREP_TIME,), (_C.NOUN_TIME,), (_C.YEAR,)), "time")],
    _C.OF_AUTHOR: [(((_C.POSSESSIVE,), _C.AUTHOR), "last")],
    _C.BY_AUTHOR: [(((_C.POSSESSIVE, _C.AGENT), _C.AUTHOR), "last")],
    _C.BY_PUBLISHER: [(((_C.POSSESSIVE, _C.AGENT), _C.PUBLISHER), "last")],
}
