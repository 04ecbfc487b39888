"""Vocabulary, normalization and tokenization for restricted Vietnamese queries.

The lexicon is closed-world: a set of closed-class entries (question words,
verbs, heads, particles) plus open-class gazetteers of proper names (authors,
titles, publishers, subjects, fields, places).  Tokenization is deterministic
longest-match over syllables; spans matching no entry become proper-name
candidates so that questions about unlisted titles still parse.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum


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
_PUNCT_RE = re.compile(r"\s*([?,])\s*")
_WS_RE = re.compile(r"\s+")


class LexiconError(ValueError):
    """Raised when a lexicon document cannot be loaded."""


@dataclass(frozen=True)
class LexiconEntry:
    category: Category
    surface: str          # normalized, space-separated syllables
    canonical: str        # lemma or entity id (entity ids keep display casing)

    @property
    def syllables(self) -> tuple[str, ...]:
        return tuple(self.surface.split(" "))


@dataclass(frozen=True)
class TimeValue:
    """Raw time constituent: preposition lemma plus a year (None = asked)."""

    prep: str | None
    year: int | None


@dataclass(frozen=True)
class BookValue:
    """Book constituent value: bound title, or unbound (any book), optionally
    qualified by a subject ("sách nào thuộc chủ đề T")."""

    title: str | None = None
    subject: str | None = None


@dataclass(frozen=True)
class TokenGroup:
    """One span, ``start``/``end`` in syllables (end exclusive), and the
    canonical form of each category it has; several categories are a tie
    that the parser resolves by rule demand."""

    start: int
    end: int
    surface: str
    categories: dict[Category, str]


class TokenStream:
    """Tokenization result: one group per span position, left to right."""

    def __init__(self, groups: tuple[TokenGroup, ...]):
        self.groups = groups

    def __len__(self) -> int:
        return len(self.groups)

    def canonical_at(self, pos: int, category: Category) -> str | None:
        if pos >= len(self.groups):
            return None
        return self.groups[pos].categories.get(category)

    def surface_at(self, pos: int) -> str | None:
        if pos >= len(self.groups):
            return None
        return self.groups[pos].surface

    def span_text(self, start: int, end: int) -> str:
        return " ".join(g.surface for g in self.groups[start:end])


class Lexicon:
    """Immutable lookup structure over entries and gazetteers; entries are
    unique by (category, surface), as :func:`load_lexicon` checks."""

    def __init__(self, entries: list[LexiconEntry]):
        self._entries: dict[tuple[Category, str], LexiconEntry] = {}
        # first syllable -> (syllables, entry), longest first
        self._by_first: dict[str, list[tuple[tuple[str, ...], LexiconEntry]]] = {}
        self._by_category: dict[Category, list[LexiconEntry]] = {}
        for entry in entries:
            self._entries[(entry.category, entry.surface)] = entry
            syllables = entry.syllables
            self._by_first.setdefault(syllables[0], []).append((syllables, entry))
            self._by_category.setdefault(entry.category, []).append(entry)
        for bucket in self._by_first.values():
            bucket.sort(key=lambda item: (-len(item[0]), item[1].category.value))

    def lookup(self, category: Category, surface: str) -> LexiconEntry | None:
        return self._entries.get((category, surface))

    def surfaces(self, category: Category) -> list[str]:
        return sorted(e.surface for e in self._by_category.get(category, ()))

    def has_entries(self, category: Category) -> bool:
        return bool(self._by_category.get(category))

    def match_at(self, syllables: list[str], at: int) -> tuple[int, list[LexiconEntry]]:
        """Longest-match entries starting at ``at`` and their length in
        syllables (0 when none); ties across categories are all returned."""
        best: list[LexiconEntry] = []
        best_len = 0
        for entry_syllables, entry in self._by_first.get(syllables[at], ()):
            n = len(entry_syllables)
            if n < best_len:
                break  # buckets are length-sorted
            if tuple(syllables[at:at + n]) == entry_syllables:
                if n > best_len:
                    best, best_len = [entry], n
                else:
                    best.append(entry)
        return best_len, best


def normalize(text: str) -> str:
    """Canonical query form: NFC, lowercased, '?' and ',' split off,
    whitespace collapsed.  Idempotent and total."""
    text = unicodedata.normalize("NFC", text).lower()
    text = _PUNCT_RE.sub(r" \1 ", text)
    return _WS_RE.sub(" ", text).strip()


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
    return Lexicon(entries)


def tokenize(query: str, lexicon: Lexicon) -> TokenStream:
    """Deterministic longest-match segmentation of a normalized query.

    At each syllable the longest lexicon surface wins; equal-length matches
    in several categories all go on the same span.  Unmatched syllables are
    grouped into maximal runs and become proper-name candidates of every
    gazetteer kind (plus a year literal when the run is a single 4-digit
    number).  Entries are unique by (category, surface), so a span never
    holds one category twice.
    """
    syllables = query.split(" ") if query else []
    groups: list[TokenGroup] = []
    i = 0
    n = len(syllables)
    while i < n:
        syl = syllables[i]
        if syl in ("?", ","):
            groups.append(TokenGroup(i, i + 1, syl, {Category.PUNCT: syl}))
            i += 1
            continue
        length, matches = lexicon.match_at(syllables, i)
        if matches:
            span = " ".join(syllables[i:i + length])
            categories = {e.category: e.canonical for e in matches}
            groups.append(TokenGroup(i, i + length, span, categories))
            i += length
            continue
        # maximal unknown run -> proper-name candidates
        j = i
        while j < n and syllables[j] not in ("?", ",") and not lexicon.match_at(syllables, j)[0]:
            j += 1
        run = " ".join(syllables[i:j])
        categories = dict.fromkeys(NAME_KINDS, run)
        if j - i == 1 and _YEAR_RE.match(run):
            categories[Category.YEAR] = run
        groups.append(TokenGroup(i, j, run, categories))
        i = j
    return TokenStream(tuple(groups))


# --- constituent templates ---------------------------------------------------
#
# A template category maps to its ordered alternatives, each a tuple of parts
# and a function that builds the constituent's value from the parts' values.
# A part is a tuple of token categories (one token of any of them; its value
# is the token's canonical form), a literal surface (its value is itself) or a
# Category (a nested constituent).  Templates are atomic: the first
# alternative that matches wins and no later one is tried.  The sampler
# realizes the first alternative.  Positions are group indices into the
# TokenStream.

def _last(*values):
    return values[-1]


def _any_book(*_values):
    return BookValue()


_C = Category
TEMPLATES = {
    _C.AUTHOR: [(((_C.CREATOR,), (_C.NAME_AUTHOR,)), _last)],
    _C.PUBLISHER: [(((_C.PUBLISHER,), (_C.NAME_PUBLISHER,)), _last)],
    # a bare name follows a multi-syllable is_of surface such as "thuộc chủ
    # đề", which absorbs the head
    _C.SUBJECT: [(((_C.SUBJECT,), (_C.NAME_SUBJECT,)), _last),
                 (((_C.NAME_SUBJECT,),), _last)],
    # "nào" after the head marks an unbound book ("any/which book"), which
    # may carry a subject qualifier: "sách nào thuộc chủ đề T"
    _C.BOOK: [(((_C.BOOK_TYPE,), (_C.NAME_BOOK,)),
               lambda _head, title: BookValue(title=title)),
              (((_C.BOOK_TYPE,), "nào", (_C.IS_OF,), _C.SUBJECT),
               lambda *values: BookValue(subject=values[-1])),
              (((_C.BOOK_TYPE,), "nào"), _any_book),
              (((_C.BOOK_TYPE,),), _any_book)],
    _C.TIME_PHRASE: [(((_C.PREP_TIME,), (_C.NOUN_TIME,), (_C.YEAR,)),
                      lambda prep, _noun, year: TimeValue(prep, int(year)))],
    _C.OF_AUTHOR: [(((_C.POSSESSIVE,), _C.AUTHOR), _last)],
    _C.BY_AUTHOR: [(((_C.POSSESSIVE, _C.AGENT), _C.AUTHOR), _last)],
    _C.BY_PUBLISHER: [(((_C.POSSESSIVE, _C.AGENT), _C.PUBLISHER), _last)],
}


def _scan_part(stream: TokenStream, at: int, part):
    if type(part) is tuple:
        for category in part:
            canonical = stream.canonical_at(at, category)
            if canonical is not None:
                return canonical, at + 1
        return None
    if isinstance(part, Category):
        return scan_constituent(stream, at, part)
    return (part, at + 1) if stream.surface_at(at) == part else None


def scan_constituent(stream: TokenStream, at: int, category: Category):
    """Match one constituent of ``category`` starting at group index ``at``.

    Returns (canonical value, first unconsumed position) or None.  A template
    category matches its first matching alternative in :data:`TEMPLATES`;
    other categories consume a single token of that category.
    """
    if at >= len(stream):
        return None
    alternatives = TEMPLATES.get(category)
    if alternatives is None:
        canonical = stream.canonical_at(at, category)
        return None if canonical is None else (canonical, at + 1)
    for parts, build in alternatives:
        values = []
        pos = at
        for part in parts:
            found = _scan_part(stream, pos, part)
            if found is None:
                break
            value, pos = found
            values.append(value)
        else:
            return build(*values), pos
    return None
