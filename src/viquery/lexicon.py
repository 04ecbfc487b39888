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
import sys
import unicodedata
from collections.abc import Mapping
from types import MappingProxyType, SimpleNamespace
from typing import NamedTuple


#: Categories a syntactic rule may reference.  Every category is its name,
#: interned, so the loaders below hand out these very objects.
GRAMMAR_CATEGORIES = frozenset(map(sys.intern, """
    what_author what_publisher what_time what_subject what_place what_price
    author publisher book subject field book_type creator price time_phrase
    prep_time vperfect vpassive verb_write verb_publish verb_be verb_have
    verb_locate verb_buy verb_cost is_of possessive of_author by_author
    by_publisher conjunction plural how_many in_elib interrogative1
    interrogative2 interrogative3 interrogative4""".split()))

#: Proper-name gazetteer kinds, in the order an unknown run lists them.
NAME_KINDS = tuple(map(sys.intern, """
    name_author name_book name_publisher name_subject name_field
    name_place""".split()))

#: Every token and rule-slot category: the grammar's, plus lexical-only kinds
#: (gazetteers, year literals, punctuation, minor head and marker words) that
#: appear on tokens but never in syntactic rules.
CATEGORIES = GRAMMAR_CATEGORIES.union(
    NAME_KINDS, map(sys.intern, ("noun_time", "agent", "year", "punct")))

#: The categories as attributes.  Only ``perfbench/run.py`` still spells them
#: so; ROADMAP item 1 makes it compare strings and deletes this line.
Category = SimpleNamespace(**{c.upper(): c for c in CATEGORIES})

_YEAR_RE = re.compile(r"^[1-9]\d{3}$")


class LexiconError(ValueError):
    """Raised when a lexicon document cannot be loaded."""


class LexiconEntry(NamedTuple):
    category: str
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
    categories: Mapping[str, str]


_PUNCT_GROUPS = {p: TokenGroup(p, MappingProxyType({"punct": p})) for p in "?,"}


class Lexicon:
    """The loaded entries in file order, unique by (category, surface) as
    :func:`load_lexicon` checks, plus two indexes built once from them: the
    syllable trie that :func:`tokenize` walks and each category's sorted
    surfaces."""

    def __init__(self, entries: tuple[LexiconEntry, ...]):
        self.entries = entries
        by_category: dict[str, list[str]] = {}
        by_surface: dict[str, dict[str, str]] = {}
        for entry in entries:
            by_category.setdefault(entry.category, []).append(entry.surface)
            by_surface.setdefault(entry.surface, {})[entry.category] = entry.canonical
        self._surfaces = {c: tuple(sorted(s)) for c, s in by_category.items()}
        # syllable trie: a node maps a syllable to (child node, the group of
        # the surface that ends there, or None); each group's read-only map
        # lists its categories in name order
        self._trie: dict[str, tuple[dict, TokenGroup | None]] = {}
        for surface, categories in by_surface.items():
            *head, last = surface.split(" ")
            node = self._trie
            for syllable in head:
                node = node.setdefault(syllable, ({}, None))[0]
            ordered = sorted(categories.items())
            group = TokenGroup(surface, MappingProxyType(dict(ordered)))
            node[last] = (node.get(last, ({}, None))[0], group)
        # "?" and "," are one span of their shared group
        self._trie.update((p, ({}, group)) for p, group in _PUNCT_GROUPS.items())

    def surfaces(self, category: str) -> tuple[str, ...]:
        return self._surfaces.get(category, ())


def normalize(text: str) -> str:
    """Canonical query form: NFC, lowercased, '?' and ',' split off,
    whitespace collapsed.  Idempotent and total."""
    text = unicodedata.normalize("NFC", text).lower()
    return " ".join(text.replace("?", " ? ").replace(",", " , ").split())


def load_lexicon(document: str) -> Lexicon:
    """Parse a lexicon document (see data/lexicon_v1.tsv for the format)."""
    entries: list[LexiconEntry] = []
    seen: set[tuple[str, str]] = set()
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
        if cat_name not in CATEGORIES:
            raise LexiconError(f"line {lineno}: unknown category {cat_name!r}")
        if cat_name in _PHRASES:
            raise LexiconError(f"line {lineno}: category {cat_name!r} is a phrase, not a "
                               "word class; list a name under a name_* category")
        category = sys.intern(cat_name)
        surface = normalize(surface)
        if not surface:
            raise LexiconError(f"line {lineno}: empty surface")
        if "?" in surface or "," in surface:
            raise LexiconError(f'line {lineno}: surface {surface!r} holds "?" or ",", '
                               "which are always groups of their own")
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
        categories["year"] = run
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
# a category name (a nested constituent), a :class:`Lit` or a tuple of token
# categories (one token of the first of them it has, as one alternative per
# category); a rule body in ``viquery.grammar`` uses the first two, plus
# brackets.  A slot takes the first alternative that matches, and no later
# one even where the rule then fails; the sampler realizes the first.


class Lit(NamedTuple):
    """A literal part: one token group whose surface is ``surface``."""

    surface: str


#: Value builders by name, over the values of an alternative's non-literal parts
BUILDERS = {
    "last": lambda values: values[-1],
    "title": lambda values: BookValue(values[-1]),
    "any_book": lambda values: BookValue(),
    "book_of_subject": lambda values: BookValue(subject=values[-1]),
    "time": lambda values: TimeValue(values[0], int(values[-1])),
}

TEMPLATES = {
    "author": [((("creator",), ("name_author",)), "last")],
    "publisher": [((("publisher",), ("name_publisher",)), "last")],
    # a bare name follows a multi-syllable is_of surface such as "thuộc chủ
    # đề", which absorbs the head
    "subject": [((("subject",), ("name_subject",)), "last"),
                ((("name_subject",),), "last")],
    # "nào" after the head marks an unbound book ("any/which book"), which
    # may carry a subject qualifier: "sách nào thuộc chủ đề T"
    "book": [((("book_type",), ("name_book",)), "title"),
             ((("book_type",), Lit("nào"), ("is_of",), "subject"), "book_of_subject"),
             ((("book_type",), Lit("nào")), "any_book"),
             ((("book_type",),), "any_book")],
    "time_phrase": [((("prep_time",), ("noun_time",), ("year",)), "time")],
    "of_author": [((("possessive",), "author"), "last")],
    "by_author": [((("possessive", "agent"), "author"), "last")],
    "by_publisher": [((("possessive", "agent"), "publisher"), "last")],
}

#: The template names that no template part reads as a word class: no step of
#: the matcher reads a token of these, so a lexicon may not list them
_PHRASES = frozenset(TEMPLATES).difference(
    c for alternatives in TEMPLATES.values() for parts, _ in alternatives
    for part in parts if type(part) is tuple for c in part)
