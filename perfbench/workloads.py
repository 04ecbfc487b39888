"""Seeded inputs for the benchmark's workloads.

Every input is a function of the seed alone.  viquery sees only the
question strings; the expected answers are worked out here, through the
reference evaluator, before any timing starts.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

import reference

#: Fails on every pass until ``catalog.evaluate`` stops conjoining all book
#: titles on one record: both books are from Hội Nhà Văn, so the right
#: answer is "Có.".  It is what ``generate all 20 --seed 0`` prints first
#: for its rule.
KNOWN_FAILURE = ("tiểu thuyết chí phèo cùng với truyện số đỏ "
                 "đã được nhà xuất bản hội nhà văn phát hành ?")
KNOWN_FAILURE_RULE = "Q2.2d"

PER_RULE = 20        # questions per rule, as in ``generate all 20``
DRAW = 40            # samples drawn per rule; the extra ones are spares

#: Coordinated books per long question; each count comes once per form.
#: 150 stays well below the ~198 at which the matcher's recursion fails.
BOOK_COUNTS = tuple(range(1, 151, 3))
#: Syllables of unknown titles in the order they recur.
RUN_LENGTHS = (1, 2, 4, 8, 12)
CONJUNCTIONS = ("và", "cùng", "cùng với", None)
HEADS = ("sách", "cuốn sách", "quyển", "truyện", "tiểu thuyết")
#: Syllables that start no lexicon entry, so runs of them stay unknown.
UNKNOWN_SYLLABLES = (
    "lan hương mai gió mây sông núi trăng biển rừng hoa lá thu đông hạ mưa "
    "nắng chiều sớm khuya đêm ngày tình yêu nhớ quê phố làng xóm bến đò "
    "cầu thuyền buồm cánh chim én cò vạc"
).split()

COLD_SAMPLE = 9      # seeded questions per cold round, besides KNOWN_FAILURE


@dataclass(frozen=True)
class Question:
    text: str
    expected: reference.Expected
    rule_id: str | None = None            # corpus: the generating rule
    family: str | None = None             # long: the template's family
    titles: tuple[str, ...] | None = None  # long: the books, in order


class Data:
    """viquery's built-in data, loaded once through its public functions."""

    def __init__(self):
        import viquery
        from viquery.cli import data_path

        self.grammar = viquery.parse_rule_dsl(
            data_path("rules_v1.bnf").read_text(encoding="utf-8"))
        self.lexicon = viquery.load_lexicon(
            data_path("lexicon_v1.tsv").read_text(encoding="utf-8"))
        self.catalog = viquery.load_catalog(
            data_path("catalog_sample.json").read_text(encoding="utf-8"))
        self.records = reference.load_records(data_path("catalog_sample.json"))
        self.book_names = _gazetteer(data_path("lexicon_v1.tsv"), "name_book")

    def expect(self, text: str):
        """The program's first parse tree and the reference answer to it."""
        import viquery

        results = viquery.parse(text, self.grammar, self.lexicon)
        if not results:
            raise ValueError(f"no parse: {text}")
        sem = viquery.transform(results[0])
        return sem, reference.expected(sem, self.records)


def _gazetteer(path: Path, category: str) -> dict[str, str]:
    names = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        if len(fields) == 3 and fields[0].strip() == category:
            names[fields[1].strip()] = fields[2].strip()
    return names


def generated(seed: int, count: int) -> list[tuple[str, str]]:
    """(rule id, question) pairs as ``viquery --seed S generate all N`` prints."""
    from viquery.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--seed", str(seed), "generate", "all", str(count)])
    if code != 0:
        raise RuntimeError(f"viquery generate exited with {code}")
    return [tuple(line.split("\t", 1)) for line in out.getvalue().splitlines()]


def corpus(seed: int, data: Data) -> list[Question]:
    """One pass: ``PER_RULE`` questions per rule, in the generator's order.

    These are the questions ``generate all 20 --seed <seed>`` prints, except
    that

    * the first slot of ``KNOWN_FAILURE_RULE`` holds ``KNOWN_FAILURE``, so
      every pass of every seed attempts it exactly once;
    * any other question whose answer depends on reading its books one by
      one or all on one record is replaced by the rule's next sample.
      It hits the same fault as ``KNOWN_FAILURE``, but only on some seeds.
    """
    by_rule: dict[str, list[str]] = {}
    for rule_id, text in generated(seed, DRAW):
        by_rule.setdefault(rule_id, []).append(text)
    questions = []
    for rule_id, texts in by_rule.items():
        picked = []
        if rule_id == KNOWN_FAILURE_RULE:
            picked.append(Question(KNOWN_FAILURE, data.expect(KNOWN_FAILURE)[1], rule_id))
        for text in texts:
            if len(picked) == PER_RULE:
                break
            if text == KNOWN_FAILURE:
                continue
            sem, expected = data.expect(text)
            if reference.reads_books_apart(sem, data.records):
                continue
            picked.append(Question(text, expected, rule_id))
        if len(picked) < PER_RULE:
            raise RuntimeError(f"{rule_id}: too few usable samples in {DRAW}")
        questions.extend(picked)
    return questions


def _title(rng: random.Random, data: Data, index: int, unknown_seen: int):
    """Every third book has an unknown title; the rest are catalogued names."""
    if index % 3 == 2:
        length = RUN_LENGTHS[unknown_seen % len(RUN_LENGTHS)]
        surface = " ".join(rng.choice(UNKNOWN_SYLLABLES) for _ in range(length))
        return surface, surface
    surface = rng.choice(sorted(data.book_names))
    return surface, data.book_names[surface]


def long_question(rng: random.Random, data: Data, books: int,
                  passive: bool) -> Question:
    """``ai đã viết <book> {conj <book>} ?`` or ``<book> … đã được ai viết ?``."""
    titles, phrases = [], []
    unknown = 0
    for index in range(books):
        surface, canonical = _title(rng, data, index, unknown)
        unknown += index % 3 == 2
        titles.append((surface, canonical))
    rng.shuffle(titles)
    joins = [CONJUNCTIONS[i % len(CONJUNCTIONS)] for i in range(books - 1)]
    rng.shuffle(joins)
    for index, (surface, _) in enumerate(titles):
        if index and joins[index - 1]:
            phrases.append(joins[index - 1])
        phrases.append(f"{rng.choice(HEADS)} {surface}")
    books_text = " ".join(phrases)
    text = (f"{books_text} đã được ai viết ?" if passive
            else f"ai đã viết {books_text} ?")
    return Question(text, data.expect(text)[1], family="Q1.1",
                    titles=tuple(canonical for _, canonical in titles))


def long_queries(seed: int, data: Data) -> list[Question]:
    """One round: an active and a passive question for each book count."""
    rng = random.Random(seed)
    return [long_question(rng, data, books, passive)
            for books in BOOK_COUNTS for passive in (False, True)]


def cold_round(seed: int, data: Data) -> list[Question]:
    """``COLD_SAMPLE`` seeded corpus questions, then ``KNOWN_FAILURE``."""
    questions = corpus(seed, data)
    known = [q for q in questions if q.text == KNOWN_FAILURE]
    pool = [q for q in questions if q.text != KNOWN_FAILURE]
    return random.Random(seed).sample(pool, COLD_SAMPLE) + known
