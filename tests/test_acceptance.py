"""Acceptance suite: one test per release criterion, in order.

Each test prints a PASS line on success (run with -v or -s for the
per-criterion report).
"""

import json
import random
import re
import time
from pathlib import Path

import pytest

from oracles import FAMILY_SKELETONS, oracle_evaluate, oracle_parse
import viquery
from viquery.catalog import evaluate, load_catalog
from viquery.cli import main
from viquery.grammar import validate
from viquery.lexicon import load_lexicon
from viquery.parser import parse
from viquery.semantics import (
    classify,
    render_skeleton,
    resolve_time,
    transform,
)

S1 = "Tác giả A có viết sách B vào năm 2008 không?"
S2 = "Nhà xuất bản nào đã xuất bản sách B trong năm 2009?"

_PREP_REL = {"trước": "rel_time1", "vào": "rel_time2",
             "trong": "rel_time2", "sau": "rel_time3"}


def test_criterion_01_golden_s1_syntax(grammar, lexicon):
    started = time.perf_counter()
    results = parse(S1, grammar, lexicon)
    elapsed = time.perf_counter() - started
    first = results[0]
    assert first.rule_id == "Q1.3a"
    assert len(first.bindings) == 6
    values = []
    for binding in first.bindings:
        value = binding.value
        if binding.category == "time_phrase":
            constraint = resolve_time(value.prep, value.year)
            values.append((constraint.year, constraint.relation))
        elif binding.category == "book":
            values.append(value.title)
        else:
            values.append(value)
    assert values == ["A", "có", "viết", "B", (2008, "in"), "không"]
    surfaces = [b.surface for b in first.bindings]
    assert surfaces == ["tác giả a", "có", "viết", "sách b",
                        "vào năm 2008", "không"]
    best = min(elapsed, *(_timed_parse(S1, grammar, lexicon) for _ in range(4)))
    assert best < 0.010, f"parse took {best * 1000:.2f} ms"
    print(f"PASS criterion 1: golden S1 syntax ({best * 1000:.2f} ms)")


def _timed_parse(query, grammar, lexicon):
    started = time.perf_counter()
    parse(query, grammar, lexicon)
    return time.perf_counter() - started


def test_criterion_02_golden_s1_semantics(grammar, lexicon):
    sem = transform(parse(S1, grammar, lexicon)[0])
    skeleton = render_skeleton(sem)
    assert skeleton == "(verb_write? ((author, rel_sub), (book, rel_obj), (APT, rel_time2)))"
    print("PASS criterion 2: golden S1 semantics")


def test_criterion_03_golden_s2(grammar, lexicon):
    sem = transform(parse(S2, grammar, lexicon)[0])
    skeleton = render_skeleton(sem)
    assert skeleton == "(verb_publish ((publisher?, rel_sub), (book, rel_obj), (APT, rel_time2)))"
    print("PASS criterion 3: golden S2 semantics")


def test_criterion_04_grammar_completeness(grammar, lexicon):
    assert len(grammar) == 57
    assert len(dict.fromkeys(r.family for r in grammar)) == 19
    assert validate(grammar, lexicon) == []
    print("PASS criterion 4: 57 rules, 19 families, zero diagnostics")


def test_criterion_05_round_trip_via_batch(grammar, lexicon, corpus, tmp_path, capsys):
    batch_file = tmp_path / "corpus.txt"
    batch_file.write_text("\n".join(s for _, s in corpus) + "\n", encoding="utf-8")
    started = time.perf_counter()
    code = main(["batch", str(batch_file)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "285/285"
    assert code == 0
    assert elapsed < 5.0, f"batch took {elapsed:.2f} s"
    # the source rule itself must be among each sentence's accepted rules
    for rule_id, sentence in corpus:
        accepted = [r.rule_id for r in parse(sentence, grammar, lexicon)]
        assert rule_id in accepted, f"{rule_id}: {sentence!r}"
    with capsys.disabled():
        print(f"\nPASS criterion 5: 285/285 round trip via batch ({elapsed:.2f} s)")


def _expected_skeleton(family, source):
    """Instantiate the stored family skeleton for one parse: drop absent
    optional arguments, repeat multi-book slots, resolve generic rel_time."""
    skeleton = FAMILY_SKELETONS[family]
    books = [b for b in source.bindings if b.category == "book"]
    if len(books) > 1:
        skeleton = skeleton.replace(
            "(book, rel_obj)", ", ".join(["(book, rel_obj)"] * len(books)))
    times = [b for b in source.bindings if b.category == "time_phrase"]
    if "[(APT, rel_time)]" in skeleton:
        if times:
            relation = _PREP_REL[times[0].value.prep]
            skeleton = skeleton.replace("[(APT, rel_time)]", f"(APT, {relation})")
        else:
            skeleton = skeleton.replace(", [(APT, rel_time)]", "")
    if "(year?, rel_time)" in skeleton:
        preps = [b.value for b in source.bindings if b.category == "prep_time"]
        relation = _PREP_REL[preps[0] if preps else "vào"]
        skeleton = skeleton.replace("(year?, rel_time)", f"(year?, {relation})")
    if "[(author, rel_obj)]" in skeleton:
        if any(b.category == "of_author" for b in source.bindings):
            skeleton = skeleton.replace("[(author, rel_obj)]", "(author, rel_obj)")
        else:
            skeleton = skeleton.replace(", [(author, rel_obj)]", "")
    if "[(publisher, rel_obj)]" in skeleton:
        if any(b.category == "by_publisher" for b in source.bindings):
            skeleton = skeleton.replace("[(publisher, rel_obj)]", "(publisher, rel_obj)")
        else:
            skeleton = skeleton.replace(", [(publisher, rel_obj)]", "")
    return skeleton


def _count_focus(node):
    total = 0
    for arg, _ in node.args:
        if arg.focus:
            total += 1
        if arg.nested is not None:
            total += _count_focus(arg.nested)
    return total


def test_criterion_06_semantic_conformance(grammar, lexicon, corpus):
    families_seen = set()
    for rule_id, sentence in corpus:
        results = parse(sentence, grammar, lexicon)
        source = next(r for r in results if r.rule_id == rule_id)
        sem = transform(source)
        assert render_skeleton(sem) == _expected_skeleton(source.family, source), sentence
        assert int(sem.focused) + _count_focus(sem) == 1, sentence
        families_seen.add(source.family)
    assert families_seen == set(FAMILY_SKELETONS)
    print("PASS criterion 6: semantic conformance on all 19 families, single focus 100%")


def test_criterion_07_time_mapping():
    assert resolve_time("trước", 2000).relation == "before"
    assert resolve_time("vào", 2000).relation == "in"
    assert resolve_time("trong", 2000).relation == "in"
    assert resolve_time("sau", 2000).relation == "after"
    print("PASS criterion 7: time preposition mapping (before/in/after)")


TOY_LEXICON = """\
what_author\tai\tai
vperfect\tđã\tđã
vpassive\tđược\tđược
verb_write\tviết\tviết
book_type\tsách\tsách
prep_time\tvào\tvào
noun_time\tnăm\tnăm
interrogative2\tkhông\tkhông
name_author\ta\tA
name_book\tb\tB
"""

_TOY_BASE_QUERIES = [
    "ai viết sách b ?",
    "ai đã viết sách b ?",
    "ai viết sách b vào năm 2001 ?",
    "sách b được ai viết ?",
    "sách a sách b được ai viết ?",
    "sách b được ai viết vào năm 2001 ?",
    "sách b đã được ai viết ?",
]


def test_criterion_08_parser_oracle_equivalence(grammar):
    toy = load_lexicon(TOY_LEXICON)
    pool = ["ai", "đã", "được", "viết", "sách", "vào", "năm",
            "không", "a", "b", "2001", "xyz", "?", ","]
    rng = random.Random(20260810)
    parsed_count = 0
    for i in range(200):
        if i % 5 < 3:
            words = [rng.choice(pool) for _ in range(rng.randint(1, 13))]
            if rng.random() < 0.7:
                words.append("?")
            query = " ".join(words[:14])
        else:
            words = rng.choice(_TOY_BASE_QUERIES).split()
            for _ in range(rng.randint(0, 2)):
                action = rng.randint(0, 2)
                at = rng.randrange(len(words))
                if action == 0 and len(words) > 1:
                    words.pop(at)
                elif action == 1:
                    words.insert(at, rng.choice(pool))
                else:
                    words[at] = rng.choice(pool)
            query = " ".join(words[:14])
        fast = parse(query, grammar, toy)
        slow = oracle_parse(query, grammar, toy)
        assert fast == slow, f"disagreement on {query!r}"
        if fast:
            parsed_count += 1
    assert parsed_count > 0
    print(f"PASS criterion 8: parser oracle agreement 200/200 ({parsed_count} parseable)")


_TITLES = ["A", "B", "C", "D", "T", "P", "Số Đỏ", "Mắt Biếc", "Chí Phèo"]
_AUTHORS = ["A", "B", "C", "D", "Nam Cao", "Tô Hoài", "Nguyễn Nhật Ánh"]
_PUBLISHERS = ["A", "B", "C", "D", "P", "Kim Đồng", "Trẻ", "Giáo Dục"]
_SUBJECTS = ["A", "B", "C", "D", "T", "Văn Học", "Lịch Sử", "Khoa Học"]
_PLACES = ["Hà Nội", "Huế", "Đà Nẵng"]


def _random_record(rng):
    return {
        "title": rng.choice(_TITLES),
        "authors": rng.sample(_AUTHORS, rng.randint(1, 2)),
        "publisher": rng.choice(_PUBLISHERS),
        "year": rng.randint(1900, 2025),
        "subject": rng.choice(_SUBJECTS),
        "place": rng.choice(_PLACES),
        "price": rng.choice([45000, 60000, 95000, 120000]),
        "currency": "VND",
    }


def _random_catalog(rng, max_records=50):
    records = [_random_record(rng) for _ in range(rng.randint(0, max_records))]
    return load_catalog(json.dumps(records))


def test_criterion_09_catalog_oracle_and_monotonicity(grammar, lexicon, corpus):
    rng = random.Random(20260811)
    for _ in range(200):
        _, sentence = rng.choice(corpus)
        sem = transform(parse(sentence, grammar, lexicon)[0])
        catalog = _random_catalog(rng)
        assert evaluate(sem, catalog) == oracle_evaluate(sem, catalog), sentence
    for _ in range(100):
        _, sentence = rng.choice(corpus)
        sem = transform(parse(sentence, grammar, lexicon)[0])
        records = [_random_record(rng) for _ in range(rng.randint(0, 30))]
        before = evaluate(sem, load_catalog(json.dumps(records)))
        records.append(_random_record(rng))
        after = evaluate(sem, load_catalog(json.dumps(records)))
        if before.kind == "boolean":
            assert not (before.value and not after.value), sentence
        elif before.kind == "entities":
            assert set(before.value) <= set(after.value), sentence
        else:
            assert after.value >= before.value, sentence
    print("PASS criterion 9: catalog oracle agreement 200/200, monotonicity 100/100")


def test_criterion_10_example_question_classification(grammar, lexicon):
    examples = [
        ("Ai đã viết cuốn sách B vào năm 2000?", "wh"),
        ("Nhà xuất bản nào đã phát hành cuốn B trong năm 2008?", "wh"),
        ("Sách B được tác giả A viết vào năm nào?", "wh"),
        ("Trong năm 2009, tác giả A có viết sách nào thuộc chủ đề T không?", "yesno"),
    ]
    for query, expected_kind in examples:
        results = parse(query, grammar, lexicon)
        assert results, f"no parse for {query!r}"
        qtype = classify(transform(results[0]))
        assert qtype.kind == expected_kind, query
    print("PASS criterion 10: four example questions parse and classify wh/wh/wh/yesno")


def test_criterion_11_public_surface(capsys):
    assert sorted(viquery.__all__) == [
        "classify", "evaluate", "format_answer", "load_catalog", "load_lexicon",
        "parse", "parse_rule_dsl", "render_skeleton", "transform",
    ]
    for name in viquery.__all__:
        assert callable(getattr(viquery, name))
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"## Library use\n.*?```python\n(.*?)```", readme, re.S)
    exec(example, {})
    assert capsys.readouterr().out.splitlines()[1] == "wh"
    print("PASS criterion 11: nine package exports, README library example runs")
