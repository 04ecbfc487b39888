import dataclasses
import random

import pytest

from oracles import FAMILY_SKELETONS, legacy_transform
from viquery.grammar import parse_rule_dsl
from viquery.parser import ConstituentBinding, ParseResult, parse
from viquery.semantics import (
    FAMILIES,
    Argument,
    SemanticNode,
    TimeConstraint,
    TransformError,
    check_families,
    classify,
    render_full,
    render_skeleton,
    resolve_time,
    transform,
)

S1 = "Tác giả A có viết sách B vào năm 2008 không?"
S2 = "Nhà xuất bản nào đã xuất bản sách B trong năm 2009?"


def _sem(query, grammar, lexicon):
    results = parse(query, grammar, lexicon)
    assert results, f"no parse for {query!r}"
    return transform(results[0])


def test_s1_semantics(grammar, lexicon):
    sem = _sem(S1, grammar, lexicon)
    assert sem.predicate == "verb_write" and sem.focused
    assert render_skeleton(sem) == \
        "(verb_write? ((author, rel_sub), (book, rel_obj), (APT, rel_time2)))"
    assert render_full(sem) == \
        '(verb_write? ((author="A", rel_sub), (book="B", rel_obj), (year=2008, rel_time2)))'


def test_s2_semantics(grammar, lexicon):
    sem = _sem(S2, grammar, lexicon)
    assert not sem.focused
    assert render_skeleton(sem) == \
        "(verb_publish ((publisher?, rel_sub), (book, rel_obj), (APT, rel_time2)))"
    assert render_full(sem) == \
        '(verb_publish ((publisher?, rel_sub), (book="B", rel_obj), (year=2009, rel_time2)))'


def test_q13_without_time_omits_relation(grammar, lexicon):
    sem = _sem("Tác giả A có viết sách B không?", grammar, lexicon)
    assert render_skeleton(sem) == \
        "(verb_write? ((author, rel_sub), (book, rel_obj)))"


def test_resolve_time_mapping():
    assert resolve_time("vào", 2008) == TimeConstraint(2008, "in")
    assert resolve_time("trong", 2009) == TimeConstraint(2009, "in")
    assert resolve_time("trước", 2000) == TimeConstraint(2000, "before")
    assert resolve_time("sau", 1999) == TimeConstraint(1999, "after")


def test_resolve_time_unknown_prep():
    with pytest.raises(TransformError, match="giữa"):
        resolve_time("giữa", 2000)


def test_classify_s1_yesno(grammar, lexicon):
    qtype = classify(_sem(S1, grammar, lexicon))
    assert qtype.kind == "yesno" and qtype.focus_path == ()


def test_classify_s2_wh_subject_slot(grammar, lexicon):
    qtype = classify(_sem(S2, grammar, lexicon))
    assert qtype.kind == "wh" and qtype.focus_path == (0,)


def test_classify_q14_wh_time(grammar, lexicon):
    sem = _sem("Sách B được tác giả A viết vào năm nào?", grammar, lexicon)
    qtype = classify(sem)
    assert qtype.kind == "wh"
    focused = sem.args[qtype.focus_path[0]][0]
    assert focused.kind == "time" and focused.time.year is None


def test_classify_nested_focus_path(grammar, lexicon):
    sem = _sem("những cuốn sách có chủ đề T của tác giả A là gì?", grammar, lexicon)
    qtype = classify(sem)
    assert qtype.kind == "wh" and len(qtype.focus_path) == 2


def test_nested_possessive_structure(grammar, lexicon):
    sem = _sem("Có phải người viết của sách B là tác giả A không?", grammar, lexicon)
    assert sem.predicate == "verb_be" and sem.focused
    assert render_skeleton(sem) == (
        "(verb_be? ((author, rel_sub), "
        "((verb_possessive ((author, rel_sub), (book, rel_obj))), rel_obj)))"
    )
    assert 'author="A"' in render_full(sem)


def test_two_books_render_two_pairs(grammar, lexicon):
    sem = _sem("Ai đã viết sách B và sách C?", grammar, lexicon)
    assert render_full(sem).count("rel_obj") == 2
    assert '(book="B", rel_obj), (book="C", rel_obj)' in render_full(sem)


def test_interrogative_erasure(grammar, lexicon, corpus):
    banned = ("interrogative", "vperfect", "vpassive", "plural", "conjunction")
    for rule_id, sentence in corpus:
        results = parse(sentence, grammar, lexicon)
        source = next(r for r in results if r.rule_id == rule_id)
        rendering = render_full(transform(source))
        assert not any(word in rendering for word in banned), rendering


def test_single_focus_everywhere(grammar, lexicon, corpus):
    for rule_id, sentence in corpus:
        results = parse(sentence, grammar, lexicon)
        source = next(r for r in results if r.rule_id == rule_id)
        sem = transform(source)

        def count_focus(node):
            total = 0
            for arg, _ in node.args:
                if arg.focus:
                    total += 1
                if arg.nested is not None:
                    total += count_focus(arg.nested)
            return total

        assert int(sem.focused) + count_focus(sem) == 1, sentence


def test_unregistered_family_rejected(grammar, lexicon):
    result = parse(S1, grammar, lexicon)[0]
    with pytest.raises(TransformError, match="Q9.9"):
        transform(result._replace(family="Q9.9"))


def test_missing_mandatory_constituent_rejected():
    # the library path: a parse built by hand, with no check_families run
    author = ConstituentBinding("author", "A", "tác giả a", 0)
    with pytest.raises(TransformError) as caught:
        transform(ParseResult("Q1.3a", "Q1.3", (author,)))
    assert str(caught.value) == "Q1.3a: missing mandatory constituent <book>"


def test_classify_without_focus_rejected():
    with pytest.raises(TransformError) as caught:
        classify(SemanticNode("verb_write", False, ()))
    assert str(caught.value) == "no focused element in semantic tree"


def test_semantic_tree_classes_stay_dataclasses():
    # perfbench/reference.py and tests/oracles.py copy trees with
    # dataclasses.replace, so these two must not become NamedTuples
    assert dataclasses.is_dataclass(SemanticNode)
    assert dataclasses.is_dataclass(Argument)


def test_family_tables_cover_all_families(grammar):
    families = set(dict.fromkeys(r.family for r in grammar))
    assert set(FAMILIES) == families
    assert set(FAMILY_SKELETONS) == families


def test_family_check_lists_every_bad_rule():
    grammar = parse_rule_dsl(
        '<Q9.1a> = <what_author> <verb_write> <book> "?"\n'
        '<Q1.3z> = [<author>] <verb_write> <book> "?"\n'
        '<Q1.1z> = <what_author> <verb_write> {<book>} "?"\n'
        '<Q1.2z> = <creator> <book> <verb_be> <author> "?"\n'
        # Q1.2 reads <book> in its nested verb_possessive node
        '<Q1.2y> = <author> <verb_be> <creator> [<book>] "?"\n'
    )
    with pytest.raises(TransformError) as caught:
        check_families(grammar)
    problems = str(caught.value).split("; ")
    assert problems[0] == "Q9.1a: unregistered family 'Q9.1'"
    assert [p.split(":")[0] for p in problems] == ["Q9.1a", "Q1.3z", "Q1.1z", "Q1.2y"]
    assert "<author>" in problems[1]
    assert "<book>" in problems[2] and "<book>" in problems[3]


def _mutations(sentences):
    """One single-word drop, duplicate and swap of every sentence, at
    positions drawn from a fixed seed."""
    rng = random.Random(0)
    for sentence in sentences:
        words = sentence.split(" ")
        at = rng.randrange(len(words))
        yield " ".join(words[:at] + words[at + 1:]) or "?"
        yield " ".join(words[:at + 1] + words[at:])
        at = rng.randrange(len(words))
        yield " ".join(words[:at] + words[at + 1:at + 2] + words[at:at + 1] + words[at + 2:])


#: ``generate`` realizes no subject-qualified book ("sách nào thuộc chủ đề T")
SUBJECT_QUALIFIED = (
    "Trong năm 2009, tác giả A có viết sách nào thuộc chủ đề T không?",
    "Ai đã viết sách nào thuộc chủ đề T?",
    "Có phải người viết của sách nào thuộc chủ đề T là tác giả A không?",
    "sách nào thuộc chủ đề T thuộc chủ đề gì?",
    "sách nào thuộc chủ đề T được xuất bản ở đâu?",
    "mua sách nào thuộc chủ đề T giá bao nhiêu?",
    "có bao nhiêu sách nào thuộc chủ đề T trong thư viện?",
)


def test_transform_matches_legacy_builders(grammar, lexicon, generated):
    queries = generated + list(_mutations(generated)) + list(SUBJECT_QUALIFIED)
    compared = 0
    for query in queries:
        for result in parse(query, grammar, lexicon):
            assert transform(result) == legacy_transform(result), (query, result.rule_id)
            compared += 1
    assert compared > len(generated)


def test_wh_label_correspondence(grammar, lexicon, corpus):
    wh_markers = {"what_author", "what_publisher", "what_time", "what_subject",
                  "what_place", "how_many"}
    for rule_id, sentence in corpus:
        results = parse(sentence, grammar, lexicon)
        source = next(r for r in results if r.rule_id == rule_id)
        qtype = classify(transform(source))
        cats = {b.category for b in source.bindings}
        if cats & wh_markers:
            assert qtype.kind == "wh", sentence
        if source.family in ("Q1.3", "Q2.2", "Q3.2"):
            assert qtype.kind == "yesno", sentence
