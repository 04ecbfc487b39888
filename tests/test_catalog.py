import gc
import json

import pytest

from oracles import oracle_evaluate
from viquery.catalog import (
    Answer,
    CatalogError,
    EvaluationError,
    evaluate,
    format_answer,
    load_catalog,
)
from viquery.parser import parse
from viquery.semantics import (Argument, QuestionType, SemanticNode, TimeConstraint, classify,
                               transform)


def _record(title="B", authors=("A",), publisher="P", year=2008,
            subject="T", place="Hà Nội", price=95000, currency="VND"):
    return {
        "title": title, "authors": list(authors), "publisher": publisher,
        "year": year, "subject": subject, "place": place,
        "price": price, "currency": currency,
    }


def _catalog(*records):
    return load_catalog(json.dumps(list(records)))


def _sem(query, grammar, lexicon):
    return transform(parse(query, grammar, lexicon)[0])


def test_load_counts():
    catalog = _catalog(_record(), _record(title="C"), _record(title="D"))
    assert len(catalog) == 3


def test_load_empty():
    assert len(_catalog()) == 0


def test_load_missing_title_indexed():
    bad = _record()
    del bad["title"]
    with pytest.raises(CatalogError, match="record 1"):
        _catalog(_record(), bad)


@pytest.mark.parametrize("field", ["publisher", "subject", "place", "currency"])
def test_load_rejects_non_string_field(field):
    with pytest.raises(CatalogError, match=f"record 1: {field} must be a string"):
        _catalog(_record(), _record(**{field: 5}))


@pytest.mark.parametrize("field", ["publisher", "subject", "place"])
def test_load_rejects_empty_field(field):
    for value in ("", " \t"):
        with pytest.raises(CatalogError, match=f"^record 1: {field} must not be empty$"):
            _catalog(_record(), _record(**{field: value}))
    assert _catalog(_record(currency=""))[0].currency == ""  # format_price strips it


def test_load_rejects_bad_year():
    with pytest.raises(CatalogError, match="year"):
        _catalog(_record(year=99))


@pytest.mark.parametrize("price", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
def test_load_rejects_unrepresentable_price(price):
    with pytest.raises(CatalogError, match="record 0: price must be a non-negative number"):
        _catalog(_record(price=price))


def test_load_rejects_over_deep_json():
    with pytest.raises(CatalogError, match="invalid JSON"):
        load_catalog("[" * 100_000)


@pytest.mark.parametrize("text, message", [
    ("{}", "top level must be an array of records"),
    ("[1]", "record 0: not an object"),
    (json.dumps([_record(title="")]), "record 0: title must be a non-empty string"),
    (json.dumps([_record(title=" ")]), "record 0: title must be a non-empty string"),
    (json.dumps([_record(authors=("A", "  "))]), "record 0: authors must be a non-empty list"),
])
def test_load_rejects_malformed_document(text, message):
    with pytest.raises(CatalogError) as caught:
        load_catalog(text)
    assert str(caught.value) == message


def test_load_rejects_empty_authors():
    with pytest.raises(CatalogError, match="authors"):
        _catalog(_record(authors=()))


def test_yes_no_true(grammar, lexicon):
    sem = _sem("Tác giả A có viết sách B vào năm 2008 không?", grammar, lexicon)
    answer = evaluate(sem, _catalog(_record()))
    assert answer == Answer("boolean", True)


def test_yes_no_false_on_year_mismatch(grammar, lexicon):
    sem = _sem("Tác giả A có viết sách B vào năm 2009 không?", grammar, lexicon)
    assert evaluate(sem, _catalog(_record())).value is False


@pytest.mark.parametrize("query, reply", [
    # a yes/no question holds only if each of its one-book readings does
    ("Tác giả A có viết sách B và sách C không?", "Có."),
    ("Tác giả A có viết sách B và sách Số Đỏ không?", "Không."),
    # a wh-question still puts every book on one record
    ("Ai đã viết sách B và sách C?", "Không tìm thấy."),
])
def test_several_books_on_sample_catalog(grammar, lexicon, catalog, query, reply):
    sem = _sem(query, grammar, lexicon)
    assert format_answer(evaluate(sem, catalog), classify(sem)) == reply


@pytest.mark.parametrize("query, holds", [
    ("Tác giả A có viết sách B và sách C không?", True),
    ("Tác giả A có viết sách B và sách Số Đỏ không?", False),
])
def test_oracle_agrees_on_several_books(grammar, lexicon, catalog, query, holds):
    sem = _sem(query, grammar, lexicon)
    assert evaluate(sem, catalog) == Answer("boolean", holds)
    assert oracle_evaluate(sem, catalog) == Answer("boolean", holds)


def test_wh_publisher_set(grammar, lexicon):
    sem = _sem("Nhà xuất bản nào đã xuất bản sách B trong năm 2009?", grammar, lexicon)
    catalog = _catalog(_record(year=2009), _record(title="C", publisher="Q", year=2009))
    assert evaluate(sem, catalog) == Answer("entities", ("P",))


def test_empty_catalog_answers(grammar, lexicon):
    empty = _catalog()
    yes_no = _sem("Tác giả A có viết sách B không?", grammar, lexicon)
    which = _sem("Ai đã viết sách B?", grammar, lexicon)
    count = _sem("Tác giả A đã viết bao nhiêu sách?", grammar, lexicon)
    assert evaluate(yes_no, empty).value is False
    assert evaluate(which, empty).value == ()
    assert evaluate(count, empty).value == 0


def test_count_books_in_library(grammar, lexicon):
    sem = _sem("có bao nhiêu sách trong thư viện?", grammar, lexicon)
    catalog = _catalog(_record(), _record(title="C"), _record(title="D"))
    assert evaluate(sem, catalog) == Answer("count", 3)


def test_year_comparisons(grammar, lexicon):
    catalog = _catalog(_record(year=1999), _record(title="C", year=2005))
    before = _sem("Tác giả A có viết sách B trước năm 2000 không?", grammar, lexicon)
    after = _sem("Tác giả A có viết sách B sau năm 2000 không?", grammar, lexicon)
    assert evaluate(before, catalog).value is True
    assert evaluate(after, catalog).value is False


def test_nested_subject_filter(grammar, lexicon):
    sem = _sem("Trong năm 2009, tác giả A có viết sách nào thuộc chủ đề T không?",
               grammar, lexicon)
    hit = _catalog(_record(title="C", year=2009))
    miss = _catalog(_record(title="C", year=2009, subject="Văn Học"))
    assert evaluate(sem, hit).value is True
    assert evaluate(sem, miss).value is False


def test_price_question(grammar, lexicon):
    sem = _sem("giá của sách B là bao nhiêu?", grammar, lexicon)
    assert evaluate(sem, _catalog(_record())) == Answer("entities", ("95000 VND",))


def test_place_question(grammar, lexicon):
    sem = _sem("sách B được xuất bản ở đâu?", grammar, lexicon)
    assert evaluate(sem, _catalog(_record())) == Answer("entities", ("Hà Nội",))


def test_format_answer_lines():
    yes = QuestionType("yesno", ())
    wh = QuestionType("wh", (0,))
    assert format_answer(Answer("boolean", True), yes) == "Có."
    assert format_answer(Answer("boolean", False), yes) == "Không."
    assert format_answer(Answer("entities", ()), wh) == "Không tìm thấy."
    assert format_answer(Answer("entities", ("P", "Q")), wh) == "P, Q"
    assert format_answer(Answer("count", 3), wh) == "3"


def test_format_answer_kind_mismatch():
    with pytest.raises(EvaluationError):
        format_answer(Answer("boolean", True), QuestionType("wh", (0,)))
    with pytest.raises(EvaluationError, match="^entities answer for a yes/no question$"):
        format_answer(Answer("entities", ()), QuestionType("yesno", ()))
    for qtype in (QuestionType("wh", (0,)), QuestionType("yesno", ())):
        with pytest.raises(EvaluationError, match="^unknown answer kind 'bogus'$"):
            format_answer(Answer("bogus", 5), qtype)


@pytest.mark.parametrize("answer, qtype, message", [
    (Answer("entities", 5), QuestionType("wh", (0,)),
     "entities answer value 5 is not a tuple of str"),
    (Answer("entities", ("a", 1)), QuestionType("wh", (0,)),
     "entities answer value ('a', 1) is not a tuple of str"),
    (Answer("count", None), QuestionType("wh", (0,)), "count answer value None is not an int"),
    (Answer("count", True), QuestionType("wh", (0,)), "count answer value True is not an int"),
    (Answer("boolean", "no"), QuestionType("yesno", ()),
     "boolean answer value 'no' is not a bool"),
])
def test_format_answer_value_mismatch(answer, qtype, message):
    # a hand-built answer of a known kind whose value does not have its shape
    with pytest.raises(EvaluationError) as caught:
        format_answer(answer, qtype)
    assert str(caught.value) == message


#: a focused nested argument whose node holds a focused argument too
_FOCUSED_NESTED = Argument("nested", focus=True, nested=SemanticNode(
    "is_of", False, ((Argument("entity", "book", focus=True), "rel_sub"),)))


@pytest.mark.parametrize("args, message", [
    # a bound role that no record field holds
    (((Argument("entity", "isbn", "X"), "rel_obj"),
      (Argument("entity", "author", focus=True), "rel_sub")), "role 'isbn' has no record field"),
    # a wh tree with no focused element
    (((Argument("entity", "author", "A"), "rel_sub"),), "no focused element to answer"),
    # a focused role that no record field holds
    (((Argument("entity", "isbn", focus=True), "rel_obj"),),
     "focused role 'isbn' has no record field"),
    # a yes/no tree with a bound role that no record field holds
    (SemanticNode("write", True, ((Argument("entity", "isbn", "X"), "rel_obj"),)),
     "role 'isbn' has no record field"),
    # a year relation that no year test reads, in a wh and a yes/no tree
    (((Argument("time", time=TimeConstraint(2008, "during")), "rel_time2"),
      (Argument("entity", "author", focus=True), "rel_sub")),
     "time relation 'during' has no year test"),
    (SemanticNode("write", True, ((Argument("time", time=TimeConstraint(2008, "during")),
                                   "rel_time2"),)),
     "time relation 'during' has no year test"),
    # a focused nested argument, which is the focus even over a focus inside it
    (((_FOCUSED_NESTED, "rel_obj"),), "focused role None has no record field"),
])
def test_evaluate_rejects_hand_built_tree(args, message):
    tree = args if type(args) is SemanticNode else SemanticNode("write", False, args)
    if tree.args[0][0] is _FOCUSED_NESTED:  # classify finds the same focus
        assert classify(tree) == QuestionType("wh", (0,))
    # the tree is checked before any record is read, so no catalog answers it
    for records in (_catalog(_record()), ()):
        with pytest.raises(EvaluationError) as caught:
            evaluate(tree, records)
        assert str(caught.value) == message


def test_answering_leaves_no_cyclic_garbage(grammar, lexicon, catalog, generated):
    # every object answering makes is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for sentence in generated:
            sem = transform(parse(sentence, grammar, lexicon)[0])
            format_answer(evaluate(sem, catalog), classify(sem))
        assert gc.collect() == 0
    finally:
        gc.enable()
