import pytest

from viquery.lexicon import BookValue, TimeValue, normalize, tokenize
from viquery.parser import BlankQueryError, match_rule, parse

S1 = "Tác giả A có viết sách B vào năm 2008 không?"


def _stream(query, lexicon):
    return tokenize(normalize(query), lexicon)


def test_match_rule_s1_q13a(rule_by_id, lexicon):
    result = match_rule(_stream(S1, lexicon), rule_by_id["Q1.3a"])
    assert result is not None
    got = [(b.category, b.value) for b in result.bindings]
    assert got == [
        ("author", "A"),
        ("interrogative1", "có"),
        ("verb_write", "viết"),
        ("book", BookValue(title="B")),
        ("time_phrase", TimeValue("vào", 2008)),
        ("interrogative2", "không"),
    ]


def test_match_rule_wrong_rule_absent(rule_by_id, lexicon):
    assert match_rule(_stream(S1, lexicon), rule_by_id["Q2.1a"]) is None


def test_match_rule_passive_what_time(rule_by_id, lexicon):
    stream = _stream("sách B được tác giả A viết vào năm nào ?", lexicon)
    result = match_rule(stream, rule_by_id["Q1.4b"])
    assert result is not None
    got = [(b.category, b.value) for b in result.bindings]
    assert got == [
        ("book", BookValue(title="B")),
        ("vpassive", "được"),
        ("author", "A"),
        ("verb_write", "viết"),
        ("prep_time", "vào"),
        ("what_time", "năm nào"),
    ]


def test_parse_s1_first_rule(grammar, lexicon):
    results = parse(S1, grammar, lexicon)
    assert results and results[0].rule_id == "Q1.3a"


def test_parse_out_of_domain_is_empty(grammar, lexicon):
    assert parse("xyzzy plugh ?", grammar, lexicon) == []


def test_parse_s2(grammar, lexicon):
    results = parse("Nhà xuất bản nào đã xuất bản sách B trong năm 2009?",
                    grammar, lexicon)
    assert results[0].rule_id == "Q2.1a"
    got = [(b.category, b.value) for b in results[0].bindings]
    assert got == [
        ("what_publisher", "nhà xuất bản nào"),
        ("vperfect", "đã"),
        ("verb_publish", "xuất bản"),
        ("book", BookValue(title="B")),
        ("time_phrase", TimeValue("trong", 2009)),
    ]


@pytest.mark.parametrize("query", ["", "   ", "\t"])
def test_parse_blank_raises(grammar, lexicon, query):
    with pytest.raises(BlankQueryError):
        parse(query, grammar, lexicon)


def test_parse_deterministic(grammar, lexicon):
    first = parse(S1, grammar, lexicon)
    second = parse(S1, grammar, lexicon)
    assert first == second


def test_full_span_soundness(grammar, lexicon, corpus):
    # bound surfaces plus consumed terminals cover every syllable exactly
    for _, sentence in corpus[:80]:
        stream = tokenize(sentence, lexicon)
        total = sum(len(g.surface.split(" ")) for g in stream)
        terminals = sum(1 for g in stream if g.surface in ("?", ","))
        for result in parse(sentence, grammar, lexicon):
            bound = sum(len(b.surface.split(" ")) for b in result.bindings)
            assert bound + terminals == total


def test_constituents_projection(grammar, lexicon):
    results = parse(S1, grammar, lexicon)
    listed = [(b.category, b.surface, b.value) for b in results[0].bindings]
    assert len(listed) == len(results[0].bindings) == 6
    assert listed[0] == ("author", "tác giả a", "A")


def test_repeated_books_get_ordinals(grammar, lexicon):
    results = parse("Ai đã viết sách B và sách C?", grammar, lexicon)
    assert results
    books = [b for b in results[0].bindings if b.category == "book"]
    assert [b.ordinal for b in books] == [0, 1]
    assert [b.value.title for b in books] == ["B", "C"]


def test_trailing_interrogative_binds(grammar, lexicon):
    # "không" must bind interrogative2 rather than strand
    results = parse("Tác giả A viết sách B không?", grammar, lexicon)
    assert results and results[0].rule_id == "Q1.3a"
    cats = [b.category for b in results[0].bindings]
    assert "interrogative2" in cats
