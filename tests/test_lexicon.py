import functools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import legacy_normalize, legacy_tokenize
from viquery.cli import derive_seed
from viquery.grammar import sample
from viquery.lexicon import (
    BookValue,
    LexiconEntry,
    LexiconError,
    NAME_KINDS,
    TimeValue,
    TokenGroup,
    load_lexicon,
    normalize,
    tokenize,
)
from viquery.parser import scan_constituent

S1 = "tác giả a có viết sách b vào năm 2008 không ?"


def test_normalize_s1():
    assert normalize("Tác giả A có viết sách B vào năm 2008 không?") == S1


def test_normalize_empty():
    assert normalize("") == ""


def test_normalize_collapses_whitespace():
    assert (normalize("  Ai   đã viết cuốn sách B vào năm 2000?")
            == "ai đã viết cuốn sách b vào năm 2000 ?")


def test_normalize_separates_commas():
    assert (normalize("Trong năm 2009, tác giả A có viết sách B không?")
            == "trong năm 2009 , tác giả a có viết sách b không ?")


@given(st.text(max_size=80))
def test_normalize_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


def test_load_entry_fields():
    lex = load_lexicon("vperfect\tđã\tđã\n")
    assert lex.entries == (LexiconEntry("vperfect", "đã", "đã"),)


def test_load_canonicalizes_verb_variants():
    lex = load_lexicon("verb_publish\tphát hành\txuất bản\n")
    assert lex.entries == (LexiconEntry("verb_publish", "phát hành", "xuất bản"),)


def test_load_rejects_unknown_category():
    with pytest.raises(LexiconError, match="bogus_cat"):
        load_lexicon("bogus_cat\tx\tx\n")


@pytest.mark.parametrize("category", [
    "author", "book", "time_phrase", "of_author", "by_author", "by_publisher"])
def test_load_rejects_phrase_category(category):
    # no matcher step reads one token of a phrase template's category
    with pytest.raises(LexiconError) as caught:
        load_lexicon(f"subject\tx\tx\npublisher\ty\ty\n{category}\tlê văn x\tLê Văn X\n")
    assert str(caught.value) == (f"line 3: category {category!r} is a phrase, not a "
                                 "word class; list a name under a name_* category")


def test_load_rejects_wrong_field_count():
    with pytest.raises(LexiconError, match="line 2"):
        load_lexicon("vperfect\tđã\tđã\nvperfect\tđã\n")


def test_load_rejects_empty_surface():
    with pytest.raises(LexiconError) as caught:
        load_lexicon("verb_write\t\tviết\n")
    assert str(caught.value) == "line 1: empty surface"


@pytest.mark.parametrize("canonical", ["kia", "0999", "20080", "2008a"])
def test_load_rejects_year_that_is_not_a_year(canonical):
    # a time phrase's year is read as an int, so a year entry's canonical
    # must be one the tokenizer would take for a year
    with pytest.raises(LexiconError) as caught:
        load_lexicon(f"year\tnăm nay\t2008\nyear\tkia\t{canonical}\n")
    assert str(caught.value) == f"line 2: year {canonical!r} is not a four-digit year"


def test_load_rejects_duplicates():
    with pytest.raises(LexiconError, match="duplicate"):
        load_lexicon("vperfect\tđã\tđã\nvperfect\tđã\tđã\n")


def test_tokenize_s1_categories(lexicon):
    stream = tokenize(S1, lexicon)
    spans = [(g.surface, set(g.categories)) for g in stream]
    assert spans[0][0] == "tác giả" and "creator" in spans[0][1]
    assert spans[1][0] == "a" and "name_author" in spans[1][1]
    assert spans[2][0] == "có" and "interrogative1" in spans[2][1]
    assert spans[3][0] == "viết" and spans[3][1] == {"verb_write"}
    assert spans[4][0] == "sách" and "book_type" in spans[4][1]
    assert spans[5][0] == "b" and "name_book" in spans[5][1]
    assert spans[6][0] == "vào" and spans[6][1] == {"prep_time"}
    assert spans[7][0] == "năm" and spans[7][1] == {"noun_time"}
    assert spans[8][0] == "2008" and "year" in spans[8][1]
    assert spans[9][0] == "không" and spans[9][1] == {"interrogative2"}
    assert spans[10][0] == "?" and spans[10][1] == {"punct"}


def test_tokenize_single_terminal(lexicon):
    stream = tokenize("?", lexicon)
    assert len(stream) == 1
    assert list(stream[0].categories) == ["punct"]


def test_tokenize_longest_match_wins(lexicon):
    stream = tokenize("nhà xuất bản nào đã xuất bản sách b trong năm 2009 ?", lexicon)
    first = stream[0]
    assert first.surface == "nhà xuất bản nào"
    assert set(first.categories) == {"what_publisher"}


def test_tokenize_category_tie_emits_both(lexicon):
    stream = tokenize("có", lexicon)
    cats = set(stream[0].categories)
    assert cats == {"interrogative1", "verb_have"}


def test_tokenize_partition(lexicon, corpus):
    for _, sentence in corpus[:60]:
        stream = tokenize(sentence, lexicon)
        # the surfaces rejoin to the sentence, so the spans are contiguous
        assert " ".join(g.surface for g in stream) == sentence


def test_tokenize_unknown_run_becomes_name_candidates(lexicon):
    stream = tokenize("xyzzy plugh ?", lexicon)
    run = stream[0]
    assert run.surface == "xyzzy plugh"
    assert set(run.categories) == {"name_author", "name_book", "name_publisher",
                                   "name_subject", "name_field", "name_place"}


def test_tokenize_year_candidate(lexicon):
    stream = tokenize("1984", lexicon)
    cats = set(stream[0].categories)
    assert "year" in cats and "name_book" in cats


@pytest.mark.parametrize("query, expected", [
    ("có", {"interrogative1": "có", "verb_have": "có"}),
    ("phát hành", {"verb_publish": "xuất bản"}),
    ("?", {"punct": "?"}),
    ("xyzzy plugh", dict.fromkeys(NAME_KINDS, "xyzzy plugh")),
    ("1984", {**dict.fromkeys(NAME_KINDS, "1984"), "year": "1984"}),
])
def test_tokenize_group_categories(lexicon, query, expected):
    [group] = tokenize(query, lexicon)
    assert group.categories == expected


def test_scan_author_at_start(lexicon):
    stream = tokenize(S1, lexicon)
    assert scan_constituent("author", stream, {}, 0) == (("author", "A", "tác giả a"), 2)


def test_scan_time_phrase(lexicon):
    stream = tokenize(S1, lexicon)
    assert (scan_constituent("time_phrase", stream, {}, 6)
            == (("time_phrase", TimeValue("vào", 2008), "vào năm 2008"), 9))


def test_scan_publisher_absent(lexicon):
    stream = tokenize(S1, lexicon)
    assert scan_constituent("publisher", stream, {}, 0) is None


def test_scan_book_bound(lexicon):
    stream = tokenize(S1, lexicon)
    assert scan_constituent("book", stream, {}, 4) == (("book", BookValue(title="B"), "sách b"), 6)


def test_scan_book_unbound_with_qualifier(lexicon):
    stream = tokenize("sách nào thuộc chủ đề t", lexicon)
    assert (scan_constituent("book", stream, {}, 0)
            == (("book", BookValue(subject="T"), "sách nào thuộc chủ đề t"), len(stream)))


def test_scan_consumes_at_least_one_token(lexicon, corpus):
    for _, sentence in corpus[:40]:
        stream = tokenize(sentence, lexicon)
        for at in range(len(stream)):
            for category in ("author", "book", "time_phrase", "subject", "publisher"):
                span = scan_constituent(category, stream, {}, at)
                if span is not None:
                    assert span[1] > at


@pytest.mark.parametrize("query, at, category, expected", [
    # a bare subject name after an is_of surface that absorbed the head
    ("sách nào thuộc chủ đề văn học", 3, "subject", ("Văn Học", 4)),
    ("sách nào", 0, "book", (BookValue(), 2)),
    ("sách nào thuộc ?", 0, "book", (BookValue(), 2)),
    ("cuốn sách ?", 0, "book", (BookValue(), 1)),
    ("do tác giả a", 0, "by_author", ("A", 3)),
    ("bởi nhà văn a", 0, "by_author", ("A", 3)),
    ("của tác giả a", 0, "by_author", ("A", 3)),
    ("do nhà xuất bản kim đồng", 0, "by_publisher", ("Kim Đồng", 3)),
    ("bởi nhà xuất bản trẻ", 0, "by_publisher", ("Trẻ", 3)),
    ("của nhà xuất bản p", 0, "by_publisher", ("P", 3)),
    ("trước năm ?", 0, "time_phrase", None),
])
def test_scan_template_alternatives(lexicon, query, at, category, expected):
    span = scan_constituent(category, tokenize(query, lexicon), {}, at)
    assert (None if span is None else (span[0][1], span[1])) == expected


# --- the trie front end against the legacy regex and bucket scan -------------

def _groups(stream):
    return [(g.surface, dict(g.categories), list(g.categories))
            for g in stream]


def _assert_same_front_end(text, lexicon):
    normalized = normalize(text)
    assert normalized == legacy_normalize(text)
    assert (_groups(tokenize(normalized, lexicon))
            == _groups(legacy_tokenize(normalized, lexicon)))


@functools.lru_cache(maxsize=None)
def _syllables(lexicon):
    return sorted({s for e in lexicon.entries for s in e.surface.split(" ")})


@given(text=st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_front_end_matches_legacy_on_any_text(lexicon, text):
    _assert_same_front_end(text, lexicon)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_front_end_matches_legacy_on_lexicon_syllables(lexicon, data):
    piece = st.one_of(
        st.sampled_from(_syllables(lexicon)).map(lambda s: s + " "),
        st.sampled_from(["?", ",", " ", "  ", "\t", "\n", "\u00a0"]),
        st.from_regex(r"[0-9]{4}", fullmatch=True),
    )
    text = "".join(data.draw(st.lists(piece, max_size=40)))
    _assert_same_front_end(text, lexicon)
    _assert_same_front_end(text.upper(), lexicon)


def test_front_end_matches_legacy_on_corpus(grammar, lexicon):
    sentences = [sample(rule, derive_seed(0, rule.id, i), lexicon)
                 for rule in grammar for i in range(20)]
    assert len(sentences) == 1140
    for sentence in sentences:
        _assert_same_front_end(sentence, lexicon)


def test_group_categories_are_read_only(lexicon):
    stream = tokenize("có xyzzy , 1984 ?", lexicon)
    assert len(stream) == 5
    for group in stream:
        with pytest.raises(TypeError):
            group.categories["punct"] = "x"
    assert tokenize("có", lexicon)[0].categories == {
        "interrogative1": "có", "verb_have": "có"}


def test_group_fields():
    assert TokenGroup._fields == ("surface", "categories")


def test_lexicon_surface_and_punctuation_groups_are_shared(lexicon):
    stream = tokenize("sách b và sách d ?", lexicon)
    assert [g.surface for g in stream] == ["sách", "b", "và", "sách", "d", "?"]
    assert stream[0] is stream[3]
    again = tokenize("? sách ?", lexicon)
    assert again[1] is stream[0]
    assert again[0] is again[2] is stream[5]


def test_punctuation_entries_do_not_replace_the_shared_groups():
    # "?" and "," are always groups of their own, shared by every lexicon,
    # so a surface holding one is a load error
    for line, surface in [("verb_write\tviết ?\tviết", "viết ?"), ("name_book\t?\tX", "?"),
                          ("conjunction\t, và\tvà", ", và"), ("conjunction\tvà,\tvà", "và ,")]:
        with pytest.raises(LexiconError) as caught:
            load_lexicon(f"conjunction\tvà\tvà\n{line}\n")
        assert str(caught.value) == (f'line 2: surface {surface!r} holds "?" or ",", '
                                     "which are always groups of their own")


def test_unknown_run_group_is_new_per_call(lexicon):
    # "b" is a name in the built-in lexicon, so its group is shared; an
    # unlisted name is not, while the surface before it is
    first, second = tokenize("sách xyzzy ?", lexicon), tokenize("sách xyzzy ?", lexicon)
    assert first[0] is second[0]
    assert first[1] == second[1] and first[1] is not second[1]
