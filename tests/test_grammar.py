import gc
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from viquery.cli import data_path, derive_seed
from viquery.grammar import (
    ATOM,
    LIT,
    TOK,
    Bracket,
    GrammarError,
    _instructions,
    parse_rule_dsl,
    render_dsl,
    sample,
    validate,
)
from viquery.lexicon import (CATEGORIES, GRAMMAR_CATEGORIES, TEMPLATES, Lit, load_lexicon,
                             normalize, tokenize)
from viquery.parser import parse
from viquery.semantics import FAMILIES, TransformError, check_families

Q11A = ('<Q1.1a> = <what_author> [<vperfect>] [<interrogative1>] <verb_write> '
        '<book> {[<conjunction>] <book>} [<time_phrase>] "?"')


def test_parse_single_rule_shape():
    [rule] = parse_rule_dsl(Q11A)
    assert rule.id == "Q1.1a" and rule.family == "Q1.1"
    expected = (
        "what_author",
        Bracket("[", ("vperfect",)),
        Bracket("[", ("interrogative1",)),
        "verb_write",
        "book",
        Bracket("{", (Bracket("[", ("conjunction",)), "book")),
        Bracket("[", ("time_phrase",)),
        Lit("?"),
    )
    assert rule.terms == expected and repr(rule.terms) == repr(expected)


def test_literal_equal_to_a_category_value_stays_a_literal():
    # a literal and a slot share the text "book"; no step from loading to
    # the family check may confuse the two
    document = '<Q6.1z> = "book" <what_price> "?"\n<X> = "book" <book> "?"\n'
    q61z, x = parse_rule_dsl(document)
    assert repr(x.program[:2]) == repr(((LIT, "book"), (ATOM, "book")))
    assert type(x.terms[0]) is Lit and x.terms[1] is sys.intern("book")
    with pytest.raises(TransformError) as caught:
        check_families((q61z,))
    assert str(caught.value) == "Q6.1z: family Q6.1 needs <book> outside [...] and {...}"
    assert render_dsl((q61z, x)) == document


def test_unbalanced_brackets_rejected():
    with pytest.raises(GrammarError, match="line 1"):
        parse_rule_dsl('<X> = [<book> "?"')


def test_unknown_category_rejected():
    with pytest.raises(GrammarError, match="no_such_cat"):
        parse_rule_dsl('<X> = <no_such_cat> "?"')


def test_duplicate_rule_id_rejected():
    with pytest.raises(GrammarError, match="duplicate"):
        parse_rule_dsl('<X> = <book> "?"\n<X> = <book> "?"')


def test_missing_equals_rejected():
    with pytest.raises(GrammarError, match="line 1"):
        parse_rule_dsl('<X> <book> "?"')


@pytest.mark.parametrize("document, message", [
    ('<X> = [<book> "?"', "line 1: unbalanced '['"),
    ('<X> = [<book>} "?"', "line 1: unbalanced '}'"),
    ('<X> = <book>] "?"', "line 1: unbalanced ']'"),
    ('<X> = {} "?"', "line 1: empty {}"),
    ('<X> = <nope> "?"', "line 1: unknown category <nope>"),
    ('<X> <book> "?"', "line 1: expected '<ID> = BODY'"),
    ('<X> = <book> "?"\n<X> = foo', "line 2: duplicate rule id X"),
    ("# note\n<X> =", "line 2: empty rule body"),
    ('<X> = <book> foo "?"', "line 1: unexpected 'foo'"),
    ("<X> = <nope> foo", "line 1: unknown category <nope>"),  # first error in the line
    # a literal is compared with normalized token groups: these never match
    ('<X> = <what_author> <verb_write> "Sách" <book> "?"',
     'line 1: literal "Sách" is not a normalized surface'),
    ('<X> = <book> "" "?"', 'line 1: literal "" is not a normalized surface'),
    ('<X> = <book> "a?"', 'line 1: literal "a?" is not a normalized surface'),
])
def test_malformed_line_messages(document, message):
    with pytest.raises(GrammarError) as info:
        parse_rule_dsl(document)
    assert str(info.value) == message


def test_bracket_nesting_capped():
    deep = '<X> = ' + '[' * 5000 + '<book>' + ']' * 5000 + ' "?"'
    with pytest.raises(GrammarError, match="line 1: brackets nested deeper than 32"):
        parse_rule_dsl(deep)
    with pytest.raises(GrammarError, match="nested deeper than 32"):
        parse_rule_dsl('<X> = ' + '{' * 33 + '<book>' + '}' * 33)
    at_cap = parse_rule_dsl('<X> = ' + '[' * 32 + '<book>' + ']' * 32 + ' "?"')
    # a SPLIT per level, the <book> slot, "?", MATCH
    assert len(at_cap[0].program) == 32 + 1 + 2


_DSL_PIECES = st.sampled_from(
    ["<book>", "<what_author>", "<nope>", '"?"', '","', "[", "]", "{", "}", "foo",
     " ", "\n", "\t"])


@given(st.one_of(st.lists(_DSL_PIECES, max_size=30).map("".join), st.text(max_size=60)),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_grammar_loader_is_total(body, prefixed):
    document = "<X> = " + body if prefixed else body
    try:
        grammar = parse_rule_dsl(document)
    except GrammarError:
        return
    assert parse_rule_dsl(render_dsl(grammar)) == grammar


def test_builtin_grammar_counts(grammar):
    assert len(grammar) == 57
    families = list(dict.fromkeys(r.family for r in grammar))
    assert len(families) == 19
    assert families == [
        "Q1.1", "Q1.2", "Q1.3", "Q1.4", "Q2.1", "Q2.2", "Q2.3",
        "Q3.1", "Q3.2", "Q3.3", "Q3.4", "Q4.1", "Q4.2",
        "Q5.1", "Q5.2", "Q6.1", "Q7.1", "Q7.2", "Q7.3",
    ]


def test_builtin_grammar_validates_against_seed_lexicon(grammar, lexicon):
    assert validate(grammar, lexicon) == []


def test_validate_reports_unrealizable_category(grammar):
    tiny = load_lexicon("verb_write\tviết\tviết\n")
    diagnostics = validate(parse_rule_dsl('<X> = <plural> <book> "?"'), tiny)
    # once each, in the order a walk through <book>'s program meets them;
    # name_book and name_subject need no entry: unknown runs have them
    assert diagnostics == ["X: category <plural> has no lexicon entries",
                           "X: category <book_type> has no lexicon entries",
                           "X: category <is_of> has no lexicon entries",
                           "X: category <subject> has no lexicon entries",
                           "X: unregistered family 'X'"]


def test_validate_reports_category_read_inside_a_template(grammar):
    lines = data_path("lexicon_v1.tsv").read_text(encoding="utf-8").splitlines()
    lexicon = load_lexicon("\n".join(line for line in lines
                                      if not line.startswith("noun_time\t")))
    # every rule with a time phrase needs "năm"; none of them says noun_time
    with_time = [rule.id for rule in grammar if "<time_phrase>" in render_dsl((rule,))]
    assert len(with_time) == 44
    assert validate(grammar, lexicon) == [
        f"{rule_id}: category <noun_time> has no lexicon entries" for rule_id in with_time]


def test_validate_reports_family_problems(lexicon):
    assert (validate(parse_rule_dsl('<Q9.1a> = <book> "?"'), lexicon)
            == ["Q9.1a: unregistered family 'Q9.1'"])
    grammar = parse_rule_dsl('<Q1.3z> = [<author>] <verb_write> <book> "?"\n'
                             '<Q1.1z> = <what_author> <verb_write> {<book>} "?"')
    with pytest.raises(TransformError) as caught:
        check_families(grammar)
    problems = validate(grammar, lexicon)
    assert len(problems) == 2 and problems == str(caught.value).split("; ")


def test_validate_reports_literal_of_several_token_groups(lexicon, toy_rules):
    # "sách" is a book head and "b" an unknown run: LIT reads one group, so
    # the rule loads but can never match
    grammar = parse_rule_dsl('<Q1.1z> = <what_author> <verb_write> "sách b" <book> "?"')
    assert validate(grammar, lexicon) == ['Q1.1z: literal "sách b" is not one token group']
    # the literals of the toy rules, like the built-in ones, are one group each
    assert validate(parse_rule_dsl(toy_rules.read_text(encoding="utf-8")), lexicon) == []


def test_validate_reports_missing_terminator(lexicon):
    diagnostics = validate(parse_rule_dsl("<X> = <plural>"), lexicon)
    assert any('"?"' in d for d in diagnostics)


def test_validate_empty_grammar(lexicon):
    assert validate(parse_rule_dsl(""), lexicon) == []


def test_dsl_round_trip(grammar):
    rendered = render_dsl(grammar)
    assert parse_rule_dsl(rendered) == grammar


def test_sample_deterministic(rule_by_id, lexicon):
    a = sample(rule_by_id["Q1.1a"], 123, lexicon)
    b = sample(rule_by_id["Q1.1a"], 123, lexicon)
    assert a == b


def test_sample_varies_with_seed(rule_by_id, lexicon):
    sentences = {sample(rule_by_id["Q1.3a"], seed, lexicon) for seed in range(20)}
    assert len(sentences) > 5


def test_sample_mandatory_skeleton(rule_by_id, lexicon):
    for seed in range(10):
        sentence = sample(rule_by_id["Q1.3a"], seed, lexicon)
        words = sentence.split()
        assert words[-1] == "?"
        assert any(w in sentence.split() for w in ("viết", "tác", "sáng"))


def test_sample_unrealizable_category():
    [rule] = parse_rule_dsl('<X> = <plural> "?"')
    tiny = load_lexicon("verb_write\tviết\tviết\n")
    with pytest.raises(GrammarError, match="plural"):
        sample(rule, 1, tiny)


def test_sample_at_most_one_time_phrase(rule_by_id, lexicon):
    # Q1.3a offers a fronted and a trailing optional time slot
    for seed in range(40):
        sentence = sample(rule_by_id["Q1.3a"], seed, lexicon)
        preps = sum(sentence.split().count(p) for p in ("vào", "trước", "sau"))
        in_count = sentence.split().count("trong")
        assert preps + in_count <= 1


def test_sampling_leaves_no_cyclic_garbage(grammar, lexicon):
    # every object sampling the ``generate all 20`` corpus makes is freed by
    # reference counting alone, and no function is defined per call
    gc.collect()
    gc.disable()
    try:
        for rule in grammar:
            for i in range(20):
                sample(rule, derive_seed(0, rule.id, i), lexicon)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert not any(isinstance(c, types.CodeType) for c in sample.__code__.co_consts)


def test_every_category_reachable(grammar):
    seen: set[str] = set()

    def walk(terms):
        for term in terms:
            if type(term) is str:
                seen.add(term)
            elif type(term) is Bracket:
                walk(term.body)

    for rule in grammar:
        walk(rule.terms)
    expected = {c for c in CATEGORIES if c.startswith(("what_", "verb_", "interrogative"))}
    assert expected <= seen


def _named(parts):
    """The categories that template parts name: slots, and the categories
    of tuple parts."""
    for part in parts:
        if type(part) is str:
            yield part
        elif type(part) is tuple:
            yield from part


def _sources(node):
    """The categories that a FAMILIES node's slots read, nested nodes too."""
    for kind, _role, _relation, source in node[2]:
        if kind == "node":
            yield from _sources(source)
        elif source is not None:
            yield source


def test_tables_name_only_known_categories():
    # a category is a plain str, so a misspelt name in a table is caught here
    assert TEMPLATES.keys() <= GRAMMAR_CATEGORIES
    named = {c for alternatives in TEMPLATES.values()
             for parts, _builder in alternatives for c in _named(parts)}
    assert named and named <= CATEGORIES
    sources = {c for node in FAMILIES.values() for c in _sources(node)}
    assert sources and sources <= CATEGORIES


def _assert_inventory_objects(grammar, lexicon, queries):
    """Every category that loaded data or a parse holds is the inventory's
    own object, so lookups by it hit by identity."""
    own = {c: c for c in CATEGORIES}
    held = [arg for rule in grammar for op, arg in _instructions(rule.program)
            if op in (TOK, ATOM)]
    held += [entry.category for entry in lexicon.entries]
    books = []
    for text in [entry.surface for entry in lexicon.entries] + queries:
        for group in tokenize(normalize(text), lexicon):
            held += group.categories
    for query in queries:
        for result in parse(query, grammar, lexicon):
            held += [b.category for b in result.bindings]
            books += [b for b in result.bindings if b.category == "book"]
    assert books and all(own[c] is c for c in held)


def test_loaded_categories_are_the_inventory_objects(grammar, lexicon, corpus):
    _assert_inventory_objects(grammar, lexicon, [sentence for _, sentence in corpus])


def test_categories_read_from_files_are_the_inventory_objects(tmp_path):
    # names read from a file are new strings until the loaders intern them
    rules, words = tmp_path / "rules.bnf", tmp_path / "lexicon.tsv"
    rules.write_text('<Q1.1a> = <what_author> <verb_write> <book> "?"\n'
                     '<X> = "book" <book> [<time_phrase>] "?"\n', encoding="utf-8")
    words.write_text("what_author\tai\tai\nverb_write\tviết\tviết\nbook_type\tsách\tsách\n"
                     "prep_time\tvào\tvào\nnoun_time\tnăm\tnăm\n", encoding="utf-8")
    grammar = parse_rule_dsl(rules.read_text(encoding="utf-8"))
    lexicon = load_lexicon(words.read_text(encoding="utf-8"))
    _assert_inventory_objects(grammar, lexicon,
                              ["ai viết sách b ?", "book sách b vào năm 2008 ?"])


