"""The compiled matcher: agreement with the recursive backtracker and the
template part interpreter it replaced, compiled template alternatives and
their atomicity, questions with hundreds of coordinated books, the rule
prefilter, rule-attempt, span and search counts, and how deep template
searches nest."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import legacy_parse, legacy_scan_constituent, rule_keys
from viquery import parser
from viquery.cli import main
from viquery.grammar import (ATOM, JUMP, LIT, MATCH, SPLIT, TOK, GrammarError, _instructions,
                             _template, parse_rule_dsl, sample)
from viquery.lexicon import (BUILDERS, CATEGORIES, GRAMMAR_CATEGORIES, TEMPLATES, normalize,
                             tokenize)
from viquery.parser import candidate_rules, match_rule, parse

HEADS = ("sách", "cuốn sách", "quyển", "truyện", "tiểu thuyết")
JOINS = ("và", "cùng", "cùng với", None)
#: catalogued titles alternate with runs of unknown syllables
TITLES = ("số đỏ", "lan", "chí phèo", "mây sông", "b", "gió núi trăng biển")


def _books(count: int, unknown_only: bool = False) -> str:
    words = []
    for i in range(count):
        if i and JOINS[i % len(JOINS)]:
            words.append(JOINS[i % len(JOINS)])
        title = f"x{i}" if unknown_only else TITLES[i % len(TITLES)]
        words.append(f"{HEADS[i % len(HEADS)]} {title}")
    return " ".join(words)


def _active(count: int, unknown_only: bool = False) -> str:
    return f"ai đã viết {_books(count, unknown_only)} ?"


def _passive(count: int, unknown_only: bool = False) -> str:
    return f"{_books(count, unknown_only)} đã được ai viết ?"


#: the <subject> template's alternatives, which every <subject> slot tries
SUBJECT = (
    (((TOK, "subject"), (TOK, "name_subject")), "last"),  # in order: first first
    (((TOK, "name_subject"),), "last"),   # each alternative names its builder
)
#: the <book> template's alternatives, which every <book> slot tries
BOOK = (
    (((TOK, "book_type"), (TOK, "name_book")), "title"),
    # a nested template: one step, searched the same way
    (((TOK, "book_type"), (LIT, "nào"), (TOK, "is_of"), (ATOM, "subject")), "book_of_subject"),
    (((TOK, "book_type"), (LIT, "nào")), "any_book"),
    (((TOK, "book_type"),), "any_book"),
)


def test_compile_priority_order():
    rule = parse_rule_dsl('<R> = <book> {[<conjunction>] <book>} "?"\n')[0]
    assert rule.program == (
        (ATOM, "book"),                # 0: tries BOOK
        (SPLIT, 5),                    # 1, group: one more iteration first
        (SPLIT, 2),                    # optional: present first
        (TOK, "conjunction"),          # one token: matched inline
        (ATOM, "book"),                # 4
        (JUMP, -4),                    # back to the group's SPLIT
        (LIT, "?"),
        (MATCH, None),
    )
    assert _template("book")[0] == BOOK and _template("subject")[0] == SUBJECT
    # <book> needs a book_type token in every alternative; the optional
    # <conjunction> and the group's books add nothing
    assert rule.required == {"?", "book_type"}
    # what a <book> alternative ends in: the group may be taken or not
    assert rule.last == {"name_book", "name_subject", "nào", "book_type"}


def test_compile_template_programs():
    # each slot is one step that names its template, compiled once
    rule = parse_rule_dsl('<R> = <book> <book> "?"\n')[0]
    assert rule.program == ((ATOM, "book"), (ATOM, "book"), (LIT, "?"), (MATCH, None))
    assert all(_template(c) is _template(c) for c in TEMPLATES)
    # a part of several categories: one alternative per category, in order
    assert parse_rule_dsl('<R> = <by_author> "?"\n')[0].program == (
        (ATOM, "by_author"), (LIT, "?"), (MATCH, None))
    assert _template("author")[0] == ((((TOK, "creator"), (TOK, "name_author")), "last"),)
    # its keys fold over both alternatives: each needs what <author> needs,
    # and only one of them the possessive or the agent word
    alternatives, need, last = _template("by_author")
    assert alternatives == (
        (((TOK, "possessive"), (ATOM, "author")), "last"),
        (((TOK, "agent"), (ATOM, "author")), "last"),
    )
    assert need == _template("author")[1] == {"creator", "name_author"}
    assert last == {"name_author"}
    # alternatives are straight lines: no step branches, jumps or accepts
    steps = [op for c in TEMPLATES for line, _ in _template(c)[0] for op, _ in line]
    assert set(steps) == {TOK, LIT, ATOM}
    every = parse_rule_dsl("<R> = " + " ".join(f"<{c}>" for c in TEMPLATES) + "\n")[0]
    assert {arg for op, arg in every.program if op == ATOM} == TEMPLATES.keys()
    assert {b for c in TEMPLATES for _, b in _template(c)[0]} == BUILDERS.keys()


def test_instruction_counts(grammar):
    # every instruction is an (op, arg) pair, and a template slot is one step
    lines = [steps for c in TEMPLATES for steps, _ in _template(c)[0]]
    programs = [rule.program for rule in grammar] + lines
    assert all(len(instruction) == 2 for program in programs for instruction in program)
    assert sum(len(rule.program) for rule in grammar) == 865
    assert (len(lines), sum(map(len, lines))) == (14, 29)


def test_every_token_instruction_reads_one_category(rules):
    args = [arg for rule in rules for op, arg in _instructions(rule.program) if op == TOK]
    args += [arg for c in TEMPLATES for steps, _ in _template(c)[0] for op, arg in steps
             if op == TOK]
    assert args and all(arg in CATEGORIES for arg in args)
    assert {"subject", "name_book", "creator", "agent"} <= set(args)  # read inside templates


@pytest.mark.parametrize("body, query, surface", [
    # <book> takes "sách nào" and keeps it: "sách" alone is never tried
    ('<book> "nào" "?"', "sách nào ?", None),
    # <book> takes the whole qualified book, so no <is_of> <subject> is left
    ('<book> <is_of> <subject> "?"', "sách nào thuộc chủ đề t ?", None),
    ('<book> "?"', "sách nào ?", "sách nào"),
])
def test_templates_are_atomic(lexicon, body, query, surface):
    grammar = parse_rule_dsl(f"<R> = {body}\n")
    assert candidate_rules(tokenize(normalize(query), lexicon), grammar) == list(grammar)
    results = parse(query, grammar, lexicon)
    assert results == legacy_parse(query, grammar, lexicon)
    assert [r.bindings[0].surface for r in results] == ([surface] if surface else [])


def test_required_holds_what_every_template_alternative_needs(lexicon):
    rule = parse_rule_dsl('<R> = <by_author> <subject> [<book>] <time_phrase> "?"\n')[0]
    assert rule.required == {
        "?",
        # <author>; the part "của"|"do"|"bởi" lists two categories: nothing
        "creator", "name_author",
        # the only part both <subject> alternatives have
        "name_subject",
        "prep_time", "noun_time", "year",
    }
    query = "bởi tác giả a chủ đề t vào năm 2001 ?"
    assert parse(query, (rule,), lexicon) == legacy_parse(query, (rule,), lexicon) != []


@pytest.mark.parametrize("body", ["[<interrogative1>] [<verb_have>]",
                                  "{<interrogative1>} {<verb_have>}"])
def test_tie_goes_to_present_optional_and_more_iterations(lexicon, body):
    # "có" is both interrogative1 and verb_have: the first term takes it
    grammar = parse_rule_dsl(f'<R> = {body} "?"\n')
    results = parse("có ?", grammar, lexicon)
    assert results == legacy_parse("có ?", grammar, lexicon)
    assert [b.category for b in results[0].bindings] == ["interrogative1"]


def test_group_that_can_match_empty(lexicon):
    grammar = parse_rule_dsl('<R> = <verb_write> {[<vperfect>] [","]} "?"\n')
    for query in ("viết ?", "viết đã , ?", "viết , đã đã ?", "viết đã viết ?"):
        assert parse(query, grammar, lexicon) == legacy_parse(query, grammar, lexicon), query
    assert len(parse("viết , đã đã ?", grammar, lexicon)[0].bindings) == 3


@pytest.mark.parametrize("body, query", [
    # an optional or a group before the first slot widens the first anchor
    ('[<vperfect>] <verb_write> "?"', "viết ?"),
    ('[<vperfect>] <verb_write> "?"', "đã viết ?"),
    ('{<vperfect>} <verb_write> <book> [<time_phrase>]', "đã đã viết sách B"),
    # bodies ending in a template slot or a bracket have no end anchor
    ('<what_author> <verb_write> <book>', "ai viết sách B"),
    ('{<vperfect>} <verb_write> <book> [<time_phrase>]', "viết sách B trước năm 1990"),
    # one group: the rest of the body matches empty
    ('{<vperfect>} "?"', "?"),
])
def test_rules_at_the_edges_of_the_prefilter(lexicon, body, query):
    grammar = parse_rule_dsl(f"<R> = {body}\n")
    assert parse(query, grammar, lexicon) == legacy_parse(query, grammar, lexicon) != []


class _Asked(dict):
    """A group's category map that records each (position, category) asked."""

    def __init__(self, categories, at, asked):
        super().__init__(categories)
        self.at, self.asked = at, asked

    def get(self, category, default=None):
        self.asked.append((self.at, category))
        return super().get(category, default)


@pytest.mark.parametrize("body, asked", [
    # the second optional then asks at 1, so the first one took "đã"
    ("[<vperfect>] [<vperfect>]",
     [(0, "vperfect"), (1, "vperfect"), (1, "verb_write")]),
    # a second iteration asks at 1 again before the group exits
    ("{[<vperfect>] [<vperfect>]}",
     [(0, "vperfect"), (1, "vperfect"), (1, "vperfect"), (1, "verb_write")]),
])
def test_paths_that_converge_between_splits(lexicon, body, asked):
    # taking "đã" in either optional reaches <verb_write> at 1: the second
    # path meets the first between two SPLITs, where nothing is visited
    grammar = parse_rule_dsl(f'<R> = {body} <verb_write> "?"\n')
    results = parse("đã viết ?", grammar, lexicon)
    assert results == legacy_parse("đã viết ?", grammar, lexicon)
    assert [b.category for b in results[0].bindings] == ["vperfect", "verb_write"]
    calls = []
    groups = tuple(g._replace(categories=_Asked(g.categories, at, calls))
                   for at, g in enumerate(tokenize("đã viết ?", lexicon)))
    assert match_rule(groups, grammar[0]) == results[0]
    assert calls == asked


def test_failing_question_against_nested_groups_stops(lexicon, attempts):
    # every way to share the 800 groups among the two loops and optionals
    # reaches the trailing "đã" and fails there; only the SPLIT visited set
    # keeps the search from trying each of them
    grammar = parse_rule_dsl('<R> = <verb_write> {{[<vperfect>] [","]}} "?"\n')
    query = "viết " + "đã , " * 400 + "? đã"
    assert match_rule(tokenize(normalize(query), lexicon), grammar[0]) is None
    assert parse(query, grammar, lexicon) == []
    assert attempts == []  # "?" comes before the last group: the end anchor skips R


@pytest.mark.parametrize("form", [_active, _passive])
def test_parses_with_equal_matches_share_bindings(grammar, lexicon, form):
    first, second = parse(form(40), grammar, lexicon)
    assert first.rule_id != second.rule_id
    assert first.bindings is second.bindings


def test_shared_bindings_on_generated_corpus(grammar, lexicon, generated):
    # a question's parses hold one bindings tuple per distinct value
    shared = 0
    for query in generated:
        bindings = [result.bindings for result in parse(query, grammar, lexicon)]
        assert len({id(b) for b in bindings}) == len(set(bindings)), query
        shared += len(bindings) - len(set(bindings))
    assert shared == 516  # of the 1656 parses


def test_matches_legacy_on_generated_corpus(grammar, lexicon, generated):
    for sentence in generated:
        assert parse(sentence, grammar, lexicon) == legacy_parse(sentence, grammar, lexicon), sentence


def _mutate(words: list[str], op: str, at: int) -> list[str]:
    at %= len(words)
    if op == "drop":
        return words[:at] + words[at + 1:]
    if op == "duplicate":
        return words[:at + 1] + words[at:]
    if op == "swap":
        return words[:at] + words[at + 1:at + 2] + words[at:at + 1] + words[at + 2:]
    return [w for w in words if w != "?"]  # strip "?"


def test_rule_that_cannot_begin_the_query_is_tried(lexicon, attempts):
    # the question holds X's required keys and, before "?", a group <book>
    # can end in, but X's first instruction reads "nào" where it has "sách"
    grammar = parse_rule_dsl('<X> = "nào" <book> "?"\n<Y> = <book> "?"\n')
    assert grammar[0].required == {"nào", "book_type", "?"} and "nào" in grammar[0].last
    query = "sách nào ?"
    groups = tokenize(normalize(query), lexicon)
    assert candidate_rules(groups, grammar) == list(grammar)
    results = parse(query, grammar, lexicon)
    assert attempts == ["X", "Y"]
    assert [r.rule_id for r in results] == ["Y"]
    assert results == legacy_parse(query, grammar, lexicon)


@given(index=st.integers(0, 1139), op=st.sampled_from(["drop", "duplicate", "swap", "strip"]),
       at=st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_matches_legacy_on_mutated_sentences(grammar, lexicon, generated, index, op, at):
    words = _mutate(generated[index].split(" "), op, at)
    query = " ".join(words) or "?"
    assert parse(query, grammar, lexicon) == legacy_parse(query, grammar, lexicon), query


@pytest.mark.parametrize("form", [_active, _passive])
def test_matches_legacy_on_coordinated_books(grammar, lexicon, form):
    for count in (*range(1, 150, 7), 150):
        query = form(count)
        assert parse(query, grammar, lexicon) == legacy_parse(query, grammar, lexicon), count


@pytest.mark.parametrize("count", [250, 1000])
@pytest.mark.parametrize("form, rule_ids", [(_active, ["Q1.1a", "Q1.1b"]),
                                            (_passive, ["Q1.1c", "Q1.1d"])])
def test_many_coordinated_books_parse(grammar, lexicon, count, form, rule_ids):
    results = parse(form(count), grammar, lexicon)
    assert [r.rule_id for r in results] == rule_ids
    books = [b for b in results[0].bindings if b.category == "book"]
    assert [b.ordinal for b in books] == list(range(count))


def test_ask_200_books_answers(capsys):
    assert main(["ask", _active(200, unknown_only=True)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "Không tìm thấy."
    assert captured.err == ""


def _skipped_rules_do_not_match(query, rules, lexicon):
    """The rules the parser selects; every other rule fails to match."""
    groups = tokenize(normalize(query), lexicon)
    selected = candidate_rules(groups, rules)
    for rule in rules:
        if not any(rule is chosen for chosen in selected):
            assert match_rule(groups, rule) is None, (rule.id, query)
    return selected


def test_prefilter_skips_no_match_on_generated_corpus(rules, lexicon, generated, attempts):
    for query in generated + [_active(40), _passive(40)]:
        selected = _skipped_rules_do_not_match(query, rules, lexicon)
        attempts.clear()
        parse(query, rules, lexicon)  # parse tries exactly the selected rules
        assert attempts == [rule.id for rule in selected], query


@given(index=st.integers(0, 1139), op=st.sampled_from(["drop", "duplicate", "swap", "strip"]),
       at=st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_prefilter_skips_no_match_on_mutated_sentences(rules, lexicon, generated, index, op, at):
    query = " ".join(_mutate(generated[index].split(" "), op, at)) or "?"
    _skipped_rules_do_not_match(query, rules, lexicon)


#: literals of generated rule bodies: the two root tokens, two lexicon
#: surfaces and a category's name
_BODY_LITERALS = ('"?"', '","', '"nào"', '"của"', '"book"')


def _parts(depth: int):
    """One rule-body part as DSL text, with brackets nested up to ``depth``
    deep."""
    leaf = st.one_of(st.sampled_from(sorted(GRAMMAR_CATEGORIES)).map("<{}>".format),
                     st.sampled_from(_BODY_LITERALS))
    if not depth:
        return leaf
    return st.one_of(leaf, st.builds(
        lambda opener, body: opener + " ".join(body) + {"[": "]", "{": "}"}[opener],
        st.sampled_from("[{"), st.lists(_parts(depth - 1), min_size=1, max_size=3)))


_BODIES = st.lists(_parts(3), min_size=1, max_size=6).map(" ".join)


def test_prefilter_keys_of_shipped_rules_match_the_spec(rules):
    for rule in rules:
        assert (rule.required, rule.last) == rule_keys(rule.terms), rule.id


@given(body=_BODIES)
@settings(max_examples=300, deadline=None)
def test_prefilter_keys_match_the_spec(body):
    [rule] = parse_rule_dsl(f"<X> = {body}")
    assert (rule.required, rule.last) == rule_keys(rule.terms)


@given(body=_BODIES)
@settings(max_examples=200, deadline=None)
def test_prefilter_keeps_every_rule_a_sample_matches(lexicon, body):
    [rule] = parse_rule_dsl(f"<X> = {body}")
    for seed in range(4):
        try:
            sentence = normalize(sample(rule, seed, lexicon))
        except GrammarError:  # a category without surfaces
            return
        if not sentence:
            continue
        groups = tokenize(sentence, lexicon)
        if match_rule(groups, rule) is not None:
            assert candidate_rules(groups, (rule,)) == [rule], sentence


@pytest.fixture
def attempts(monkeypatch):
    """Id of the rule of every match_rule call the parser makes."""
    calls = []
    original = parser.match_rule

    def counting(groups, rule, *args):
        calls.append(rule.id)
        return original(groups, rule, *args)

    monkeypatch.setattr(parser, "match_rule", counting)
    return calls


def _spans(query, grammar, lexicon) -> dict:
    """The (position, category) entries, a span or None each, of a table
    that match_rule fills for each candidate rule of a query, as parse
    does; the table's other entries are bindings tuples."""
    groups = tokenize(normalize(query), lexicon)
    table: dict = {}
    for rule in candidate_rules(groups, grammar):
        match_rule(groups, rule, table)
    return {key: span for key, span in table.items() if key and type(key[0]) is int}


def test_each_scan_made_once_per_parse(grammar, lexicon, corpus, monkeypatch):
    # every value built is a span stored once: no template is matched twice
    # at one position in a question, not even nested in another
    built = []

    def counting(builder):
        def build(values):
            built.append(values)
            return builder(values)
        return build

    for name, builder in list(BUILDERS.items()):
        monkeypatch.setitem(BUILDERS, name, counting(builder))
    queries = [s for _, s in corpus] + [_active(40), _passive(40)]
    for query in queries:
        built.clear()
        spans = _spans(query, grammar, lexicon)
        assert len(built) == sum(span is not None for span in spans.values()) > 0, query


@pytest.mark.parametrize("form", [_active, _passive])
def test_scans_grow_linearly_with_books(grammar, lexicon, form):
    counts = []
    for books in (25, 50, 100, 200, 400):
        assert parse(form(books), grammar, lexicon)
        counts.append(len(_spans(form(books), grammar, lexicon)))
    for fewer, more in zip(counts, counts[1:]):
        assert more <= 2.2 * fewer, counts


def _nesting(category: str) -> int:
    """How many template searches deep a slot of ``category`` nests."""
    return 1 + max((_nesting(part) for parts, _ in TEMPLATES[category] for part in parts
                    if type(part) is str), default=0)


def test_searches_nest_no_deeper_than_templates(grammar, lexicon, generated, monkeypatch):
    # one search per template entered: a <book>, then its <subject>
    limit = max(map(_nesting, TEMPLATES))
    depth = deepest = 0
    original = parser.scan_constituent

    def nested(*args):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        try:
            return original(*args)
        finally:
            depth -= 1

    monkeypatch.setattr(parser, "scan_constituent", nested)
    for query in generated:
        parse(query, grammar, lexicon)
    assert deepest == limit == _nesting("book") == 2
    deepest = 0
    assert parse(_active(1000), grammar, lexicon)
    assert 0 < deepest <= limit


def test_each_table_entry_is_one_search(grammar, lexicon, generated, monkeypatch):
    # a template is searched only where the table has no entry, nested
    # searches included, and each search stores one entry
    searched = []
    original = parser.scan_constituent

    def counting(category, groups, table, pos):
        assert (pos, category) not in table
        searched.append((pos, category))
        return original(category, groups, table, pos)

    monkeypatch.setattr(parser, "scan_constituent", counting)
    total = 0
    for query in generated:
        searched.clear()
        spans = _spans(query, grammar, lexicon)
        assert sorted(searched) == sorted(spans), query
        total += len(searched)
    assert total == 5979


def test_scan_constituent_matches_legacy(lexicon, generated):
    """Each template searched on its own gives what the legacy part
    interpreter gives, for every template category at every position of the
    corpus, of shuffled copies of its sentences and of two 40-book questions."""
    rng = random.Random(0)
    queries = generated + [_active(40), _passive(40)]
    for query in generated:
        words = query.split(" ")
        rng.shuffle(words)
        queries.append(" ".join(words))
    for query in queries:
        groups = tokenize(normalize(query), lexicon)
        for at in range(len(groups) + 1):
            for category in TEMPLATES:
                table: dict = {}
                span = parser.scan_constituent(category, groups, table, at)
                assert table[at, category] == span, (query, at, category)
                legacy = legacy_scan_constituent(groups, at, category)
                if legacy is None:
                    assert span is None, (query, at, category)
                else:
                    (bound, value, surface), end = span
                    assert (bound, value, end) == (category, *legacy), (query, at, category)
                    assert surface == " ".join(g.surface for g in groups[at:end])


def test_template_scans_match_legacy(lexicon, generated):
    """Each template, run through a one-slot rule, gives what the legacy
    part interpreter gives, for every template category at every position.
    The one-slot rule ``<R> = <category>`` is matched on ``groups[at:end]``,
    longest ``end`` first: an alternative that fails on the whole stream also
    fails on a prefix of it, and an atomic slot cannot stretch past its
    commit, so the first ``end`` that matches is the one the rule commits."""
    rules = {category: parse_rule_dsl(f"<R> = <{category}>\n")[0] for category in TEMPLATES}
    rng = random.Random(0)
    queries = generated + [_active(40), _passive(40)]
    for query in generated:
        words = query.split(" ")
        rng.shuffle(words)
        queries.append(" ".join(words))
    for query in queries:
        groups = tokenize(normalize(query), lexicon)
        for at in range(len(groups) + 1):
            for category, rule in rules.items():
                found = None
                for end in range(len(groups), at, -1):
                    result = match_rule(groups[at:end], rule)
                    if result is not None:
                        found = result.bindings[0].value, end
                        break
                assert found == legacy_scan_constituent(groups, at, category), (query, at, category)


def test_match_counts_on_generated_corpus(grammar, lexicon, generated, attempts):
    parses = sum(len(parse(query, grammar, lexicon)) for query in generated)
    spans = sum(len(_spans(query, grammar, lexicon)) for query in generated)
    assert (len(attempts), spans, parses) == (3480, 5979, 1656)


@pytest.mark.parametrize("form, count", [(_active, 2), (_passive, 2)])
def test_match_attempts_on_coordinated_books(grammar, lexicon, attempts, form, count):
    parse(form(40), grammar, lexicon)
    assert len(attempts) == count, attempts
