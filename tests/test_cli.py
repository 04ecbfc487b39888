import contextlib
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import viquery
from viquery.cli import _parse_report, build_arg_parser, cmd_ask, data_path, main
from viquery.grammar import _template
from viquery.lexicon import CATEGORIES, TEMPLATES
from viquery.parser import MAX_QUERY_CHARS, parse
from viquery.semantics import render_full, transform

S1 = "Tác giả A có viết sách B vào năm 2008 không?"


def test_parse_reports_rule_and_constituents(capsys):
    code = main(["parse", S1])
    out = capsys.readouterr().out
    assert code == 0
    assert "Q1.3a" in out
    for fragment in ("author: tác giả a", "interrogative2: không"):
        assert fragment in out


def test_over_length_query_is_error(capsys):
    # a query of exactly MAX_QUERY_CHARS is not too long; longer ones are rows
    query = "sách " * (MAX_QUERY_CHARS // 5 + 1)
    assert main(["parse", query[:MAX_QUERY_CHARS]]) == 2
    assert capsys.readouterr().err == "no parse\n"


def test_parse_json_lines(capsys):
    code = main(["--json", "parse", S1])
    out = capsys.readouterr().out
    assert code == 0
    for line in out.strip().splitlines():
        record = json.loads(line)
        assert record["rule_id"] and record["bindings"]


def test_semantics_prints_skeleton_and_full(capsys):
    code = main(["semantics", S1])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "(verb_write? ((author, rel_sub), (book, rel_obj), (APT, rel_time2)))"
    assert out[1] == '(verb_write? ((author="A", rel_sub), (book="B", rel_obj), (year=2008, rel_time2)))'


def test_semantics_s2(capsys):
    code = main(["semantics", "Nhà xuất bản nào đã xuất bản sách B trong năm 2009?"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "(verb_publish ((publisher?, rel_sub), (book, rel_obj), (APT, rel_time2)))"


def test_semantics_json(capsys):
    main(["--json", "semantics", S1])
    record = json.loads(capsys.readouterr().out)
    assert record["question_type"] == "yesno"
    assert record["rule_id"] == "Q1.3a"


def test_ask_sample_catalog_yes(capsys):
    code = main(["ask", S1])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Có."


def test_ask_wh(capsys):
    code = main(["ask", "Ai đã viết sách B?"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "A"


@pytest.mark.parametrize("argv, line", [
    (["--json", "ask", S1], '{"rule_id": "Q1.3a", "question_type": "yesno", '
                            '"kind": "boolean", "value": true, "answer": "Có."}'),
    (["--json", "ask", "Ai viết sách B?"], '{"rule_id": "Q1.1a", "question_type": "wh", '
                                           '"kind": "entities", "value": ["A"], "answer": "A"}'),
    (["--json", "ask", "có bao nhiêu sách trong thư viện ?"],
     '{"rule_id": "Q7.1", "question_type": "wh", "kind": "count", "value": 6, "answer": "6"}'),
    (["parse", "Ai viết sách nào thuộc chủ đề văn học ?"],
     "  book: sách nào thuộc chủ đề văn học  ->  (sách bất kỳ) thuộc Văn Học"),
])
def test_output_line_is_pinned(capsys, argv, line):
    assert main(argv) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_generate_counts(capsys):
    code = main(["generate", "all", "2"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(lines) == 57 * 2
    assert all("\t" in line for line in lines)


def test_generate_deterministic(capsys):
    main(["--seed", "5", "generate", "Q1.1a", "3"])
    first = capsys.readouterr().out
    main(["--seed", "5", "generate", "Q1.1a", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_generate_corpus_is_pinned(capsys):
    assert main(["--seed", "0", "generate", "all", "20"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "dd59a08fd10af48efad32c19818335a7ca33492129d3a3f0909611efbc53d85c"


@pytest.mark.parametrize("name, expected", [
    ("toy_rules.bnf", "f5e81da0647a122d97e93822f57129287cdacffd021fd96762e0da556ce6dec1"),
    # two optional time phrases, one nested; a leading [","]; a repeated
    # group; a template part of two word classes
    ("edge_rules.bnf", "180c99a2499b7592a0ef77566edac3bd356ca8c4be9a8a10daa46133fd55de7b"),
])
def test_generate_is_pinned_for_other_grammars(capsys, toy_rules, name, expected):
    argv = ["--seed", "0", "--grammar", str(toy_rules.parent / name), "generate", "all", "20"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == expected


def test_closed_stdout_is_error(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["generate", "all", "1"]) == 1
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_batch_mixed(tmp_path, capsys):
    f = tmp_path / "queries.txt"
    f.write_text(S1 + "\nxin chào\n", encoding="utf-8")
    code = main(["batch", str(f)])
    out = capsys.readouterr().out.splitlines()
    assert code == 2
    assert out[0].startswith("Q1.3a\t")
    assert out[1] == "NO-PARSE"
    assert out[-1] == "1/2"


def test_json_leaves_batch_and_generate_unchanged(tmp_path, capsys):
    # --json changes only parse, semantics and ask
    f = tmp_path / "queries.txt"
    f.write_text(S1 + "\nxin chào\n", encoding="utf-8")
    for argv in (["batch", str(f)], ["generate", "all", "2"]):
        code = main(argv)
        plain = capsys.readouterr()
        assert main(["--json", *argv]) == code
        assert capsys.readouterr() == plain


def test_batch_breaks_lines_at_line_feeds_only(tmp_path, capsys):
    # a form feed is whitespace inside a question, as it is for ask
    f = tmp_path / "queries.txt"
    f.write_text("Ai viết sách B?\nAi viết\x0c sách B?\nAi viết\x0csách B?\n", encoding="utf-8")
    assert main(["batch", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in out] == ["Q1.1a", "Q1.1a", "Q1.1a", "3/3"]


def test_batch_empty_file(tmp_path, capsys):
    f = tmp_path / "queries.txt"
    f.write_text("", encoding="utf-8")
    assert main(["batch", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "0/0"


def test_cli_imports_only_the_standard_library():
    # a bare interpreter: no site, so no site-packages and no .pth imports;
    # ``random`` and ``hashlib`` load only when ``generate`` runs
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import viquery.cli; "
            "print(*sorted({m.split('.')[0] for m in sys.modules} - sys.stdlib_module_names)); "
            "print('random' in sys.modules, 'hashlib' in sys.modules)")
    src = str(Path(viquery.__file__).parents[1])
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == ["__main__ viquery", "False False"]


# Every error ``main`` can print: each row runs through ``main`` and, when
# ``shutil.which`` finds the installed ``viquery`` script, through it too.
LEXICON = data_path("lexicon_v1.tsv").read_text(encoding="utf-8")
END = LEXICON.count("\n") + 1  # the number of a line appended to LEXICON
NO_FAMILY = '<Q9.1a> = <what_author> <verb_write> <book> "?"\n'
INPUTS = ("--grammar", "--lexicon", "--catalog", "batch")  # the files main reads
UNREADABLE = {"missing": {}, "directory": {"input": None}, "undecodable": {"input": b"\xff\n"}}
UNMAPPED_PREP = {"l.tsv": LEXICON + "prep_time\ttừ\ttừ\n"}  # listed, but no time relation maps it
README = Path(__file__).parents[1] / "README.md"


class Row(NamedTuple):
    """``main(argv)`` exits ``code`` and prints ``out`` and one stderr line,
    which is ``err`` when that ends in a line break, else starts with it.
    ``files`` maps a name to the text (or bytes; None: a directory) written
    under it in ``$TMP``, which stands for their directory in argv and err."""
    id: str
    argv: list
    err: str
    files: dict = {}
    code: int = 1
    out: str = ""


def _catalog(**fields) -> str:
    records = json.loads(data_path("catalog_sample.json").read_text(encoding="utf-8"))
    records[0].update(fields)
    return json.dumps(records)


def _family_rows(name: str, rules: str, err: str):
    """``err`` for ``rules`` as the grammar of each command that checks families."""
    for command in ("semantics", "ask", "batch"):
        query, files = "ai viết sách B ?", {"g.bnf": rules}
        if command == "batch":
            query, files = "$TMP/q.txt", {**files, "q.txt": query + "\n"}
        yield Row(f"{name}-{command}", ["--grammar", "$TMP/g.bnf", command, query], err, files)


ERRORS = [
    # the command line
    Row("unknown-option", ["parse", "-x"],
        "error: unrecognized arguments: -x (put -- before a query that starts with -)\n"),
    Row("line-break-after-dash", ["ask", "-\n"],
        "error: unrecognized arguments: -\\n (put -- "),
    Row("line-break-after-option", ["parse", "-x\ny"], "error: unrecognized arguments: -x\\ny "),
    Row("extra-argument", ["parse", "a", "b"], "error: unrecognized arguments: b\n"),
    Row("missing-command", [], "error: the following arguments are required: command\n"),
    Row("missing-query", ["parse"], "error: the following arguments are required: query\n"),
    Row("unknown-command", ["frob", "Ai viết sách B?"],
        "error: argument command: invalid choice: 'frob' "),
    Row("count-not-a-number", ["generate", "all", "x"],
        "error: argument count: invalid int value: 'x'\n"),
    Row("seed-not-a-number", ["--seed", "x", "parse", S1],
        "error: argument --seed: invalid int value: 'x'\n"),
    Row("negative-count", ["generate", "all", "-1"], "error: argument count: -1 is negative\n"),
    # files that cannot be read; the first bad input in load order is reported
    *(Row(f"{which}-{kind}",
          ["batch", "$TMP/input"] if which == "batch" else [which, "$TMP/input", "ask", S1],
          "error: cannot read $TMP/input: ", files)
      for which in INPUTS for kind, files in UNREADABLE.items()),
    Row("catalog-path-with-line-break", ["--catalog", "no\nsuch", "ask", S1],
        "error: cannot read no\\nsuch: "),
    Row("batch-path-with-line-breaks", ["batch", "no\r\nsuch\u2028"],
        "error: cannot read no\\r\\nsuch\\u2028: "),
    Row("grammar-before-lexicon",
        ["--grammar", "$TMP/g.bnf", "--lexicon", "$TMP/none", "parse", S1],
        "error: line 1: unexpected 'foo'\n", {"g.bnf": '<X> = <book> foo "?"\n'}),
    # the query
    Row("blank-query", ["parse", ""], "error: query is empty or blank\n"),
    Row("long-query", ["parse", "a" * (MAX_QUERY_CHARS + 1)],
        "error: query is 100001 characters, longer than 100000\n"),
    Row("batch-long-query", ["batch", "$TMP/q.txt"],
        "error: line 2: query is 100001 characters, longer than 100000\n",
        {"q.txt": S1 + "\n" + "a" * (MAX_QUERY_CHARS + 1) + "\nxin chào\n"},
        out="Q1.3a\t(verb_write? ((author, rel_sub), (book, rel_obj), (APT, rel_time2)))\n"),
    # a form feed is whitespace inside a question, so the long line is line 2
    Row("batch-long-query-after-form-feed", ["batch", "$TMP/q.txt"], "error: line 2: ",
        {"q.txt": "ai\x0c ai\n" + "a" * (MAX_QUERY_CHARS + 1)}, out="NO-PARSE\n"),
    *(Row(f"no-parse-{command}", [command, "xin chào"], "no parse\n", code=2)
      for command in ("parse", "semantics", "ask")),
    # a parse that cannot be transformed
    Row("unknown-time-preposition",
        ["--lexicon", "$TMP/l.tsv", "ask", "ai viết sách B từ năm 2000 ?"],
        "error: unknown time preposition 'từ'\n", UNMAPPED_PREP),
    Row("batch-unknown-time-preposition", ["--lexicon", "$TMP/l.tsv", "batch", "$TMP/q.txt"],
        "error: line 2: unknown time preposition 'từ'\n",
        {**UNMAPPED_PREP, "q.txt": "ai viết sách B ?\nai viết sách B từ năm 2000 ?\n"},
        out="Q1.1a\t(verb_write ((author?, rel_sub), (book, rel_obj)))\n"),
    # the grammar
    *(Row(f"grammar-{name}", ["--grammar", "$TMP/g.bnf", "parse", "Ai viết sách B?"], err,
          {"g.bnf": rules}) for name, rules, err in [
        ("stray-word", '<Q1.1a> = <what_author> <verb_write> <book> foo "?"\n',
         "error: line 1: unexpected 'foo'\n"),
        ("unknown-category", '<X> = <nope> "?"\n', "error: line 1: unknown category <nope>\n"),
        ("no-rule-id", "Q1.1a = <book>\n", "error: line 1: expected '<ID> = BODY'\n"),
        ("duplicate-rule-id", '<Q1.1a> = <book> "?"\n<Q1.1a> = <book> "?"\n',
         "error: line 2: duplicate rule id Q1.1a\n"),
        ("empty-body", "<Q1.1a> =\n", "error: line 1: empty rule body\n"),
        ("unbalanced-closer", '<Q1.1a> = <book> ] "?"\n', "error: line 1: unbalanced ']'\n"),
        ("unbalanced-opener", '<Q1.1a> = <book> [ "?"\n', "error: line 1: unbalanced '['\n"),
        ("empty-bracket", '<Q1.1a> = <book> [ ] "?"\n', "error: line 1: empty []\n"),
        ("nesting", "<Q1.1a> = " + "[" * 33 + "<book>" + "]" * 33 + ' "?"\n',
         "error: line 1: brackets nested deeper than 32\n"),
    ]),
    # a literal that normalization changes could never match
    Row("grammar-literal", ["--grammar", "$TMP/g.bnf", "generate", "all", "2"],
        'error: line 1: literal "Sách" is not a normalized surface\n',
        {"g.bnf": '<Q1.1z> = <what_author> <verb_write> "Sách" <book> "?"\n'}),
    *_family_rows("unregistered-family", NO_FAMILY, "error: Q9.1a: unregistered family 'Q9.1'\n"),
    *_family_rows("optional-needed-category", '<Q1.3z> = [<author>] <verb_write> <book> "?"\n',
                  "error: Q1.3z: family Q1.3 needs <author> outside [...] and {...}\n"),
    *(Row(f"unknown-rule-id-{count}", ["generate", "Q9.9x", count],
          "error: unknown rule id 'Q9.9x'\n") for count in ("0", "1")),
    # the lexicon
    *(Row(f"lexicon-{name}", ["--lexicon", "$TMP/l.tsv", "parse", S1], err, {"l.tsv": text})
      for name, text, err in [
        ("unknown-category", "nope\tai\tai\n", "error: line 1: unknown category 'nope'\n"),
        ("fields", "name_author\tx\n", "error: line 1: expected 3 tab-separated fields, got 2\n"),
        ("duplicate", "name_author\tx\tX\nname_author\tx\tX\n",
         "error: line 2: duplicate entry (name_author, 'x')\n"),
        ("empty-surface", "name_author\t \tX\n", "error: line 1: empty surface\n"),
        # a line under a phrase template, which no rule reads as one token
        ("phrase", LEXICON + "author\tlê văn x\tLê Văn X\n", f"error: line {END}: category"
         " 'author' is a phrase, not a word class; list a name under a name_* category\n"),
        # "?" is always a group of its own
        ("punctuation", LEXICON + "verb_write\tviết ?\tviết\n", f"error: line {END}: surface"
         " 'viết ?' holds \"?\" or \",\", which are always groups of their own\n"),
        # a time phrase reads a year's canonical as a number
        ("year", LEXICON + "year\tkia\tkia\n", f"error: line {END}: year 'kia' is not a"
         " four-digit year\n"),
    ]),
    Row("lexicon-without-markers", ["--lexicon", "$TMP/l.tsv", "generate", "Q4.1a", "3"],
        "error: category <possessive>|<agent> has no realizable surface\n",
        {"l.tsv": "".join(line for line in LEXICON.splitlines(keepends=True)
                          if not line.startswith(("possessive\t", "agent\t")))}),
    # the catalog
    *(Row(f"catalog-{name}", ["--catalog", "$TMP/c.json", "ask", S1], err, {"c.json": text})
      for name, text, err in [
        ("invalid-json", "[", "error: invalid JSON: "),
        ("not-an-array", "{}", "error: top level must be an array of records\n"),
        ("not-an-object", "[1]", "error: record 0: not an object\n"),
        ("missing-field", "[{}]", "error: record 0: missing field 'title'\n"),
        ("blank-title", _catalog(title=" "), "error: record 0: title must be a non-empty string\n"),
        ("no-authors", _catalog(authors=[]), "error: record 0: authors must be a non-empty list\n"),
        ("year", _catalog(year=208), "error: record 0: year must be a 4-digit integer\n"),
        ("nan-price", _catalog(price=float("nan")),
         "error: record 0: price must be a non-negative number\n"),
        ("number-publisher", _catalog(publisher=5), "error: record 0: publisher must be a string\n"),
        ("empty-place", _catalog(place=""), "error: record 0: place must not be empty\n"),
    ]),
]
ROWS = {row.id: row for row in ERRORS}
UNREADABLE_IDS = [f"{which}-{kind}" for which in INPUTS for kind in UNREADABLE]


def _readme_forms() -> list:
    """README §Errors' message forms as patterns: an upper-case word, such as
    N or PATH, stands for any text, and a form may wrap across lines."""
    section = README.read_text(encoding="utf-8").split("\n### Errors\n")[1].split("\n#")[0]
    return [re.compile(re.sub(r"\b[A-Z]+\b", ".+", re.escape(form)))
            for form in re.findall(r"`(error: [^`]+|no parse)`", " ".join(section.split()))]


def check_error(row: Row, tmp_path: Path, capsys) -> None:
    for name, text in row.files.items():
        if text is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = [arg.replace("$TMP", str(tmp_path)) for arg in row.argv]
    expected = row.err.replace("$TMP", str(tmp_path))
    outcomes = [(main(argv), *capsys.readouterr())]
    script = shutil.which("viquery")
    if script:
        run = subprocess.run([script, *argv], cwd=tmp_path,
                             capture_output=True, encoding="utf-8")
        outcomes.append((run.returncode, run.stdout, run.stderr))
    forms = _readme_forms()
    for code, out, err in outcomes:
        assert (code, out) == (row.code, row.out), err
        assert err == expected if expected.endswith("\n") else err.startswith(expected)
        assert err.startswith("error: " if code == 1 else "no parse")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err and "usage:" not in err
        assert any(form.match(err) for form in forms), f"README §Errors lacks {err!r}"


NAMED = set()  # rows that run under a test name of their own


def _named(*row_ids, ids=None):
    """The check of ``row_ids`` under a test name the suite used before they
    were rows: one test checking each in turn or, with ``ids``, one test per
    row under those parameter ids."""
    NAMED.update(row_ids)
    rows = [ROWS[row_id] for row_id in row_ids]
    if ids is None:
        def test(tmp_path, capsys):
            for row in rows:
                check_error(row, tmp_path, capsys)
        return test

    @pytest.mark.parametrize("row", rows, ids=ids)
    def test_rows(row, tmp_path, capsys):
        check_error(row, tmp_path, capsys)
    return test_rows


test_parse_blank_input_is_usage_error = _named("blank-query")
test_usage_error_is_one_error_line = _named(
    "unknown-option", "missing-query", "unknown-command", "count-not-a-number", "negative-count",
    ids=["argv0", "argv1", "argv2", "argv3", "argv4"])
test_parse_out_of_domain_exit_2 = _named("no-parse-parse")
test_semantics_no_parse = _named("no-parse-semantics")
test_ask_no_parse = _named("no-parse-ask")
test_generate_without_marker_entries_is_error = _named("lexicon-without-markers")
test_generate_unknown_rule = _named("unknown-rule-id-0", "unknown-rule-id-1")
test_batch_names_the_line_of_a_transform_error = _named("batch-unknown-time-preposition")
test_batch_unreadable_file = _named("batch-missing")
test_missing_data_file = _named("--grammar-missing")
test_ask_non_string_catalog_field_is_load_error = _named("catalog-number-publisher")
test_ask_nan_price_is_load_error = _named("catalog-nan-price")
test_stray_word_in_grammar_is_load_error = _named("grammar-stray-word")
test_literal_not_in_normalized_form_is_load_error = _named("grammar-literal")
test_lexicon_year_that_is_not_a_year_is_one_error_line = _named("lexicon-year")
test_undecodable_data_file_is_load_error = _named(
    "--grammar-undecodable", "--lexicon-undecodable", "--catalog-undecodable",
    "batch-undecodable", ids=["--grammar", "--lexicon", "--catalog", "batch"])
test_unreadable_file_is_one_error_line = _named(*UNREADABLE_IDS, ids=UNREADABLE_IDS)
test_line_break_in_argument_keeps_one_error_line = _named(
    "catalog-path-with-line-break", "batch-path-with-line-breaks", "line-break-after-dash",
    ids=["catalog", "batch", "option"])
test_first_bad_input_in_load_order_is_reported = _named("grammar-before-lexicon")
test_unregistered_family_is_clean_error = _named(
    "unregistered-family-semantics", "unregistered-family-ask", ids=["semantics", "ask"])
test_unregistered_family_fails_at_load = _named(
    *(f"unregistered-family-{c}" for c in ("semantics", "ask", "batch")),
    ids=["semantics", "ask", "batch"])
test_optional_needed_category_fails_at_load = _named(
    *(f"optional-needed-category-{c}" for c in ("semantics", "ask", "batch")),
    ids=["semantics", "ask", "batch"])


@pytest.mark.parametrize("row", [row for row in ERRORS if row.id not in NAMED],
                         ids=lambda row: row.id)
def test_documented_error(row, tmp_path, capsys):
    check_error(row, tmp_path, capsys)


def test_parse_skips_the_family_check(tmp_path, capsys):
    grammar = tmp_path / "g.bnf"
    grammar.write_text(NO_FAMILY, encoding="utf-8")
    assert main(["--grammar", str(grammar), "parse", "ai viết sách B ?"]) == 0


@pytest.mark.parametrize("which", INPUTS)
def test_data_file_may_start_with_a_byte_order_mark(tmp_path, capsys, which):
    name = {"--grammar": "rules_v1.bnf", "--lexicon": "lexicon_v1.tsv",
            "--catalog": "catalog_sample.json"}.get(which)
    text = data_path(name).read_text(encoding="utf-8") if name else S1 + "\n"
    outcomes = []
    for bom in ("", "\ufeff"):
        f = tmp_path / f"data{len(bom)}"
        f.write_text(bom + text, encoding="utf-8")
        outcomes.append((main(["batch", str(f)] if name is None else [which, str(f), "ask", S1]),
                         *capsys.readouterr()))
    plain, with_bom = outcomes
    assert plain[0] == 0 and with_bom == plain


@pytest.mark.parametrize("query, answer", [
    ("Ai viết sách B?", "A"),
    ("Tác giả A có viết sách B không?", "Có."),
    ("Nhà xuất bản nào xuất bản sách B?", "P"),
])
def test_toy_grammar_answers_on_sample_catalog(capsys, toy_rules, query, answer):
    assert main(["--grammar", str(toy_rules), "ask", query]) == 0
    assert capsys.readouterr().out.strip() == answer


def test_parse_reports_are_pinned(capsys, grammar, lexicon):
    assert main(["--seed", "0", "generate", "all", "20"]) == 0
    sentences = [line.split("\t", 1)[1]
                 for line in capsys.readouterr().out.splitlines()]
    assert len(sentences) == 1140
    lines = []
    for sentence in sentences:
        results = parse(sentence, grammar, lexicon)
        lines.extend(_parse_report(r, True) for r in results)
        lines.append(render_full(transform(results[0])))
    assert len(lines) == 2796
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == "77efc647200cfb8197fa4999c494bf24ab7be918a3cb2f8e6ed746973188a7b3"


def test_answers_are_pinned(capsys, grammar, lexicon, catalog, generated):
    """What ``viquery --json ask`` prints for each generated sentence, with
    the data loaded once."""
    args = build_arg_parser().parse_args(["--json", "ask", "?"])
    for sentence in generated:
        cmd_ask(args, parse(sentence, grammar, lexicon), catalog)
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1140
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "1ad3e85b0a95cc40565289c7c278470567f71958476fb1faf49ae28aa756d289"


def test_compiled_grammars_are_pinned(rules):
    """Every rule's matcher program, for the built-in and the toy grammar,
    and the alternatives every template's slots try: a change in how rule
    bodies are held must not change what they compile to."""
    lines = [repr((r.id, r.program)) for r in rules]
    assert len(lines) == 60
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == "0615456333cdd50f1e18f51cda0cf0b1c5c00071b4ed43f93b542df3b2bfdcd8"
    lines = [repr((c, _template(c)[0])) for c in TEMPLATES]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == "81a88b75385165bac17321b33e01b0067b3134e87827a66c6fcec2933d935190"


def test_prefilter_keys_are_pinned(rules):
    """Every rule's prefilter keys, ``required`` and ``last``, for the
    built-in and the toy grammar: they have stayed the same since the keys
    became plain, through every change in how programs are laid out.  A
    category shows as the repr of its name, in the keys and in the
    programs."""
    lines = [repr((r.id, r.family,
                   *(keys if keys is None else sorted(map(repr, keys))
                     for keys in (r.required, r.last))))
             for r in rules]
    assert len(lines) == 60
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == "1ca07d7954008122c90a490a5418053efc198cf5bd79c232cbb68c44840e63e9"


def _mutate(sentence: str, op: str, at: int, word: str) -> str:
    words = sentence.split(" ")
    at %= len(words)
    if op == "drop":
        del words[at]
    elif op == "duplicate":
        words.insert(at, words[at])
    elif op == "swap":
        words[at:at + 2] = reversed(words[at:at + 2])
    else:
        words.insert(at, word)
    return " ".join(words)


@given(data=st.data(),
       command=st.sampled_from([["parse"], ["semantics"], ["ask"], ["--json", "ask"]]))
@settings(max_examples=300, deadline=None)
def test_main_is_total(lexicon, generated, data, command):
    words = sorted({s for category in CATEGORIES for s in lexicon.surfaces(category)})
    query = data.draw(st.one_of(
        st.text(max_size=80),
        st.sampled_from(["-x", "--seed=3", "--json", "--", "-", "-h", "--he", "--help",
                         "-\n", "-x\ny"]),
        st.text(min_size=1, max_size=5).map(lambda t: t * (MAX_QUERY_CHARS // len(t) + 1)),
        st.lists(st.sampled_from(words), max_size=12).map(" ".join),
        st.builds(_mutate, st.sampled_from(generated),
                  st.sampled_from(["drop", "duplicate", "swap", "insert"]),
                  st.integers(0, 40), st.sampled_from(words)),
    ))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(command + [query])
        except SystemExit as exc:  # "-h" or a prefix of "--help" such as "--he"
            code = ("help", exc.code)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == ("help", 0):
        assert out.startswith("usage:") and err == ""
    elif code == 0:
        assert out
    elif code == 2:
        assert err == "no parse\n"
    else:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
