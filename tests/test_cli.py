import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

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


def test_parse_blank_input_is_usage_error(capsys):
    assert main(["parse", ""]) == 1


@pytest.mark.parametrize("argv", [
    ["parse", "-x"], ["parse"], ["frob", "Ai viết sách B?"], ["generate", "all", "x"],
    ["generate", "all", "-1"],
])
def test_usage_error_is_one_error_line(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "usage:" not in err
    if "-x" in argv:
        assert err == ("error: unrecognized arguments: -x"
                       " (put -- before a query that starts with -)\n")


def test_over_length_query_is_error(tmp_path, capsys):
    query = "sách " * (MAX_QUERY_CHARS // 5 + 1)
    assert main(["parse", query[:MAX_QUERY_CHARS]]) == 2
    assert capsys.readouterr().err == "no parse\n"
    f = tmp_path / "queries.txt"
    f.write_text(S1 + "\n" + "a" * (MAX_QUERY_CHARS + 1) + "\nxin chào\n", encoding="utf-8")
    assert main(["batch", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["Q1.3a\t(verb_write? ((author, rel_sub), (book, rel_obj),"
                                " (APT, rel_time2)))"]
    assert err == "error: line 2: query is 100001 characters, longer than 100000\n"


def test_parse_out_of_domain_exit_2(capsys):
    assert main(["parse", "xin chào"]) == 2


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


def test_semantics_no_parse(capsys):
    assert main(["semantics", "xin chào"]) == 2


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


def test_ask_no_parse(capsys):
    assert main(["ask", "xin chào"]) == 2


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
    ("edge_rules.bnf", "dae94fe71a03b4a055a0713c0e5ac476c623b3878d92b8ec4443605d12c47f12"),
])
def test_generate_is_pinned_for_other_grammars(capsys, toy_rules, name, expected):
    argv = ["--seed", "0", "--grammar", str(toy_rules.parent / name), "generate", "all", "20"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == expected


def test_generate_without_marker_entries_is_error(tmp_path, capsys):
    lines = data_path("lexicon_v1.tsv").read_text(encoding="utf-8").splitlines()
    f = tmp_path / "lexicon.tsv"
    f.write_text("\n".join(line for line in lines
                           if not line.startswith(("possessive\t", "agent\t"))),
                 encoding="utf-8")
    code = main(["--lexicon", str(f), "generate", "Q4.1a", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "possessive" in err
    assert "Traceback" not in err


def test_generate_unknown_rule(capsys):
    for count in ("0", "1"):
        assert main(["generate", "Q9.9x", count]) == 1
        assert capsys.readouterr().err == "error: unknown rule id 'Q9.9x'\n"


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
    f.write_text("Ai viết sách B?\nAi viết\x0c sách B?\n", encoding="utf-8")
    assert main(["batch", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in out] == ["Q1.1a", "Q1.1a", "2/2"]
    f.write_text("ai\x0c ai\n" + "a" * 100_001, encoding="utf-8")
    assert main(["batch", str(f)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2: ")


def test_batch_names_the_line_of_a_transform_error(tmp_path, capsys):
    # a time preposition the lexicon lists but no time relation maps
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(data_path("lexicon_v1.tsv").read_text(encoding="utf-8")
                       + "prep_time\ttừ\ttừ\n", encoding="utf-8")
    f = tmp_path / "queries.txt"
    f.write_text("ai viết sách B ?\nai viết sách B từ năm 2000 ?\n", encoding="utf-8")
    assert main(["--lexicon", str(lexicon), "batch", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["Q1.1a\t(verb_write ((author?, rel_sub), (book, rel_obj)))"]
    assert err == "error: line 2: unknown time preposition 'từ'\n"


def test_batch_empty_file(tmp_path, capsys):
    f = tmp_path / "queries.txt"
    f.write_text("", encoding="utf-8")
    assert main(["batch", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "0/0"


def test_batch_unreadable_file(capsys):
    assert main(["batch", "/no/such/file.txt"]) == 1


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


def test_missing_data_file(tmp_path, capsys):
    assert main(["--grammar", str(tmp_path / "nope.bnf"), "parse", S1]) == 1


def test_ask_non_string_catalog_field_is_load_error(tmp_path, capsys):
    records = json.loads(data_path("catalog_sample.json").read_text(encoding="utf-8"))
    records[0]["publisher"] = 5
    f = tmp_path / "catalog.json"
    f.write_text(json.dumps(records), encoding="utf-8")
    code = main(["--catalog", str(f), "ask", "Nhà xuất bản nào đã xuất bản sách B?"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: record 0: publisher must be a string")
    assert "Traceback" not in err


def test_ask_nan_price_is_load_error(tmp_path, capsys):
    records = json.loads(data_path("catalog_sample.json").read_text(encoding="utf-8"))
    records[0]["price"] = float("nan")
    f = tmp_path / "catalog.json"
    f.write_text(json.dumps(records), encoding="utf-8")
    code = main(["--catalog", str(f), "ask", "Sách B giá bao nhiêu?"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: record 0: price must be a non-negative number")


def test_stray_word_in_grammar_is_load_error(tmp_path, capsys):
    f = tmp_path / "g.bnf"
    f.write_text('<Q1.1a> = <what_author> <verb_write> <book> foo "?"\n', encoding="utf-8")
    code = main(["--grammar", str(f), "parse", "Ai viết sách B?"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line 1: unexpected")
    assert "Traceback" not in err


def test_literal_not_in_normalized_form_is_load_error(tmp_path, capsys):
    f = tmp_path / "g.bnf"
    f.write_text('<Q1.1z> = <what_author> <verb_write> "Sách" <book> "?"\n', encoding="utf-8")
    assert main(["--grammar", str(f), "generate", "all", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == 'error: line 1: literal "Sách" is not a normalized surface\n'


@pytest.mark.parametrize("which", ["--grammar", "--lexicon", "--catalog", "batch"])
def test_undecodable_data_file_is_load_error(tmp_path, capsys, which):
    f = tmp_path / "data"
    f.write_bytes(b"\xff\n")
    if which == "batch":
        argv = ["batch", str(f)]
    else:
        argv = [which, str(f), "ask", "Ai viết sách B?"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot read {f}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
@pytest.mark.parametrize("which", ["--grammar", "--lexicon", "--catalog", "batch"])
def test_unreadable_file_is_one_error_line(tmp_path, capsys, which, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":
        path.write_bytes(b"\xff\n")
    argv = ["batch", str(path)] if which == "batch" else [which, str(path), "ask", S1]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, expected", [
    (["--catalog", "no\nsuch", "ask", S1], "error: cannot read no\\nsuch: "),
    (["batch", "no\r\nsuch\u2028"], "error: cannot read no\\r\\nsuch\\u2028: "),
    (["ask", "-\n"], "error: unrecognized arguments: -\\n (put -- "),
], ids=["catalog", "batch", "option"])
def test_line_break_in_argument_keeps_one_error_line(capsys, argv, expected):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(expected)
    assert err.count("\n") == 1 and err.endswith("\n")


def test_first_bad_input_in_load_order_is_reported(tmp_path, capsys):
    grammar = tmp_path / "g.bnf"
    grammar.write_text('<X> = <book> foo "?"\n', encoding="utf-8")
    code = main(["--grammar", str(grammar), "--lexicon", str(tmp_path / "none.tsv"), "parse", S1])
    assert code == 1
    assert capsys.readouterr().err == "error: line 1: unexpected 'foo'\n"


@pytest.mark.parametrize("command", ["semantics", "ask"])
def test_unregistered_family_is_clean_error(tmp_path, capsys, command):
    f = tmp_path / "g.bnf"
    f.write_text('<Q9.1a> = <author> "?"\n', encoding="utf-8")
    code = main(["--grammar", str(f), command, "tác giả A ?"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Q9.1" in err
    assert "Traceback" not in err


def _run(tmp_path, rules, command, query):
    grammar = tmp_path / "g.bnf"
    grammar.write_text(rules, encoding="utf-8")
    if command == "batch":
        queries = tmp_path / "queries.txt"
        queries.write_text(query + "\n", encoding="utf-8")
        query = str(queries)
    return main(["--grammar", str(grammar), command, query])


@pytest.mark.parametrize("command", ["semantics", "ask", "batch"])
def test_unregistered_family_fails_at_load(tmp_path, capsys, command):
    rules = '<Q9.1a> = <what_author> <verb_write> <book> "?"\n'
    code = _run(tmp_path, rules, command, "ai viết sách B ?")
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""  # no question answered
    assert err == "error: Q9.1a: unregistered family 'Q9.1'\n"
    assert _run(tmp_path, rules, "parse", "ai viết sách B ?") == 0


@pytest.mark.parametrize("command", ["semantics", "ask", "batch"])
def test_optional_needed_category_fails_at_load(tmp_path, capsys, command):
    rules = '<Q1.3z> = [<author>] <verb_write> <book> "?"\n'
    code = _run(tmp_path, rules, command, "tác giả A viết sách B ?")
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: Q1.3z: ") and "<author>" in err


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
