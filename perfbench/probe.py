"""Fresh-interpreter probes, run with the repository's ``src`` on PYTHONPATH.

    python3 perfbench/probe.py setup
        Import ``viquery.cli``, then load the built-in grammar, lexicon and
        catalog; print the four times in seconds as one JSON object.

    python3 perfbench/probe.py ask SPANS_FILE QUESTION
        Run ``viquery ask QUESTION`` through ``viquery.cli.main`` with spans
        around the layers' calls, write the spans to SPANS_FILE as JSON and
        exit with main's exit code.
"""

import sys
import time

import spans


def setup() -> int:
    start = time.perf_counter()
    import viquery.cli as cli
    imported = time.perf_counter()
    cli.parse_rule_dsl(cli.data_path("rules_v1.bnf").read_text(encoding="utf-8"))
    grammar = time.perf_counter()
    cli.load_lexicon(cli.data_path("lexicon_v1.tsv").read_text(encoding="utf-8"))
    lexicon = time.perf_counter()
    cli.load_catalog(cli.data_path("catalog_sample.json").read_text(encoding="utf-8"))
    catalog = time.perf_counter()
    import json
    print(json.dumps({"import_s": imported - start, "grammar_s": grammar - imported,
                      "lexicon_s": lexicon - grammar, "catalog_s": catalog - lexicon}))
    return 0


def ask(spans_file: str, question: str) -> int:
    start = time.perf_counter_ns()
    import viquery.cli as cli
    imported = time.perf_counter_ns()
    tracer = spans.Tracer()
    tracer.current_op = 0
    targets = (spans.module_targets(spans.PARSER_CALLS)
               + spans.object_targets(cli, spans.PIPELINE_CALLS + spans.LOAD_CALLS))
    with tracer.patched(targets):
        code = tracer.wrap("cli.main", cli.main)(["ask", question])
    import json
    with open(spans_file, "w", encoding="utf-8") as out:
        json.dump({"import_ns": imported - start, "spans": list(tracer.rows())}, out)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        sys.exit(setup())
    if sys.argv[1:2] == ["ask"] and len(sys.argv) == 4:
        sys.exit(ask(sys.argv[2], sys.argv[3]))
    sys.exit(__doc__)
