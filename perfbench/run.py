"""viquery benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the repository root; viquery is imported from ``src``.  Workloads:

    corpus        the generated questions of every rule, answered in-process
    long_queries  questions naming 1 to 148 coordinated books, in-process
    cold_ask      ``python -m viquery.cli ask Q`` as a fresh process per question

Each run first times set-up in fresh interpreters, then answers whole rounds
of the workload's questions, one at a time, until ``--seconds`` have passed,
and checks every answer against ``reference.py``.  The last line of stdout
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  A readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 11       # fresh interpreters timed per run, after one warm-up
TRACED_ASKS = 5       # traced ``viquery ask`` children in in-process workloads
CHILD_TIMEOUT = 60
WORKLOADS = ("corpus", "long_queries", "cold_ask")


def run_child(args: list[str]) -> SimpleNamespace:
    """``python3 ARGS`` from the root, with ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=CHILD_TIMEOUT)
    return SimpleNamespace(code=done.returncode, stdout=done.stdout.decode("utf-8"),
                           stderr=done.stderr.decode("utf-8", "replace"))


class Setup:
    """Set-up timed in ``SETUP_RUNS`` fresh interpreters spread over the run.

    The machine's slow phases last seconds, so probes taken back to back
    would all land in one of them.
    """

    PROBE = [str(HERE / "probe.py"), "setup"]

    def __init__(self, seconds: float):
        self.every = seconds / SETUP_RUNS
        self.samples: list[dict[str, float]] = []
        run_child(self.PROBE)  # warm-up: byte-compiles src, as an install has

    def probe(self) -> None:
        result = run_child(self.PROBE)
        if result.code != 0:
            raise RuntimeError(f"set-up probe failed: {result.stderr}")
        self.samples.append(json.loads(result.stdout))

    def catch_up(self, elapsed: float) -> None:
        while len(self.samples) < SETUP_RUNS and len(self.samples) * self.every <= elapsed:
            self.probe()

    def medians(self) -> dict[str, float]:
        """Median import and load times in s, and of their sum as ``setup_s``."""
        while len(self.samples) < SETUP_RUNS:
            self.probe()
        medians = {key: statistics.median(s[key] for s in self.samples)
                   for key in self.samples[0]}
        medians["setup_s"] = statistics.median(sum(s.values()) for s in self.samples)
        return medians


# --- operations ---------------------------------------------------------------

class InProcess:
    """Answers a question as ``viquery ask`` does, with the data loaded once."""

    def __init__(self, data):
        import viquery

        self.data = data
        self.calls = SimpleNamespace(
            parse=viquery.parse, transform=viquery.transform, classify=viquery.classify,
            evaluate=viquery.evaluate, format_answer=viquery.format_answer)

    def __call__(self, question):
        data, calls = self.data, self.calls
        results = calls.parse(question.text, data.grammar, data.lexicon)
        sem = calls.transform(results[0])
        answer = calls.evaluate(sem, data.catalog)
        return results, calls.format_answer(answer, calls.classify(sem))


def cold_ask(question) -> SimpleNamespace:
    return run_child(["-m", "viquery.cli", "ask", question.text])


def check(question, output) -> str | None:
    """What is wrong with one operation's output, or None."""
    from viquery.lexicon import Category

    if isinstance(output, Exception):
        return f"raised {output!r}"
    if isinstance(output, SimpleNamespace):  # a finished process
        if output.code != 0:
            return f"exit code {output.code}: {output.stderr.strip()[-300:]}"
        text = output.stdout.rstrip("\n")
    else:
        results, text = output
        if question.rule_id and question.rule_id not in {r.rule_id for r in results}:
            return f"no parse from its rule {question.rule_id}"
        if question.titles is not None:
            own = [r for r in results if r.family == question.family]
            books = own and tuple(b.value.title for b in own[0].bindings
                                  if b.category is Category.BOOK)
            if books != question.titles:
                return f"books bound as {books}"
    if not question.expected.accepts(text):
        return f"answered {text!r}, expected {question.expected}"
    return None


# --- rounds -------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, and every attempt's time.

    A round answers every question once.  A question's time is the 90th
    percentile of its attempts in the run.  The shared machine switches,
    for seconds to minutes at a time, between a fast state and one about
    1.7 times slower.  Every run spends some of its time in the slow state,
    so this percentile repeats from run to run, where the median and the
    fastest attempt jump between the two states.
    """

    def __init__(self, questions, known_failure: str):
        self.questions = questions
        self.known_failure = known_failure
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.attempts: dict[bool, list[array]] = {}   # traced? -> ns per question

    def run(self, op, traced: bool = False) -> None:
        """One round, timed; then the checks of its outputs."""
        clock = time.perf_counter_ns
        attempts = self.attempts.setdefault(traced, [array("q") for _ in self.questions])
        outputs = []
        for question, times in zip(self.questions, attempts):
            start = clock()
            try:
                output = op(question)
            except Exception as exc:  # a failed operation, counted below
                output = exc
            times.append(clock() - start)
            outputs.append(output)
        self.attempted += len(self.questions)
        for question, output in zip(self.questions, outputs):
            problem = check(question, output)
            if problem is not None:
                self.failed += 1
                if question.text != self.known_failure:
                    self.unexpected.append(f"{question.text[:80]!r}: {problem}")

    def times_ms(self, traced: bool = False) -> list[float]:
        return [percentile(times, 0.9) / 1e6 for times in self.attempts[traced]]


def percentile(values, fraction: float) -> float:
    """Linear interpolation between the nearest ranks; one value is its own."""
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def run_rounds(seconds: float, setup: Setup, *steps) -> None:
    """Repeat ``steps`` until ``seconds`` have passed, probing set-up between."""
    start = time.perf_counter()
    setup.catch_up(0)
    while True:
        for step in steps:
            step()
        elapsed = time.perf_counter() - start
        setup.catch_up(elapsed)
        if elapsed >= seconds:
            return


def end_to_end(tally: Tally, setup_s: float, peak_rss_mb: float) -> dict:
    times_ms = tally.times_ms()
    return {
        "setup_s": (setup_s, "s"),
        "qps": (len(times_ms) / (sum(times_ms) / 1e3), "1/s"),
        "latency_p50_ms": (percentile(times_ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(times_ms, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# --- tracing ------------------------------------------------------------------

def traced_ask(question, asks, op: int) -> SimpleNamespace:
    """``viquery ask`` in a fresh process with spans; they join ``asks``."""
    spans_file = OUT / f"ask-{os.getpid()}.json"
    result = run_child([str(HERE / "probe.py"), "ask", str(spans_file), question.text])
    try:
        recorded = json.loads(spans_file.read_text(encoding="utf-8"))
    finally:
        spans_file.unlink(missing_ok=True)
    asks.extend(recorded["spans"], op)
    return result


def round_layers(totals: dict, ops: int) -> dict:
    """Per-layer metrics of one traced round, per question."""

    def per_op(name: str, field: str = "total_ns", scale: float = 1e3) -> float:
        return totals.get(name, {}).get(field, 0) / ops / scale

    attempts = per_op("parser.match_rule", "calls", 1)
    parses = per_op("parser.parse", "size", 1)
    return {
        "lexicon.normalize_us": (per_op("lexicon.normalize"), "us"),
        "lexicon.tokenize_us": (per_op("lexicon.tokenize"), "us"),
        "lexicon.groups_per_query": (per_op("lexicon.tokenize", "size", 1), "count"),
        "lexicon.scan_calls_per_query": (per_op("lexicon.scan_constituent", "calls", 1), "count"),
        "lexicon.scan_us": (per_op("lexicon.scan_constituent"), "us"),
        "parser.parse_us": (per_op("parser.parse"), "us"),
        "parser.match_self_us": (per_op("parser.parse") - per_op("lexicon.normalize")
                                 - per_op("lexicon.tokenize"), "us"),
        "parser.rule_attempts_per_query": (attempts, "count"),
        "parser.parses_per_query": (parses, "count"),
        "parser.rule_hit_ratio": (parses / attempts if attempts else 0.0, "ratio"),
        "parser.match_rule_us": (per_op("parser.match_rule", "self_ns"), "us"),
        "semantics.transform_us": (per_op("semantics.transform"), "us"),
        "semantics.classify_us": (per_op("semantics.classify"), "us"),
        "catalog.evaluate_us": (per_op("catalog.evaluate"), "us"),
        "catalog.format_us": (per_op("catalog.format_answer"), "us"),
    }


def traced_run(workload: str, op, tally: Tally, seconds: float, setup: Setup) -> dict:
    """Untraced and traced rounds in turn; the per-layer metrics.

    Times are the 90th percentile over the traced rounds, for the reason
    ``Tally`` gives; counts are the same in every round.  The spans of the first
    traced round are written to ``out/trace-<workload>.jsonl``.
    """
    work, asks = spans.Tracer(), spans.Tracer()
    numbers = itertools.count()
    if workload == "cold_ask":
        work = asks

        def traced_op(question):
            return traced_ask(question, asks, next(numbers))

        targets = []
    else:
        root = work.wrap("op", op)

        def traced_op(question):
            work.current_op = next(numbers)
            return root(question)

        targets = (spans.module_targets(spans.PARSER_CALLS)
                   + spans.object_targets(op.calls, spans.PIPELINE_CALLS))
        for question in tally.questions[:TRACED_ASKS]:
            problem = check(question, traced_ask(question, asks, -1))
            if problem is not None and question.text != tally.known_failure:
                tally.unexpected.append(f"traced ask {question.text[:80]!r}: {problem}")

    rounds, mains = [], asks.durations("cli.main")

    def traced_round():
        with work.patched(targets):
            tally.run(traced_op, traced=True)
        rounds.append(round_layers(spans.layer_totals(work), len(tally.questions)))
        if len(rounds) == 1:
            sources = {"asks": asks} if work is asks else {"work": work, "asks": asks}
            spans.write(OUT / f"trace-{workload}.jsonl", sources)
        if work is asks:
            mains.extend(asks.durations("cli.main"))
        work.clear()

    run_rounds(seconds, setup, lambda: tally.run(op), traced_round)
    metrics = {}
    for name, (value, unit) in rounds[0].items():
        values = [r[name][0] for r in rounds]
        metrics[name] = (percentile(values, 0.9) if unit == "us" else value, unit)
    overhead = sum(tally.times_ms(traced=True)) / sum(tally.times_ms()) - 1
    load = setup.medians()
    return {
        "cli.import_ms": (load["import_s"] * 1e3, "ms"),
        "grammar.load_ms": (load["grammar_s"] * 1e3, "ms"),
        "lexicon.load_ms": (load["lexicon_s"] * 1e3, "ms"),
        "catalog.load_ms": (load["catalog_s"] * 1e3, "ms"),
        "cli.main_ms": (statistics.median(mains) / 1e6, "ms"),
        **metrics,
        "trace.overhead_pct": (100 * overhead, "%"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "viquery" / "__init__.py").is_file():
        print(f"no viquery sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    setup = Setup(args.seconds)
    data = workloads.Data()
    if args.workload == "cold_ask":
        questions, op = workloads.cold_round(args.seed, data), cold_ask
    else:
        build = workloads.corpus if args.workload == "corpus" else workloads.long_queries
        questions, op = build(args.seed, data), InProcess(data)

    tally = Tally(questions, workloads.KNOWN_FAILURE)
    if args.trace:
        metrics = traced_run(args.workload, op, tally, args.seconds, setup)
    else:
        run_rounds(args.seconds, setup, lambda: tally.run(op))
        who = resource.RUSAGE_CHILDREN if args.workload == "cold_ask" else resource.RUSAGE_SELF
        metrics = end_to_end(tally, setup.medians()["setup_s"],
                             resource.getrusage(who).ru_maxrss / 1024)

    for problem in tally.unexpected[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {tally.attempted} attempted, "
          f"{tally.failed} failed", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:14.4f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
