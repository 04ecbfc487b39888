"""The benchmark's own tests:  python3 -m pytest perfbench/selftest.py

They check the reference evaluator against hand-worked answers on the
sample catalog, that every workload's inputs are a function of the seed,
and that the traced run's counts repeat exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def data():
    return workloads.Data()


@pytest.mark.parametrize("question, answer", [
    ("Tác giả A có viết sách B và sách C không?", "Có."),
    ("Tác giả A có viết sách B và sách Số Đỏ không?", "Không."),
    ("Ai đã viết sách Chí Phèo?", "Nam Cao"),
    ("Nhà xuất bản nào đã xuất bản sách Số Đỏ?", "Hội Nhà Văn"),
    ("Tác giả A đã viết bao nhiêu sách?", "2"),
    ("Ai đã viết sách Lan Hương?", "Không tìm thấy."),
    (workloads.KNOWN_FAILURE, "Có."),
])
def test_reference_hand_worked(data, question, answer):
    expected = data.expect(question)[1]
    assert expected.formatted() == answer
    assert expected.accepts(answer)


def test_reference_several_books_asked_who(data):
    expected = data.expect("Ai đã viết sách B và sách C?")[1]
    assert (expected.exact, expected.value) == (False, ("A", "D"))
    for line in ("Không tìm thấy.", "A", "A, D"):
        assert expected.accepts(line)
    for line in ("Nam Cao", "D, A", "A, A"):
        assert not expected.accepts(line)


def test_reads_books_apart(data):
    assert reference.reads_books_apart(
        data.expect(workloads.KNOWN_FAILURE)[0], data.records)
    assert not reference.reads_books_apart(
        data.expect("Tác giả A có viết sách B và sách Số Đỏ không?")[0], data.records)
    assert not reference.reads_books_apart(
        data.expect("Ai đã viết sách B và sách C?")[0], data.records)


@pytest.mark.parametrize("build", [workloads.corpus, workloads.long_queries,
                                   workloads.cold_round])
def test_inputs_are_a_function_of_the_seed(data, build):
    first = [q.text for q in build(3, data)]
    assert first == [q.text for q in build(3, data)]
    assert first != [q.text for q in build(4, data)]


@pytest.mark.parametrize("seed", [0, 7])
def test_corpus_attempts_the_known_failure_once_per_pass(data, seed):
    questions = workloads.corpus(seed, data)
    assert len(questions) == 57 * workloads.PER_RULE
    assert [q.text for q in questions].count(workloads.KNOWN_FAILURE) == 1
    cold = workloads.cold_round(seed, data)
    assert [q.text for q in cold].count(workloads.KNOWN_FAILURE) == 1


def test_corpus_is_the_generated_one_at_seed_0(data):
    generated = [text for _, text in workloads.generated(0, workloads.PER_RULE)]
    assert [q.text for q in workloads.corpus(0, data)] == generated


def test_unknown_syllables_start_no_lexicon_entry():
    lexicon = HERE.parent / "src" / "viquery" / "data" / "lexicon_v1.tsv"
    first = {line.split("\t")[1].split()[0]
             for line in lexicon.read_text(encoding="utf-8").splitlines()
             if line.count("\t") == 2 and not line.startswith("#")}
    assert first.isdisjoint(workloads.UNKNOWN_SYLLABLES)


def traced_run(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=180)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["corpus", "long_queries", "cold_ask"])
def test_traced_counts_repeat(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert first["correct"] and second["correct"]
    counts = [name for name, metric in first["metrics"].items()
              if metric["unit"] in ("count", "ratio")]
    assert len(counts) == 5
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
