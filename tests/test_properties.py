"""Cross-module invariants checked over the generated corpus."""

import random

from hypothesis import given, settings, strategies as st

from viquery.grammar import sample
from viquery.lexicon import normalize, tokenize
from viquery.parser import parse
from viquery.semantics import render_skeleton, transform


def test_round_trip_all_rules(grammar, lexicon, corpus):
    for rule_id, sentence in corpus:
        accepted = [r.rule_id for r in parse(sentence, grammar, lexicon)]
        assert rule_id in accepted, f"{rule_id}: {sentence!r} -> {accepted}"


def test_sample_determinism_across_calls(grammar, lexicon):
    rng = random.Random(99)
    for _ in range(30):
        rule = rng.choice(grammar)
        seed = rng.randrange(10**9)
        assert sample(rule, seed, lexicon) == sample(rule, seed, lexicon)


def _seed_lexicon():
    from viquery import load_lexicon
    from viquery.cli import data_path
    global _LEX
    if "_LEX" not in globals():
        _LEX = load_lexicon(data_path("lexicon_v1.tsv").read_text(encoding="utf-8"))
    return _LEX


@given(st.text(alphabet="aáàbcdđeèéghiklmnoôơpqrstuưvxy0123456789?, \t", max_size=60))
@settings(max_examples=150)
def test_tokenize_is_total_and_partitions(text):
    lex = _seed_lexicon()
    normalized = normalize(text)
    stream = tokenize(normalized, lex)
    assert " ".join(g.surface for g in stream) == normalized


def test_skeleton_rendering_shape(grammar, lexicon, corpus):
    for rule_id, sentence in corpus[:100]:
        results = parse(sentence, grammar, lexicon)
        source = next(r for r in results if r.rule_id == rule_id)
        text = render_skeleton(transform(source))
        assert text.startswith("(") and text.endswith("))")
        assert text.count("(") == text.count(")")
