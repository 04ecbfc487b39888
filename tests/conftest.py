from pathlib import Path

import pytest

from viquery import load_catalog, load_lexicon, parse_rule_dsl
from viquery.cli import data_path, derive_seed
from viquery.grammar import sample


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon(data_path("lexicon_v1.tsv").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def grammar():
    return parse_rule_dsl(data_path("rules_v1.bnf").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def catalog():
    return load_catalog(data_path("catalog_sample.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def toy_rules():
    """The toy grammar's path: three families over the built-in lexicon."""
    return Path(__file__).parent / "data" / "toy_rules.bnf"


@pytest.fixture(scope="session")
def rules(grammar, toy_rules):
    """Every rule of the built-in grammar and of the toy grammar."""
    return grammar + parse_rule_dsl(toy_rules.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def rule_by_id(grammar):
    """The built-in rules by id."""
    return {rule.id: rule for rule in grammar}


@pytest.fixture(scope="session")
def corpus(grammar, lexicon):
    """(rule_id, sentence) for every built-in rule x 5 seeds (285 lines)."""
    lines = []
    for rule in grammar:
        for i in range(5):
            lines.append((rule.id, sample(rule, derive_seed(0, rule.id, i), lexicon)))
    return lines


@pytest.fixture(scope="session")
def generated(grammar, lexicon):
    """What ``viquery --seed 0 generate all 20`` prints: 1140 sentences."""
    return [sample(rule, derive_seed(0, rule.id, i), lexicon)
            for rule in grammar for i in range(20)]
