"""viquery: restricted Vietnamese question parsing for book-catalog search.

Pipeline: normalize/tokenize a query against a closed lexicon plus
gazetteers, match it against a fixed inventory of flat syntactic rules,
transform the winning parse into a verb-centered semantic representation,
and optionally evaluate that representation against a local catalog.

The package exports the nine functions of that pipeline; every other name
is imported from its module, such as ``viquery.parser.BlankQueryError``.
"""

from .catalog import evaluate, format_answer, load_catalog
from .grammar import parse_rule_dsl
from .lexicon import load_lexicon
from .parser import parse
from .semantics import classify, render_skeleton, transform

__version__ = "1.0.0"

__all__ = [
    "classify", "evaluate", "format_answer", "load_catalog", "load_lexicon",
    "parse", "parse_rule_dsl", "render_skeleton", "transform",
]
