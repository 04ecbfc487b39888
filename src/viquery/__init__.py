"""viquery: restricted Vietnamese question parsing for book-catalog search.

Pipeline: normalize/tokenize a query against a closed lexicon plus
gazetteers, match it against a fixed inventory of flat syntactic rules,
transform the winning parse into a verb-centered semantic representation,
and optionally evaluate that representation against a local catalog.
"""

from .catalog import (
    Answer,
    BookRecord,
    Catalog,
    CatalogError,
    EvaluationError,
    evaluate,
    format_answer,
    load_catalog,
)
from .grammar import (
    Grammar,
    GrammarError,
    RuleTerm,
    SyntacticRule,
    TermKind,
    parse_rule_dsl,
    render_dsl,
    sample,
    validate,
)
from .lexicon import (
    BookValue,
    Category,
    Lexicon,
    LexiconEntry,
    LexiconError,
    TimeValue,
    TokenStream,
    load_lexicon,
    normalize,
    scan_constituent,
    tokenize,
)
from .parser import (
    BlankQueryError,
    ConstituentBinding,
    ParseResult,
    constituents,
    match_rule,
    parse,
)
from .semantics import (
    Argument,
    QuestionType,
    SemanticNode,
    TimeConstraint,
    TransformError,
    classify,
    render_full,
    render_skeleton,
    resolve_time,
    transform,
)

__version__ = "1.0.0"

__all__ = [
    "Answer", "Argument", "BlankQueryError", "BookRecord", "BookValue",
    "Catalog", "CatalogError", "Category", "ConstituentBinding",
    "EvaluationError", "Grammar", "GrammarError", "Lexicon",
    "LexiconEntry", "LexiconError", "ParseResult", "QuestionType",
    "RuleTerm", "SemanticNode", "SyntacticRule", "TermKind", "TimeConstraint",
    "TimeValue", "TokenStream", "TransformError",
    "classify", "constituents", "evaluate", "format_answer", "load_catalog",
    "load_lexicon", "match_rule", "normalize", "parse", "parse_rule_dsl",
    "render_dsl", "render_full", "render_skeleton", "resolve_time", "sample",
    "scan_constituent", "tokenize", "transform", "validate",
]
