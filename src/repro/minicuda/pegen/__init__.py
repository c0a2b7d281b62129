"""pegen-style parser generator for the minicuda frontend.

Pipeline: ``minicuda.gram`` (PEG grammar) -> :mod:`metaparser` (grammar
file parser) -> :mod:`grammar` (model + nullable, left-recursion,
FIRST-set and re-entry analyses) -> :mod:`generator` (emits
``parser_gen.py``) -> :mod:`runtime` (ParserBase, the memo decorators,
AST assembly).

``python -m repro.minicuda.pegen`` regenerates the checked-in
``parser_gen.py``; ``--check`` verifies it is fresh (used by CI).
"""

from repro.minicuda.pegen.generator import generate_parser_source
from repro.minicuda.pegen.grammar import Grammar, GrammarError
from repro.minicuda.pegen.metaparser import parse_grammar
from repro.minicuda.pegen.runtime import (
    FAIL,
    ParserBase,
    memoize,
    memoize_left_rec,
)

__all__ = [
    "FAIL",
    "Grammar",
    "GrammarError",
    "ParserBase",
    "generate_parser_source",
    "memoize",
    "memoize_left_rec",
    "parse_grammar",
]
