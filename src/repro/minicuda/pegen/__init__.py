"""pegen-style parser generator for the minicuda frontend.

Pipeline: ``minicuda.gram`` (PEG grammar) -> :mod:`metaparser` (grammar
file parser) -> :mod:`grammar` (model + nullable, left-recursion,
FIRST-set and re-entry analyses) -> :mod:`generator` (emits
``parser_gen.py``) -> :mod:`runtime` (ParserBase, the memo decorators,
AST assembly).

``python -m repro.minicuda.pegen`` regenerates the checked-in
``parser_gen.py``; ``--check`` verifies it is fresh (used by CI).
"""

import importlib

from repro.minicuda.pegen.runtime import (
    FAIL,
    ParserBase,
    memoize,
    memoize_left_rec,
)

#: The build-time names, imported on first use (PEP 562): the parser a
#: compile runs needs only :mod:`runtime`, so a worker's first compile
#: does not load the grammar model, the metaparser or the generator.
_LAZY = {"generate_parser_source": "generator", "Grammar": "grammar",
         "GrammarError": "grammar", "parse_grammar": "metaparser"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


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
