"""Shared fixtures."""

import pytest

from repro.minicuda import compiler
from tests import oracle_interpreter


@pytest.fixture
def oracle(monkeypatch):
    """``engine="ast"`` runs a program on the tree-walking oracle,
    wherever the compiler facade builds its interpreter."""
    monkeypatch.setattr(compiler, "Interpreter", oracle_interpreter.interpreter)
