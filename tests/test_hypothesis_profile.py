"""Tier-1 determinism is stated once, by the Hypothesis profile that
``conftest.py`` loads: every property replays the same examples and has no
deadline, and no test states either setting again."""
from __future__ import annotations

import ast
import pathlib

from hypothesis import settings


def test_loaded_profile_is_derandomized_without_deadline():
    assert settings.default.derandomize is True
    assert settings.default.deadline is None
    # A decorator that sets only max_examples inherits both.
    assert settings(max_examples=7).derandomize is True
    assert settings(max_examples=7).deadline is None


def test_no_test_restates_the_profile():
    restated = []
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "settings"):
                restated += [f"{path.name}:{node.lineno} {kw.arg}" for kw in node.keywords
                             if kw.arg in ("derandomize", "deadline")]
    assert restated == []
