"""Tests for the scripts under tools/."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# lines 1-2 and 8-10 are docstrings, 6 and 11 comments, 3 and 5 blank; the
# rest is code, the string on lines 12-14 with its blank and '#' lines too
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line
def f(x):
    """Function docstring.

    With a blank line inside."""
    # a comment inside
    text = """not a docstring

    # nor a comment"""
    return text
'''


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_lines_on_a_fixture():
    count_lines = _load("count_lines")
    assert count_lines.count(FIXTURE) == {
        "code": 6, "docstring": 5, "comment": 2, "blank": 2}
