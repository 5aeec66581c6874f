"""scripts/code_lines.py on a toy source, and its table over the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

TOY = '''"""Module docstring,
on two lines."""

# a comment-only line
import os  # a trailing comment: the line counts once


class Box:
    """Class docstring."""

    size = 1


def plain(x):
    """Function docstring,
    on two lines."""
    text = """a string that is no docstring:
each of its three lines
counts"""
    return text


async def later():
    """Async function docstring."""
    return (
        1
    )


def without_docstring():
    "".join([])
'''
# counted: import os; class Box; size = 1; def plain; text's three lines;
# return text; async def later; return (, 1 and ); def without_docstring;
# its body
TOY_CODE_LINES = 14


def test_toy_source_counts_code_lines_only():
    assert code_lines.code_lines(TOY) == TOY_CODE_LINES


def test_an_expression_statement_after_the_first_is_no_docstring():
    source = 'def f():\n    pass\n    """not the first statement"""\n'
    assert code_lines.code_lines(source) == 3


def test_the_table_lists_each_module_and_the_total():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    modules = sorted(path.name for path in code_lines.SOURCES.glob("*.py"))
    assert [line.split()[0] for line in lines] == [*modules, "total"]
    counts = [int(line.split()[1].replace(",", "")) for line in lines]
    assert sum(counts[:-1]) == counts[-1]
