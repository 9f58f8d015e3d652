"""The code-line rule of ``tools/loc.py``, the script that measures the
size of ``src/hoszp``."""

import importlib.util
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _loc():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _count(source: str) -> int:
    return _loc().code_lines(textwrap.dedent(source))


def test_blank_comment_and_docstring_lines_are_not_counted():
    source = '''
        """Module docstring,
        on two lines."""

        # a comment


        class A:
            """Class docstring."""

            def f(self):
                """Function
                docstring."""
                # another comment
                return 1  # a trailing comment
        '''
    assert _count(source) == 3  # class, def, return


def test_a_string_that_is_not_a_docstring_counts():
    source = '''
        x = 1
        """a string after the first statement"""
        '''
    assert _count(source) == 2


def test_a_statement_on_three_lines_counts_three():
    source = """
        total = (1
                 + 2
                 + 3)
        """
    assert _count(source) == 3


def test_main_total_is_the_sum_of_its_rows(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\n\ndef f():\n    return (1,\n            2)\n')
    (tmp_path / "notes.txt").write_text("z = 3\n")
    assert _loc().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["2", "a.py"], ["3", "b.py"], ["5", "total"]]
    assert sum(int(n) for n, _ in rows[:-1]) == int(rows[-1][0])
