"""``tools/code_lines.py``, the count behind every code-size figure: a code
line holds a token other than a comment, a line break or a docstring."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment on its own line
class Thing:
    """Class docstring."""

    size = (1 +
            2)

    def name(self):
        """Function
        docstring."""

        text = """a string,
not a docstring"""
        return os.path.join(text)
'''


def test_code_lines_counts_code_and_skips_docstrings_comments_and_blanks():
    # import; class; the two lines of size; def; the two lines of text; return
    assert code_lines.code_lines(SOURCE) == 8


def test_main_prints_each_module_then_the_total(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted((ROOT / "src" / "ccdlab").glob("*.py"))
    assert [name for name, _ in rows] == [path.stem for path in modules] + ["total"]
    counts = [int(count.replace(",", "")) for _, count in rows]
    assert counts[:-1] == [code_lines.code_lines(p.read_text(encoding="utf-8")) for p in modules]
    assert counts[-1] == sum(counts[:-1])
