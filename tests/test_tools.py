import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves a code line

# a comment-only line


class Thing:
    """Class docstring."""

    limit = (1,
             2)

    def method(self):
        """Method docstring
        over two lines."""
        text = """a string that is
        not a docstring"""
        return text


def function():
    """Function docstring."""
    return os.sep
'''


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    code_lines = load_tool("code_lines")
    # import, class, limit (2 lines), def, text (2 lines), return, def, return
    assert code_lines.code_lines(FIXTURE) == 10
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split("\n") == ["   10  a.py", "    1  b.py",
                                                   "   11  total", ""]
