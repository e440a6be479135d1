"""Code lines of each flowsketch module and their total.

    python tools/code_lines.py [SOURCE_DIR]

SOURCE_DIR defaults to src/flowsketch. A code line is a physical line
that holds at least one token of code: blank lines, comment-only lines
and the lines of module, class and function docstrings are not
counted. Prints one ``count  module`` line per module, then the total.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Physical lines of source holding code outside docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    root = argv[0] if argv else os.path.join("src", "flowsketch")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count:5d}  {name}")
    print(f"{total:5d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
