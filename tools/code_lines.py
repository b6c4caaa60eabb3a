"""Code lines and ``wc -l`` lines of each module of ``src/eprlab``.

    python3 tools/code_lines.py [directory]

A code line holds a token outside docstrings, comments and blank lines:
the lines of a module, class or function docstring, comment lines and
blank lines do not count. ``directory`` defaults to ``src/eprlab``.
Prints each module's code lines over its ``wc -l`` lines, then the
total. Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eprlab"
#: Tokens that are not code: layout, comments and the end of the file.
NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that a module, class or function docstring spans."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> tuple[int, int]:
    """(code lines, ``wc -l`` lines) of one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(source, str(path)))
    code = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in NOT_CODE and token.start[0] not in docstrings:
                code.update(range(token.start[0], token.end[0] + 1))
    return len(code), source.count("\n")


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else SRC
    total_code = total_lines = 0
    for path in sorted(root.glob("*.py")):
        code, lines = code_lines(path)
        total_code += code
        total_lines += lines
        print(f"{path.name:<16} {code:>5} / {lines}")
    print(f"{'total':<16} {total_code:>5} / {total_lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
