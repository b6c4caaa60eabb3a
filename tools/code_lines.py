"""Code lines, ``wc -l`` lines and public names of each module of ``src/eprlab``.

    python3 tools/code_lines.py [directory]

A code line holds a token outside docstrings, comments and blank lines:
the lines of a module, class or function docstring, comment lines and
blank lines do not count. A module's public names are the string
literals of its ``__all__``; a starred entry, such as the package's
``*lhv.__all__``, re-exports names and declares none. ``directory``
defaults to ``src/eprlab``. Prints each module's code lines over its
``wc -l`` lines and its public-name count, then the totals. Standard
library only.
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


def public_names(tree: ast.Module) -> list[str]:
    """The string literals of a module-level ``__all__`` list or tuple."""
    names = []
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names += [element.value for element in node.value.elts
                      if isinstance(element, ast.Constant) and isinstance(element.value, str)]
    return names


def code_lines(path: Path) -> tuple[int, int, int]:
    """(code lines, ``wc -l`` lines, public names) of one Python source file."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    docstrings = docstring_lines(tree)
    code = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in NOT_CODE and token.start[0] not in docstrings:
                code.update(range(token.start[0], token.end[0] + 1))
    return len(code), source.count("\n"), len(public_names(tree))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else SRC
    total_code = total_lines = total_public = 0
    print(f"{'module':<16} {'code':>5} / wc -l {'public':>8}")
    for path in sorted(root.glob("*.py")):
        code, lines, public = code_lines(path)
        total_code += code
        total_lines += lines
        total_public += public
        print(f"{path.name:<16} {code:>5} / {lines:<5} {public:>8}")
    print(f"{'total':<16} {total_code:>5} / {total_lines:<5} {total_public:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
