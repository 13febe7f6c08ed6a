"""Print the total and code lines of each module of a package directory.

A code line is a line that holds a token outside docstrings and comments:
blank lines, comment lines and the lines of module, class and function
docstrings do not count, and a statement or string spanning several lines
counts each of them.  The last row sums the modules.

Usage: python tools/code_lines.py [DIR]   (default: src/flatproc)
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of the first token of each docstring in a module."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = docstring_starts(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1]
                / "src" / "flatproc")
    rows = [(path.name, *count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
