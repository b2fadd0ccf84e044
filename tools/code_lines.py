"""Count the code lines of each module of ``setfuse``: lines that are not
blank, not comment-only and not part of a module, class or function
docstring.

Usage, from the repository root:

    python3 tools/code_lines.py [--src PATH]

``--src`` names the ``src`` directory of the checkout to count (default: the
one next to this file). Prints one line per module of ``src/setfuse``, in
path order, then the total.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that are neither blank, nor a comment
    alone, nor in a docstring."""
    docs = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="the src directory to count")
    args = parser.parse_args(argv)
    package = args.src / "setfuse"
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.relative_to(package).as_posix():<24} {count:5d}")
    print(f"{'total':<24} {total:5d}")


if __name__ == "__main__":
    main()
