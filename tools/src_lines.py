"""Count the lines of the library's modules, one way for every report.

Usage, from the repository root::

    python tools/src_lines.py

For each module under ``src/maximin_al`` and in total it prints the physical
lines, as ``wc -l`` counts them (newline characters), and the code lines:
those that are not blank, not a comment alone and not part of a docstring
(the string that opens a module, class or function body).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "maximin_al"


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for number, line in enumerate(text.splitlines(), start=1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docstring)
    return text.count("\n"), code


def main() -> None:
    total = [0, 0]
    for path in sorted(SRC.glob("*.py")):
        physical, code = count(path.read_text())
        total = [total[0] + physical, total[1] + code]
        print(f"{physical:6d} {code:6d}  {path.name}")
    print(f"{total[0]:6d} {total[1]:6d}  total")


if __name__ == "__main__":
    main()
