"""Count the code, docstring, comment and blank lines of each module of a package.

    python3 tools/loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/wcrte``. A docstring is the string that opens a
module, class or function body, found with ``ast``; every line it spans counts
as docstring, and the ``module_doc`` column gives the lines of the module's
own docstring among them. Of the other lines, an empty one is blank, one whose
first non-space character is ``#`` is a comment, and the rest are code.
Standard library only.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank", "module_doc")
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_span(node: ast.AST) -> range:
    """The 1-based line numbers of ``node``'s docstring; empty if it has none."""
    first = node.body[0] if node.body else None
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        return range(first.lineno, first.end_lineno + 1)
    return range(0)


def count(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    docs = {line for node in ast.walk(tree) if isinstance(node, OWNERS)
            for line in docstring_span(node)}
    counts = dict.fromkeys(KINDS, 0)
    counts["module_doc"] = len(docstring_span(tree))
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/wcrte")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<20}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = count(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.stem:<20}" + "".join(f"{counts[kind]:>11}" for kind in KINDS))
    print(f"{'total':<20}" + "".join(f"{total[kind]:>11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
