"""Count the lines of each module of the package by kind.

    python3 tests/src_lines.py [package_dir]

package_dir defaults to src/gbsdelab next to this directory.  A line is a
docstring line where it lies in a module, class or function docstring
(blank lines inside one included), a comment line where it holds only a
comment, a blank line where it holds only whitespace, and code otherwise;
the total is what `wc -l` counts.  Standard library only; pytest does not
collect it.
"""

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

KINDS = ("docstring", "comment", "blank", "code")


def line_kinds(source: str) -> Counter:
    """How many lines of source are of each of KINDS."""
    lines = source.splitlines()
    kind = ["blank" if not line.strip() else "code" for line in lines]
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            kind[tok.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            kind[doc.lineno - 1:doc.end_lineno] = ["docstring"] * (doc.end_lineno
                                                                   - doc.lineno + 1)
    return Counter(kind)


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src/gbsdelab"
    rows = [(path.name, line_kinds(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum((counts for _, counts in rows), Counter())))
    print(f"{'module':<14}" + "".join(f"{k:>10}" for k in (*KINDS, "total")))
    for name, counts in rows:
        print(f"{name:<14}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
