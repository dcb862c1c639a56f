"""Count the lines of each module of the package by kind.

    python3 tests/src_lines.py [--functions] [package_dir]

package_dir defaults to src/gbsdelab next to this directory.  A line is a
docstring line where it lies in a module, class or function docstring
(blank lines inside one included), a comment line where it holds only a
comment, a blank line where it holds only whitespace, and code otherwise;
the total is what `wc -l` counts.  --functions lists instead the
docstring lines of each module, class and function that has a docstring,
by qualified name, largest first.  Standard library only; pytest does not
collect it.
"""

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

KINDS = ("docstring", "comment", "blank", "code")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstrings(node, name):
    """(qualified name, docstring statement) of node and of every module,
    class or function inside it that has a docstring; node is called name."""
    if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
        yield name, node.body[0]
    for child in ast.iter_child_nodes(node):
        yield from docstrings(child, f"{name}.{child.name}" if isinstance(child, _SCOPES)
                              else name)


def line_kinds(source: str) -> Counter:
    """How many lines of source are of each of KINDS."""
    lines = source.splitlines()
    kind = ["blank" if not line.strip() else "code" for line in lines]
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            kind[tok.start[0] - 1] = "comment"
    for _, doc in docstrings(ast.parse(source), ""):
        kind[doc.lineno - 1:doc.end_lineno] = ["docstring"] * (doc.end_lineno - doc.lineno + 1)
    return Counter(kind)


def main(argv) -> int:
    functions = "--functions" in argv
    args = [a for a in argv[1:] if a != "--functions"]
    root = Path(args[0]) if args else Path(__file__).parent.parent / "src/gbsdelab"
    paths = sorted(root.glob("*.py"))
    if functions:
        rows = [(doc.end_lineno - doc.lineno + 1, name) for path in paths
                for name, doc in docstrings(ast.parse(path.read_text()), path.stem)]
        print(f"{'docstring':>10}  name")
        for lines, name in sorted(rows, key=lambda row: (-row[0], row[1])):
            print(f"{lines:>10}  {name}")
        return 0
    rows = [(path.name, line_kinds(path.read_text())) for path in paths]
    rows.append(("total", sum((counts for _, counts in rows), Counter())))
    print(f"{'module':<14}" + "".join(f"{k:>10}" for k in (*KINDS, "total")))
    for name, counts in rows:
        print(f"{name:<14}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
