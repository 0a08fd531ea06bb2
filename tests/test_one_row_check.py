"""`exprs` is the one module that traps a floating-point exception: its
tree-walker turns one into an `EvalError`, and its array programs report
the rows that hold a non-finite entry instead of raising. No other module
in the package names ``FloatingPointError``, so a chart's failing row is
found in one pass, by the rows a program reports."""
import ast
import pathlib

import acmslab

PACKAGE = pathlib.Path(acmslab.__file__).parent


def test_only_exprs_names_floating_point_error():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if any(isinstance(node, ast.Name) and node.id == "FloatingPointError"
               for node in ast.walk(tree)):
            found.add(path.stem)
    assert found == {"exprs"}
