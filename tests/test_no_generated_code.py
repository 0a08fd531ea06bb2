"""Expressions are evaluated by `exprs.array_program` and `exprs.evaluate`
only: no module in the package calls the builtins ``exec``, ``eval`` or
``compile``, so generated code cannot return as a second evaluator.
(``re.compile`` is an attribute call and is fine.)"""
import ast
import pathlib

import acmslab

PACKAGE = pathlib.Path(acmslab.__file__).parent
BUILTINS = frozenset({"exec", "eval", "compile"})


def test_no_module_calls_exec_eval_or_compile():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno} {node.func.id}" for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id in BUILTINS)
    assert found == []
