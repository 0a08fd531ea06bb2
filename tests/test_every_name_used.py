"""No helper exists only for its own unit tests: every function, class and
method defined in the package is used by the package, exported in
``acmslab.__all__``, or wrapped by the benchmark's tracer
(``perfbench/tracer.py``, read as ``test_public_names`` reads it).

A definition counts as used when its name appears, as a name or as an
attribute, anywhere in the package outside the definition itself; dunder
methods are skipped."""
import ast
import importlib.util
import pathlib

import acmslab

PACKAGE = pathlib.Path(acmslab.__file__).parent
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(modname, path) for _, modname, path in tracer.TARGETS}


def _definitions(tree, scope=()):
    """(dotted path within the module, node) of every function and class."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            path = (*scope, child.name)
            yield ".".join(path), child
            yield from _definitions(child, path)
        else:
            yield from _definitions(child, scope)


def _names(tree) -> list[str]:
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def test_every_definition_is_used_exported_or_traced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses: dict[str, int] = {}
    for tree in trees.values():
        for name in _names(tree):
            uses[name] = uses.get(name, 0) + 1
    keep = _tracer_targets() | {(mod, name) for mod in trees for name in acmslab.__all__}
    unused = []
    for modname, tree in trees.items():
        for path, node in _definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = _names(node).count(node.name)
            if uses.get(node.name, 0) > inside or (modname, path) in keep:
                continue
            unused.append(f"{modname}.{path}")
    assert unused == []
