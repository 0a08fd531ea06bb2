"""`curvature.PointGeometry` is the one chart reader: outside `charts`, no
code in the package touches a `Chart` read method other than through
`PointGeometry`'s `Chart._grids_at` call."""
import ast
import pathlib

import acmslab
from acmslab.charts import Chart

PACKAGE = pathlib.Path(acmslab.__file__).parent
READERS = frozenset(name for name in vars(Chart) if name.endswith("_at"))


def _references(node, scope=()):
    """(enclosing class and function names, attribute) for every use of a
    `Chart` read method under ``node``, by attribute or by name string."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, child.name)
        if isinstance(child, ast.Attribute) and child.attr in READERS:
            yield scope, child.attr
        if isinstance(child, ast.Constant) and child.value in READERS:
            yield scope, child.value
        yield from _references(child, inner)


def test_point_geometry_is_the_only_chart_reader():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "charts.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend((path.stem, scope[:1], attr) for scope, attr in _references(tree))
    assert found and set(found) == {("curvature", ("PointGeometry",), "_grids_at")}
