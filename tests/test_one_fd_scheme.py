"""`charts` is the one module that knows the finite-difference scheme: no
other module in the package names its stencil, its difference or its
second step, so every other module reads fd derivatives only as arrays
`Chart._grids_at` returns, as it reads exact ones."""
import ast
import pathlib

import acmslab

PACKAGE = pathlib.Path(acmslab.__file__).parent
SCHEME = frozenset({"stencil_points", "stencil_difference", "FD_SECOND_STEP"})


def _names(tree):
    """Every name, attribute and imported name under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname


def test_only_charts_names_the_fd_scheme():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        hits = SCHEME.intersection(_names(tree))
        if hits:
            found[path.stem] = hits
    assert found == {"charts": SCHEME}
