"""The contractions every chart command runs are batched matmuls and axis
permutations, not `np.einsum`: without a contraction path einsum makes no
BLAS call, and at the dimensions the paper's charts live in (4n + 1) it was
most of an `identities` call. A function named here that calls einsum
again fails this test before any benchmark run."""
import ast
import pathlib

import acmslab

PACKAGE = pathlib.Path(acmslab.__file__).parent
BATCHED = {
    "charts": {"christoffel", "christoffel_derivative", "nabla_xi", "nabla_phi"},
    "structure": {"check_eta_parallel"},
    "curvature": {"_assemble_curvature", "riemann", "modified_nphi"},
}


def _calls_einsum(node) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr == "einsum"
               or isinstance(sub, ast.Name) and sub.id == "einsum"
               for sub in ast.walk(node))


def test_batched_contractions_call_no_einsum():
    found, offenders = set(), []
    for modname, names in BATCHED.items():
        path = PACKAGE / f"{modname}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                found.add((modname, node.name))
                if _calls_einsum(node):
                    offenders.append(f"{modname}.{node.name}")
    assert found == {(mod, name) for mod, names in BATCHED.items() for name in names}
    assert offenders == []
