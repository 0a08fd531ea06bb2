"""Every name the package exports, and every function the benchmark's
tracer wraps, still exists.

The tracer (``perfbench/tracer.py``) patches functions by module and
attribute path; a name deleted from the package would otherwise surface
only as failed operations in a traced benchmark run.
"""
import functools
import importlib
import importlib.util
import pathlib

import acmslab

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _resolves(module, path: str) -> bool:
    try:
        functools.reduce(getattr, path.split("."), module)
    except AttributeError:
        return False
    return True


def test_traced_and_exported_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = [metric for metric, modname, path in tracer.TARGETS
                  if not _resolves(importlib.import_module(f"acmslab.{modname}"), path)]
    assert unresolved == []
    assert [name for name in acmslab.__all__ if not _resolves(acmslab, name)] == []
