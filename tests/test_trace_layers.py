"""The functions the benchmark's tracer wraps are bound where it looks them up.

``perfbench/run.py --trace 1`` wraps each ``(module, qualified name)`` of
``LAYERS`` in ``perfbench/tracing.py``; a rename or a move that breaks one
fails the traced run. ``LAYERS`` is read with ``ast``, so the benchmark's own
code is not run, and each name is resolved as ``Tracer._bindings`` resolves it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers() -> list[tuple[str, str]]:
    """The value of ``LAYERS``, as ``perfbench/tracing.py`` assigns it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no LAYERS")


def test_every_traced_function_is_bound_where_the_tracer_looks():
    layers = traced_layers()
    assert ("depscore.cli", "Dataset.pair_table") in layers
    for module, qualname in layers:
        owner = importlib.import_module(module)
        if "." in qualname:  # a method: wrapped on its class, found in the class's own dict
            cls_name, attr = qualname.split(".")
            original = vars(getattr(owner, cls_name))[attr]
        else:
            original = getattr(owner, qualname)
        assert callable(original), (module, qualname)
