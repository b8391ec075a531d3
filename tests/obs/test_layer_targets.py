"""The end-to-end benchmark's layer tracer names functions it patches by
class and attribute (``benchmarks/e2e/layers.py`` ``TARGETS``).  A rename
or deletion in ``src`` would make ``LayerTracer.install`` fail, so every
name in the table must keep resolving until the table itself changes."""

from __future__ import annotations

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (module_name, cls_name, fn_name)
        for _layer, module_name, cls_name, _label, functions in module.TARGETS
        for fn_name in functions
    ]


@pytest.mark.parametrize(
    "module_name, cls_name, fn_name",
    _targets(),
    ids=lambda part: part,
)
def test_tracer_target_resolves(module_name, cls_name, fn_name):
    cls = getattr(import_module(module_name), cls_name)
    assert any(fn_name in k.__dict__ for k in cls.__mro__), (
        f"{cls_name}.{fn_name} is gone but the e2e tracer still patches it"
    )
