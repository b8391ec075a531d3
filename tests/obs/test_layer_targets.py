"""The layer tracers name the functions they patch by class and attribute:
``repro.obs.layers.TARGETS`` and the end-to-end benchmark's copy in
``benchmarks/e2e/layers.py``.  A rename or deletion in ``src`` would make
``LayerTracer.install`` fail, so every name in either table must keep
resolving until the table itself changes."""

from __future__ import annotations

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

from repro.obs import layers

LAYERS_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"


def _names(table):
    return [
        (module_name, cls_name, fn_name)
        for _layer, module_name, cls_name, _label, functions in table
        for fn_name in functions
    ]


def _targets():
    spec = importlib.util.spec_from_file_location("_e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return _names(module.TARGETS)


def _resolves(module_name, cls_name, fn_name):
    cls = getattr(import_module(module_name), cls_name)
    return any(fn_name in k.__dict__ for k in cls.__mro__)


@pytest.mark.parametrize(
    "module_name, cls_name, fn_name",
    _targets(),
    ids=lambda part: part,
)
def test_tracer_target_resolves(module_name, cls_name, fn_name):
    assert _resolves(module_name, cls_name, fn_name), (
        f"{cls_name}.{fn_name} is gone but the e2e tracer still patches it"
    )


@pytest.mark.parametrize(
    "module_name, cls_name, fn_name",
    _names(layers.TARGETS),
    ids=lambda part: part,
)
def test_src_tracer_target_resolves(module_name, cls_name, fn_name):
    assert _resolves(module_name, cls_name, fn_name), (
        f"{cls_name}.{fn_name} is gone but repro.obs.layers still patches it"
    )
