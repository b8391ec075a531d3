"""Vectorized batch kernels: flat-array evaluation of the per-key hot path.

The PR 5 wall-clock sweep made single lookups fast; the remaining
per-*batch* cost was dominated by Python frames — one expander
evaluation, one hash, one bucket scan per key.  This package computes
those for a whole batch at once over flat ``array``/``numpy`` lanes (the
``NeighborhoodMemo`` flat-``array('I')`` design generalized), with the
charged cost untouched: kernels are pure value-to-value functions, and
every backend is held bit-identical to the scalar reference by the
property suite in ``tests/kernels``.

Backends are selected like the executor registry
(:mod:`repro.pdm.executors`): by name, with the pure-Python
:class:`~repro.kernels.base.PythonKernel` always available as the
reference and :class:`~repro.kernels.numpy_backend.NumpyKernel` loaded
lazily when numpy is importable.  The default is resolved per call from
the ``REPRO_KERNEL`` environment variable (``python`` / ``numpy``) and
auto-picks numpy when unset.  Every batch operation runs on a kernel.

This package sits beside :mod:`repro.bits` at the bottom of the layer
graph (arch-base): it may be imported from any layer and itself imports
nothing but ``repro.bits``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.kernels.base import Kernel, PythonKernel

KERNEL_NAMES = ("python", "numpy")

#: environment switch consulted by :func:`default_kernel`
KERNEL_ENV = "REPRO_KERNEL"

_instances: Dict[str, Kernel] = {}  # detlint: guarded(owner-lane) -- idempotent memo of stateless singletons


def create_kernel(name: str) -> Kernel:
    """Build a kernel backend by name (``python`` or ``numpy``).

    Raises :class:`ValueError` for unknown names and :class:`ImportError`
    when the numpy backend is requested without numpy installed.
    """
    if name == "python":
        return PythonKernel()
    if name == "numpy":
        from repro.kernels.numpy_backend import NumpyKernel

        return NumpyKernel()
    raise ValueError(
        f"unknown kernel backend {name!r}; expected one of {KERNEL_NAMES}"
    )


def _cached(name: str) -> Kernel:
    kern = _instances.get(name)
    if kern is None:
        kern = _instances[name] = create_kernel(name)
    return kern


def default_kernel() -> Kernel:
    """The process-default kernel, honoring ``REPRO_KERNEL``.

    Unset/``auto`` → numpy when importable else the reference; a backend
    name → that backend; anything else raises :class:`ValueError`.
    Kernels are stateless, so instances are shared.
    """
    choice = os.environ.get(KERNEL_ENV, "auto").strip().lower()
    if choice in ("auto", ""):
        try:
            return _cached("numpy")
        except ImportError:
            return _cached("python")
    if choice not in KERNEL_NAMES:
        raise ValueError(
            f"{KERNEL_ENV}={choice!r} is not a kernel backend; expected "
            f"one of {KERNEL_NAMES} (or unset for the default)"
        )
    return _cached(choice)


def resolve_kernel(spec: "Optional[str | Kernel]") -> Kernel:
    """Normalize a constructor argument into a kernel.

    ``None`` → :func:`default_kernel`; a name → that backend (see
    :func:`create_kernel`); a :class:`Kernel` instance passes through.
    """
    if spec is None:
        return default_kernel()
    if isinstance(spec, Kernel):
        return spec
    return _cached(spec)


__all__ = [
    "KERNEL_ENV",
    "KERNEL_NAMES",
    "Kernel",
    "PythonKernel",
    "create_kernel",
    "default_kernel",
    "resolve_kernel",
]
