"""Kernel backend selection for the flood kernels.

Two backends ship, ``numpy`` and ``numba``; both implement the
:class:`~.base.KernelBackend` protocol and are interchangeable
bit-for-bit (see ``base.py``).  Selection follows this precedence:

1. An explicit ``backend=`` argument — ``"numpy"``, ``"numba"``,
   ``"auto"``, or a :class:`~.base.KernelBackend` instance.  An unknown
   *name* is a hard :class:`ValueError`; ``"numba"`` without numba
   installed falls back to numpy with a one-time :class:`RuntimeWarning`.
2. The ``REPRO_KERNEL_BACKEND`` environment variable (when no explicit
   argument is given).  Unknown values warn once and resolve as
   ``"auto"`` — an env typo must not crash every entry point.
3. ``"auto"``: numba when importable, numpy otherwise.

``resolve_backend`` is called once per kernel construction (not per
round), so the env lookup and availability probe are off the hot path.
Every kernel shares one instance per backend.
"""

from __future__ import annotations

import os
import sys
import warnings

from . import numba_backend
from .base import BackendUnavailableError, KernelBackend
from .numba_backend import NumbaBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "ENV_VAR",
    "BackendUnavailableError",
    "KernelBackend",
    "NumbaBackend",
    "NumpyBackend",
    "available_backends",
    "resolve_backend",
]

#: Environment override consulted when no explicit ``backend=`` is given.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The backend names, in ``available_backends`` order.
_NAMES = ("numpy", "numba")

_NUMPY = NumpyBackend()
_NUMBA: NumbaBackend | None = None  # built on first selection
_WARNED: set[str] = set()


def available_backends() -> tuple[str, ...]:
    """The backend names that can run here: numpy, plus numba if importable.

    Reads ``numba_backend.NUMBA_AVAILABLE`` on every call (not a captured
    value), so tests can monkeypatch it and run the numba kernels as
    plain Python.
    """
    return _NAMES if numba_backend.NUMBA_AVAILABLE else _NAMES[:1]


def _user_stacklevel() -> int:
    """Stacklevel that attributes a warning to the first frame outside repro.

    Backend resolution is reached through several call depths — directly
    (``resolve_backend(...)``), through kernel construction
    (``FloodKernel(...) -> resolve_backend``), or deeper still through the
    engines — so no hardcoded stacklevel can land the fallback warning on
    the *user's* call site from every entry point.  Walking the live stack
    for the first frame whose module is not part of this package computes
    the right depth each time.
    """
    level = 1  # stacklevel 1 == _warn_once's own frame
    frame = sys._getframe(1)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module != "repro" and not module.startswith("repro."):
            break
        frame = frame.f_back
        level += 1
    return level


def _warn_once(key: str, message: str) -> None:
    if key not in _WARNED:
        _WARNED.add(key)
        warnings.warn(message, RuntimeWarning, stacklevel=_user_stacklevel())


def resolve_backend(backend: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend spec to an instance per the selection precedence.

    ``backend`` may be a :class:`KernelBackend` instance (returned as-is),
    ``"numpy"``, ``"numba"``, ``"auto"``, or ``None`` (consult
    ``REPRO_KERNEL_BACKEND``, then auto).  See the module docstring for
    the fallback and warning semantics.
    """
    global _NUMBA
    if backend is not None and not isinstance(backend, str):
        return backend
    name = backend
    if name is None:
        name = os.environ.get(ENV_VAR) or "auto"
        if name != "auto" and name not in _NAMES:
            _warn_once(
                f"env:{name}",
                f"{ENV_VAR}={name!r} names no kernel backend (known: "
                f"{sorted(_NAMES)}); using auto selection",
            )
            name = "auto"
    elif name != "auto" and name not in _NAMES:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: {sorted(_NAMES)}"
        )
    if name == "numpy":
        return _NUMPY
    if not numba_backend.NUMBA_AVAILABLE:
        if name == "numba":
            _warn_once(
                "unavailable:numba",
                "kernel backend 'numba' is unavailable in this environment; "
                "falling back to the numpy backend",
            )
        return _NUMPY
    if _NUMBA is None:
        _NUMBA = NumbaBackend()
    return _NUMBA
