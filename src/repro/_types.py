"""Shared numpy-typing aliases for the strict-typed engine core.

``mypy --strict`` forbids bare ``np.ndarray`` annotations (unparameterized
generics), so the engine packages annotate arrays with the aliases below.
Dtype precision follows what the engines guarantee:

* ``IntArray`` — engine color/plan state, which runs on the int8 ->
  int16 -> int32 dtype ladder and reaches int64 only under the widening
  guard (any signed integer width);
* ``Int64Array`` / ``Int32Array`` — bookkeeping with a pinned width
  (CSR offsets, decided phases, meters);
* ``BoolArray`` — node masks (byzantine / crashed / decided);
* ``FloatArray`` — calibrated estimates and statistics;
* ``AnyArray`` — interfaces that accept caller-provided dtypes.

``SeedLike`` is the seed vocabulary of :func:`repro.sim.rng.make_rng`.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

__all__ = [
    "AnyArray",
    "BoolArray",
    "FloatArray",
    "Int8Array",
    "Int32Array",
    "Int64Array",
    "IntArray",
    "SeedLike",
]

AnyArray = npt.NDArray[Any]
BoolArray = npt.NDArray[np.bool_]
IntArray = npt.NDArray[np.signedinteger[Any]]
Int8Array = npt.NDArray[np.int8]
Int32Array = npt.NDArray[np.int32]
Int64Array = npt.NDArray[np.int64]
FloatArray = npt.NDArray[np.float64]

SeedLike = int | np.random.Generator | None
