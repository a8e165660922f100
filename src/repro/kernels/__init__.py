"""Compiled kernel layer for the sketch and solver hot loops.

Two interchangeable backends implement the same kernel set:

- ``numpy`` -- :mod:`repro.kernels.numpy_impl`, the historical code
  paths moved here verbatim; always available, bit-parity reference.
- ``native`` -- :mod:`repro.kernels.native`, C kernels compiled on
  demand with the system toolchain and loaded via ctypes.

The backend is selected once, at import time, from ``REPRO_KERNELS``:

- ``auto`` (default / unset): native if it builds and loads, else a
  clean numpy fallback (``backend_info()["fallback_reason"]`` says why).
- ``numpy``: force the reference backend.
- ``native``: require the compiled backend; raise with the build error
  if it cannot load (no silent fallback).

Consumers import the dispatched symbols from this package (one symbol
per call site: ``from repro.kernels import mulmod``); the registry in
:mod:`repro.kernels.registry` keeps both implementations addressable
for the parity batteries regardless of the selected backend.
"""

from __future__ import annotations

import os

from repro.kernels import numpy_impl as _numpy_impl
from repro.kernels.common import (
    MERSENNE_P,
    OracleCells,
    OracleEvalResult,
    OracleScratch,
)
from repro.kernels.registry import KERNEL_NAMES, KernelSpec, build_registry

__all__ = [
    "MERSENNE_P",
    "OracleCells",
    "OracleEvalResult",
    "OracleScratch",
    "KernelSpec",
    "REGISTRY",
    "backend",
    "backend_info",
    "native_available",
    *KERNEL_NAMES,
]

_requested = (os.environ.get("REPRO_KERNELS") or "auto").strip().lower() or "auto"
if _requested not in ("auto", "numpy", "native"):
    raise ValueError(
        f"REPRO_KERNELS={_requested!r}: expected 'auto', 'numpy' or 'native'"
    )

_native_mod = None
_fallback_reason: str | None = None
if _requested in ("auto", "native"):
    try:
        from repro.kernels import native as _native_mod  # type: ignore[no-redef]
    except Exception as exc:
        if _requested == "native":
            raise RuntimeError(
                "REPRO_KERNELS=native requested but the compiled backend "
                f"failed to load: {exc}"
            ) from exc
        _native_mod = None
        _fallback_reason = f"{type(exc).__name__}: {exc}"

_impl = _native_mod if _native_mod is not None else _numpy_impl

REGISTRY: dict[str, KernelSpec] = build_registry(_native_mod)

# dispatched symbols -- one per registry entry, bound once at import
mod_mersenne = _impl.mod_mersenne
mulmod = _impl.mulmod
powmod = _impl.powmod
pow_from_table = _impl.pow_from_table
sum_mod_p = _impl.sum_mod_p
sketch_ingest = _impl.sketch_ingest
decode_planes = _impl.decode_planes
gather_add2 = _impl.gather_add2
dual_scatter = _impl.dual_scatter
index_scatter = _impl.index_scatter
blend = _impl.blend
width_box = _impl.width_box
tick_stored_shift = _impl.tick_stored_shift
tick_stored_post = _impl.tick_stored_post
tick_pack_arg = _impl.tick_pack_arg
tick_pack_post = _impl.tick_pack_post
oracle_eval = _impl.oracle_eval
blossom_mates = _impl.blossom_mates
forest_place = _impl.forest_place


def backend() -> str:
    """Name of the selected backend: ``"numpy"`` or ``"native"``."""
    return "native" if _native_mod is not None else "numpy"


def native_available() -> bool:
    """Whether the compiled backend loaded in this process."""
    return _native_mod is not None


def backend_info() -> dict:
    """Selection details: requested mode, chosen backend, fallback reason."""
    return {
        "requested": _requested,
        "backend": backend(),
        "fallback_reason": _fallback_reason,
    }
