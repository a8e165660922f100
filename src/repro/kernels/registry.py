"""Kernel registry: name -> (numpy impl, native impl, parity contract).

The registry is the single source of truth for what a "kernel" is.  The
dispatch layer (``repro.kernels.__init__``) binds one module-level
symbol per entry; the parity batteries iterate the registry so a new
kernel cannot be added without being pulled into the exhaustive
native-vs-numpy comparison.

The ``contract`` string states the exact equality promise the native
implementation makes against the numpy reference -- it is documentation
enforced by ``tests/test_kernels.py``, not executable itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.kernels import numpy_impl

__all__ = ["KernelSpec", "KERNEL_CONTRACTS", "KERNEL_NAMES", "build_registry"]

_EXACT_U64 = "exact uint64 equality on all inputs (integer arithmetic mod 2^61-1)"
_EXACT_F64 = "bitwise float64 equality (same IEEE op order as the numpy reference)"
_EXACT_F64_PW = (
    "bitwise float64 equality; reductions replicate numpy pairwise summation"
)

# name -> parity contract; insertion order is the canonical kernel list
KERNEL_CONTRACTS: dict[str, str] = {
    # Mersenne-prime arithmetic
    "mod_mersenne": _EXACT_U64,
    "mulmod": _EXACT_U64 + "; operands < 2^61",
    "sum_mod_p": _EXACT_U64 + "; values < p, axis length < 2^32",
    # fused sketch kernels
    "sketch_ingest": "exact int64/uint64 equality of the s0/s1/fingerprint "
    "cell tensors (wrap-exact scatter + suffix-sum; levels via the hash)",
    "decode_planes": "identical decode results (same cell scan order, "
    "python floor-division semantics, same fingerprint check)",
    # segment / scatter / gather primitives
    "gather_add2": _EXACT_F64,
    "dual_scatter": _EXACT_F64 + "; sequential accumulation in np.bincount order "
    "into out and the returned level sums; native zeroes only the list's cells of out",
    "blend": _EXACT_F64 + "; in-place on x; native visits only the cell list, "
    "off which x and the steps must vanish",
    "width_box": _EXACT_F64 + "; max over the has_ik cells, NaN-propagating",
    # inner-tick fused stages (exp happens in numpy between halves)
    "tick_stored_shift": _EXACT_F64,
    "tick_stored_post": _EXACT_F64_PW,
    "tick_pack_arg": _EXACT_F64,
    "tick_pack_post": _EXACT_F64_PW + "; zsum in np.bincount order, None without level ids",
    # fused Algorithm 5 steps 1-8
    "oracle_eval": _EXACT_F64_PW + "; route/k* integer-identical, scans "
    "sequential per row like np.cumsum; outputs written into the scratch",
    # offline harvest (Algorithm 2 step 5)
    "blossom_mates": "identical int64 mate arrays (each vertex's matched edge "
    "or -1) to networkx max_weight_matching on simple float-weighted graphs",
    # Algorithm 6's forest placement
    "forest_place": "identical forest indices, placed counts, forest counts "
    "and int32 parent rows (same finds and unions in the same order)",
}

KERNEL_NAMES: list[str] = list(KERNEL_CONTRACTS)


@dataclass(frozen=True)
class KernelSpec:
    """One dispatchable kernel and its parity promise."""

    name: str
    numpy_impl: Callable[..., Any]
    native_impl: Callable[..., Any] | None
    contract: str


def build_registry(native_mod=None) -> dict[str, KernelSpec]:
    """Assemble the registry, with native entries when the backend loaded."""
    out: dict[str, KernelSpec] = {}
    for name, contract in KERNEL_CONTRACTS.items():
        out[name] = KernelSpec(
            name=name,
            numpy_impl=getattr(numpy_impl, name),
            native_impl=getattr(native_mod, name) if native_mod is not None else None,
            contract=contract,
        )
    return out
