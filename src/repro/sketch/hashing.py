"""Seeded k-wise independent hash families.

Linear sketches need pairwise (and occasionally higher) independent hash
functions that are cheap to evaluate over *vectors* of keys.  We implement
the classic polynomial construction over the Mersenne prime
``p = 2^61 - 1``: a degree-(k-1) polynomial with random coefficients is
k-wise independent, and the Mersenne modulus lets us reduce without
division.

All evaluation is vectorized uint64 arithmetic; Python-level loops only
run over the (constant) polynomial degree.

The arithmetic kernels themselves (``mod_mersenne``, ``mulmod``,
``sum_mod_p``) live in :mod:`repro.kernels`, dispatched there between
the pure-numpy reference and the compiled native backend
(``REPRO_KERNELS``).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import mod_mersenne as _k_mod_mersenne
from repro.kernels import mulmod as _k_mulmod
from repro.util.rng import make_rng

__all__ = [
    "MERSENNE_P",
    "PolyHash",
    "uniform_from_hash",
    "pow_table",
]

MERSENNE_P = (1 << 61) - 1


def pow_table(z: np.ndarray | int, bits: int) -> np.ndarray:
    """Table of repeated squares ``z^(2^j) mod p`` for ``j in [0, bits)``.

    Output shape is ``shape(z) + (bits,)``; the ``sketch_ingest`` kernel
    evaluates ``z^e`` from a slice for whole exponent arrays with one
    multiply per set bit -- the precomputed-z-powers fast path of the
    array-backed sketch engine's fingerprint updates.
    """
    z = np.asarray(z, dtype=np.uint64)
    out = np.empty(z.shape + (int(bits),), dtype=np.uint64)
    cur = _k_mod_mersenne(z)
    for j in range(int(bits)):
        out[..., j] = cur
        cur = _k_mulmod(cur, cur)
    return out


class PolyHash:
    """k-wise independent hash ``h: [U] -> [0, 2^61-1)`` via random polynomial.

    Parameters
    ----------
    k:
        Independence (the polynomial has ``k`` random coefficients).
    seed:
        Integer seed or Generator.  Two ``PolyHash`` built from the same
        seed are identical functions -- required for *linear* sketches,
        which must evaluate the same hash when sketches are merged.
    """

    def __init__(self, k: int = 2, seed: int | np.random.Generator | None = None):
        if k < 1:
            raise ValueError("independence k must be >= 1")
        rng = make_rng(seed)
        self.k = k
        coeffs = rng.integers(0, MERSENNE_P, size=k, dtype=np.uint64)
        # leading coefficient nonzero for exact k-wise independence
        coeffs[0] = rng.integers(1, MERSENNE_P, dtype=np.uint64)
        self.coeffs = coeffs

    def __call__(self, x: np.ndarray | int) -> np.ndarray | int:
        """Evaluate the hash on (an array of) nonnegative integer keys."""
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=np.uint64))
        xs = _k_mod_mersenne(xs)
        acc = np.full(xs.shape, self.coeffs[0], dtype=np.uint64)
        for c in self.coeffs[1:]:
            acc = _k_mod_mersenne(_k_mulmod(acc, xs) + c)
        return int(acc[0]) if scalar else acc

    def uniform(self, x: np.ndarray | int) -> np.ndarray | float:
        """Hash mapped to floats in [0, 1) (for threshold subsampling)."""
        h = self(x)
        if np.isscalar(h):
            return float(h) / float(MERSENNE_P)
        return np.asarray(h, dtype=np.float64) / float(MERSENNE_P)

    def level(self, x: np.ndarray | int, max_level: int) -> np.ndarray | int:
        """Geometric level: smallest ``l`` such that hash survives l halvings.

        ``P[level >= l] = 2^-l``; capped at ``max_level``.  This is the
        standard subsampling-level assignment of ℓ0 sketches.
        """
        u = self.uniform(x)
        arr = np.atleast_1d(np.asarray(u))
        # level = floor(-log2(u)) but computed robustly; u == 0 maps to cap
        with np.errstate(divide="ignore"):
            lv = np.floor(-np.log2(np.maximum(arr, 2.0 ** -(max_level + 2)))).astype(np.int64)
        lv = np.clip(lv, 0, max_level)
        return int(lv[0]) if np.isscalar(u) else lv


def uniform_from_hash(h: np.ndarray) -> np.ndarray:
    """Map hash values in ``[0, 2^61-1)`` to floats in ``[0, 1)``."""
    return np.asarray(h, dtype=np.float64) / float(MERSENNE_P)
