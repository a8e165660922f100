"""ℓ0-sampling linear sketches.

An ℓ0 sampler summarizes a dynamic vector ``x`` (updated by
``x[i] += delta``, deltas may be negative) in ``O(polylog)`` space and,
on query, returns a uniformly random member of the *support*
``{i : x[i] != 0}`` with constant success probability -- or reports
failure.  Crucially the summary is **linear**: sketches of ``x`` and
``y`` built with the same seed add componentwise to a sketch of
``x + y``.  This is the primitive behind the AGM graph sketches
(:mod:`repro.sketch.graph_sketch`) and hence behind the paper's
"single round of MapReduce per sampling step" claim (Section 4.2) and
the maximum-weight-edge search of Definition 2.

Construction (standard, e.g. Jowhari-Sağlam-Tardos):

* ``L = log2(universe)`` geometric *levels*; a pairwise hash assigns each
  index ``i`` to all levels ``0..level(i)`` where ``P[level(i) >= l] = 2^-l``.
* Each level keeps a :class:`OneSparseRecovery` cell triple
  ``(sum of values, sum of i*value, sum of i^2*value)`` -- enough to
  recover an index exactly when the level's restricted vector is
  1-sparse, and to *detect* (whp, via a random-linear-combination "sketch
  check") when it is not.
* Several independent repetitions boost success probability.

The cells of a sampler live in the contiguous arrays of
:class:`~repro.sketch.tensor.SketchTensor`, which updates and decodes
whole level planes at once; :class:`L0Sampler` is its one-slot,
one-row view.  :class:`OneSparseRecovery` is the same cell as a single
object, used by the F0 and CountSketch buckets.  Samples are pinned by
the ``sketches`` group of ``tests/golden/digests.json``.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.sketch.hashing import MERSENNE_P, mulmod, powmod
from repro.sketch.tensor import SketchTensor
from repro.util.rng import make_rng, spawn

__all__ = ["OneSparseRecovery", "L0Sampler", "L0SamplerBank"]


class OneSparseRecovery:
    """Linear cell that recovers ``(index, value)`` iff the vector is 1-sparse.

    Stores three linear measurements of the (integer-valued) vector:
    ``S0 = sum_i v_i``, ``S1 = sum_i i * v_i`` and a fingerprint
    ``F = sum_i v_i * z^i mod p`` for a fixed random ``z``.  If exactly one
    coordinate is nonzero then ``i = S1/S0`` and the fingerprint check
    ``F == v * z^i`` passes; for >1-sparse vectors the check fails with
    probability ``1 - O(universe/p)``.
    """

    __slots__ = ("s0", "s1", "fingerprint", "z", "universe")

    def __init__(self, universe: int, z: int):
        self.s0 = 0
        self.s1 = 0
        self.fingerprint = 0
        self.z = int(z) % MERSENNE_P
        self.universe = int(universe)

    def update(self, index: int, delta: int) -> None:
        self.s0 += int(delta)
        self.s1 += int(index) * int(delta)
        zi = pow(self.z, int(index) + 1, MERSENNE_P)
        self.fingerprint = (self.fingerprint + int(delta) % MERSENNE_P * zi) % MERSENNE_P

    def update_many(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Vectorized bulk update (used when sketching whole edge sets)."""
        indices = np.asarray(indices, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if len(indices) == 0:
            return
        self.s0 += int(deltas.sum())
        self.s1 += int((indices * deltas).sum())
        # batched modpow + exact modular dot product (no Python pow loop)
        zi = powmod(np.uint64(self.z), (indices + 1).astype(np.uint64))
        contrib = mulmod((deltas % MERSENNE_P).astype(np.uint64), zi)
        lo = int((contrib & np.uint64(0xFFFFFFFF)).sum())
        hi = int((contrib >> np.uint64(32)).sum())
        self.fingerprint = (self.fingerprint + (hi << 32) + lo) % MERSENNE_P

    def delete_many(self, indices: np.ndarray) -> None:
        """Vectorized turnstile deletion: ``x[i] -= 1`` for every index.

        Sugar over :meth:`update_many` with unit negative frequencies --
        the linearity that lets one insert/delete pair cancel to exact
        zeros inside the cell (the dynamic-stream workhorse).
        """
        indices = np.asarray(indices, dtype=np.int64)
        self.update_many(indices, np.full(len(indices), -1, dtype=np.int64))

    def merge(self, other: "OneSparseRecovery") -> None:
        """Componentwise addition (linearity)."""
        if self.z != other.z or self.universe != other.universe:
            raise ValueError("cannot merge cells with different seeds")
        self.s0 += other.s0
        self.s1 += other.s1
        self.fingerprint = (self.fingerprint + other.fingerprint) % MERSENNE_P

    def is_zero(self) -> bool:
        return self.s0 == 0 and self.s1 == 0 and self.fingerprint == 0

    def recover(self) -> tuple[int, int] | None:
        """Return ``(index, value)`` if provably 1-sparse, else ``None``."""
        if self.s0 == 0:
            return None
        if self.s1 % self.s0 != 0:
            return None
        idx = self.s1 // self.s0
        if idx < 0 or idx >= self.universe:
            return None
        expect = (self.s0 % MERSENNE_P) * pow(self.z, idx + 1, MERSENNE_P) % MERSENNE_P
        if expect != self.fingerprint:
            return None
        return int(idx), int(self.s0)

    def space_words(self) -> int:
        return 3


class L0Sampler:
    """Linear sketch supporting ``sample() -> (index, value) | None``.

    Parameters
    ----------
    universe:
        Indices are in ``[0, universe)``.
    seed:
        Shared seed -- sketches with equal seeds are mergeable.
    repetitions:
        Independent copies; failure probability decays geometrically.
    """

    def __init__(
        self,
        universe: int,
        seed: int | np.random.Generator | None = None,
        repetitions: int = 6,
    ):
        self.universe = int(universe)
        self.repetitions = int(repetitions)
        self._tensor = SketchTensor(
            universe, [make_rng(seed)], repetitions=repetitions, slots=1
        )
        self.levels = self._tensor.levels

    # ------------------------------------------------------------------
    def update(self, index: int, delta: int) -> None:
        """Apply ``x[index] += delta``."""
        if not (0 <= index < self.universe):
            raise IndexError("index out of universe")
        self._tensor.update_many(0, np.asarray([index]), np.asarray([delta]))

    def update_many(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Vectorized bulk update: level assignment computed per repetition."""
        self._tensor.update_many(0, indices, deltas)

    def delete_many(self, indices: np.ndarray) -> None:
        """Vectorized turnstile deletion (``x[i] -= 1`` per index)."""
        indices = np.asarray(indices, dtype=np.int64)
        self.update_many(indices, np.full(len(indices), -1, dtype=np.int64))

    def merge(self, other: "L0Sampler") -> None:
        """Add another sketch of the same seed/universe (linearity)."""
        if self.universe != other.universe or self.repetitions != other.repetitions:
            raise ValueError("incompatible sketches")
        self._tensor.merge(other._tensor)

    def clone(self) -> "L0Sampler":
        """Cheap copy for merge-without-mutation (no ``deepcopy``).

        Cell state is copied; the (immutable) hash functions and
        fingerprint bases are shared with the original.
        """
        dup = copy.copy(self)
        dup._tensor = self._tensor.clone()
        return dup

    def sample(self) -> tuple[int, int] | None:
        """Return a support member ``(index, value)`` or ``None`` on failure.

        Scans levels from the sparsest downward in each repetition; the
        first provably-1-sparse level yields the sample.
        """
        return self._tensor.sample(0, 0)

    def is_zero(self) -> bool:
        """True iff every linear measurement is zero (vector likely zero)."""
        return self._tensor.is_zero()

    def space_words(self) -> int:
        """Total stored words (3 per cell)."""
        return 3 * self.repetitions * self.levels


class L0SamplerBank:
    """A row of ``t`` independent ℓ0 samplers over the same universe.

    The AGM connectivity/spanning-forest algorithm needs ``O(log n)``
    *independent* samples per vertex because each Boruvka-style round
    consumes fresh randomness.  The bank shares the update stream across
    all samplers and exposes per-round access.
    """

    def __init__(
        self,
        universe: int,
        t: int,
        seed: int | np.random.Generator | None = None,
        repetitions: int = 6,
    ):
        child = spawn(make_rng(seed), t)
        self.samplers = [
            L0Sampler(universe, seed=child[i], repetitions=repetitions)
            for i in range(t)
        ]

    def __len__(self) -> int:
        return len(self.samplers)

    def __getitem__(self, i: int) -> L0Sampler:
        return self.samplers[i]

    def update(self, index: int, delta: int) -> None:
        for s in self.samplers:
            s.update(index, delta)

    def update_many(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        for s in self.samplers:
            s.update_many(indices, deltas)

    def delete_many(self, indices: np.ndarray) -> None:
        """Vectorized turnstile deletion across every sampler in the row."""
        indices = np.asarray(indices, dtype=np.int64)
        self.update_many(indices, np.full(len(indices), -1, dtype=np.int64))

    def merge(self, other: "L0SamplerBank") -> None:
        if len(self) != len(other):
            raise ValueError("bank sizes differ")
        for a, b in zip(self.samplers, other.samplers):
            a.merge(b)

    def space_words(self) -> int:
        return sum(s.space_words() for s in self.samplers)
