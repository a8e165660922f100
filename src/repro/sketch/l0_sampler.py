"""ℓ0-sampling linear sketches.

An ℓ0 sampler summarizes a dynamic vector ``x`` (updated by
``x[i] += delta``, deltas may be negative) in ``O(polylog)`` space and,
on query, returns a uniformly random member of the *support*
``{i : x[i] != 0}`` with constant success probability -- or reports
failure.  Crucially the summary is **linear**: sketches of ``x`` and
``y`` built with the same seed add componentwise to a sketch of
``x + y``.  This is the primitive behind the AGM graph sketches
(:mod:`repro.sketch.graph_sketch`) and hence behind the paper's
"single round of MapReduce per sampling step" claim (Section 4.2).

Construction (standard, e.g. Jowhari-Sağlam-Tardos):

* ``L = log2(universe)`` geometric *levels*; a pairwise hash assigns each
  index ``i`` to all levels ``0..level(i)`` where ``P[level(i) >= l] = 2^-l``.
* Each level keeps a one-sparse recovery cell: the sum of the values,
  the sum of ``i * value`` and a fingerprint ``sum of value * z^(i+1)
  mod p`` -- enough to recover an index exactly when the level's
  restricted vector is 1-sparse, and to *detect* (whp, via the
  fingerprint) when it is not.
* Several independent repetitions boost success probability.

The cells of a sampler live in the contiguous arrays of
:class:`~repro.sketch.tensor.SketchTensor`, which updates and decodes
whole level planes at once; :class:`L0Sampler` is its one-slot,
one-row view.  Samples are pinned by the ``sketches`` group of
``tests/golden/digests.json``.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.sketch.tensor import SketchTensor
from repro.util.rng import make_rng

__all__ = ["L0Sampler"]


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

