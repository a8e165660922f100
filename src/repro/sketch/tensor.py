"""Array-backed ℓ0-sketch engine: all sampler cells in flat numpy tensors.

This is the one ℓ0 engine of the package: :class:`~repro.sketch.
l0_sampler.L0Sampler`, the AGM incidence sketches and every
spanning-forest route keep their cells here.  Storing one Python object
per cell would materialize ``n * t * repetitions * levels`` heap objects
for a :class:`~repro.sketch.graph_sketch.VertexIncidenceSketch` over
``n`` vertices with ``t`` rows and update them one scalar ``pow()`` at a
time.

:class:`SketchTensor` stores the linear measurements contiguously:

* ``s0``  -- int64, shape ``(slots, rows, repetitions, levels)``: the
  running sum of deltas per cell;
* ``s1``  -- int64, same shape: the running sum of ``index * delta``;
* ``fp``  -- uint64, same shape: the fingerprint
  ``sum_i delta_i * z^(i+1) mod p`` under the Mersenne prime
  ``p = 2^61 - 1``, with a distinct random ``z`` per
  ``(row, repetition, level)`` cell.

Axis semantics:

* **slots** are independent sketched vectors that *share* hash seeds --
  e.g. one slot per vertex of an incidence sketch.  Linearity holds
  across slots: summing cell planes over a slot set yields the sketch of
  the summed vectors, so component merges are plain ``ndarray.sum``
  reductions (plus a modular fingerprint sum) instead of deep copies.
* **rows** carry independent seeds (the ``t`` fresh-randomness rows a
  Boruvka/peeling round consumes); every slot shares row ``r``'s seeds.
* **repetitions x levels** is the classic ℓ0 grid: geometric
  subsampling levels, independent repetitions for success amplification.

Batch ingestion is a handful of vectorized scatters per ``(row, rep)``:
the level hash is evaluated on the whole index batch, ``s0``/``s1`` are
accumulated by an exact-level ``np.add.at`` followed by a reverse cumsum
over the level axis (an index at level ``lv`` feeds all cells
``0..lv``), and fingerprints use precomputed ``z``-power tables
(:func:`repro.sketch.hashing.pow_table`) with an overflow-safe split
scatter (the ``sum_mod_p`` kernel's logic inlined for the scatter
case).

Cell values and samples are pinned by the ``sketches`` group of
``tests/golden/digests.json``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.kernels import decode_planes as _k_decode_planes
from repro.kernels import mod_mersenne, mulmod, sum_mod_p
from repro.kernels import sketch_ingest as _k_sketch_ingest
from repro.sketch.hashing import MERSENNE_P, PolyHash, pow_table
from repro.util.rng import make_rng

__all__ = [
    "L0Params",
    "derive_l0_params",
    "SketchTensor",
    "MergedSketchView",
    "decode_planes",
    "decode_planes_many",
]

_MASK32 = np.uint64((1 << 32) - 1)
_SHIFT32 = np.uint64(32)


@dataclass
class L0Params:
    """Shared randomness of one ℓ0 sampler row (hashes + fingerprint bases)."""

    universe: int
    levels: int
    repetitions: int
    hashes: list[PolyHash]
    zs: np.ndarray  # int64 (repetitions, levels), values in [2, p-1)


def derive_l0_params(
    universe: int,
    seed: int | np.random.Generator | None,
    repetitions: int,
) -> L0Params:
    """Draw the randomness of one sampler row.

    The draw order is one :class:`PolyHash` per repetition, then the
    ``z`` matrix; the golden digests pin it.
    """
    rng = make_rng(seed)
    universe = int(universe)
    levels = max(1, int(np.ceil(np.log2(max(2, universe)))) + 2)
    repetitions = int(repetitions)
    hashes = [PolyHash(k=2, seed=rng) for _ in range(repetitions)]
    zs = rng.integers(2, MERSENNE_P - 1, size=(repetitions, levels))
    return L0Params(
        universe=universe,
        levels=levels,
        repetitions=repetitions,
        hashes=hashes,
        zs=zs,
    )


def decode_planes(
    s0: np.ndarray,
    s1: np.ndarray,
    fp: np.ndarray,
    z: np.ndarray,
    universe: int,
) -> tuple[int, int] | None:
    """Decode one sampler's ``(repetitions, levels)`` cell planes.

    Returns the first provably-1-sparse cell's ``(index, value)`` in the
    reference scan order (repetitions ascending, levels descending) or
    ``None`` -- the whole grid is tested at once instead of per-cell.
    """
    return decode_planes_many(s0[None], s1[None], fp[None], z, universe)[0]


def decode_planes_many(
    s0: np.ndarray,
    s1: np.ndarray,
    fp: np.ndarray,
    z: np.ndarray,
    universe: int,
) -> list[tuple[int, int] | None]:
    """Vectorized :func:`decode_planes` over a leading group axis.

    ``s0``/``s1``/``fp`` have shape ``(groups, repetitions, levels)``;
    ``z`` has shape ``(repetitions, levels)`` and is shared by every
    group (the linearity setting: merged components share seeds).

    The scan itself is a dispatched kernel (`repro.kernels.
    decode_planes`): candidate filtering, fingerprint check, and the
    reference cell order (repetitions ascending, levels descending) are
    identical on both backends.
    """
    return _k_decode_planes(s0, s1, fp, z, universe)


class SketchTensor:
    """Contiguous bank of ℓ0-sampler cells (see module docstring).

    This is the array-backed engine behind the AGM-style graph sketches
    of Section 4 (linear measurements supporting the one-round
    MapReduce / one-pass streaming bindings): cells live in flat
    ``(slot, row, repetition, level)`` tensors, ingestion is batched
    (:meth:`update_many`), component merges are axis sums
    (:meth:`merged_planes`), and decoding scans the whole grid at once
    (:func:`decode_planes` / :func:`decode_planes_many`).  Layout and
    batching contract are documented in ``docs/performance.md``.

    Parameters
    ----------
    universe:
        Sketched indices live in ``[0, universe)`` (edge ids use the
        canonical ``edge_key`` encoding, so ``universe = n^2``).
    row_seeds:
        One seed (or Generator) per row; rows are independent sampler
        banks, every slot shares them.
    repetitions:
        Independent repetitions per row (success amplification of the
        ℓ0 recovery); at least 1, else ``ValueError`` before anything
        is allocated.
    slots:
        Number of independent sketched vectors sharing the row seeds
        (one per vertex in an incidence sketch); linearity across slots
        is what makes merges cheap.
    """

    def __init__(
        self,
        universe: int,
        row_seeds: list,
        repetitions: int = 6,
        slots: int = 1,
    ):
        if int(repetitions) < 1:
            # zero repetitions would sketch nothing (every sample fails,
            # e.g. an edgeless forest) instead of failing loudly
            raise ValueError(f"repetitions must be at least 1, got {repetitions}")
        self.universe = int(universe)
        self.rows = len(row_seeds)
        self.repetitions = int(repetitions)
        self.slots = int(slots)
        params = [derive_l0_params(universe, s, repetitions) for s in row_seeds]
        self.levels = params[0].levels
        # (rows, repetitions, k) coefficient tensor: the ingest kernel
        # evaluates the level-hash polynomials without the hash objects
        self._coeffs = np.stack([[h.coeffs for h in p.hashes] for p in params])
        self.z = np.stack([p.zs for p in params]).astype(np.uint64)
        # z-power tables: z^(2^j) per cell, j over the exponent bit-width
        self._ztab = pow_table(self.z, max(1, self.universe.bit_length()))
        shape = (self.slots, self.rows, self.repetitions, self.levels)
        self.s0 = np.zeros(shape, dtype=np.int64)
        self.s1 = np.zeros(shape, dtype=np.int64)
        self.fp = np.zeros(shape, dtype=np.uint64)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_many(
        self,
        slots: np.ndarray | int,
        indices: np.ndarray,
        deltas: np.ndarray,
        row: int | None = None,
    ) -> None:
        """Apply ``x_slot[index] += delta`` for a whole batch at once.

        ``slots`` broadcasts against ``indices``; ``row=None`` feeds
        every row (each with its own hashes), an integer feeds only that
        row.  The batch may mix slots, repeat indices, and carry
        negative deltas (deletions).
        """
        if row is not None and not 0 <= int(row) < self.rows:
            raise IndexError("row out of range")
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        deltas = np.atleast_1d(np.asarray(deltas, dtype=np.int64))
        slot_arr = np.broadcast_to(
            np.asarray(slots, dtype=np.int64), indices.shape
        )
        nz = deltas != 0
        if not nz.all():
            indices, deltas, slot_arr = indices[nz], deltas[nz], slot_arr[nz]
        if len(indices) == 0:
            return
        if indices.min() < 0 or indices.max() >= self.universe:
            raise IndexError("index out of universe")
        if slot_arr.min() < 0 or slot_arr.max() >= self.slots:
            raise IndexError("slot out of range")
        rows = range(self.rows) if row is None else (int(row),)
        rowsel = np.fromiter(rows, dtype=np.int64)
        dmod = (deltas % MERSENNE_P).astype(np.uint64)
        # fused kernel: per (row, rep) -- hash batch -> level -> exact-level
        # scatter + suffix-sum into s0/s1 -> z-power fingerprint update
        _k_sketch_ingest(
            self.s0,
            self.s1,
            self.fp,
            self._coeffs,
            self._ztab,
            rowsel,
            np.ascontiguousarray(slot_arr),
            indices,
            deltas,
            dmod,
        )

    # ------------------------------------------------------------------
    # Linearity
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "SketchTensor") -> None:
        if (
            self.universe != other.universe
            or self.rows != other.rows
            or self.repetitions != other.repetitions
            or self.slots != other.slots
            or not np.array_equal(self.z, other.z)
        ):
            raise ValueError("cannot merge sketch tensors with different seeds")

    def merge(self, other: "SketchTensor") -> None:
        """Componentwise addition of another tensor with identical seeds."""
        self._check_compatible(other)
        self.s0 += other.s0
        self.s1 += other.s1
        self.fp = mod_mersenne(self.fp + other.fp)

    def merged_planes(
        self, slots: np.ndarray, row: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell planes of ``sum over slots`` for one row: an axis reduction.

        Returns ``(s0, s1, fp)`` with shape ``(repetitions, levels)`` --
        the sketch of the summed vectors, by linearity.
        """
        slots = np.atleast_1d(np.asarray(slots, dtype=np.int64))
        s0 = self.s0[slots, row].sum(axis=0)
        s1 = self.s1[slots, row].sum(axis=0)
        fp = sum_mod_p(self.fp[slots, row], axis=0)
        return s0, s1, fp

    def grouped_planes(
        self, labels: np.ndarray, n_groups: int, row: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-group merged planes for a full slot partition in one scatter.

        ``labels[slot]`` assigns every slot to a group ``< n_groups``;
        the result stacks :meth:`merged_planes` of every group, shape
        ``(n_groups, repetitions, levels)``.
        """
        labels = np.asarray(labels, dtype=np.int64)
        reps, levels = self.repetitions, self.levels
        s0 = np.zeros((n_groups, reps, levels), dtype=np.int64)
        s1 = np.zeros((n_groups, reps, levels), dtype=np.int64)
        np.add.at(s0, labels, self.s0[:, row])
        np.add.at(s1, labels, self.s1[:, row])
        # fingerprints: 32-bit split scatter, then modular recombination
        sel = self.fp[:, row]
        lo = np.zeros((n_groups, reps, levels), dtype=np.uint64)
        hi = np.zeros((n_groups, reps, levels), dtype=np.uint64)
        np.add.at(lo, labels, sel & _MASK32)
        np.add.at(hi, labels, sel >> _SHIFT32)
        fp = mod_mersenne(
            mulmod(mod_mersenne(hi), np.uint64(1) << _SHIFT32) + mod_mersenne(lo)
        )
        return s0, s1, fp

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def sample(self, slot: int = 0, row: int = 0) -> tuple[int, int] | None:
        """Decode one (slot, row) sampler: whole level planes at once."""
        return decode_planes(
            self.s0[slot, row],
            self.s1[slot, row],
            self.fp[slot, row],
            self.z[row],
            self.universe,
        )

    def sample_merged(self, slots: np.ndarray, row: int) -> tuple[int, int] | None:
        """Sample from the sum of several slots without materializing it."""
        s0, s1, fp = self.merged_planes(slots, row)
        return decode_planes(s0, s1, fp, self.z[row], self.universe)

    def is_zero(self, slot: int | None = None, row: int | None = None) -> bool:
        """True iff every linear measurement (of the selection) is zero."""
        sl = slice(None) if slot is None else slot
        ro = slice(None) if row is None else row
        return (
            not self.s0[sl, ro].any()
            and not self.s1[sl, ro].any()
            and not self.fp[sl, ro].any()
        )

    def space_words(self) -> int:
        """3 stored words per cell."""
        return 3 * self.slots * self.rows * self.repetitions * self.levels

    def clone(self) -> "SketchTensor":
        """Cheap copy: cell arrays are copied, shared randomness is aliased."""
        dup = copy.copy(self)
        dup.s0 = self.s0.copy()
        dup.s1 = self.s1.copy()
        dup.fp = self.fp.copy()
        return dup


@dataclass
class MergedSketchView:
    """Read-only ℓ0 sketch made of merged cell planes.

    What :meth:`SketchTensor.merged_planes` returns, packaged with the
    query API of a sampler -- this is the object component merges hand
    to downstream code instead of a deep-copied sampler.
    """

    s0: np.ndarray
    s1: np.ndarray
    fp: np.ndarray
    z: np.ndarray
    universe: int

    def sample(self) -> tuple[int, int] | None:
        return decode_planes(self.s0, self.s1, self.fp, self.z, self.universe)

    def is_zero(self) -> bool:
        return not self.s0.any() and not self.s1.any() and not self.fp.any()

    def space_words(self) -> int:
        return 3 * self.s0.size
