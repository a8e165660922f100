#!/usr/bin/env python
"""Tour of the ℓ0 sampler, the linear sketch behind every sampling round.

The sampler is *linear*: updates are deltas, sketches with equal seeds
merge by addition, and deletions genuinely cancel.  The demo runs it
over one dynamic edge stream and shows:

1. sampling          -- a surviving edge, after most inserts were deleted,
2. cancellation      -- deleting the survivors too leaves the zero sketch,
3. merge (linearity) -- two equal-seed sketches of a split stream, merged,
                        equal the sketch of the whole stream.

Run:  python examples/sketch_toolbox.py
"""

import numpy as np

from repro.sketch.graph_sketch import decode_edge, encode_edge
from repro.sketch.l0_sampler import L0Sampler
from repro.util.rng import make_rng


def main() -> None:
    n = 32
    rng = make_rng(7)
    universe = n * n

    # one event stream: inserts, then deletion of most edges
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(all_pairs)
    inserted = all_pairs[:200]
    deleted = inserted[: 200 - 12]  # only 12 survive
    survivors = set(inserted) - set(deleted)
    print(f"stream: {len(inserted)} inserts, {len(deleted)} deletes, "
          f"{len(survivors)} survivors")

    def codes(edges):
        return np.array([encode_edge(u, v, n) for u, v in edges], dtype=np.int64)

    ins, dels = codes(inserted), codes(deleted)

    # 1. a surviving edge
    l0 = L0Sampler(universe, seed=1)
    l0.update_many(ins, np.ones(len(ins), dtype=np.int64))
    l0.delete_many(dels)
    got = l0.sample()
    assert got is not None
    u, v = decode_edge(got[0], n)
    found = (min(u, v), max(u, v)) in survivors
    print(f"l0 sample            : edge ({u},{v}) {'OK' if found else 'WRONG'}")

    # 2. deleting the survivors as well cancels every cell to zero
    l0.delete_many(codes(sorted(survivors)))
    print(f"after all deletes    : zero={l0.is_zero()}, sample={l0.sample()}")

    # 3. split the stream in two, sketch each half, merge: the result is
    #    the sketch of the whole stream, cell for cell
    half = len(ins) // 2
    first, second = L0Sampler(universe, seed=1), L0Sampler(universe, seed=1)
    first.update_many(ins[:half], np.ones(half, dtype=np.int64))
    second.update_many(ins[half:], np.ones(len(ins) - half, dtype=np.int64))
    second.delete_many(dels)
    first.merge(second)
    same_sample = first.sample() == got
    # subtracting the whole stream from the merged sketch leaves zero cells
    first.delete_many(ins)
    first.update_many(dels, np.ones(len(dels), dtype=np.int64))
    print(f"merge of two halves  : same sample={same_sample}, "
          f"minus the whole stream is zero={first.is_zero()}")

    assert found and l0.is_zero() and l0.sample() is None
    assert same_sample and first.is_zero()
    print("OK: one linear sketch samples, cancels and merges.")


if __name__ == "__main__":
    main()
