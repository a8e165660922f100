"""Property battery for the modular-arithmetic kernels (hypothesis).

Pins every Mersenne-prime kernel against Python's arbitrary-precision
``pow()`` / ``%`` on random uint64 inputs, on *both* backends, and the
numpy references' exponentiation helpers on the reference.  The
tests in ``test_kernels.py`` check native-vs-numpy parity; these check
that the shared semantics are the right mathematics in the first place,
with hypothesis steering toward the overflow-prone corners (operands
near ``2^32``, ``p - 1``, ``p``, all-ones words).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.kernels as K
from repro.kernels import MERSENNE_P, REGISTRY
from repro.kernels import numpy_impl

P = MERSENNE_P
U64_MAX = (1 << 64) - 1

BACKENDS = [pytest.param(numpy_impl, id="numpy")]
if K.native_available():
    import repro.kernels.native as native_impl

    BACKENDS.append(pytest.param(native_impl, id="native"))

#: ``powmod`` and ``pow_from_table`` are no kernels: the numpy references
#: of ``decode_planes`` and ``sketch_ingest`` keep them as helpers
REFERENCE = BACKENDS[:1]


u64 = st.integers(min_value=0, max_value=U64_MAX)
lt61 = st.integers(min_value=0, max_value=(1 << 61) - 1)
res_p = st.integers(min_value=0, max_value=P - 1)


@pytest.mark.parametrize("impl", BACKENDS)
@given(x=u64)
@example(x=0)
@example(x=P - 1)
@example(x=P)
@example(x=P + 1)
@example(x=2 * P)
@example(x=U64_MAX)
@settings(deadline=None, max_examples=200)
def test_mod_mersenne_matches_python(impl, x):
    got = impl.mod_mersenne(np.uint64(x))
    assert int(np.asarray(got).item()) == x % P


@pytest.mark.parametrize("impl", BACKENDS)
@given(a=lt61, b=lt61)
@example(a=0, b=0)
@example(a=P, b=P)
@example(a=P - 1, b=P - 1)
@example(a=(1 << 32) - 1, b=(1 << 32) - 1)
@example(a=(1 << 32), b=(1 << 32))
@example(a=(1 << 61) - 1, b=(1 << 61) - 1)
@example(a=1, b=P)
@settings(deadline=None, max_examples=300)
def test_mulmod_matches_python(impl, a, b):
    got = impl.mulmod(np.uint64(a), np.uint64(b))
    assert int(np.asarray(got).item()) == (a * b) % P


@pytest.mark.parametrize("impl", BACKENDS)
@given(vals=st.lists(st.tuples(lt61, lt61), min_size=1, max_size=64))
@settings(deadline=None, max_examples=100)
def test_mulmod_vectorized_matches_python(impl, vals):
    a = np.array([v[0] for v in vals], dtype=np.uint64)
    b = np.array([v[1] for v in vals], dtype=np.uint64)
    got = impl.mulmod(a, b)
    assert got.tolist() == [(x * y) % P for x, y in vals]


@pytest.mark.parametrize("impl", REFERENCE)
@given(base=u64, exp=u64)
@example(base=0, exp=0)
@example(base=0, exp=5)
@example(base=P, exp=7)
@example(base=P - 1, exp=P - 1)
@example(base=2, exp=61)
@example(base=U64_MAX, exp=U64_MAX)
@settings(deadline=None, max_examples=150)
def test_powmod_matches_python(impl, base, exp):
    got = impl._powmod(base, exp)
    assert isinstance(got, int)
    assert got == pow(base % P, exp, P)


@pytest.mark.parametrize("impl", REFERENCE)
@given(z=st.integers(min_value=1, max_value=P - 1), exps=st.lists(u64, min_size=1, max_size=32))
@example(z=P - 1, exps=[0, 1, P, U64_MAX])
@settings(deadline=None, max_examples=100)
def test_pow_from_table_matches_python(impl, z, exps):
    table = np.empty(64, dtype=np.uint64)
    cur = z % P
    for j in range(64):
        table[j] = cur
        cur = (cur * cur) % P
    got = impl._pow_from_table(table, np.array(exps, dtype=np.uint64))
    assert got.tolist() == [pow(z, e, P) for e in exps]


@pytest.mark.parametrize("impl", BACKENDS)
@given(vals=st.lists(res_p, min_size=0, max_size=200))
@example(vals=[P - 1] * 64)
@example(vals=[])
@settings(deadline=None, max_examples=150)
def test_sum_mod_p_matches_python(impl, vals):
    v = np.array(vals, dtype=np.uint64)
    got = impl.sum_mod_p(v)
    assert int(np.asarray(got).item()) == sum(vals) % P


@pytest.mark.parametrize("impl", BACKENDS)
@given(
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(deadline=None, max_examples=50)
def test_sum_mod_p_axes_match_python(impl, rows, cols, seed):
    rng = np.random.default_rng(seed)
    v = rng.integers(0, P, size=(rows, cols), dtype=np.uint64)
    py = [[int(x) for x in row] for row in v.tolist()]
    assert impl.sum_mod_p(v, axis=0).tolist() == [
        sum(py[r][c] for r in range(rows)) % P for c in range(cols)
    ]
    assert impl.sum_mod_p(v, axis=1).tolist() == [
        sum(py[r][c] for c in range(cols)) % P for r in range(rows)
    ]


def test_battery_covers_both_backends_when_native_present():
    want = 2 if REGISTRY["mulmod"].native_impl else 1
    assert len(BACKENDS) == want
