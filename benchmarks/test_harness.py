"""The bench harness's record switch and subprocess runner.

Collected by the tier-1 suite (unlike the ``bench_*`` files), so the
one code path every benchmark records and measures through is tested
on both kernel backends.
"""

import json
import os

import pytest

import harness

META_KEYS = {"commit", "dirty", "cpu_count", "kernels", "python", "numpy"}


@pytest.fixture
def bench_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "BENCH_DIR", tmp_path)
    return tmp_path


def test_record_is_a_noop_without_the_switch(bench_dir, monkeypatch):
    monkeypatch.delenv("BENCH_RECORD", raising=False)
    harness.record("BENCH_x.json", "point", {"s": 1.0})
    assert not (bench_dir / "BENCH_x.json").exists()


def test_record_stores_payload_unchanged_and_adds_meta(bench_dir, monkeypatch):
    monkeypatch.setenv("BENCH_RECORD", "1")
    path = bench_dir / "BENCH_x.json"
    old = {"other": {"s": 2.0}, "meta": {"other": {"commit": "abc"}}}
    path.write_text(json.dumps(old))
    curve = [{"n": 256, "s": 0.5}, {"n": 512, "s": 1.25}]
    harness.record("BENCH_x.json", "curve", curve)
    data = json.loads(path.read_text())
    assert data["curve"] == curve  # a list-valued curve stays a list
    assert data["other"] == old["other"]
    assert data["meta"]["other"] == old["meta"]["other"]
    meta = data["meta"]["curve"]
    assert set(meta) == META_KEYS
    assert meta["cpu_count"] == os.cpu_count()
    assert meta["kernels"] in ("numpy", "native")


def test_run_worker_returns_the_last_json_line():
    code = (
        "import json, sys\n"
        "print('warming up')\n"
        "print(json.dumps({'first': True}))\n"
        "print(json.dumps({'cfg': json.loads(sys.argv[1])}))\n"
    )
    assert harness.run_worker(code, {"n": 3}) == {"cfg": {"n": 3}}


def test_run_worker_pins_the_kernel_backend():
    code = "import json, os; print(json.dumps(os.environ['REPRO_KERNELS']))"
    assert harness.run_worker(code, kernels="numpy") == "numpy"


def test_run_worker_raises_with_stderr():
    code = "import sys; sys.stderr.write('worker-broke-here'); sys.exit(3)"
    with pytest.raises(RuntimeError, match="worker-broke-here"):
        harness.run_worker(code)
