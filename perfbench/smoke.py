"""Smoke tests of the benchmark itself (tiny inputs, same code paths).

    python3 -m pytest -q perfbench/smoke.py

Not collected by the repository's test suite (the file name does not
match ``test_*.py``); run it explicitly after changing the benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.configure_environment()

import compare  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostMonitor  # noqa: E402
from layers import LayerTracer  # noqa: E402

SPEC = run.SPEC


def _result_line(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        ],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    line = _result_line(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_corrupted_reply_digest_counts_as_error(monkeypatch):
    receive = workloads.AsyncServeClient._recv_for
    corrupted = []

    async def corrupt_first_reply(self, rid):
        header, payload = await receive(self, rid)
        if header.get("digest") and not corrupted:
            corrupted.append(rid)
            header = dict(header, digest="0" * 64)
        return header, payload

    scratch = run.BUILD / "perfbench"
    with HostMonitor(scratch / "smoke.probes") as monitor:
        wl = workloads.setup("serve_mix", 5, "tiny", 1.0, scratch)
        try:
            monkeypatch.setattr(workloads.AsyncServeClient, "_recv_for", corrupt_first_reply)
            out = wl.measure(1.0, trace=False, monitor=monitor)
        finally:
            wl.close()
    assert corrupted
    assert out.failed >= 1 and out.attempted > out.failed
    assert any("DigestMismatch" in why for why in out.errors)


def test_tracer_restores_every_wrapped_attribute():
    import repro.core.matching_solver as ms
    import repro.ingest.format as fmt

    before = (ms.micro_oracle, ms._k_blend, fmt.EdgeFile.read_raw_slice)
    with LayerTracer().installed():
        assert ms.micro_oracle is not before[0] and ms._k_blend is not before[1]
    assert (ms.micro_oracle, ms._k_blend, fmt.EdgeFile.read_raw_slice) == before


def _record(workload, cpu_count, backend, value):
    return {
        "stamp": {"workload": workload, "trace": 0, "cpu_count": cpu_count,
                  "kernel_backend": backend},
        "metrics": {"solve_s": {"value": value, "unit": "s"}},
    }


def test_compare_refuses_other_hosts_and_names_regressions(capsys):
    base = [_record("solve_default", 2, "native", v) for v in (1.0, 1.01, 0.99)]
    slower = [_record("solve_default", 2, "native", v) for v in (1.5, 1.52, 1.49)]
    assert compare.compare(base, slower, SPEC) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.compare(base, base, SPEC) == 0
    other_cores = [_record("solve_default", 4, "native", 1.0)]
    assert compare.compare(base, other_cores, SPEC) == 2
    other_backend = [_record("solve_default", 2, "numpy", 1.0)]
    assert compare.compare(base, other_backend, SPEC) == 2
