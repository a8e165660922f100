"""The inner-step bounds decide what the exact scans decide.

Each lockstep inner step bounds the step width (a box over the cells
``(i, k)`` with a live level-``k`` edge at ``i``) and ``lambda`` (the
ratio of the edge the last ``lambda`` scan found at the minimum) from
the engine's O(n L) tables.  The exact ranged scan runs only on a step
whose bound cannot decide.  Forcing the scan on every step must leave
every result bit-identical, and the natural fallbacks must agree with
the forced ones.

The oracle kernel's cell list rests on the same has_ik cells: the
engine passes them alone, because both cells of every stored edge are
among them.  The blend walks the has_ik cells plus the cells where
``x`` was nonzero when the batch was built, and reads each step where
the oracle wrote it.  Those preconditions are checked here on the same
cases, and so is where the oracle's per-batch state lives: in the
engine's scratch, not on the batch.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np
import pytest

from repro.api import Problem, run
from repro.core import matching_solver as ms
from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
from repro.core.micro_oracle import OracleDualStep
from repro.core.relaxations import LayeredDual
from repro.graphgen import gnm_graph, odd_cycle_chain, with_uniform_weights
from repro.graphgen.ondisk import generate_gnm_file
from repro.ingest import FileBackedGraph, write_graph_file

from test_golden import GOLDEN, GROUPS, run_digest, solve_digest

#: The golden groups that run the solver engine.
SOLVER_GROUPS = (
    "backends",
    "file_backed",
    "mixed_run_many",
    "oracle_routes",
    "scans",
    "solve_default_tiny",
    "warm_session",
    "zero_capacity",
)


def _undecided(self, blended, *_args):
    return np.full(len(blended), np.inf)


def _force_exact(monkeypatch) -> None:
    """Make both bounds undecided, so every inner step runs both scans."""
    monkeypatch.setattr(ms._BatchEngine, "_width_bounds", _undecided)
    monkeypatch.setattr(ms._BatchEngine, "_lambda_bounds", _undecided)


@pytest.fixture
def inner_scans(monkeypatch):
    """Count the exact width and lambda scans run by inner steps."""
    counts = {"width": 0, "lambda": 0}
    for name, key in (("live_ratio_max", "width"), ("lambda_witness", "lambda")):

        def counting(dual, _scan=getattr(LayeredDual, name), _key=key):
            if sys._getframe(1).f_code.co_name == "_inner_tick":
                counts[_key] += 1
            return _scan(dual)

        monkeypatch.setattr(LayeredDual, name, counting)
    return counts


@pytest.mark.parametrize("group", SOLVER_GROUPS)
def test_forced_exact_scans_keep_the_golden_digests(group, monkeypatch, inner_scans):
    _force_exact(monkeypatch)
    got = GROUPS[group]()
    assert inner_scans["width"] > 0 and inner_scans["lambda"] > 0
    assert got == json.loads(GOLDEN.read_text())["digests"][group]


@pytest.mark.parametrize("group", SOLVER_GROUPS)
def test_stored_edge_cells_are_has_ik_cells(group, monkeypatch):
    """In every golden solver case, both cells of each stored edge are
    has_ik cells, so the engine's cell list (has_ik alone) holds every
    cell where the support scatter ``s`` or ``zeta`` is nonzero: ``s``
    vanishes off the list, and ``zeta`` is one ``zmul`` per has_ik cell
    (zero elsewhere)."""
    checked = []

    class Checked(ms.BatchMicroContext):
        def __init__(self, scratch, active, stored, support_vals, zmul, zsum, **kw):
            hik_idx = scratch.cells.hik_idx
            assert np.isin(stored.src_vl, hik_idx).all()
            assert np.isin(stored.dst_vl, hik_idx).all()
            assert len(zmul) == len(hik_idx)
            super().__init__(scratch, active, stored, support_vals, zmul, zsum, **kw)
            assert np.array_equal(scratch.cells.idx, hik_idx)
            off = np.ones(len(scratch.s), dtype=bool)
            off[scratch.cells.idx] = False
            assert not scratch.s[off].any()
            zeta = self._zeta()
            assert not zeta[off].any() and np.array_equal(zeta[hik_idx], zmul)
            # the tick's level sums are the plane's column sums, bit for bit
            b = scratch.batch
            for i in active:
                want = b.vl_view(zeta, i).sum(axis=0)
                assert b.l_view(self.zsum, i).tobytes() == want.tobytes()
            checked.append(len(stored.src_vl))

    monkeypatch.setattr(ms, "BatchMicroContext", Checked)
    GROUPS[group]()
    assert checked and max(checked) > 0


def test_batches_hold_only_their_fields(monkeypatch):
    """The oracle's per-batch state lives in the engine's
    ``OracleScratch``: every ``GraphBatch`` the engine builds, for a
    solve and for a ``solve_many``, holds its dataclass fields and
    nothing else once the solves are done."""
    built = []

    class Recording(ms.GraphBatch):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(ms, "GraphBatch", Recording)
    group = "zero_capacity"  # one solve, then a solve_many of three
    assert GROUPS[group]() == json.loads(GOLDEN.read_text())["digests"][group]
    assert max(b.size for b in built) == 3 and min(b.size for b in built) == 1
    for b in built:
        assert set(vars(b)) == {f.name for f in dataclasses.fields(b)}


@pytest.mark.parametrize("group", SOLVER_GROUPS)
def test_blend_reads_steps_where_the_oracle_wrote_them(group, monkeypatch):
    """At every tick, ``x`` and each blended step vanish off the blend's
    cell list, and each step, read where the oracle wrote it (or where
    a later evaluation of its search moved it), equals a copy taken when
    the oracle returned it, as the engine used to blend."""
    copies = {}  # id(step dual) -> (dual, copy at return, context, evaluation)
    seen = {"blends": 0, "steps": 0, "reevaluated": 0}
    evaluate = ms.BatchMicroContext.evaluate

    def recording(ctx, sub, rho):
        ctx._evals = getattr(ctx, "_evals", 0) + 1
        out, po = evaluate(ctx, sub, rho)
        for step in out.values():
            if isinstance(step, OracleDualStep) and step.route == "vertex":
                copies[id(step.dual)] = (step.dual, step.dual.x.copy(), ctx, ctx._evals)
        return out, po

    combine = ms._combine_steps

    def recorded_combine(a, b, s1, s2):
        for step in (a, b):
            entry = copies.get(id(step.dual))
            if entry is not None and entry[0] is step.dual:
                dual, copy, ctx, n_eval = entry
                assert dual.x.tobytes() == copy.tobytes()
                seen["reevaluated"] += ctx is not None and ctx._evals > n_eval
        mixed = combine(a, b, s1, s2)
        copies[id(mixed.dual)] = (mixed.dual, mixed.dual.x.copy(), None, 0)
        return mixed

    blend = ms._k_blend

    def checked_blend(x, steps, sigmas, cells):
        off = np.ones(x.size, dtype=bool)
        off[cells.idx] = False
        assert not x[off].any()
        for i, plane in enumerate(steps):
            if plane is None:
                continue
            lo, hi = int(cells.vl_off[i]), int(cells.vl_off[i + 1])
            assert not plane.ravel()[off[lo:hi]].any()
            found = [e for e in copies.values() if e[0].x is plane]
            if found:
                assert plane.tobytes() == found[0][1].tobytes()
                seen["steps"] += 1
        blend(x, steps, sigmas, cells)
        assert not x[off].any()
        seen["blends"] += 1

    monkeypatch.setattr(ms.BatchMicroContext, "evaluate", recording)
    monkeypatch.setattr(ms, "_combine_steps", recorded_combine)
    monkeypatch.setattr(ms, "_k_blend", checked_blend)
    assert GROUPS[group]() == json.loads(GOLDEN.read_text())["digests"][group]
    assert seen["blends"] > 0 and seen["steps"] > 0
    if group in ("mixed_run_many", "oracle_routes"):
        # multi-evaluation searches: steps outlived a later evaluation
        # of their context and still entered the combination intact
        assert seen["reevaluated"] > 0


def _tiny_files(tmp_path) -> list:
    """perfbench's ``tiny`` ``outofcore_solve`` instance and two
    ``serve_mix``-style matchings, each written as an ``.edges`` file."""
    path = tmp_path / "outofcore.edges"
    generate_gnm_file(path, 128, 512, seed=1, weights=(1.0, 100.0))
    out = [(path, SolverConfig(eps=0.3, offline="local", seed=1))]
    for n, seed in ((16, 11), (32, 12)):
        g = with_uniform_weights(gnm_graph(n, 4 * n, seed=seed), 1.0, 100.0, seed=seed + 1)
        path = tmp_path / f"serve{n}.edges"
        write_graph_file(path, g)
        out.append((path, SolverConfig(eps=0.3, offline="local", seed=seed)))
    return out


def _file_and_ram_digests(files) -> list[str]:
    out = []
    for path, cfg in files:
        on_disk = Problem.from_edge_file(path, config=cfg, materialize_policy="forbid")
        out.append(run_digest(run(on_disk, "semi_streaming")))
        in_ram = FileBackedGraph(path, materialize_policy="allow").materialize()
        out.append(run_digest(run(Problem(in_ram, cfg), "offline")))
    return out


def test_forced_exact_scans_keep_the_tiny_benchmark_digests(
    tmp_path, monkeypatch, inner_scans
):
    files = _tiny_files(tmp_path)
    default = _file_and_ram_digests(files)
    _force_exact(monkeypatch)
    assert _file_and_ram_digests(files) == default
    assert inner_scans["width"] > 0 and inner_scans["lambda"] > 0


@pytest.mark.parametrize(
    "scan, graph, config",
    [
        # a step's box exceeds PENALTY_WIDTH_BOUND
        (
            "width",
            with_uniform_weights(gnm_graph(8, 32, seed=0), 1.0, 100.0, seed=7),
            SolverConfig(eps=0.1, offline="local", seed=0, round_cap_factor=0.5),
        ),
        # 1 - 3 eps <= 0: no bound rules the exit out
        (
            "lambda",
            with_uniform_weights(gnm_graph(20, 60, seed=2), seed=3),
            SolverConfig(eps=0.4, offline="local", seed=1),
        ),
    ],
)
def test_natural_fallback_matches_forced_exact(
    scan, graph, config, monkeypatch, inner_scans
):
    default = solve_digest(DualPrimalMatchingSolver(config).solve(graph))
    assert inner_scans[scan] > 0
    _force_exact(monkeypatch)
    assert solve_digest(DualPrimalMatchingSolver(config).solve(graph)) == default


@pytest.mark.parametrize(
    "graph, config, with_z",
    [
        # odd-set mass on the dual
        (
            odd_cycle_chain(2, 3),
            SolverConfig(eps=0.3, p=4.0, inner_steps=150, round_cap_factor=3.0, seed=7),
            True,
        ),
        (
            with_uniform_weights(gnm_graph(8, 32, seed=0), 1.0, 100.0, seed=7),
            SolverConfig(eps=0.1, offline="local", seed=0, round_cap_factor=0.2),
            False,
        ),
    ],
)
def test_bounds_hold_against_the_scans_at_every_step(graph, config, with_z, monkeypatch):
    """Every width bound is at least the step's scanned width, and every
    lambda bound is the witness edge's scanned ratio bit for bit."""
    widths, lambdas = ms._BatchEngine._width_bounds, ms._BatchEngine._lambda_bounds
    seen = {"width": 0, "lambda": 0, "z": 0}

    def checked_widths(self, blended, steps):
        out = widths(self, blended, steps)
        for (_st, step), box in zip(blended, out):
            assert box * (1.0 + 1e-9) >= step.dual.live_ratio_max()
            seen["width"] += 1
        return out

    def checked_lambdas(self, blended):
        out = lambdas(self, blended)
        for (st, _), bound in zip(blended, out):
            i, j, k = st.lam_edge
            hits = [
                ratios[(src == i) & (dst == j) & (kl == k)]
                for *_, src, dst, kl, ratios in st.dual._live_ratio_chunks()
            ]
            assert np.concatenate(hits).tolist() == [bound]
            seen["lambda"] += 1
            seen["z"] += bool(st.dual.z)
        return out

    monkeypatch.setattr(ms._BatchEngine, "_width_bounds", checked_widths)
    monkeypatch.setattr(ms._BatchEngine, "_lambda_bounds", checked_lambdas)
    DualPrimalMatchingSolver(config).solve(graph)
    assert seen["width"] > 0 and seen["lambda"] > 0
    assert (seen["z"] > 0) == with_z
