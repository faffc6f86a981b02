"""Batched L1 fast path vs the per-reference slow path.

``MemorySystem.access_batch`` resolves private L1 hits in bulk; by
construction those hits generate no protocol traffic and no stall, so
with ``fast_path`` on or off every simulated quantity must be
*identical* — not approximately, bitwise.  This suite sweeps the
paper's three queries across both platforms and compares the full
:func:`repro.verify.fuzz.fingerprint` (every :class:`CpuMemStats`
counter, cache contents, directory, engine and interconnect counters,
clocks), the derived per-process snapshots, and the wall clock.
"""

from __future__ import annotations

import pytest

from tests.conftest import TINY_TPCH

from repro.config import TEST_SIM
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.workload import make_query_process
from repro.mem.machine import platform
from repro.mem.memsys import MemorySystem
from repro.osim.scheduler import Kernel
from repro.tpch.queries import QUERIES
from repro.verify.fuzz import fingerprint


def run_memsys(db, plat: str, query: str, n_procs: int, fast_path: bool):
    """Run one cell keeping the MemorySystem (run_experiment discards
    it), so its full end state can be compared."""
    machine = platform(plat).scaled(TEST_SIM.cache_scale_log2)
    memsys = MemorySystem(machine, db.aspace, fast_path=fast_path)
    kernel = Kernel(machine, memsys, TEST_SIM)
    db.reset_runtime()
    qdef = QUERIES[query]
    params = qdef.params()
    for pid in range(n_procs):
        gen, _ = make_query_process(db, qdef, params, pid, cpu=pid)
        kernel.spawn(gen, cpu=pid)
    kernel.run()
    return memsys, kernel


@pytest.mark.parametrize("query", ["Q6", "Q21", "Q12"])
@pytest.mark.parametrize("plat", ["hpv", "sgi"])
def test_every_counter_identical(query, plat, tiny_db):
    """The whole observable end state: every per-CPU counter, every
    cache level's contents, the directory image, the engine's and the
    interconnect's counters, the process clocks and the processors'
    retired-instruction and cycle counts."""
    n_procs = 2
    fast_ms, fast_k = run_memsys(tiny_db, plat, query, n_procs, fast_path=True)
    slow_ms, slow_k = run_memsys(tiny_db, plat, query, n_procs, fast_path=False)
    fast = fingerprint(fast_ms, [p.clock for p in fast_k.processes], n_procs)
    slow = fingerprint(slow_ms, [p.clock for p in slow_k.processes], n_procs)
    for key in slow:
        assert fast[key] == slow[key], f"{query}/{plat}: {key!r} diverges"
    assert fast_k.wall_cycles() == slow_k.wall_cycles()
    assert [
        (p.processor.instrs_retired, p.processor.cycles_executed)
        for p in fast_k.processes
    ] == [
        (p.processor.instrs_retired, p.processor.cycles_executed)
        for p in slow_k.processes
    ]


@pytest.mark.parametrize("query", ["Q6", "Q21"])
def test_experiment_counters_identical(query, tiny_db):
    """End-to-end: the figures consume ExperimentResult snapshots."""
    for plat in ("hpv", "sgi"):
        base = ExperimentSpec(
            query=query, platform=plat, n_procs=4,
            sim=TEST_SIM, tpch=TINY_TPCH, verify_results=False,
        )
        fast = run_experiment(base, db=tiny_db)
        slow = run_experiment(
            base.with_(sim=TEST_SIM.with_(fast_path=False)), db=tiny_db
        )
        assert fast.runs[0].wall_cycles == slow.runs[0].wall_cycles
        for pa, pb in zip(fast.runs[0].per_process, slow.runs[0].per_process):
            assert pa == pb  # dataclass ==: every portable counter


def test_fast_path_default_on():
    assert TEST_SIM.fast_path is True


def test_escape_hatch_reaches_memsys(tiny_db):
    spec = ExperimentSpec(
        query="Q6", platform="hpv", n_procs=1,
        sim=TEST_SIM.with_(fast_path=False), tpch=TINY_TPCH,
        verify_results=False,
    )
    assert spec.sim.fast_path is False
    machine = platform("hpv").scaled(TEST_SIM.cache_scale_log2)
    ms = MemorySystem(machine, tiny_db.aspace, fast_path=spec.sim.fast_path)
    assert ms.fast_path is False
