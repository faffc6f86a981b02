"""Hierarchy-wide batched engine vs the per-reference slow path.

``MemorySystem.access_batch`` resolves clean L2 hits, silent E->M
upgrades, and same-line spatial runs inline — branches the TPC-H
workloads exercise only incidentally.  This suite drives synthetic
mixes built specifically to hammer those branches (the ``w_l2_reuse``
and ``w_upgrade`` knobs of :class:`SyntheticSpec`) through the fast
and slow paths and requires bitwise-identical fingerprints: every
counter, both cache levels' contents, the directory, and the clocks.
Handcrafted sharing patterns do the same for the inline directory
lanes (interventions, migratory hand-offs, writes to shared lines).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TEST_SIM
from repro.core.workload import make_query_process
from repro.mem.machine import platform
from repro.mem.memsys import MemorySystem
from repro.osim.scheduler import Kernel
from repro.trace.address import AddressSpace
from repro.trace.classify import DataClass
from repro.trace.stream import RefBatch
from repro.trace.synthetic import SyntheticSpec, build_address_space, generate
from repro.tpch.queries import QUERIES
from repro.verify.fuzz import FUZZ_SCALE_LOG2, drive_trace, fingerprint

#: Pool of 40 coherence lines: overflows the scaled L1 (2 lines) while
#: fitting the scaled sgi L2 (64 lines), so revisits are clean L2 hits.
L2_HEAVY = dict(w_l2_reuse=60, n_l2_pool_lines=40, n_batches=16)
UPGRADE_HEAVY = dict(w_upgrade=50, n_batches=16)


def run_both(plat: str, spec: SyntheticSpec):
    """Fast and slow fingerprints (plus the fast memsys) for one mix."""
    aspace, trace = generate(spec)
    machine = platform(plat, n_cpus=spec.n_cpus).scaled(FUZZ_SCALE_LOG2)
    prints = {}
    fast_ms = None
    for fast in (False, True):
        ms = MemorySystem(machine, aspace, fast_path=fast)
        clocks = drive_trace(ms, trace, machine.base_cpi)
        prints[fast] = fingerprint(ms, clocks, spec.n_cpus)
        if fast:
            fast_ms = ms
    return prints[False], prints[True], fast_ms


@pytest.mark.parametrize("plat", ["hpv", "sgi"])
@pytest.mark.parametrize("seed", [7, 1013])
def test_l2_heavy_mix_bitwise_equal(plat, seed):
    spec = SyntheticSpec(seed=seed, n_cpus=3, **L2_HEAVY)
    slow, fast, _ = run_both(plat, spec)
    assert slow == fast


@pytest.mark.parametrize("plat", ["hpv", "sgi"])
@pytest.mark.parametrize("seed", [11, 2711])
def test_upgrade_heavy_mix_bitwise_equal(plat, seed):
    spec = SyntheticSpec(seed=seed, n_cpus=3, **UPGRADE_HEAVY)
    slow, fast, _ = run_both(plat, spec)
    assert slow == fast


@pytest.mark.parametrize("plat", ["hpv", "sgi"])
def test_combined_mix_bitwise_equal(plat):
    spec = SyntheticSpec(
        seed=42, n_cpus=4, w_l2_reuse=30, w_upgrade=25,
        n_l2_pool_lines=40, n_batches=12, p_write=0.5,
    )
    slow, fast, _ = run_both(plat, spec)
    assert slow == fast


def test_l2_heavy_mix_actually_hits_the_l2():
    """The mix must exercise the branch it exists to test."""
    spec = SyntheticSpec(seed=7, n_cpus=3, **L2_HEAVY)
    _, _, ms = run_both("sgi", spec)
    assert sum(st.l2_hits for st in ms.stats) > 0


def test_upgrade_heavy_mix_actually_upgrades():
    spec = SyntheticSpec(seed=11, n_cpus=3, **UPGRADE_HEAVY)
    _, _, ms = run_both("sgi", spec)
    assert sum(st.silent_upgrades for st in ms.stats) > 0
    assert sum(st.upgrades for st in ms.stats) > 0


class TestKnobGating:
    """Weight-0 knobs must leave pre-existing specs untouched: same
    segments, same addresses, same trace, so fuzz seeds recorded before
    the knobs existed still reproduce byte-identically."""

    def test_no_gated_segments_at_weight_zero(self):
        spec = SyntheticSpec(seed=3)
        aspace = build_address_space(spec)
        names = {seg.name for seg in aspace.segments}
        assert "syn.upgrade" not in names
        assert not any(n.startswith("syn.l2pool") for n in names)

    def test_gated_segments_appear_after_legacy_layout(self):
        base = build_address_space(SyntheticSpec(seed=3))
        knobbed = build_address_space(
            SyntheticSpec(seed=3, w_l2_reuse=10, w_upgrade=10)
        )
        n = len(base.segments)
        assert [s.name for s in knobbed.segments[:n]] == [
            s.name for s in base.segments
        ]
        assert [s.base for s in knobbed.segments[:n]] == [
            s.base for s in base.segments
        ]

    def test_weight_zero_trace_identical_to_legacy(self):
        _, legacy = generate(SyntheticSpec(seed=99, n_cpus=2))
        _, gated = generate(
            SyntheticSpec(seed=99, n_cpus=2, w_l2_reuse=0, w_upgrade=0)
        )
        assert [
            [(b.addrs, b.writes, b.instrs, b.classes) for b in cpu]
            for cpu in legacy
        ] == [
            [(b.addrs, b.writes, b.instrs, b.classes) for b in cpu]
            for cpu in gated
        ]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, w_l2_reuse=-1)


def _batch(addrs, writes=None, instrs=None, cls=DataClass.PRIVATE):
    """Handcraft a columnar RefBatch from an address vector."""
    a = np.asarray(addrs, dtype=np.int64)
    n = a.shape[0]
    w = (
        np.zeros(n, dtype=np.bool_)
        if writes is None
        else np.asarray(writes, dtype=np.bool_)
    )
    i = (
        np.ones(n, dtype=np.int64)
        if instrs is None
        else np.asarray(instrs, dtype=np.int64)
    )
    return RefBatch.from_columns(a, w, i, np.full(n, int(cls), dtype=np.uint8))


def _run_engines(plat, aspace, trace, n_cpus):
    """Fingerprints from all three engines over the same trace.

    ``vector`` is forced with pathological kernel parameters — every
    batch vectorized, one-reference prefixes retired in bulk — because
    the equivalence claim is parameter-independent: window and prefix
    thresholds may only move work between lanes, never change results.
    """
    machine = platform(plat, n_cpus=n_cpus).scaled(FUZZ_SCALE_LOG2)
    out = {}
    for mode in ("perref", "scalar", "vector"):
        ms = MemorySystem(machine, aspace, fast_path=(mode != "perref"))
        if mode == "scalar":
            ms.VECTOR_MIN_REFS = 1 << 60
        elif mode == "vector":
            ms.VECTOR_MIN_REFS = 1
            ms.VECTOR_MIN_PREFIX = 1
        clocks = drive_trace(ms, trace, machine.base_cpi)
        out[mode] = (fingerprint(ms, clocks, n_cpus), ms)
    prints = {m: fp for m, (fp, _) in out.items()}
    assert prints["perref"] == prints["scalar"] == prints["vector"]
    return out["vector"][1]


def _pool(n_lines, line_size=128):
    aspace = AddressSpace()
    seg = aspace.alloc(
        "adv.pool", n_lines * line_size, DataClass.RECORD, shared=True
    )
    return aspace, [seg.base + k * line_size for k in range(n_lines)]


class TestAdversarialBatches:
    """Handcrafted worst-case batches for the columnar kernel: shapes
    where the vectorized pre-pass degenerates (every reference slow,
    no reference slow, prefixes of length one) and where the arithmetic
    is most exposed (int64 edge addresses, float cost accumulation).
    Every test drives all three engines and requires bitwise-equal
    fingerprints; the branch-count asserts then pin that each batch
    really exercised the branch it was built for.
    """

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_all_miss_batch(self, plat):
        # 256 distinct coherence lines, revisited once: on the scaled
        # machines this churns every set, so the vector pre-pass never
        # finds a fast prefix and the inline miss lane does all work.
        aspace, lines = _pool(256)
        addrs = lines + lines
        writes = [False] * 256 + [True] * 256
        trace = [[_batch(addrs, writes)]]
        ms = _run_engines(plat, aspace, trace, 1)
        st = ms.stats[0]
        assert st.reads == 256 and st.writes == 256
        assert st.level1_misses == 512  # nothing survives the churn

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_all_spatial_run_batch(self, plat):
        # One line touched 300 times in a row: the scalar engine's
        # same-line shortcut and the vector kernel's single-line
        # windows must agree on 1 miss + 299 hits.
        aspace, lines = _pool(1)
        trace = [[_batch([lines[0]] * 300)]]
        ms = _run_engines(plat, aspace, trace, 1)
        st = ms.stats[0]
        assert st.reads == 300
        assert st.level1_misses == 1

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_alternating_shared_write_batch(self, plat):
        # Both CPUs read 4 lines into SHARED, then CPU0 alternates
        # write/read over them: every write is an ownership upgrade —
        # the branch the vector pre-pass must flag slow (a SHARED
        # write) on every other reference, capping prefixes at one.
        aspace, lines = _pool(4)
        warm = _batch(lines * 2)
        alt_addrs = [lines[k % 4] for k in range(64)]
        alt_writes = [k % 2 == 0 for k in range(64)]
        trace = [
            [warm, _batch(alt_addrs, alt_writes)],
            [warm, _batch([], [])],
        ]
        ms = _run_engines(plat, aspace, trace, 2)
        st = ms.stats[0]
        assert st.upgrades > 0
        assert st.silent_upgrades == 0  # never EXCLUSIVE, always SHARED

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    @pytest.mark.parametrize("length", [0, 1])
    def test_degenerate_lengths(self, plat, length):
        aspace, lines = _pool(1)
        trace = [[_batch(lines[:length], [True] * length)]]
        ms = _run_engines(plat, aspace, trace, 1)
        assert ms.stats[0].writes == length

    def test_addresses_near_int64_top(self):
        # Raw addresses just below 2^63: shifts, masks and coherence
        # line arithmetic must not wrap.  UMA platform — homing never
        # consults the address space, so no segment needs to exist.
        top = 1 << 63
        addrs = [top - 128 * k for k in range(1, 65)] * 2
        writes = [False] * 64 + [True] * 64
        trace = [[_batch(addrs, writes)]]
        ms = _run_engines("hpv", AddressSpace(), trace, 1)
        st = ms.stats[0]
        assert st.reads == 64 and st.writes == 64

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_float_accumulation_bitwise(self, plat):
        # 4096 hits with varying instruction costs, compared as raw
        # float returns from access_batch — per-batch clock truncation
        # never gets a chance to hide an association difference.
        aspace, lines = _pool(2)
        rng = np.random.default_rng(5)
        addrs = [lines[k % 2] for k in range(4096)]
        instrs = rng.integers(1, 8, size=4096)
        batch = _batch(addrs, None, instrs)
        machine = platform(plat, n_cpus=1).scaled(FUZZ_SCALE_LOG2)
        cycles = {}
        for mode in ("scalar", "vector"):
            ms = MemorySystem(machine, aspace, fast_path=True)
            if mode == "scalar":
                ms.VECTOR_MIN_REFS = 1 << 60
            ms.access_batch(0, _batch(lines), 0, machine.base_cpi)  # warm
            cycles[mode] = ms.access_batch(0, batch, 1000, machine.base_cpi)
        assert cycles["scalar"] == cycles["vector"]


def _writes(lines):
    return _batch(lines, [True] * len(lines))


def _reads(lines):
    return _batch(lines)


def _read_then_write(lines):
    return _batch(lines + lines, [False] * len(lines) + [True] * len(lines))


class TestInterventionLanes:
    """Cache-to-cache transfers through the scalar engine's inline
    lanes.  Each mix is built so that one directory transaction kind
    dominates: ``drive_trace`` round-robins the CPUs batch by batch, so
    CPU ``c``'s ``i``-th batch runs after every lower CPU's ``i``-th
    batch.  Pools are small enough that nothing is evicted, which makes
    the protocol counts exact.  All three engines must agree bitwise;
    the counter asserts pin that the lane under test really ran."""

    N = 4  # pool lines

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_write_intervention(self, plat):
        # CPU0 and CPU3 take turns writing the pool: every write after
        # the first finds the line modified in the other cache.  On the
        # V-Class the first steal from the previous writer marks each
        # line migratory.  On the Origin the two CPUs sit on different
        # nodes, so the owner's leg to the home node costs hops.
        aspace, lines = _pool(self.N)
        trace = [[_writes(lines)] * 3, [], [], [_writes(lines)] * 3]
        ms = _run_engines(plat, aspace, trace, 4)
        eng = ms.engine
        assert eng.n_interventions == 5 * self.N
        assert eng.n_invalidations == 5 * self.N
        assert eng.n_migratory_detected == (self.N if plat == "hpv" else 0)
        assert ms.stats[3].miss_kind[2] == 3 * self.N  # comm misses

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_read_intervention_of_modified_owner(self, plat):
        # CPU1 reads lines CPU0 holds modified: the owner downgrades to
        # S and writes the dirty line back.
        aspace, lines = _pool(self.N)
        trace = [[_writes(lines)], [_reads(lines)]]
        ms = _run_engines(plat, aspace, trace, 2)
        eng = ms.engine
        assert eng.n_interventions == self.N
        assert eng.n_downgrades == self.N
        assert eng.n_writebacks == self.N
        assert ms.interconnect.n_writebacks == self.N
        for line in lines:
            e = eng.directory.peek(line & ms._coh_mask)
            assert e.excl_owner == -1 and e.sharers == 0b11

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_read_intervention_of_exclusive_owner(self, plat):
        # Same, but the owner never wrote: a clean downgrade.
        aspace, lines = _pool(self.N)
        trace = [[_reads(lines)], [_reads(lines)]]
        ms = _run_engines(plat, aspace, trace, 2)
        eng = ms.engine
        assert eng.n_interventions == self.N
        assert eng.n_downgrades == self.N
        assert eng.n_writebacks == 0

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_migratory_read_hand_off(self, plat):
        # Read-modify-write passed back and forth.  On the V-Class the
        # second writer marks the lines migratory, every later read
        # takes the line exclusive from the owner, and the final
        # read-only round demotes the pattern (a clean downgrade).  The
        # Origin has no migratory optimization: its reads downgrade a
        # dirty owner and its writes upgrade.
        aspace, lines = _pool(self.N)
        cpu_trace = [_writes(lines)] + [_read_then_write(lines)] * 2 + [
            _reads(lines)
        ]
        ms = _run_engines(plat, aspace, [cpu_trace, cpu_trace], 2)
        eng = ms.engine
        if plat == "hpv":
            assert eng.n_migratory_detected == self.N
            assert eng.n_migratory_transfers == 5 * self.N
            assert eng.n_downgrades == self.N
            assert eng.n_writebacks == 0
            for line in lines:
                assert not eng.directory.peek(line & ms._coh_mask).migratory
        else:
            assert eng.n_migratory_transfers == 0
            assert eng.n_downgrades == 5 * self.N
            assert eng.n_writebacks == 5 * self.N
            assert sum(st.upgrades for st in ms.stats) == 4 * self.N

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_write_to_line_shared_by_others(self, plat):
        # CPUs 0-2 read the pool into SHARED (CPU1's read downgrades
        # CPU0's exclusive copy); CPU3 then writes it, invalidating all
        # three sharers and paying ``inval_per_sharer`` for each.
        aspace, lines = _pool(self.N)
        trace = [[_reads(lines)]] * 3 + [[_writes(lines)]]
        ms = _run_engines(plat, aspace, trace, 4)
        eng = ms.engine
        assert eng.n_interventions == self.N
        assert eng.n_invalidations == 3 * self.N
        for line in lines:
            e = eng.directory.peek(line & ms._coh_mask)
            assert e.excl_owner == 3 and e.sharers == 0
        for q in range(3):
            assert ms._lost_to_inval[q] == {l & ms._coh_mask for l in lines}
        # raw latency of CPU3's misses carries the invalidation charge
        machine = ms.machine
        inval = machine.latency.inval_per_sharer
        assert inval > 0
        assert ms.stats[3].raw_latency_cycles >= self.N * (
            machine.latency.mem_base + 3 * inval
        )


@pytest.mark.parametrize("plat", ["hpv", "sgi"])
def test_q21_cell_never_leaves_the_scalar_engine(plat, tiny_db):
    """A 4-process Q21 cell's cache-to-cache traffic stays inline: the
    scalar engine makes no call to the general ``_coherent_miss``
    helper, while the cell does produce interventions."""
    machine = platform(plat).scaled(TEST_SIM.cache_scale_log2)
    ms = MemorySystem(machine, tiny_db.aspace)
    ms.VECTOR_MIN_REFS = 1 << 60  # every batch on the scalar engine
    calls = []
    helper = ms._coherent_miss
    ms._coherent_miss = lambda *a: calls.append(a) or helper(*a)
    kernel = Kernel(machine, ms, TEST_SIM)
    tiny_db.reset_runtime()
    qdef = QUERIES["Q21"]
    params = qdef.params()
    for pid in range(4):
        gen, _ = make_query_process(tiny_db, qdef, params, pid, cpu=pid)
        kernel.spawn(gen, cpu=pid)
    kernel.run()
    assert ms.engine.n_interventions > 0
    assert sum(st.coherent_misses for st in ms.stats) > 0
    assert calls == []
