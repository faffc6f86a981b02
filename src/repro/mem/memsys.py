"""The per-machine memory system: every CPU's hierarchy + coherence.

:class:`MemorySystem.access` is the simulator's hottest function — the
DBMS executor funnels every classified memory reference through it.  It
returns the *stall cycles* the access costs the issuing CPU (raw
latency scaled by the machine's out-of-order exposure factor) and
maintains all counters the paper's figures need:

* level-1 and coherent-level miss counts, per data class,
* miss breakdown into cold / capacity / communication,
* the un-overlapped memory-latency accumulator that emulates the
  PA-8200's open-request counter (Fig. 9),
* upgrade and intervention counts.

Batched execution (:meth:`MemorySystem.access_batch`, called once per
batch by the scheduler) runs one of two engines, both
bitwise-equivalent to the per-reference slow path:

* a **flattened scalar engine** (the body of ``access_batch`` itself)
  that, besides resolving private hits inline, executes every directory
  transaction an L1 miss issues on the paper machines — memory
  fetches, writes to shared lines, interventions and migratory
  hand-offs — against the directory dict, bank-queue dicts and cache
  sets directly; only S-write ownership upgrades go through the
  :meth:`_do_upgrade` helper;
* a **columnar NumPy kernel** for long batches that classifies the
  eviction-free prefix of the reference stream in one vectorized
  pre-pass and bulk-applies it, leaving a scalar residue loop for only
  the references the masks flag as leaving the fast path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..obs import schema as _schema
from ..obs.bus import MEMSYS_EVENTS, SinkRegistry
from ..trace.address import AddressSpace
from ..trace.classify import NUM_CLASSES
from .coherence import KIND_INTERVENTION, CoherenceEngine
from .directory import NO_OWNER, DirEntry
from .hierarchy import CacheHierarchy
from .machine import TOPOLOGY_CROSSBAR, TOPOLOGY_ISLANDS, MachineConfig
from .states import EXCLUSIVE, MODIFIED, SHARED

MISS_COLD = 0
MISS_CAPACITY = 1
MISS_COMM = 2
MISS_KIND_NAMES = ("cold", "capacity", "comm")

_MEM_FIELDS = _schema.MEM_FIELDS


class CpuMemStats:
    """Counters for one CPU.  Plain ints/lists for hot-path speed.

    The field set and every shape-aware operation below are generated
    from :data:`repro.obs.schema.MEM_FIELDS` — the same table that
    drives the portable snapshot flush — so the hot-path accumulators
    cannot drift from the serialized counter vector."""

    __slots__ = _schema.MEM_FIELD_NAMES

    def __init__(self) -> None:
        for f in _MEM_FIELDS:
            setattr(self, f.name, _schema.mem_zero(f.shape))

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def to_dict(self) -> Dict:
        """Plain-JSON form of every counter, breakdowns included (used
        by the golden-metrics snapshots and the fuzzer's fingerprints)."""
        return {
            f.name: _schema.mem_copy(f.shape, getattr(self, f.name))
            for f in _MEM_FIELDS
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "CpuMemStats":
        """Inverse of :meth:`to_dict` (golden snapshots read back);
        a missing counter raises rather than reading back as zero."""
        st = cls()
        for f in _MEM_FIELDS:
            setattr(st, f.name, _schema.mem_copy(f.shape, d[f.name]))
        return st

    def merge(self, other: "CpuMemStats") -> None:
        """Accumulate ``other`` into self (for run aggregation)."""
        for f in _MEM_FIELDS:
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if f.shape == _schema.SHAPE_SCALAR:
                setattr(self, f.name, mine + theirs)
            elif f.shape == _schema.SHAPE_KIND_MATRIX:
                for row, orow in zip(mine, theirs):
                    for k, v in enumerate(orow):
                        row[k] += v
            else:
                for i, v in enumerate(theirs):
                    mine[i] += v


class MemorySystem:
    """All caches, the directory protocol, and the interconnect of one
    machine instance.  ``machine`` should already be scaled."""

    #: Batches at least this long go through the columnar NumPy kernel;
    #: shorter ones (the executor's per-page emission averages ~12
    #: references) stay on the flattened scalar engine, whose per-batch
    #: prologue is cheaper than a single NumPy dispatch.  Both engines
    #: are bitwise-identical, so the threshold is a pure tuning knob.
    VECTOR_MIN_REFS = 48
    #: The vectorized pre-pass re-classifies the remainder of a batch
    #: after each slow reference; when the next eviction-free prefix is
    #: shorter than this, classification costs more than it saves and
    #: the residue is handed to the scalar engine instead.
    VECTOR_MIN_PREFIX = 16

    def __init__(
        self,
        machine: MachineConfig,
        aspace: AddressSpace,
        fast_path: bool = True,
    ) -> None:
        self.machine = machine
        self.aspace = aspace
        self.fast_path = fast_path
        self.topology = machine.build_topology()
        self.interconnect = machine.build_interconnect(self.topology)
        self.hierarchies: List[CacheHierarchy] = [
            CacheHierarchy(list(machine.caches)) for _ in range(machine.n_cpus)
        ]
        self.engine = CoherenceEngine(
            self.hierarchies,
            self.interconnect,
            migratory_enabled=machine.migratory_enabled,
        )
        self.stats: List[CpuMemStats] = [CpuMemStats() for _ in range(machine.n_cpus)]
        #: Registered transition sinks (see :mod:`repro.obs.bus`).  The
        #: callback lists are captured once by the observing wrappers,
        #: so attach/detach of further sinks needs no reinstall.
        self._sinks = SinkRegistry(MEMSYS_EVENTS)
        self._after_tx_cbs = self._sinks.callbacks["after_transaction"]
        self._after_silent_cbs = self._sinks.callbacks["after_silent_upgrade"]
        #: Deferred observation (see :meth:`attach_deferred_sink`):
        #: when set, the batched engines append the byte address of
        #: every completed transaction here and hand the log to the
        #: sink at each batch boundary — no method shadowing, so the
        #: fast engines keep running.
        self._txlog: Optional[List[int]] = None
        self._deferred_sink = None
        # hot-path caching of config values
        self._uma = machine.topology_kind == TOPOLOGY_CROSSBAR
        self._exposure = machine.latency.exposure
        self._l2_hit = machine.latency.l2_hit
        self._l3_hit = machine.latency.l3_hit
        self._n_levels = len(machine.caches)
        self._has_l2 = self._n_levels >= 2
        #: Exposed stall of a clean L2 hit — constant per machine, so
        #: computed once instead of per hit.
        self._l2_stall = int(self._l2_hit * self._exposure)
        #: Exposed stall of a clean hit at ``levels[li]`` (cumulative:
        #: a hit at the L3 also traversed the L2); index 0 unused.
        self._level_stall = [0]
        _lat_acc = 0
        for _li in range(1, self._n_levels):
            _lat_acc += self._l2_hit if _li == 1 else self._l3_hit
            self._level_stall.append(int(_lat_acc * self._exposure))
        #: Traversal latency of every level between the L1 and memory,
        #: added to each coherent miss's raw latency on its way out.
        self._below_l1_lat = _lat_acc
        #: Next-line prefetcher (exotic machines only; see `_miss`).
        self._prefetch = machine.prefetch_next_line and self._has_l2
        self._l1_shift = machine.caches[0].line_shift
        self.n_prefetch_fills = 0
        #: The flattened scalar engine's inline miss lanes transcribe
        #: the 1/2-level crossbar/hypercube fast cases only; machines
        #: outside that envelope (3 levels, prefetcher, islands
        #: interconnects with per-socket bank interleaving) route every
        #: L1 miss through the general :meth:`_miss` helper instead.
        self._inline_ok = (
            self._n_levels <= 2
            and not self._prefetch
            and machine.topology_kind != TOPOLOGY_ISLANDS
        )
        self._coh_mask = ~(machine.coherence_line_size - 1)
        # miss-classification memory
        self._ever_cached: List[Set[int]] = [set() for _ in range(machine.n_cpus)]
        self._lost_to_inval: List[Set[int]] = [set() for _ in range(machine.n_cpus)]
        # NUMA home placement, resolved per segment
        self._home_by_seg: Dict[int, int] = {}
        #: One-entry (base, end, home) span cache for :meth:`_home` —
        #: coherent misses stream through segments, so consecutive
        #: lookups almost always land in the same one.  Valid because a
        #: segment's range and home never change once allocated.
        self._home_span: Tuple[int, int, int] = (1, 0, 0)
        # Inline-lane constants (the flattened scalar engine executes
        # directory transactions without entering the engine or
        # interconnect methods; see `access_batch`).
        ic = self.interconnect
        lat = machine.latency
        self._mem_base = lat.mem_base
        self._bank_service = lat.bank_service
        self._epoch_shift = ic.EPOCH_SHIFT
        self._epoch_len = 1 << ic.EPOCH_SHIFT
        self._max_delay = ic.MAX_DELAY
        self._bank_load = ic._load
        self._bank_spill = ic._spill
        self._dir_entries = self.engine.directory._entries
        #: Cache-to-cache constants of the intervention lanes: the
        #: owner leg's fixed part (``intervention_cost`` is the round
        #: trip plus a constant) and the per-sharer invalidation charge.
        self._ivn_extra = lat.intervention_cost(0)
        self._inval_per_sharer = lat.inval_per_sharer
        self._migratory = machine.migratory_enabled
        #: Network distance from each CPU to each home node (``None`` on
        #: the crossbar, where every distance is 0).
        self._dist_rows: Optional[List[List[int]]] = None
        if not self._uma:
            self._dist_rows = [
                [
                    lat.hop_cost * self.topology.hops(self.topology.node_of_cpu(c), hm)
                    for hm in range(self.topology.n_nodes)
                ]
                for c in range(machine.n_cpus)
            ]
        #: Every CPU's L1 and coherent-level set lists (the latter
        #: ``None`` on one-level machines), for the lanes that reach into
        #: another CPU's caches to invalidate or downgrade a line.
        self._cache_sets = [
            (h.l1.hot_view()[0], h.coherent.hot_view()[0] if h.has_l2 else None)
            for h in self.hierarchies
        ]
        #: Per-CPU hoisted state for the batched engines: one tuple
        #: unpack replaces ~20 attribute lookups and method binds per
        #: batch (batches average tens of references, so the prologue
        #: is a measurable share of the engine's time).  Everything in
        #: here is structurally stable for the life of the memsys: the
        #: stats/hierarchy objects are never replaced, ``flush`` and
        #: ``reset_contention`` clear their dicts in place, and the
        #: bound helpers captured here are the *unobserved* ones —
        #: attaching a sink shadows ``access_batch`` itself, so this
        #: context is never consulted while observation is on.
        self._batch_ctx = []
        #: Per-CPU opener size for the vector kernel's adaptive
        #: classification window.  Carried across batches so sustained
        #: hit streams keep cruising at large windows; purely a
        #: performance state, a function of the reference stream only.
        self._vec_window = [64] * machine.n_cpus
        for cpu in range(machine.n_cpus):
            h = self.hierarchies[cpu]
            l1_sets, l1_shift, l1_mask = h.l1.hot_view()
            if h.has_l2:
                l2_sets, l2_shift, l2_mask = h.coherent.hot_view()
                l2_assoc = h.coherent.config.assoc
            else:
                l2_sets = l2_shift = l2_mask = l2_assoc = None
            if self._uma:
                bank_mod = ic.n_banks
                dist_row: Optional[List[int]] = None
            else:
                bank_mod = None
                dist_row = self._dist_rows[cpu]
            self._batch_ctx.append((
                self.stats[cpu],
                h,
                h.l1,
                l1_sets,
                l1_shift,
                l1_mask,
                h.l1.config.assoc,
                h.coherent,
                l2_sets,
                l2_shift,
                l2_mask,
                l2_assoc,
                machine.coherence_line_size >> l1_shift,
                h.set_state,
                self._do_upgrade,
                self.engine.note_silent_upgrade,
                self._ever_cached[cpu],
                self._lost_to_inval[cpu],
                dist_row,
                bank_mod,
            ))

    # -- NUMA placement -------------------------------------------------------
    def _home(self, addr: int) -> int:
        """Home node of ``addr``.  Shared DBMS segments are spread
        round-robin over the machine's ``db_home_nodes`` (the paper's
        "same node or a couple of different nodes"); private segments
        are first-touch homed on their owner's node."""
        if self._uma:
            return 0
        lo, hi, home = self._home_span
        if lo <= addr < hi:
            return home
        seg = self.aspace.find(addr)
        home = self._home_by_seg.get(seg.base)
        if home is None:
            if seg.home_node is not None:
                home = seg.home_node % self.topology.n_nodes
            elif not seg.shared and seg.owner_cpu is not None:
                home = self.topology.node_of_cpu(seg.owner_cpu)
            else:
                nodes = self.machine.db_home_nodes
                idx = self.aspace.segments.index(seg)
                home = nodes[idx % len(nodes)] % self.topology.n_nodes
            self._home_by_seg[seg.base] = home
        self._home_span = (seg.base, seg.end, home)
        return home

    # -- the hot path -----------------------------------------------------------
    def access(self, cpu: int, addr: int, is_write: bool, cls: int, now: int) -> int:
        """Perform one reference; return exposed stall cycles."""
        st = self.stats[cpu]
        h = self.hierarchies[cpu]
        if is_write:
            st.writes += 1
        else:
            st.reads += 1

        state = h.l1.probe(addr)
        if state:
            if not is_write or state == MODIFIED:
                return 0
            if state == EXCLUSIVE:
                h.set_state(addr, MODIFIED)
                self.engine.note_silent_upgrade(cpu, addr)
                st.silent_upgrades += 1
                if self._txlog is not None:
                    self._txlog.append(addr)
                return 0
            # write hit on SHARED: ownership upgrade
            return self._do_upgrade(cpu, addr, now, st, h)

        return self._miss(cpu, addr, is_write, cls, now, st, h)

    def _miss(
        self,
        cpu: int,
        addr: int,
        is_write: bool,
        cls: int,
        now: int,
        st: CpuMemStats,
        h: CacheHierarchy,
    ) -> int:
        """Everything below the L1: a hit at any inner level (L2 or
        L3), or a directory transaction.  Shared by :meth:`access`, the
        observed batch path, and — on machines outside the inline
        lanes' envelope — the batched engines."""
        st.level1_misses += 1
        st.level1_misses_by_class[cls] += 1

        levels = h.levels
        last = self._n_levels - 1
        for li in range(1, self._n_levels):
            cache = levels[li]
            cstate = cache.probe(addr)
            if not cstate:
                continue
            # ``l2_hits`` counts every below-L1 cache hit regardless of
            # the level that supplied it, preserving the identity
            # level1_misses == l2_hits + coherent_misses on any depth.
            st.l2_hits += 1
            stall = self._level_stall[li]
            if is_write:
                if cstate == SHARED:
                    stall += self._do_upgrade(cpu, addr, now, st, h)
                    cstate = MODIFIED
                elif cstate == EXCLUSIVE:
                    if li == last:
                        cache.set_state(addr, MODIFIED)
                    else:
                        # mid-level hit: restate the coherent level and
                        # every resident sub-line below it
                        h.set_state(addr, MODIFIED)
                    self.engine.note_silent_upgrade(cpu, addr)
                    st.silent_upgrades += 1
                    if self._txlog is not None:
                        self._txlog.append(addr)
                    cstate = MODIFIED
            h.fill_inner(addr, cstate, li)
            if self._prefetch:
                self._prefetch_next(h, addr, li)
            st.stall_cycles += stall
            return stall

        return self._coherent_miss(cpu, addr, is_write, cls, now, st, h)

    def _prefetch_next(self, h: CacheHierarchy, addr: int, src_li: int) -> None:
        """Next-line prefetcher: an L1 miss satisfied at ``levels
        [src_li]`` also pulls the next sequential L1 line up from that
        level when it is already resident there.  Pure hierarchy
        motion — no memory, interconnect, or directory traffic, so
        coherence state is untouched and inclusion is preserved by
        :meth:`CacheHierarchy.fill_inner`."""
        nxt = ((addr >> self._l1_shift) + 1) << self._l1_shift
        if h.l1.peek(nxt):
            return
        pstate = h.levels[src_li].peek(nxt)
        if pstate:
            h.fill_inner(nxt, pstate, src_li)
            self.n_prefetch_fills += 1

    def _coherent_miss(
        self,
        cpu: int,
        addr: int,
        is_write: bool,
        cls: int,
        now: int,
        st: CpuMemStats,
        h: CacheHierarchy,
    ) -> int:
        """The directory transaction below every cache level.  Split
        from :meth:`_miss` so the batched engines, which resolve the
        L1-miss bookkeeping and the L2 probe inline, can enter the
        hierarchy exactly here."""
        home = self._home(addr)
        if is_write:
            lat, kind, losers = self.engine.write_miss(cpu, addr, home, now)
            fill_state = MODIFIED
        else:
            lat, kind, losers, fill_state = self.engine.read_miss(cpu, addr, home, now)
        if losers:
            line = addr & self._coh_mask
            for q in losers:
                self._lost_to_inval[q].add(line)

        self._classify_miss(cpu, addr, kind, cls, st)

        victim = h.fill(addr, fill_state)
        if victim is not None:
            vbase, vstate = victim
            self.engine.evict(cpu, vbase, vstate, self._home(vbase), now)

        if self._has_l2:
            # the miss traversed every inner level on its way out
            lat += self._below_l1_lat
        st.coherent_misses += 1
        st.coherent_misses_by_class[cls] += 1
        st.raw_latency_cycles += lat
        st.mem_accesses += 1
        stall = int(lat * self._exposure)
        st.stall_cycles += stall
        if self._txlog is not None:
            self._txlog.append(addr)
        return stall

    def access_batch(
        self,
        cpu: int,
        batch,
        now: int,
        base_cpi: float,
        start: int = 0,
        t0: Optional[float] = None,
        cycles0: float = 0.0,
    ) -> float:
        """Run a whole :class:`~repro.trace.stream.RefBatch`; return the
        float cycles it consumed (the caller truncates once per batch).

        This is the batched entry point the scheduler calls once per
        batch, and its body is the **flattened scalar engine**, so a
        short batch crosses a single Python call from the scheduler to
        the reference loop.  Long batches (``VECTOR_MIN_REFS`` or more)
        are handed to the columnar NumPy kernel
        (:meth:`_access_batch_vector`) instead.  Both engines mirror
        the per-reference slow path operation-for-operation (same float
        additions in the same order, same dictionary operations on
        every cache set and directory entry), so counters, timing, and
        final cache state are bitwise identical across all three;
        ``SimConfig.fast_path=False`` forces the slow loop and the
        equivalence suites compare the paths counter-for-counter.

        Everything that generates no directory transaction is resolved
        inline against the cache set structures (via
        :meth:`SetAssocCache.hot_view`), with the counters applied in
        bulk at the end of the batch:

        * private L1 hits (E/M, or S for reads) — zero stall,
        * spatial runs — consecutive references to the same L1 line
          skip the set lookup and MRU promotion entirely (the line is
          already MRU and its state is tracked in a local),
        * silent E→M upgrades on L1 or L2 hits,
        * clean L2 hits, including the L1 refill and the constant
          exposed L2 stall.

        On the 1- and 2-level crossbar and hypercube machines every
        coherent miss takes an inline lane as well.  The lanes are
        transcriptions of :meth:`CoherenceEngine.read_miss` /
        :meth:`~CoherenceEngine.write_miss`,
        :meth:`Interconnect.memory_fetch` /
        :meth:`~Interconnect.intervention` and their
        :meth:`~Interconnect._enter_bank` epoch queueing,
        :meth:`_classify_miss` and the fill/evict path, executed against
        the directory dict, bank dicts and set dicts directly, with the
        same order of bank entries, directory updates and cache-set
        operations:

        * unowned and shared fetches served by memory,
        * a write to a line other CPUs share (their copies are
          invalidated, ``inval_per_sharer`` charged per sharer),
        * write interventions (the owner's copy is invalidated, with
          migratory detection),
        * read interventions (the owner downgrades to S, writing back
          a dirty line) and migratory read hand-offs (the owner's copy
          is invalidated and the requester gets E).

        Only S-write ownership upgrades leave the loop, through the
        same :meth:`_do_upgrade` helper :meth:`access` uses.  Machines
        outside the lanes' envelope (3 cache levels, prefetcher, islands
        interconnect) take the general :meth:`_miss` helper on every L1
        miss.

        When transition sinks are attached this method is shadowed
        by :meth:`_access_batch_observed`, which routes every L1 miss
        through :meth:`_miss` so the sinks see the exact per-
        reference hook sequence of the slow path.

        ``start``/``t0``/``cycles0`` let the vectorized kernel hand
        over mid-batch with the float accumulator chain intact.
        """
        if t0 is None and len(batch) >= self.VECTOR_MIN_REFS:
            return self._access_batch_vector(cpu, batch, now, base_cpi)
        (
            st,
            h,
            l1,
            l1_sets,
            l1_shift,
            l1_mask,
            l1_assoc,
            l2,
            l2_sets,
            l2_shift,
            l2_mask,
            l2_assoc,
            l1_per_coh,
            set_state,
            do_upgrade,
            note_silent,
            ever_cached,
            lost_inval,
            dist_row,
            bank_mod,
        ) = self._batch_ctx[cpu]
        has_l2 = l2_sets is not None
        # Machines outside the inline lanes' envelope (3 cache levels,
        # prefetcher, islands interconnect) take the general `_miss`
        # helper on every L1 miss; the L1 hit/silent-upgrade handling
        # above it is depth- and topology-independent.
        general_miss = None if self._inline_ok else self._miss
        l2_stall = self._l2_stall
        modified = MODIFIED
        exclusive = EXCLUSIVE
        shared = SHARED
        coh_mask = self._coh_mask
        cpu_bit = 1 << cpu
        uma = self._uma
        mem_base = self._mem_base
        service = self._bank_service
        epoch_shift = self._epoch_shift
        epoch_len = self._epoch_len
        max_delay = self._max_delay
        bank_load = self._bank_load
        bank_spill = self._bank_spill
        entries = self._dir_entries
        dir_entry = DirEntry
        exposure = self._exposure
        l2_hit_lat = self._l2_hit
        engine = self.engine
        ic = self.interconnect
        txlog = self._txlog
        miss_kind = st.miss_kind
        miss_kind_by_class = st.miss_kind_by_class
        coh_by_class = st.coherent_misses_by_class
        n_reads = 0
        n_writes = 0
        n_l1_miss = 0
        n_l2_hits = 0
        n_silent = 0
        n_l1_evict = 0
        n_l1_dirty = 0
        n_l2_evict = 0
        n_l2_dirty = 0
        l2_stall_sum = 0
        n_cohm = 0
        raw_sum = 0
        coh_stall_sum = 0
        ic_requests = 0
        ic_queued = 0
        ic_qdelay = 0
        by_class = None  # lazily allocated: most batches never miss
        run_line = -1  # spatial-run tracking: L1 line of the previous ref
        run_state = 0
        cycles = cycles0
        t = float(now) if t0 is None else t0
        if start:
            refs = zip(
                batch.addrs[start:],
                batch.writes[start:],
                batch.instrs[start:],
                batch.classes[start:],
            )
        else:
            refs = zip(batch.addrs, batch.writes, batch.instrs, batch.classes)
        for addr, is_write, instrs, cls in refs:
            cost = instrs * base_cpi
            line = addr >> l1_shift
            if line == run_line:
                # Same line as the previous reference: it is resident
                # and already MRU, so no set lookup or promotion — the
                # probe the slow path performs would be a no-op.
                if not is_write:
                    n_reads += 1
                    cycles += cost
                    t += cost
                    continue
                n_writes += 1
                state = run_state
                if state != modified:
                    if state == exclusive:
                        set_state(addr, modified)
                        note_silent(cpu, addr)
                        n_silent += 1
                        run_state = modified
                        if txlog is not None:
                            txlog.append(addr)
                    else:
                        # write hit on SHARED: ownership upgrade
                        cost += do_upgrade(cpu, addr, int(t + cost), st, h)
                        run_line = -1
                cycles += cost
                t += cost
                continue
            cset = l1_sets[line & l1_mask]
            state = cset.get(line, 0)
            if state:
                cset.move_to_end(line)  # the MRU promotion probe() does
                if not is_write or state == modified:
                    # private hit: no stall, no protocol traffic
                    if is_write:
                        n_writes += 1
                    else:
                        n_reads += 1
                    run_line = line
                    run_state = state
                    cycles += cost
                    t += cost
                    continue
                n_writes += 1
                if state == exclusive:
                    set_state(addr, modified)
                    note_silent(cpu, addr)
                    n_silent += 1
                    run_line = line
                    run_state = modified
                    if txlog is not None:
                        txlog.append(addr)
                else:
                    # write hit on SHARED: ownership upgrade
                    cost += do_upgrade(cpu, addr, int(t + cost), st, h)
                    run_line = -1
                cycles += cost
                t += cost
                continue
            # L1 miss.  An upgrade, refill, or eviction below may touch
            # the tracked line, so the run ends here.
            run_line = -1
            if is_write:
                n_writes += 1
            else:
                n_reads += 1
            if general_miss is not None:
                cost += general_miss(cpu, addr, is_write, cls, int(t + cost), st, h)
                cycles += cost
                t += cost
                continue
            n_l1_miss += 1
            if by_class is None:
                by_class = [0] * NUM_CLASSES
            by_class[cls] += 1
            if has_l2:
                l2_line = addr >> l2_shift
                l2_set = l2_sets[l2_line & l2_mask]
                cstate = l2_set.get(l2_line, 0)
                if cstate:
                    l2_set.move_to_end(l2_line)  # probe()'s promotion
                    n_l2_hits += 1
                    stall = l2_stall
                    if is_write:
                        if cstate == shared:
                            stall += do_upgrade(
                                cpu, addr, int(t + cost), st, h
                            )
                            cstate = modified
                        elif cstate == exclusive:
                            # silent E→M in the L2 (resident: no insert)
                            l2_set[l2_line] = modified
                            note_silent(cpu, addr)
                            n_silent += 1
                            cstate = modified
                            if txlog is not None:
                                txlog.append(addr)
                    # Inline L1 refill: the reference missed the L1
                    # this very iteration, so the line is known absent
                    # and :meth:`SetAssocCache.insert` reduces to the
                    # eviction check + store (counters flushed below).
                    if len(cset) >= l1_assoc:
                        if cset.popitem(last=False)[1] == modified:
                            n_l1_dirty += 1
                        n_l1_evict += 1
                    cset[line] = cstate
                    run_line = line
                    run_state = cstate
                    l2_stall_sum += stall
                    cost += stall
                    cycles += cost
                    t += cost
                    continue
            # Coherent miss: the directory transaction, inline.
            lbase = addr & coh_mask
            e = entries.get(lbase)
            if e is None:
                e = dir_entry()
                entries[lbase] = e
                owner = -1
                sharers = 0
            else:
                owner = e.excl_owner
                sharers = e.sharers
            # home node (span cache, same as _home())
            if uma:
                home = 0
                dist = 0
                bank = (lbase >> 6) % bank_mod
            else:
                lo, hi, home = self._home_span
                if not lo <= addr < hi:
                    home = self._home(addr)
                dist = dist_row[home]
                bank = home
            # The request's epoch-queued bank entry (_enter_bank): a
            # memory fetch and an intervention both visit the home bank.
            now_i = int(t + cost)
            epoch = now_i >> epoch_shift
            key = (bank, epoch)
            cnt = bank_load.get(key, 0)
            if cnt == 0:
                prevk = (bank, epoch - 1)
                backlog = (
                    bank_spill.get(prevk, 0)
                    + bank_load.get(prevk, 0) * service
                    - epoch_len
                )
                if backlog > 0:
                    bank_spill[key] = backlog
            delay = bank_spill.get(key, 0) + cnt * service
            if delay > max_delay:
                delay = max_delay
            bank_load[key] = cnt + 1
            ic_requests += 1
            if delay:
                ic_queued += 1
                ic_qdelay += delay
            lat = mem_base + dist + delay
            # CPUs whose copy of the line this transaction invalidates
            kill = 0
            if owner != -1 and owner != cpu:
                # Intervention: the line is exclusive in another cache,
                # which supplies it (Interconnect.intervention adds the
                # owner leg to the round trip).
                engine.n_interventions += 1
                lat += self._ivn_extra
                if not uma:
                    lat += self._dist_rows[owner][home]
                migratory = self._migratory
                if is_write:
                    kill = 1 << owner
                    # Cox–Fowler detection (_detect_migratory): the
                    # write steals the line from its previous writer.
                    if migratory and not e.migratory and e.last_writer == owner:
                        e.migratory = True
                        engine.n_migratory_detected += 1
                    e.excl_owner = cpu
                    e.sharers = 0
                    e.last_writer = cpu
                    e.written_since_transfer = True
                    fill_state = modified
                elif migratory and e.migratory and e.written_since_transfer:
                    # migratory hand-off: the owner's copy dies and the
                    # requester gets the line exclusive
                    kill = 1 << owner
                    engine.n_migratory_transfers += 1
                    e.excl_owner = cpu
                    e.sharers = 0
                    e.written_since_transfer = False
                    fill_state = exclusive
                else:
                    if migratory and e.migratory:
                        # the pattern stopped being read-modify-write
                        e.migratory = False
                    # Downgrade the owner to S (the directory guarantees
                    # it holds the line), writing back a dirty copy.
                    o_l1, o_coh = self._cache_sets[owner]
                    if has_l2:
                        o_set = o_coh[l2_line & l2_mask]
                        if o_set[l2_line] == modified:
                            engine.n_writebacks += 1
                            ic.post_writeback(lbase, home, now_i)
                        o_set[l2_line] = shared
                        # restate the owner's resident L1 sub-lines
                        vl = lbase >> l1_shift
                        for k in range(l1_per_coh):
                            o_set = o_l1[(vl + k) & l1_mask]
                            if vl + k in o_set:
                                o_set[vl + k] = shared
                    else:
                        o_set = o_l1[line & l1_mask]
                        if o_set[line] == modified:
                            engine.n_writebacks += 1
                            ic.post_writeback(lbase, home, now_i)
                        o_set[line] = shared
                    engine.n_downgrades += 1
                    e.excl_owner = -1
                    e.sharers = (1 << owner) | cpu_bit
                    e.written_since_transfer = False
                    fill_state = shared
                comm = True
            elif is_write:
                kill = sharers & ~cpu_bit
                if kill:
                    # a write to a line other CPUs share
                    lat += self._inval_per_sharer * bin(kill).count("1")
                e.excl_owner = cpu
                e.sharers = 0
                e.last_writer = cpu
                e.written_since_transfer = True
                fill_state = modified
                comm = lbase in lost_inval
            else:
                holders = sharers if owner == -1 else cpu_bit
                if holders == 0 or holders == cpu_bit:
                    e.excl_owner = cpu
                    e.sharers = 0
                    e.written_since_transfer = False
                    fill_state = exclusive
                else:
                    e.sharers = sharers | cpu_bit
                    fill_state = shared
                comm = lbase in lost_inval
            if kill:
                # Invalidate every other copy (CacheHierarchy.invalidate,
                # coherent level then the covered inner lines), in
                # ascending CPU order, and remember the losers for
                # their own miss classification.
                n_kill = 0
                lost_of = self._lost_to_inval
                while kill:
                    low = kill & -kill
                    kill ^= low
                    q = low.bit_length() - 1
                    o_l1, o_coh = self._cache_sets[q]
                    if has_l2:
                        o_coh[l2_line & l2_mask].pop(l2_line, None)
                        vl = lbase >> l1_shift
                        for k in range(l1_per_coh):
                            o_l1[(vl + k) & l1_mask].pop(vl + k, None)
                    else:
                        o_l1[line & l1_mask].pop(line, None)
                    lost_of[q].add(lbase)
                    n_kill += 1
                engine.n_invalidations += n_kill
            # cold / capacity / comm classification (_classify_miss)
            if comm:
                mk = 2
                lost_inval.discard(lbase)
            elif lbase in ever_cached:
                mk = 1
            else:
                mk = 0
            ever_cached.add(lbase)
            miss_kind[mk] += 1
            miss_kind_by_class[cls][mk] += 1
            # fill + victim notification (CacheHierarchy.fill + evict)
            if has_l2:
                if len(l2_set) >= l2_assoc:
                    vline, vstate = l2_set.popitem(last=False)
                    n_l2_evict += 1
                    if vstate == modified:
                        n_l2_dirty += 1
                    vbase = vline << l2_shift
                    # inclusion sweep of the covered L1 lines
                    vl = vbase >> l1_shift
                    for k in range(l1_per_coh):
                        l1_sets[(vl + k) & l1_mask].pop(vl + k, None)
                    ve = entries.get(vbase)
                    if ve is not None:
                        if ve.excl_owner == cpu:
                            ve.excl_owner = -1
                            ve.sharers = 0
                        else:
                            ve.sharers &= ~cpu_bit
                        if vstate == modified:
                            engine.n_writebacks += 1
                            ic.post_writeback(vbase, self._home(vbase), now_i)
                l2_set[l2_line] = fill_state
                if len(cset) >= l1_assoc:
                    if cset.popitem(last=False)[1] == modified:
                        n_l1_dirty += 1
                    n_l1_evict += 1
                cset[line] = fill_state
                lat += l2_hit_lat
            else:
                if len(cset) >= l1_assoc:
                    vline, vstate = cset.popitem(last=False)
                    n_l1_evict += 1
                    if vstate == modified:
                        n_l1_dirty += 1
                    vbase = vline << l1_shift
                    ve = entries.get(vbase)
                    if ve is not None:
                        if ve.excl_owner == cpu:
                            ve.excl_owner = -1
                            ve.sharers = 0
                        else:
                            ve.sharers &= ~cpu_bit
                        if vstate == modified:
                            engine.n_writebacks += 1
                            ic.post_writeback(vbase, self._home(vbase), now_i)
                cset[line] = fill_state
            run_line = line
            run_state = fill_state
            n_cohm += 1
            coh_by_class[cls] += 1
            raw_sum += lat
            stall = int(lat * exposure)
            coh_stall_sum += stall
            if txlog is not None:
                txlog.append(addr)
            cost += stall
            cycles += cost
            t += cost
        st.reads += n_reads
        st.writes += n_writes
        if n_l1_miss:
            st.level1_misses += n_l1_miss
            cls_counts = st.level1_misses_by_class
            for i, n in enumerate(by_class):
                if n:
                    cls_counts[i] += n
        if n_l2_hits:
            st.l2_hits += n_l2_hits
            st.stall_cycles += l2_stall_sum
        if n_l1_evict:
            l1.n_evictions += n_l1_evict
            l1.n_dirty_evictions += n_l1_dirty
        if n_l2_evict:
            l2.n_evictions += n_l2_evict
            l2.n_dirty_evictions += n_l2_dirty
        if n_silent:
            st.silent_upgrades += n_silent
        if n_cohm:
            st.coherent_misses += n_cohm
            st.mem_accesses += n_cohm
            st.raw_latency_cycles += raw_sum
            st.stall_cycles += coh_stall_sum
        if ic_requests:
            ic.n_requests += ic_requests
            if ic_queued:
                ic.n_queued += ic_queued
                ic.total_queue_delay += ic_qdelay
        if txlog:
            self._deferred_sink.on_batch_end(cpu, txlog)
            del txlog[:]
        return cycles

    #: The scalar engine under its own name: the vector kernel hands its
    #: residue here (``t0`` set, so the length dispatch above is skipped)
    #: without going through any per-instance shadow of ``access_batch``.
    _access_batch_scalar = access_batch

    def _access_batch_vector(
        self, cpu: int, batch, now: int, base_cpi: float
    ) -> float:
        """The columnar NumPy kernel for long batches.

        One vectorized pre-pass classifies the *eviction-free prefix*
        of the (remaining) reference stream against a struct-of-arrays
        gather of the L1 state: line extraction (``addrs >> l1_shift``),
        a per-unique-line state gather, and boolean masks for private
        hits, silent E→M upgrades (the first E-write per coherence
        line — a silent upgrade restates every resident sub-line of
        its coherence line to M, so later E-writes are plain hits) and
        slow references (absent lines, S-writes).  Within that prefix
        nothing changes residency, so batch-start classification is
        exact; the prefix is applied in bulk — counters via
        ``count_nonzero``, the float cycle chain via
        ``np.add.accumulate`` (sequential, so the accumulation order
        matches the scalar loop bit for bit), and LRU by promoting
        each touched line once in last-touch order, which yields the
        same final recency order as per-reference promotion.

        The reference that ends the prefix goes through the
        per-reference :meth:`access` path — the original reference
        implementation — after which the remainder is re-classified
        from a fresh gather (so any eviction, fill or invalidation it
        caused is naturally accounted).  When the next prefix is too
        short to pay for its pre-pass, the whole residue is handed to
        the flattened scalar engine with the accumulator chain intact.

        Classification runs over a bounded *adaptive window*, not the
        whole remainder: re-gathering everything after each slow
        reference would make miss-heavy batches quadratic in exchange
        for prefixes they never yield.  The window starts small,
        doubles each time a window turns out to be all-fast (so
        hit-heavy streams converge to large, cheap sweeps), and shrinks
        back to twice the observed prefix after a slow reference (so
        the work a gather can waste stays proportional to the work it
        buys).  Windowed application is exact: every window is applied
        from a fresh gather, so cross-window staleness cannot occur,
        and window-by-window bulk LRU promotion composes to the same
        final recency order as per-reference promotion.
        """
        (
            st,
            h,
            l1,
            l1_sets,
            l1_shift,
            l1_mask,
            l1_assoc,
            l2,
            l2_sets,
            l2_shift,
            l2_mask,
            l2_assoc,
            l1_per_coh,
            set_state,
            do_upgrade,
            note_silent,
            ever_cached,
            lost_inval,
            dist_row,
            bank_mod,
        ) = self._batch_ctx[cpu]
        a_np, w_np, i_np, c_np = batch.columns()
        n = a_np.shape[0]
        costs = i_np * base_cpi
        lines_np = a_np >> l1_shift
        addrs = batch.addrs  # Python lists for the scalar residue refs
        writes = batch.writes
        instrs = batch.instrs
        classes = batch.classes
        access = self.access
        txlog = self._txlog
        modified = MODIFIED
        min_prefix = self.VECTOR_MIN_PREFIX
        n_reads = 0
        n_writes = 0
        n_silent = 0
        pos = 0
        cycles = 0.0
        t = float(now)
        # The opener window carries over from this CPU's previous
        # batch: replay-scale hit streams keep cruising at large
        # windows instead of re-paying six doublings of fixed numpy
        # gather cost per batch, while miss-heavy streams stay small.
        # Window size is a pure function of the reference stream, so
        # this stays deterministic; it cannot affect results — every
        # window is applied from a fresh gather regardless of size.
        window = self._vec_window[cpu]
        while n - pos >= min_prefix:
            end = pos + window
            if end > n:
                end = n
            rl = lines_np[pos:end]
            uniq, inv = np.unique(rl, return_inverse=True)
            ul = uniq.tolist()
            st0u = np.fromiter(
                (l1_sets[l & l1_mask].get(l, 0) for l in ul),
                dtype=np.int8,
                count=len(ul),
            )
            st0 = st0u[inv.reshape(-1)]
            wseg = w_np[pos:end]
            slow = (st0 == 0) | (wseg & (st0 == SHARED))
            sidx = np.flatnonzero(slow)
            if sidx.size:
                s = int(sidx[0])
                # shrink toward the observed prefix length: a gather
                # should never cost much more than the refs it retires
                window = 64 if s < 32 else (4096 if s > 2048 else 2 * s)
            else:
                s = end - pos
                if window < 4096:
                    window *= 2  # all-fast: sweep bigger chunks
            if s < min_prefix:
                break
            # -- bulk-apply the eviction-free prefix [pos, pos+s) --------
            nw = int(np.count_nonzero(wseg[:s]))
            n_writes += nw
            n_reads += s - nw
            ew = np.flatnonzero(wseg[:s] & (st0[:s] == EXCLUSIVE))
            if ew.size:
                coh_ew = a_np[pos + ew] & self._coh_mask
                _, first = np.unique(coh_ew, return_index=True)
                n_silent += first.size
                for k in np.sort(first).tolist():
                    addr = addrs[pos + int(ew[k])]
                    set_state(addr, modified)
                    note_silent(cpu, addr)
                    if txlog is not None:
                        txlog.append(addr)
            # LRU: one promotion per touched line, in last-touch order —
            # the same final recency order per-reference promotion gives.
            seg = rl[:s]
            u2, r2 = np.unique(seg[::-1], return_index=True)
            for l in u2[np.argsort(-r2)].tolist():
                l1_sets[l & l1_mask].move_to_end(l)
            # float timing: np.add.accumulate is sequential, so seeding
            # it with the running accumulator reproduces the scalar
            # loop's left-to-right association exactly.
            buf = np.empty(s + 1)
            buf[0] = cycles
            buf[1:] = costs[pos:pos + s]
            cycles = float(np.add.accumulate(buf)[-1])
            buf[0] = t
            t = float(np.add.accumulate(buf)[-1])
            pos += s
            if pos >= n:
                break
            if not sidx.size:
                continue  # all-fast window: nothing slow consumed yet
            # -- the slow reference, through the reference path ----------
            addr = addrs[pos]
            cost = instrs[pos] * base_cpi
            cost += access(cpu, addr, writes[pos], classes[pos], int(t + cost))
            cycles += cost
            t += cost
            pos += 1
        st.reads += n_reads
        st.writes += n_writes
        if n_silent:
            st.silent_upgrades += n_silent
        self._vec_window[cpu] = window
        if pos < n:
            # scalar residue (flushes its own bulk counters and drains
            # the deferred log at its end)
            return self._access_batch_scalar(
                cpu, batch, now, base_cpi, start=pos, t0=t, cycles0=cycles
            )
        if txlog:
            self._deferred_sink.on_batch_end(cpu, txlog)
            del txlog[:]
        return cycles

    def _access_batch_observed(
        self, cpu: int, batch, now: int, base_cpi: float
    ) -> float:
        """Batch execution with sinks attached: private L1 hits are
        still resolved inline (they trigger no sink event), but every
        L1 miss goes through :meth:`_miss` — shadowed to its observing
        wrapper — so the sinks see the same transition sequence as the
        per-reference slow path."""
        st = self.stats[cpu]
        h = self.hierarchies[cpu]
        (l1_sets, line_shift, set_mask), _ = h.batch_views()
        miss = self._miss
        modified = MODIFIED
        exclusive = EXCLUSIVE
        n_reads = 0
        n_writes = 0
        cycles = 0.0
        t = float(now)
        for addr, is_write, instrs, cls in zip(
            batch.addrs, batch.writes, batch.instrs, batch.classes
        ):
            cost = instrs * base_cpi
            line = addr >> line_shift
            cset = l1_sets[line & set_mask]
            state = cset.get(line, 0)
            if state:
                cset.move_to_end(line)  # the MRU promotion probe() does
                if not is_write or state == modified:
                    # private hit: no stall, no protocol traffic
                    if is_write:
                        n_writes += 1
                    else:
                        n_reads += 1
                    cycles += cost
                    t += cost
                    continue
                n_writes += 1
                if state == exclusive:
                    h.set_state(addr, modified)
                    self.engine.note_silent_upgrade(cpu, addr)
                    st.silent_upgrades += 1
                    if self._txlog is not None:
                        self._txlog.append(addr)
                else:
                    # write hit on SHARED: ownership upgrade
                    cost += self._do_upgrade(cpu, addr, int(t + cost), st, h)
            else:
                if is_write:
                    n_writes += 1
                else:
                    n_reads += 1
                cost += miss(cpu, addr, is_write, cls, int(t + cost), st, h)
            cycles += cost
            t += cost
        st.reads += n_reads
        st.writes += n_writes
        txlog = self._txlog
        if txlog:
            self._deferred_sink.on_batch_end(cpu, txlog)
            del txlog[:]
        return cycles

    def _do_upgrade(
        self, cpu: int, addr: int, now: int, st: CpuMemStats, h: CacheHierarchy
    ) -> int:
        lat, losers = self.engine.upgrade(cpu, addr, self._home(addr), now)
        if losers:
            line = addr & self._coh_mask
            for q in losers:
                self._lost_to_inval[q].add(line)
        h.set_state(addr, MODIFIED)
        st.upgrades += 1
        st.raw_latency_cycles += lat
        st.mem_accesses += 1
        stall = int(lat * self._exposure)
        st.stall_cycles += stall
        if self._txlog is not None:
            self._txlog.append(addr)
        return stall

    def _classify_miss(
        self, cpu: int, addr: int, kind: str, cls: int, st: CpuMemStats
    ) -> None:
        line = addr & self._coh_mask
        lost = self._lost_to_inval[cpu]
        if kind == KIND_INTERVENTION or line in lost:
            mk = MISS_COMM
            lost.discard(line)
        elif line in self._ever_cached[cpu]:
            mk = MISS_CAPACITY
        else:
            mk = MISS_COLD
        self._ever_cached[cpu].add(line)
        st.miss_kind[mk] += 1
        st.miss_kind_by_class[cls][mk] += 1

    # -- observation -------------------------------------------------------------
    def attach_sink(self, sink) -> None:
        """Register a transition sink (see :mod:`repro.obs.bus`).

        A sink receives the :data:`~repro.obs.bus.MEMSYS_EVENTS` it
        implements: ``after_transaction(cpu, addr, now)`` after every
        completed miss/upgrade directory transaction (and any eviction
        it caused), ``after_silent_upgrade(cpu, addr)`` after a silent
        E→M write.  The first sink installs observing wrappers over the
        transition helpers by instance-attribute shadowing; later sinks
        just join the dispatch lists the wrappers already iterate.  A
        :class:`MemorySystem` with no sink attached (or whose last sink
        detached) executes exactly the unhooked bytecode — disabled
        observation costs nothing.
        """
        if self._sinks.add(sink):
            self._miss = self._miss_observed
            self._do_upgrade = self._do_upgrade_observed
            self.access_batch = self._access_batch_observed
            engine = self.engine
            orig_note = engine.note_silent_upgrade
            silent_cbs = self._after_silent_cbs

            def observed_note(cpu: int, addr: int) -> None:
                orig_note(cpu, addr)
                for cb in silent_cbs:
                    cb(cpu, addr)

            engine.note_silent_upgrade = observed_note

    def detach_sink(self, sink) -> None:
        """Deregister ``sink``; the last one out restores the unhooked
        hot path (deletes every observing shadow)."""
        if self._sinks.remove(sink):
            del self._miss
            del self._do_upgrade
            del self.access_batch
            del self.engine.note_silent_upgrade

    def attach_deferred_sink(self, sink) -> None:
        """Register a *deferred* observation sink.

        Unlike :meth:`attach_sink`, no method is shadowed and the fast
        batched engines keep running: they append the byte address of
        every completed transaction (miss, upgrade, or silent upgrade)
        to an internal log and call ``sink.on_batch_end(cpu, log)`` at
        each batch boundary, after the bulk counters are flushed.  The
        sink must consume the log during the call (it is cleared right
        after).  This is the hook for the batched array-verification
        mode of :class:`repro.verify.invariants.BatchedInvariantChecker`
        — observation cost is one list append per transaction instead
        of a per-transition Python callback.  Detection granularity is
        the batch, not the transition; use :meth:`attach_sink` when a
        violation must be caught at the exact reference that caused it.
        """
        if self._deferred_sink is not None:
            raise ValueError("a deferred sink is already attached")
        self._deferred_sink = sink
        self._txlog = []

    def detach_deferred_sink(self, sink) -> None:
        """Deregister the deferred sink registered by
        :meth:`attach_deferred_sink`."""
        if self._deferred_sink is not sink:
            raise ValueError("sink is not the attached deferred sink")
        self._deferred_sink = None
        self._txlog = None

    def _miss_observed(
        self, cpu: int, addr: int, is_write: bool, cls: int, now: int,
        st: CpuMemStats, h: CacheHierarchy,
    ) -> int:
        stall = type(self)._miss(self, cpu, addr, is_write, cls, now, st, h)
        for cb in self._after_tx_cbs:
            cb(cpu, addr, now)
        return stall

    def _do_upgrade_observed(
        self, cpu: int, addr: int, now: int, st: CpuMemStats, h: CacheHierarchy
    ) -> int:
        stall = type(self)._do_upgrade(self, cpu, addr, now, st, h)
        for cb in self._after_tx_cbs:
            cb(cpu, addr, now)
        return stall

    # -- lifecycle ---------------------------------------------------------------
    def flush_caches(self) -> None:
        """Empty every cache and the directory (cold restart)."""
        for h in self.hierarchies:
            h.flush()
        self.engine.directory._entries.clear()
        for s in self._ever_cached:
            s.clear()
        for s in self._lost_to_inval:
            s.clear()
        self.interconnect.reset_contention()

    # -- aggregation ----------------------------------------------------------------
    def total_stats(self, cpus: Optional[List[int]] = None) -> CpuMemStats:
        """Sum the per-CPU stats (optionally over a subset of CPUs)."""
        out = CpuMemStats()
        for i, st in enumerate(self.stats):
            if cpus is None or i in cpus:
                out.merge(st)
        return out
