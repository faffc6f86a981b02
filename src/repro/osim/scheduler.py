"""The OS kernel model: scheduling, context switches, spinlock backoff.

The kernel is a conservative discrete-event scheduler over per-CPU run
queues.  Among all CPUs with runnable work it always advances the one
whose clock is smallest, so cross-CPU interactions (spinlock contention,
coherence interleavings, bank queueing) are causally plausible without
simulating true parallelism.

CPUs may be *oversubscribed*: several processes pinned to one CPU share
it round-robin at time-slice granularity.  A waiting process's wall
clock advances while it sits in the ready queue but its *thread time*
does not — exactly the distinction the paper draws ("thread time ...
doesn't include the time when the process waits in the ready state to
acquire a CPU").  The paper's own experiments use one process per CPU,
where the queueing machinery degenerates to the simple min-clock
interleaving.

Context-switch accounting reproduces §4.2.4:

* **Involuntary** switches happen when a process exhausts its time
  slice (timer tick rescheduling) plus a small load-proportional noise
  term for daemon preemptions — this is why the paper sees a slow,
  query-type-independent rise with the number of query processes.
* **Voluntary** switches happen when a process blocks itself, which for
  this workload means PostgreSQL's ``s_lock`` backoff path: after a few
  failed test-and-set attempts the process issues a timed ``select()``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List, Optional

from ..config import SimConfig
from ..cpu.processor import Processor
from ..errors import SchedulerError
from ..mem.machine import MachineConfig
from ..mem.memsys import MemorySystem
from ..obs.bus import KERNEL_EVENTS, SinkRegistry
from ..trace.classify import DataClass
from ..trace.stream import RefBatch
from .process import STATE_DONE, STATE_READY, STATE_SLEEPING, SimProcess
from .syscalls import Compute, Sleep, SpinAcquire, SpinRelease


class Kernel:
    """Scheduler + syscall layer for one simulated machine run."""

    def __init__(
        self,
        machine: MachineConfig,
        memsys: MemorySystem,
        sim: SimConfig,
    ) -> None:
        self.machine = machine
        self.memsys = memsys
        self.sim = sim
        self._base_cpi = machine.base_cpi
        self.processes: List[SimProcess] = []
        self._queues: List[Deque[SimProcess]] = [
            deque() for _ in range(machine.n_cpus)
        ]
        self._sleeping: List[List[SimProcess]] = [
            [] for _ in range(machine.n_cpus)
        ]
        self._cpu_clock: List[int] = [0] * machine.n_cpus
        #: CPUs that have ever had a process pinned — processes never
        #: migrate, so every other CPU stays idle for the whole run and
        #: the scheduling scan can skip it (the paper's machines have
        #: 16-32 CPUs but the experiments use at most 8 processes).
        self._active_cpus: List[int] = []
        #: Count of not-yet-done processes, maintained at spawn and at
        #: process exit so the preemption-noise model doesn't rescan
        #: the process table every step.
        self._n_live = 0
        #: (interval, next_due, callback) registered via add_sampler.
        self._samplers: List[list] = []
        self.n_steps = 0
        #: Registered scheduler sinks (see :mod:`repro.obs.bus`).  The
        #: per-event callback lists are captured once; the registry
        #: mutates them in place on attach/detach.
        self._sinks = SinkRegistry(KERNEL_EVENTS)
        cbs = self._sinks.callbacks
        self._before_cbs = cbs["before_step"]
        self._after_cbs = cbs["after_step"]
        self._vol_cbs = cbs["on_voluntary_switch"]
        self._invol_cbs = cbs["on_involuntary_switch"]
        self._done_cbs = cbs["on_process_done"]

    # -- observation ------------------------------------------------------------
    def attach_sink(self, sink) -> None:
        """Register a scheduler sink (any object implementing one or
        more :data:`~repro.obs.bus.KERNEL_EVENTS` methods).  The first
        attach shadows :meth:`_step` with its observing wrapper; with
        no sinks the scheduler runs the exact unhooked bytecode."""
        if self._sinks.add(sink):
            self._step = self._step_observed

    def detach_sink(self, sink) -> None:
        """Deregister ``sink``; the last detach restores the unhooked
        :meth:`_step`."""
        if self._sinks.remove(sink):
            del self._step

    # -- sampling ---------------------------------------------------------------
    def add_sampler(self, interval_cycles: int, callback) -> None:
        """Invoke ``callback(t)`` every ``interval_cycles`` of
        conservative global time (no event can still occur before a
        sample's ``t`` when it fires)."""
        if interval_cycles <= 0:
            raise SchedulerError("sampler interval must be positive")
        self._samplers.append([interval_cycles, interval_cycles, callback])

    # -- process management ----------------------------------------------------
    def spawn(self, gen: Generator, cpu: Optional[int] = None) -> SimProcess:
        """Create a process from an event generator, pinned to ``cpu``
        (round-robin if omitted).  Several processes may share a CPU;
        they time-slice on its run queue."""
        if cpu is None:
            cpu = len(self.processes) % self.machine.n_cpus
        if not 0 <= cpu < self.machine.n_cpus:
            raise SchedulerError(
                f"cpu {cpu} does not exist on {self.machine.name} "
                f"({self.machine.n_cpus} CPUs)"
            )
        pid = len(self.processes)
        proc = SimProcess(pid, cpu, gen, Processor(cpu, self.machine, self.memsys))
        self.processes.append(proc)
        self._queues[cpu].append(proc)
        if cpu not in self._active_cpus:
            self._active_cpus.append(cpu)
            self._active_cpus.sort()
        self._n_live += 1
        return proc

    # -- time bookkeeping ---------------------------------------------------------
    def _admit_sleepers(self, cpu: int) -> None:
        """Move due sleepers (wake_at <= cpu clock) onto the run queue;
        if the CPU is idle, advance its clock to the earliest wake."""
        sleepers = self._sleeping[cpu]
        if not sleepers:
            return
        if not self._queues[cpu]:
            earliest = min(p.wake_at for p in sleepers)
            if earliest > self._cpu_clock[cpu]:
                self._cpu_clock[cpu] = earliest
        now = self._cpu_clock[cpu]
        due = [p for p in sleepers if p.wake_at <= now]
        if due:
            due.sort(key=lambda p: (p.wake_at, p.pid))
            for p in due:
                sleepers.remove(p)
                p.state = STATE_READY
                self._queues[cpu].append(p)

    def _next_time(self, cpu: int) -> Optional[int]:
        """Earliest simulated time at which this CPU can do work."""
        if self._queues[cpu]:
            return self._cpu_clock[cpu]
        sleepers = self._sleeping[cpu]
        if sleepers:
            return max(
                self._cpu_clock[cpu], min(p.wake_at for p in sleepers)
            )
        return None

    # -- main loop ----------------------------------------------------------------
    def run(self, max_steps: int = 500_000_000) -> None:
        """Run every process to completion."""
        steps = 0
        # Hot-loop locals: the scan below runs once per delivered event.
        queues = self._queues
        sleeping = self._sleeping
        cpu_clock = self._cpu_clock
        active_cpus = self._active_cpus
        samplers = self._samplers
        while True:
            # Inline of _next_time over the active CPUs only: ascending
            # CPU order with strict '<' keeps the seed's tie-breaking
            # (lowest CPU id wins) bit-for-bit.
            best_cpu = -1
            best_time = None
            for cpu in active_cpus:
                if queues[cpu]:
                    t = cpu_clock[cpu]
                elif sleeping[cpu]:
                    t = min(p.wake_at for p in sleeping[cpu])
                    if t < cpu_clock[cpu]:
                        t = cpu_clock[cpu]
                else:
                    continue
                if best_time is None or t < best_time:
                    best_cpu, best_time = cpu, t
            if best_cpu < 0:
                break  # everything is done
            if samplers:
                for sampler in samplers:
                    while sampler[1] <= best_time:
                        sampler[2](sampler[1])
                        sampler[1] += sampler[0]
            self._admit_sleepers(best_cpu)
            queue = self._queues[best_cpu]
            if not queue:
                raise SchedulerError("scheduler picked an idle CPU")  # pragma: no cover
            proc = queue[0]
            # A process that waited in the ready queue resumes at the
            # CPU's clock: wall time advanced, thread time did not.
            if proc.clock < self._cpu_clock[best_cpu]:
                proc.clock = self._cpu_clock[best_cpu]
            self._step(proc)
            self._cpu_clock[best_cpu] = max(
                self._cpu_clock[best_cpu], proc.clock
            )
            if proc.done or proc.state == STATE_SLEEPING:
                queue.popleft()
                if proc.state == STATE_SLEEPING:
                    self._sleeping[best_cpu].append(proc)
            steps += 1
            if steps > max_steps:
                raise SchedulerError("scheduler exceeded max_steps; livelock?")
        self.n_steps += steps

    def _step(self, proc: SimProcess) -> Optional[object]:
        """Deliver one event of ``proc``.  Returns the delivered syscall
        event, or ``None`` when the process ran to completion."""
        if proc.pending is not None:
            ev = proc.pending
            proc.pending = None
        else:
            try:
                ev = next(proc.gen)
            except StopIteration as stop:
                proc.state = STATE_DONE
                proc.result = stop.value
                self._n_live -= 1
                return None

        if isinstance(ev, RefBatch):
            processor = proc.processor
            memsys = self.memsys
            if memsys.fast_path:
                # One call from here to the memory system's batch
                # engine; the bookkeeping is Processor.run_batch's.
                # ``access_batch`` is looked up on the instance, so an
                # attached sink's observing shadow still applies.
                cycles = int(
                    memsys.access_batch(proc.cpu, ev, proc.clock, self._base_cpi)
                )
                processor.instrs_retired += ev.total_instrs
                processor.cycles_executed += cycles
            else:
                cycles = processor.run_batch(ev, proc.clock)
            proc.advance(cycles)
        elif isinstance(ev, SpinAcquire):
            self._handle_acquire(proc, ev)
        elif isinstance(ev, SpinRelease):
            self._handle_release(proc, ev)
        elif isinstance(ev, Compute):
            proc.advance(proc.processor.run_compute(ev.instrs))
        elif isinstance(ev, Sleep):
            self._voluntary_switch(proc, ev.cycles)
        else:
            raise SchedulerError(f"process {proc.pid} yielded unknown event {ev!r}")

        self._check_preemption(proc)
        return ev

    def _step_observed(self, proc: SimProcess) -> Optional[object]:
        """:meth:`_step` with sinks attached: brackets the quantum with
        ``before_step``/``after_step`` and derives the switch and
        completion events from the process's own accounting, so the
        unobserved step body stays byte-identical to the seed."""
        t0 = proc.clock
        vol0 = proc.vol_switches
        invol0 = proc.invol_switches
        for cb in self._before_cbs:
            cb(proc, t0)
        ev = type(self)._step(self, proc)
        t1 = proc.clock
        for cb in self._after_cbs:
            cb(proc, ev, t0, t1)
        if proc.vol_switches != vol0:
            for cb in self._vol_cbs:
                cb(proc, t1)
        if proc.invol_switches != invol0:
            for cb in self._invol_cbs:
                cb(proc, t1)
        if proc.done:
            for cb in self._done_cbs:
                cb(proc, t1)
        return ev

    # -- syscall handling --------------------------------------------------------------
    def _charge_lock_ref(self, proc: SimProcess, addr: int, instrs: int) -> None:
        """One test-and-set: a write to the lock word plus its setup."""
        batch = RefBatch([addr], [True], [instrs], [int(DataClass.LOCK)])
        proc.advance(proc.processor.run_batch(batch, proc.clock))

    def _handle_acquire(self, proc: SimProcess, ev: SpinAcquire) -> None:
        lock = ev.lock
        costs_tas = 14  # matches InstructionCosts.spinlock_tas
        for _ in range(self.sim.spin_tries):
            self._charge_lock_ref(proc, lock.addr, costs_tas)
            if lock.holder is None:
                lock.holder = proc.pid
                lock.n_acquires += 1
                return
            lock.n_contended += 1
        # Spun out.  PostgreSQL's s_lock falls back to a timed select();
        # with backoff_cycles == 0 we instead model a pure spin-wait
        # (the ablation of §4.2.4's discussion): the process retries
        # without sleeping or switching, burning thread time.
        proc.pending = ev  # retry the acquire
        if self.sim.backoff_cycles == 0:
            return
        lock.n_backoffs += 1
        proc.advance(proc.processor.run_compute(120))  # backoff setup path
        self._voluntary_switch(proc, self.sim.backoff_cycles)

    def _handle_release(self, proc: SimProcess, ev: SpinRelease) -> None:
        lock = ev.lock
        if lock.holder != proc.pid:
            raise SchedulerError(
                f"process {proc.pid} released {lock.name} held by {lock.holder}"
            )
        self._charge_lock_ref(proc, lock.addr, 8)
        lock.holder = None

    # -- context switches ------------------------------------------------------------------
    def _voluntary_switch(self, proc: SimProcess, sleep_cycles: int) -> None:
        proc.vol_switches += 1
        proc.advance(self.sim.context_switch_cycles)
        proc.state = STATE_SLEEPING
        proc.wake_at = proc.clock + sleep_cycles
        proc.slice_used = 0

    def _check_preemption(self, proc: SimProcess) -> None:
        if proc.done or proc.state == STATE_SLEEPING:
            return
        preempted = False
        if proc.slice_used >= self.sim.time_slice_cycles:
            preempted = True
        else:
            # Daemon/system preemption noise grows with machine load.
            delta = proc.thread_cycles - proc.noise_mark
            proc.noise_mark = proc.thread_cycles
            n_busy = self._n_live
            if n_busy > 1:
                rate = self.sim.preempt_noise_per_mcycles * (n_busy - 1)
                proc.noise_accum += delta * rate / 1e6
                if proc.noise_accum >= 1.0:
                    proc.noise_accum -= 1.0
                    preempted = True
        if preempted:
            proc.invol_switches += 1
            proc.advance(self.sim.context_switch_cycles)
            proc.slice_used = 0
            if self.sim.cs_pollution_lines:
                self._pollute_cache(proc)
            # Round-robin: the preempted process goes to the back of its
            # CPU's queue (a no-op when it is alone on the CPU).
            queue = self._queues[proc.cpu]
            if len(queue) > 1 and queue[0] is proc:
                self._cpu_clock[proc.cpu] = max(
                    self._cpu_clock[proc.cpu], proc.clock
                )
                queue.rotate(-1)

    def _pollute_cache(self, proc: SimProcess) -> None:
        """Model the cache footprint of whatever ran during the switch:
        evict the LRU lines of the coherent cache (directory-correctly)."""
        h = self.memsys.hierarchies[proc.cpu]
        victims = h.coherent.pop_lru(self.sim.cs_pollution_lines)
        span = h.coherent_line_size
        for vline, vstate in victims:
            vbase = h.coherent.line_base(vline)
            if h.has_l2:
                h.l1.invalidate_range(vbase, span)
            self.memsys.engine.evict(
                proc.cpu, vbase, vstate, self.memsys._home(vbase), proc.clock
            )

    # -- results -----------------------------------------------------------------------------
    def all_done(self) -> bool:
        return all(p.done for p in self.processes)

    def wall_cycles(self) -> int:
        """Completion time of the whole run (max final clock)."""
        return max((p.clock for p in self.processes), default=0)
