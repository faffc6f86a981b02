"""Processor execution model.

A :class:`Processor` turns a :class:`~repro.trace.stream.RefBatch` into
cycles: every instruction costs ``base_cpi`` cycles (pipeline, branch
and dependency behaviour folded in, as on a 4-way out-of-order PA-8200
or R10000), and every memory reference adds the stall the memory system
reports after out-of-order overlap.
"""

from __future__ import annotations

from ..mem.machine import MachineConfig
from ..mem.memsys import MemorySystem
from ..trace.stream import RefBatch


class Processor:
    """One CPU's execution engine.  Owned by the scheduler; one query
    process executes on one processor, as in the paper's setup."""

    __slots__ = ("cpu_id", "machine", "memsys", "instrs_retired", "cycles_executed")

    def __init__(self, cpu_id: int, machine: MachineConfig, memsys: MemorySystem) -> None:
        self.cpu_id = cpu_id
        self.machine = machine
        self.memsys = memsys
        self.instrs_retired = 0
        self.cycles_executed = 0

    def run_batch(self, batch: RefBatch, now: int) -> int:
        """Execute ``batch`` starting at cycle ``now``; return the cycles
        it consumed.  ``now`` feeds the interconnect's bank-queueing
        model, so it must be the owning process's current CPU clock.

        With ``memsys.fast_path`` (the default) the whole batch is
        handed to :meth:`MemorySystem.access_batch`, the hierarchy-wide
        batched engine: short batches run its flattened scalar loop,
        which keeps every coherent miss of the paper machines inline,
        interventions included; long ones enter the columnar NumPy
        kernel.  The slow per-reference loop below is kept as the
        reference implementation and produces bitwise identical
        counters and timing on every path.

        The scheduler calls the memory system directly for reference
        batches on the fast path and does this method's bookkeeping
        itself, so a batch crosses one call on its way to the engine;
        this method serves the lock references, the ``fast_path=False``
        loop and the trace replayer.
        """
        base_cpi = self.machine.base_cpi
        memsys = self.memsys
        cpu = self.cpu_id
        if memsys.fast_path:
            cycles = memsys.access_batch(cpu, batch, now, base_cpi)
        else:
            access = memsys.access
            cycles = 0.0
            t = now
            for addr, is_write, instrs, cls in batch:
                cost = instrs * base_cpi
                cost += access(cpu, addr, is_write, cls, int(t + cost))
                cycles += cost
                t += cost
        total = int(cycles)
        self.instrs_retired += batch.total_instrs
        self.cycles_executed += total
        return total

    def run_compute(self, instrs: int) -> int:
        """Execute pure compute (no memory references)."""
        total = int(instrs * self.machine.base_cpi)
        self.instrs_retired += instrs
        self.cycles_executed += total
        return total

    @property
    def cpi(self) -> float:
        """Cycles per retired instruction so far."""
        return self.cycles_executed / self.instrs_retired if self.instrs_retired else 0.0
