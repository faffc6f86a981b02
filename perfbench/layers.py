"""Outside-in layer tracing for the benchmark.

The simulator's layers are called through a short chain of public
entry points:

    tpch   build_database, QueryDef.reference
    core   run_experiment, ResultCache.put, run_cell_guarded (workers)
    osim   Kernel.run
    db     the backend event generators the kernel drives
    cpu    Processor.run_batch
    mem    MemorySystem.access_batch

:class:`LayerTracer` wraps each of those from outside the program,
only while :meth:`LayerTracer.installed` is active, and accumulates busy
seconds and call counts per boundary.  Reference generation is timed
through the ``run_experiment(capture=...)`` hook, with the same
``record(rep, pid, gen)`` / ``note_rep(rep, rows)`` shape as the
program's own workload capture.  A boundary that no longer exists, or
is no longer called, reports 0 calls, and its time shows up in the
enclosing layer's self time instead.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Batches at least this long took the memory system's vector route at
#: the commit that defined the benchmark; ``db.long_batch_frac`` keeps
#: reporting their share whatever the program does with them later.
LONG_BATCH_REFS = 48

#: Timed boundaries, in call-nesting order (outermost first).
TIMERS = (
    "tpch.build",
    "tpch.reference",
    "osim.run",
    "db.refgen",
    "cpu.run_batch",
    "mem.access_batch",
    "core.resultcache.put",
)

#: Plain counts kept at the same boundaries.
COUNTS = ("osim.steps", "db.events", "db.batches", "db.refs", "db.long_batches")


class LayerTracer:
    """Per-boundary busy seconds, call counts and event counts.

    Spans nest: each wrapper pushes its accumulator on a shared stack
    while it runs, and on exit adds its duration to the enclosing
    span's child seconds, so a layer's self time is its busy time minus
    the part its directly nested spans cover, whichever layer they
    belong to.
    """

    def __init__(self) -> None:
        #: boundary -> [busy seconds, calls, child seconds]; lists so
        #: wrappers update them in place without a lookup per call.
        self.acc: Dict[str, List[float]] = {name: [0.0, 0, 0.0] for name in TIMERS}
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.stack: List[List[float]] = []

    def snapshot(self) -> Dict[str, float]:
        """Flat copy of every accumulator (``<boundary>_s``,
        ``<boundary>.calls``, ``<boundary>.child_s`` and the plain
        counts)."""
        snap: Dict[str, float] = {}
        for name, (secs, calls, child) in self.acc.items():
            snap[f"{name}_s"] = secs
            snap[f"{name}.calls"] = calls
            snap[f"{name}.child_s"] = child
        snap.update(self.counts)
        return snap

    # -- wrappers -----------------------------------------------------------
    def _timed(self, name: str, fn):
        acc = self.acc[name]
        stack = self.stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(acc)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                acc[0] += dt
                acc[1] += 1
                if stack:
                    stack[-1][2] += dt

        return wrapper

    def _timed_kernel_run(self, fn):
        counts = self.counts

        def run(kernel, *args, **kwargs):
            steps0 = getattr(kernel, "n_steps", 0)
            try:
                return fn(kernel, *args, **kwargs)
            finally:
                counts["osim.steps"] += getattr(kernel, "n_steps", 0) - steps0

        return self._timed("osim.run", run)

    def _with_refgen_hook(self, fn):
        hook = RefgenHook(self)

        def run_experiment(*args, **kwargs):
            if kwargs.get("capture") is None:
                kwargs["capture"] = hook
            return fn(*args, **kwargs)

        return run_experiment

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Install every wrapper for the duration of the block."""
        experiment = _module("repro.core.experiment")
        undo = []

        def patch(owner, attr, wrapped_from, setter=setattr):
            original = getattr(owner, attr, None)
            if original is None:
                return  # the boundary is gone: calls stay 0
            setter(owner, attr, wrapped_from(original))
            undo.append((owner, attr, original, setter))

        def cls(module, name):
            return getattr(_module(module), name, None)

        try:
            patch(_module("repro.tpch.datagen"), "build_database",
                  lambda f: self._timed("tpch.build", f))
            patch(experiment, "build_database", lambda f: self._timed("tpch.build", f))
            for qdef in getattr(_module("repro.tpch.queries"), "QUERIES", {}).values():
                patch(
                    qdef, "reference",
                    lambda f: self._timed("tpch.reference", f),
                    setter=object.__setattr__,
                )
            run_exp = getattr(experiment, "run_experiment", None)
            if run_exp is not None and "capture" in inspect.signature(run_exp).parameters:
                patch(experiment, "run_experiment", self._with_refgen_hook)
            patch(cls("repro.osim.scheduler", "Kernel"), "run", self._timed_kernel_run)
            patch(cls("repro.cpu.processor", "Processor"), "run_batch",
                  lambda f: self._timed("cpu.run_batch", f))
            patch(cls("repro.mem.memsys", "MemorySystem"), "access_batch",
                  lambda f: self._timed("mem.access_batch", f))
            patch(cls("repro.core.resultcache", "ResultCache"), "put",
                  lambda f: self._timed("core.resultcache.put", f))
            yield self
        finally:
            for owner, attr, original, setter in reversed(undo):
                setter(owner, attr, original)


class RefgenHook:
    """``run_experiment(capture=...)`` hook timing the backend event
    generators: the time spent inside ``next(gen)`` is reference
    generation in the DBMS executor, and every event it yields is
    counted on the way to the scheduler."""

    def __init__(self, tracer: LayerTracer) -> None:
        self._batch_type = getattr(_module("repro.trace.stream"), "RefBatch", None)
        self._acc = tracer.acc["db.refgen"]
        self._stack = tracer.stack
        self._counts = tracer.counts

    def record(self, rep: int, pid: int, gen):
        return self._timed(gen)

    def note_rep(self, rep: int, query_rows: int) -> None:
        pass

    def _timed(self, gen):
        acc = self._acc
        stack = self._stack
        batch_type = self._batch_type
        perf = time.perf_counter
        events = batches = refs = long_batches = 0
        try:
            while True:
                stack.append(acc)
                t0 = perf()
                try:
                    ev = next(gen)
                except StopIteration as stop:
                    return stop.value
                finally:
                    dt = perf() - t0
                    stack.pop()
                    acc[0] += dt
                    if stack:
                        stack[-1][2] += dt
                events += 1
                if type(ev) is batch_type:
                    n = len(ev)
                    batches += 1
                    refs += n
                    if n >= LONG_BATCH_REFS:
                        long_batches += 1
                yield ev
        finally:
            counts = self._counts
            acc[1] += events
            counts["db.events"] += events
            counts["db.batches"] += batches
            counts["db.refs"] += refs
            counts["db.long_batches"] += long_batches


def _module(name: str):
    """The named program module, or ``None`` if it no longer exists."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


@contextmanager
def worker_cell_log(directory: str, tracer: Optional[LayerTracer] = None,
                    probe: Optional[Callable[[], float]] = None):
    """Record every cell a forked sweep worker runs.

    Wraps the worker-side cell choke point (``run_cell_guarded`` as
    the chunk loop in :mod:`repro.core.executors` calls it).  Each
    worker appends one JSON line per cell to ``<directory>/<pid>.jsonl``
    with the cell's host start and end time, what ``probe()`` returns
    when called right after the cell and, when a tracer is installed,
    the worker's own layer deltas for that cell.  Workers
    that are not forked from this process record nothing, and the
    caller falls back to what the coordinator sees.
    """
    from repro.core import executors

    original = getattr(executors, "run_cell_guarded", None)
    if original is None:
        yield
        return

    def run_cell_guarded(spec, *args, **kwargs):
        before = tracer.snapshot() if tracer is not None else None
        t0 = time.perf_counter()
        try:
            return original(spec, *args, **kwargs)
        finally:
            rec = {
                "cell": f"{spec.query}/{spec.platform}/{spec.n_procs}",
                "pid": os.getpid(),
                "t0": t0,
                "t1": time.perf_counter(),
            }
            if before is not None:
                rec["layers"] = delta(tracer.snapshot(), before)
            if probe is not None:
                rec["probe_s"] = probe()
            path = os.path.join(directory, f"{os.getpid()}.jsonl")
            with open(path, "a") as fh:
                fh.write(json.dumps(rec) + "\n")

    executors.run_cell_guarded = run_cell_guarded
    try:
        yield
    finally:
        executors.run_cell_guarded = original


def read_cell_log(directory: str) -> List[dict]:
    """Every record :func:`worker_cell_log` left in ``directory``."""
    out: List[dict] = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
    return out
