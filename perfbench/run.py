#!/usr/bin/env python3
"""The repository benchmark: sweep-cell throughput of the simulator.

    python3 perfbench/run.py --workload q21_index --seed 1 --seconds 30 --trace 0

Runs one named workload (see ``WORKLOADS`` and ``perfbench/README.md``)
through the public sweep surface of ``repro.api`` for ``--seconds``
host seconds, in whole passes over the workload's cells.  Every pass
starts from an empty ``ResultCache`` directory and a fresh runner, so
each cell is simulated from empty simulated caches, exactly as the
program runs it by default.  Each cell's query answer is checked
against the reference (``verify_results=True``) and its counter vector
against the digest recorded in ``perfbench/digests.json``.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer split
(see ``perfbench/layers.py``), writing the traced cells as a Chrome
trace.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from layers import LayerTracer, delta, read_cell_log, worker_cell_log

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

#: TPC-H scale factor of every workload.  At this size every table sits
#: on the generator's floors (400 orders, 100 suppliers), so a pass of
#: each workload takes a few host seconds on one core.
SF = 0.00025
#: ``TPCHConfig``'s own default seed: the one the program uses when
#: nobody asks for another.
DEFAULT_SEED = 19920101
#: Pool workers for ``machines_jobs2``: the CPU count of the host the
#: benchmark was defined on.
JOBS = 2
#: Set-up is timed this many times per run, each in a fresh interpreter.
SETUP_REPEATS = 9
#: Passes every run makes whatever ``--seconds`` says: a traced run
#: needs an untraced and a traced one to compare.
MIN_PASSES = 2
#: Databases a run draws from its seed.  A cell's cost depends on the
#: data (one Q21 cell took 40% longer on one database than on others),
#: so a run spreads its work over several: rotation ``k`` runs serial
#: cell ``j`` on database ``(j + k) mod DATABASES``, or the whole
#: parallel sweep on database ``k mod DATABASES``.
DATABASES = 6
SEED_STRIDE = 1_000_003

ALL_MACHINES = ("hpv", "sgi", "islands-2x8", "flat-smp-16")


@dataclass(frozen=True)
class Workload:
    queries: Tuple[str, ...]
    platforms: Tuple[str, ...]
    nprocs: Tuple[int, ...]
    #: ``None`` runs the cells serially through ``SweepRunner``;
    #: a number fans them out through ``ParallelSweepRunner``.
    jobs: Optional[int] = None

    def cells(self, quick: bool = False) -> List[Tuple[str, str, int, int, str]]:
        nprocs = self.nprocs[:1] if quick else self.nprocs
        return [
            (q, p, n, 1, "default")
            for q in self.queries
            for p in self.platforms
            for n in nprocs
        ]


WORKLOADS: Dict[str, Workload] = {
    # Index-probe joins: short batches, coherent-miss path, per-batch
    # dispatch and index-scan reference generation.
    "q21_index": Workload(("Q21",), ("hpv", "sgi"), (1, 4, 8)),
    # Sequential scans: long batches, memory hit path.
    "scan_q6_q12": Workload(("Q6", "Q12"), ("hpv", "sgi"), (1, 2, 4, 6, 8)),
    # Every query on every registered machine through the process pool:
    # 3-level hierarchies, prefetcher, islands topology, chunk packing,
    # result-cache writes.
    "machines_jobs2": Workload(("Q6", "Q12", "Q21"), ALL_MACHINES, (1, 4), jobs=JOBS),
}


def declared_metrics(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}

#: Counter fields hashed into a cell digest: the whole per-process
#: counter vector as it stood when the expectations were recorded.  A
#: field added later is ignored; a field removed later reads as missing
#: and mismatches.
DIGEST_FIELDS = (
    "cycles", "instructions", "data_refs", "level1_misses",
    "coherent_misses", "mem_latency_cycles", "mem_accesses",
    "stall_cycles", "upgrades", "vol_switches", "invol_switches",
    "miss_cold", "miss_capacity", "miss_comm", "level1_by_class",
    "coherent_by_class",
)


def cell_name(key: Sequence) -> str:
    return f"{key[0]}/{key[1]}/{key[2]}"


def cell_digest(result) -> str:
    """Hash of one cell's full simulated outcome."""
    runs = [
        {
            "per_process": [
                {f: getattr(snap, f, None) for f in DIGEST_FIELDS}
                for snap in run.per_process
            ],
            "wall_cycles": run.wall_cycles,
            "queue_delay": repr(float(run.interconnect_queue_delay_mean)),
            "n_backoffs": run.n_backoffs,
            "query_rows": run.query_rows,
        }
        for run in result.runs
    ]
    blob = json.dumps(runs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def combined_digest(digests: Dict[str, str]) -> str:
    blob = "\n".join(f"{k}={v}" for k, v in sorted(digests.items())).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- one pass ---------------------------------------------------------------

@dataclass
class Cell:
    key: tuple
    #: TPC-H seed of the database the cell ran on
    seed: int
    t0: float
    t1: float
    result: object = None
    error: Optional[str] = None
    pid: int = 0
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


@dataclass
class Pass:
    traced: bool
    wall: float
    cells: List[Cell]
    layers: Dict[str, float] = field(default_factory=dict)
    sweep: Dict[str, float] = field(default_factory=dict)
    #: host probe samples taken during the pass
    probes: List[float] = field(default_factory=list)


class SweepTimeline:
    """``SWEEP_EVENTS`` sink: when cells finish and what the engine
    rode out on the way."""

    def __init__(self) -> None:
        self.done_at: List[float] = []
        self.dispatches = 0
        self.retries = 0
        self.quarantined = 0

    def on_cell_done(self, key, source) -> None:
        self.done_at.append(time.perf_counter())

    def on_chunk_dispatch(self, host, token, n_cells) -> None:
        self.dispatches += 1

    def on_cell_retry(self, key, attempt, kind, delay) -> None:
        self.retries += 1

    def on_cell_quarantined(self, key, kind, error) -> None:
        self.quarantined += 1


def run_serial_pass(api, cells, cfgs, cache_dir, tracer, probes=None) -> Tuple[List[Cell], dict]:
    """Cell ``j`` runs on database ``j mod len(cfgs)``, one
    ``SweepRunner`` per database, all sharing one result cache."""
    cache = api.ResultCache(cache_dir)
    runners = [api.SweepRunner(tpch=cfg, verify_results=True, cache=cache) for cfg in cfgs]
    out = []
    for j, key in enumerate(cells):
        runner = runners[j % len(runners)]
        before = tracer.snapshot() if tracer is not None else None
        t0 = time.perf_counter()
        try:
            result, error = runner.cell(key), None
        except Exception as exc:  # a failed cell is counted, not fatal
            result, error = None, repr(exc)
        cell = Cell(key, runner.tpch.seed, t0, time.perf_counter(), result, error, os.getpid())
        if tracer is not None:
            cell.layers = delta(tracer.snapshot(), before)
        out.append(cell)
        if probes is not None:
            probes.append(host_probe())
    return out, {}


def run_parallel_pass(api, cells, cfg, cache_dir, tracer, jobs, probes) -> Tuple[List[Cell], dict]:
    """One ``ParallelSweepRunner`` sweep of every cell on one database.
    The workers take the host probe after each cell, while the sweep
    keeps both CPUs busy; if no worker logged its cells, this process
    takes it once per cell after the sweep."""
    log_dir = tempfile.mkdtemp(prefix="cells-", dir=cache_dir)
    runner = api.ParallelSweepRunner(
        tpch=cfg,
        verify_results=True,
        cache=api.ResultCache(os.path.join(cache_dir, "results")),
        executor=api.select_executor(jobs=jobs),
    )
    timeline = SweepTimeline()
    t0 = time.perf_counter()
    with worker_cell_log(log_dir, tracer, probe=host_probe):
        report = runner.execute(cells, sinks=[timeline])
    t_end = time.perf_counter()
    failed = {tuple(f.key): f"{f.kind}: {f.error}" for f in report.failed}
    logged: Dict[str, dict] = {}
    for rec in read_cell_log(log_dir):
        probes.append(rec["probe_s"])
        prev = logged.get(rec["cell"])
        if prev is None or rec["t1"] > prev["t1"]:
            logged[rec["cell"]] = rec  # a retried cell keeps its last attempt
    # A cell no worker logged (the engine fell back to serial execution
    # in this process, or the workers were not forked from it) is given
    # the longest gap between completions the coordinator saw.
    if not logged:
        probes.extend(host_probe() for _ in cells)
    done = sorted(timeline.done_at)
    gap = max(b - a for a, b in zip([t0] + done, done + [t_end]))
    out = []
    for key in cells:
        rec = logged.get(cell_name(key))
        if rec is not None:
            cell = Cell(key, cfg.seed, rec["t0"], rec["t1"], pid=rec["pid"],
                        layers=rec.get("layers", {}))
        else:
            cell = Cell(key, cfg.seed, t_end - gap, t_end, pid=os.getpid())
        if key in failed:
            cell.error = failed[key]
        else:
            try:
                cell.result = runner.cell(key)
            except Exception as exc:
                cell.error = repr(exc)
        out.append(cell)
    sweep = {
        "core.parallel.first_done_s": (done[0] - t0) if done else 0.0,
        "core.parallel.last_gap_s": (done[-1] - done[-2]) if len(done) > 1 else 0.0,
        "core.parallel.dispatches": timeline.dispatches,
        "core.parallel.retries": timeline.retries,
        "core.parallel.quarantined": timeline.quarantined,
    }
    return out, sweep


def run_pass(api, workload: Workload, cells, cfgs, traced: bool, tracer, scratch, probes) -> Pass:
    """One pass: serially over ``cfgs`` cell by cell, or as one parallel
    sweep on ``cfgs[0]``."""
    cache_dir = tempfile.mkdtemp(prefix="pass-", dir=scratch)
    use = tracer if traced else None
    try:
        with tracer.installed() if traced else nullcontext():
            before = tracer.snapshot()
            t0 = time.perf_counter()
            if workload.jobs is None:
                out, sweep = run_serial_pass(api, cells, cfgs, cache_dir, use, probes)
            else:
                out, sweep = run_parallel_pass(
                    api, cells, cfgs[0], cache_dir, use, workload.jobs, probes)
            wall = time.perf_counter() - t0
            after = tracer.snapshot()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    p = Pass(traced, wall, out, sweep=sweep)
    if traced:
        # Coordinator-side work plus whatever forked workers logged.
        p.layers = delta(after, before)
        if workload.jobs is not None:
            for cell in out:
                for k, v in cell.layers.items():
                    p.layers[k] = p.layers.get(k, 0) + v
    return p


# -- metrics ----------------------------------------------------------------

def sim_totals(cells: List[Cell]) -> Dict[str, int]:
    refs = l1 = coherent = 0
    for cell in cells:
        if cell.result is None:
            continue
        for run in cell.result.runs:
            for snap in run.per_process:
                refs += snap.data_refs
                l1 += snap.level1_misses
                coherent += snap.coherent_misses
    return {"refs": refs, "l1": l1, "coherent": coherent}


def pass_end_to_end(p: Pass) -> Dict[str, float]:
    ok = [c for c in p.cells if c.result is not None and c.error is None]
    walls = [c.wall for c in p.cells]
    return {
        "cells_per_s": len(ok) / p.wall,
        "sim_mrefs_per_s": sim_totals(ok)["refs"] / p.wall / 1e6,
        "longest_cell_s": max(walls),
    }


def run_end_to_end(passes: List[Pass], serial: bool) -> Dict[str, float]:
    """End-to-end figures of a run, in host seconds, from its totals: the
    cells that ran correctly and their simulated references over the
    summed cell walls (for a parallel workload the summed sweep walls,
    which keep the pool's dispatch and idle tail), and the slowest
    cell's mean wall."""
    cells = [c for p in passes for c in p.cells]
    ok = [c for c in cells if c.result is not None and c.error is None]
    busy = sum(c.wall for c in cells) if serial else sum(p.wall for p in passes)
    walls: Dict[tuple, List[float]] = {}
    for c in cells:
        walls.setdefault(c.key, []).append(c.wall)
    return {
        "cells_per_s": len(ok) / busy,
        "sim_mrefs_per_s": sim_totals(ok)["refs"] / busy / 1e6,
        "longest_cell_s": max(statistics.mean(w) for w in walls.values()),
    }


def pass_per_layer(p: Pass) -> Dict[str, float]:
    lay = p.layers
    sim = sim_totals(p.cells)
    walls = [c.wall for c in p.cells]
    g = lambda k: lay.get(k, 0)  # noqa: E731
    batches = g("db.batches")
    return {
        "tpch.reference_s": g("tpch.reference_s"),
        "db.refgen_s": g("db.refgen_s"),
        "db.events": g("db.events"),
        "db.batches": batches,
        "db.refs": g("db.refs"),
        "db.refs_per_batch": g("db.refs") / batches if batches else 0.0,
        "db.long_batch_frac": g("db.long_batches") / batches if batches else 0.0,
        "osim.run_s": g("osim.run_s"),
        "osim.self_s": g("osim.run_s") - g("osim.run.child_s"),
        "osim.steps": g("osim.steps"),
        "cpu.run_batch_s": g("cpu.run_batch_s"),
        "cpu.self_s": g("cpu.run_batch_s") - g("cpu.run_batch.child_s"),
        "cpu.calls": g("cpu.run_batch.calls"),
        "mem.access_batch_s": g("mem.access_batch_s"),
        "mem.calls": g("mem.access_batch.calls"),
        "mem.ns_per_ref": g("mem.access_batch_s") / sim["refs"] * 1e9 if sim["refs"] else 0.0,
        "mem.l1_miss_ratio": sim["l1"] / sim["refs"] if sim["refs"] else 0.0,
        "mem.coherent_misses": sim["coherent"],
        "core.cell_wall_p50_s": statistics.median(walls),
        "core.cell_wall_max_s": max(walls),
        "core.unattributed_s": sum(walls) - g("osim.run_s") - g("tpch.reference_s"),
        "core.resultcache.put_s": g("core.resultcache.put_s"),
        "core.resultcache.puts": g("core.resultcache.put.calls"),
        "core.parallel.first_done_s": p.sweep.get("core.parallel.first_done_s", 0.0),
        "core.parallel.last_gap_s": p.sweep.get("core.parallel.last_gap_s", 0.0),
        "core.parallel.dispatches": p.sweep.get("core.parallel.dispatches", 0),
    }


# -- host speed ---------------------------------------------------------------
#
# The VM the benchmark was defined on ran the same cells on the same
# data up to 25% slower or faster from one minute to the next, as its
# other tenants came and went.  A fixed dictionary-lookup loop, timed
# for about 10 ms after every cell, slows down with them: the mean of
# those samples over a run tracks the host's speed during the run.  The
# benchmark reports its host-time metrics at the speed the loop had on
# the defining host.  The loop uses no code of the program, so a change
# to the program moves them by as much as it moves host time.

_PROBE_TABLE = {i * 7919 % 1_000_003: i for i in range(200_000)}
_PROBE_KEYS = tuple(list(_PROBE_TABLE)[::17])
#: Rounds of the loop per sample; one round takes about 1 ms.
PROBE_ROUNDS = 10
#: Mean sample on the defining host (2-vCPU Xeon VM, Python 3.11), in s
REFERENCE_PROBE_S = 1.2e-3
#: End-to-end metrics that are work per host second; the others are
#: host seconds.
RATES = ("cells_per_s", "sim_mrefs_per_s")


def _probe_round() -> int:
    table, acc = _PROBE_TABLE, 0
    for k in _PROBE_KEYS:
        acc ^= table[k] + k
    return acc


def host_probe() -> float:
    """Seconds of the fastest of :data:`PROBE_ROUNDS` rounds of the loop."""
    best = float("inf")
    for _ in range(PROBE_ROUNDS):
        t0 = time.perf_counter()
        _probe_round()
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(e2e: Dict[str, float], probes: List[float]) -> Dict[str, float]:
    """Scale host-time figures by how much slower than on the defining
    host the loop ran, on average, over the run."""
    slowdown = statistics.mean(probes) / REFERENCE_PROBE_S
    return {k: v * slowdown if k in RATES else v / slowdown for k, v in e2e.items()}


def median_of(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set of this process, plus that of its largest
    reaped child (a pool worker of a parallel sweep) when asked, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# -- set-up -----------------------------------------------------------------

_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro.api
from repro.core.experiment import DatabaseCache
t1 = time.perf_counter()
DatabaseCache.get(repro.api.TPCHConfig(sf=float(sys.argv[2]), seed=int(sys.argv[3])))
print(t1 - t0, time.perf_counter() - t1)
"""


def time_setup(seed: int) -> List[Tuple[float, float]]:
    """(import, build) seconds of each of :data:`SETUP_REPEATS` fresh
    interpreters doing what a user's first sweep does before its first
    cell."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), repr(SF), str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        imp, build = (float(x) for x in proc.stdout.split())
        out.append((imp, build))
    return out


# -- provenance ---------------------------------------------------------------

def provenance(args, workload: Workload) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting an enclosing repository
        # when the benchmark runs from an exported tree.
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        head = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_head": head,
        "sf": SF,
        "seed": args.seed,
        "workers": workload.jobs,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


# -- digests ----------------------------------------------------------------

def load_digests(path: Path) -> Dict[str, Dict[str, str]]:
    """``{data seed: {cell: digest}}`` recorded at :data:`SF`."""
    try:
        table = json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    if table.get("sf") != SF:
        return {}
    return table.get("seeds", {})


def record_digests(path: Path, digests: Dict[Tuple[int, str], str]) -> None:
    """Add digests for the cells the table does not cover yet."""
    try:
        table = json.loads(path.read_text())
    except FileNotFoundError:
        table = {}
    if table.get("sf") != SF:
        table = {"sf": SF, "seeds": {}}
    for (seed, cell), digest in digests.items():
        table["seeds"].setdefault(str(seed), {}).setdefault(cell, digest)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# -- command line -----------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="TPC-H data seed (TPCHConfig.seed)")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="host seconds to measure, in whole passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: alternate untraced and traced passes and "
                         "report the per-layer split")
    ap.add_argument("--quick", action="store_true",
                    help="only the lowest process count of each workload")
    ap.add_argument("--digests", type=Path, default=DIGESTS,
                    help="expected cell digests (JSON)")
    ap.add_argument("--record-digests", action="store_true",
                    help="add this run's digests to --digests where missing")
    return ap.parse_args(argv)


def data_seed(seed: int, k: int) -> int:
    """TPC-H seed of the ``k``-th database a run with ``--seed seed``
    uses; the first is ``seed`` itself."""
    return seed + k * SEED_STRIDE


def measure(api, workload: Workload, cells, cfgs, args, tracer, probes, scratch: Path) -> Tuple[List[Pass], float]:
    """Whole passes until ``args.seconds`` would be overrun, and at least
    :data:`MIN_PASSES`.  Pass ``k`` runs on the ``k``-th rotation of the
    databases (see :data:`DATABASES`).  A traced run makes pairs of an
    untraced and a traced pass on the same rotation, and stops only at
    the end of a pair.  Returns the passes and the start time."""
    cycle = 2 if args.trace else 1
    passes: List[Pass] = []
    t_start = time.perf_counter()
    while True:
        i = len(passes)
        traced = bool(args.trace) and i % 2 == 1
        k = (i // cycle) % len(cfgs)
        pass_cfgs = cfgs[k:] + cfgs[:k] if workload.jobs is None else [cfgs[k]]
        n = len(probes)
        passes.append(run_pass(api, workload, cells, pass_cfgs, traced, tracer, scratch, probes))
        passes[-1].probes = probes[n:]
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p.wall for p in passes)
        if (
            len(passes) >= MIN_PASSES
            and len(passes) % cycle == 0
            and elapsed + cycle * typical > args.seconds
        ):
            return passes, t_start


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    #: ``{(data seed, cell): digest}`` of every cell that ran correctly
    digests: Dict[Tuple[int, str], str] = field(default_factory=dict)
    unrecorded: int = 0
    errors: List[str] = field(default_factory=list)


def check(passes: List[Pass], expected: Dict[str, Dict[str, str]]) -> Verdict:
    """Count every cell that raised, was quarantined, answered wrong or
    does not match its recorded (or earlier) digest."""
    v = Verdict()
    for p in passes:
        for cell in p.cells:
            v.attempted += 1
            name, seed = cell_name(cell.key), cell.seed
            if cell.error is not None or cell.result is None:
                v.failed += 1
                v.errors.append(f"{name} (seed {seed}): {cell.error}")
                continue
            got = cell_digest(cell.result)
            want = expected.get(str(seed), {}).get(name) or v.digests.get((seed, name))
            if want is not None and got != want:
                v.failed += 1
                v.mismatched += 1
                v.errors.append(f"{name} (seed {seed}): digest {got} != expected {want}")
                continue
            v.digests[(seed, name)] = got
    v.unrecorded = sum(
        1 for seed, name in v.digests if name not in expected.get(str(seed), {})
    )
    return v


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro.api as api
    from repro.core.experiment import DatabaseCache

    import_s = time.perf_counter() - t_import
    setup = time_setup(args.seed)
    probes: List[float] = []

    tracer = LayerTracer()
    cfgs = [api.TPCHConfig(sf=SF, seed=data_seed(args.seed, k)) for k in range(DATABASES)]
    with tracer.installed():
        DatabaseCache.get(cfgs[0])
    build_s = tracer.acc["tpch.build"][0]
    for cfg in cfgs[1:]:
        DatabaseCache.get(cfg)

    cells = workload.cells(args.quick)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        # Warm-up: one cell, so lazy one-time work (code hashing for the
        # result cache, first-use imports) stays out of the first pass.
        run_serial_pass(api, cells[:1], cfgs, tempfile.mkdtemp(dir=scratch), None)
        passes, t_start = measure(api, workload, cells, cfgs, args, tracer, probes, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    verdict = check(passes, load_digests(args.digests))
    if args.record_digests:
        record_digests(args.digests, verdict.digests)

    plain = [p for p in passes if not p.traced]
    host_e2e = run_end_to_end(plain, serial=workload.jobs is None)
    e2e = at_reference_speed(host_e2e, probes)
    e2e["setup_s"] = statistics.median(imp + build for imp, build in setup)
    e2e["peak_rss_mb"] = peak_rss_mb(with_children=workload.jobs is not None)
    units = declared_metrics("end_to_end")
    metrics = {k: e2e[k] for k in units}
    if args.trace:
        traced = [p for p in passes if p.traced]
        layers = median_of([pass_per_layer(p) for p in traced])
        layers["tpch.build_s"] = build_s
        # Rare events are summed over every pass of the run: a median
        # would hide the one retry a run rode out.
        for k in ("core.parallel.retries", "core.parallel.quarantined"):
            layers[k] = sum(p.sweep.get(k, 0) for p in passes)
        layers["trace_overhead"] = (
            statistics.median(p.wall for p in traced)
            / statistics.median(p.wall for p in plain)
        )
        units = declared_metrics("per_layer")
        metrics = {k: layers[k] for k in units}
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        write_chrome_trace(trace_path, traced, t_start)
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")

    failed_frac = verdict.failed / verdict.attempted
    digest = combined_digest({f"{s}/{c}": d for (s, c), d in verdict.digests.items()})
    prov = provenance(args, workload)
    named = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record = {
        "provenance": prov,
        "import_s": import_s,
        "setup_runs": setup,
        "passes": [
            {"traced": p.traced, "data_seeds": sorted({c.seed for c in p.cells}), "wall_s": p.wall,
             "cells": len(p.cells), "end_to_end": pass_end_to_end(p),
             "sweep": p.sweep, "cell_walls": [c.wall for c in p.cells], "probe_s": p.probes}
            for p in passes
        ],
        "host_probe_s": probes,
        "host_end_to_end": host_e2e,
        "failed_frac": failed_frac,
        "digest_mismatch": verdict.mismatched,
        "digest": digest,
        "digests_unrecorded": verdict.unrecorded,
        "errors": verdict.errors,
        "metrics": named,
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"passes: {len(passes)} ({sum(p.traced for p in passes)} traced), "
          f"cells per pass: {len(cells)}")
    for err in verdict.errors[:20]:
        print(f"FAILED {err}")
    print(f"failed_frac {failed_frac:.6g} ratio")
    print(f"digest_mismatch {verdict.mismatched} count")
    note = (f" ({verdict.unrecorded} cell(s) without a recorded digest)"
            if verdict.unrecorded else "")
    print(f"digest {args.workload} seed={args.seed}: {digest}{note}")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    print(f"result record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": named,
    }))
    return 0


def write_chrome_trace(path: Path, passes: List[Pass], t_start: float) -> None:
    """One complete-event span per traced cell, its layer split as args."""
    events = []
    for i, p in enumerate(passes):
        for cell in p.cells:
            events.append({
                "name": cell_name(cell.key),
                "cat": "cell",
                "ph": "X",
                "ts": (cell.t0 - t_start) * 1e6,
                "dur": cell.wall * 1e6,
                "pid": cell.pid,
                "tid": i,
                "args": {"error": cell.error, **cell.layers},
            })
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


if __name__ == "__main__":
    sys.exit(main())
