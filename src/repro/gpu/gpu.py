"""The whole-GPU model: cores, shared memory-side structures, dispatch.

Supports the three execution modes of the evaluation:

* ``single`` — one kernel over all cores (Figures 14-17);
* ``inter_core`` — two kernels, each on half the cores (§6.2 mode 1);
* ``intra_core`` — two kernels interleaved on every core (§6.2 mode 2),
  where the RCache kernel-ID tags prevent cross-kernel confusion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple, Union

from repro.core.shield import GPUShield
from repro.engine import resolve as resolve_engine
from repro.errors import BoundsViolation, KernelAborted, LaunchError
from repro.gpu.cache import Cache
from repro.gpu.core import CoreJob, ShaderCore
from repro.gpu.dram import Dram
from repro.gpu.executor import Executor
from repro.gpu.tlb import Tlb

if TYPE_CHECKING:  # avoid a circular import; the driver imports gpu.memory
    from repro.driver.driver import GpuDriver, LaunchContext


class Counters(NamedTuple):
    """The per-core counters a launch result or run record reports,
    summed over cores and read straight from the component stats
    objects — no registry snapshot.  Each total equals the matching
    ``StatsRegistry.snapshot()`` wildcard sum, and subtracting two reads
    gives the counts of the launches in between."""

    instructions: int
    mem_instructions: int
    transactions: int
    issue_bcu_stall_cycles: int     # cores.*.issue.bcu_stall_cycles
    l1d_hits: int
    l1d_misses: int
    l1_rcache_hits: int
    l1_rcache_misses: int
    l2_rcache_hits: int
    l2_rcache_misses: int
    bcu_mem_instructions: int
    checks_skipped_static: int
    rbt_fills: int
    bcu_stall_cycles: int           # cores.*.bcu.stall_cycles
    violations: int                 # shield log length

    def __sub__(self, other: "Counters") -> "Counters":
        return Counters(*map(operator.sub, self, other))

    @property
    def l1d_hit_rate(self) -> float:
        return _hit_rate(self.l1d_hits, self.l1d_misses)

    @property
    def l1_rcache_hit_rate(self) -> float:
        return _hit_rate(self.l1_rcache_hits, self.l1_rcache_misses)

    @property
    def l2_rcache_hit_rate(self) -> float:
        return _hit_rate(self.l2_rcache_hits, self.l2_rcache_misses)

    @property
    def check_reduction_percent(self) -> float:
        """Share of BCU-seen memory instructions whose check the static
        analysis elided (Type-1 pointers, §5.3)."""
        if self.bcu_mem_instructions == 0:
            return 0.0
        return 100.0 * self.checks_skipped_static / self.bcu_mem_instructions


def _hit_rate(hits: int, misses: int) -> float:
    """``StatsSnapshot.hit_rate``'s convention: 1.0 when never accessed."""
    accesses = hits + misses
    return hits / accesses if accesses else 1.0


@dataclass
class LaunchResult:
    """Aggregate outcome of one GPU.run() invocation.

    Every counter, rate and fill field covers this launch alone (a
    delta of the device's cumulative counters over the run)."""

    cycles: int
    instructions: int
    mem_instructions: int
    transactions: int
    aborted: bool = False
    error: str = ""
    per_core_cycles: List[int] = field(default_factory=list)
    l1d_hit_rate: float = 1.0
    l1_rcache_hit_rate: float = 1.0
    l2_rcache_hit_rate: float = 1.0
    check_reduction_percent: float = 0.0
    bcu_stall_cycles: int = 0
    rbt_fills: int = 0
    violations: int = 0
    divergent_branches: int = 0

    @property
    def ok(self) -> bool:
        return not self.aborted


class GPU:
    """Simulated GPU bound to one driver (its memory and shield)."""

    def __init__(self, driver: GpuDriver):
        self.driver = driver
        self.config = driver.config
        self.shield: GPUShield = driver.shield
        config = self.config
        self.engine = resolve_engine(config.engine)
        if self.engine == "fast":
            from repro.gpu.fastpath import FastCache, FastTlb
            cache_cls, tlb_cls = FastCache, FastTlb
        else:
            cache_cls, tlb_cls = Cache, Tlb
        self.l2cache = cache_cls(config.l2_bytes, config.l2_assoc,
                                 config.line_size, name="l2")
        self.l2tlb = tlb_cls(config.l2tlb_entries, config.l2tlb_assoc,
                             name="l2tlb")
        self.dram = Dram(channels=config.dram_channels,
                         row_bytes=config.dram_row_bytes,
                         line_size=config.line_size,
                         row_hit_latency=config.dram_row_hit_latency,
                         row_miss_latency=config.dram_row_miss_latency,
                         service_interval=config.dram_service_interval)
        self.cores = [
            ShaderCore(i, config, driver.memory, driver.space,
                       self.l2cache, self.l2tlb, self.dram,
                       bcu=(self.shield.make_bcu(engine=self.engine)
                            if self.shield.enabled else None))
            for i in range(config.num_cores)
        ]
        self._race_detector = None
        self._profiler = None
        self.stats = self._build_stats_registry()

    def _build_stats_registry(self):
        """Register every component's counters under one hierarchy."""
        # Imported lazily: repro.analysis pulls the harness (and hence
        # this module) back in at package-import time.
        from repro.analysis.stats import StatsRegistry
        registry = StatsRegistry()
        registry.register("l2cache", self.l2cache.stats)
        registry.register("l2tlb", self.l2tlb.stats)
        registry.register("dram", self.dram.stats)
        for core in self.cores:
            prefix = f"cores.{core.core_id}"
            registry.register(f"{prefix}.issue", core.stats)
            registry.register(f"{prefix}.l1d", core.l1d.stats)
            registry.register(f"{prefix}.const", core.const_cache.stats)
            registry.register(f"{prefix}.tex", core.tex_cache.stats)
            registry.register(f"{prefix}.l1tlb", core.l1tlb.stats)
            if core.bcu is not None:
                # The BCU swaps its stats object on reset; bind the unit.
                registry.register(f"{prefix}.bcu",
                                  lambda b=core.bcu: b.stats)
                registry.register(f"{prefix}.rcache.l1", core.bcu.l1.stats)
                registry.register(f"{prefix}.rcache.l2", core.bcu.l2.stats)
        if self.shield.enabled:
            registry.register(
                "shield.log",
                lambda: {"violations": len(self.shield.log)})
        # Detached, the callable yields an empty mapping, which
        # contributes zero snapshot keys — stats digests recorded
        # without a detector stay bit-identical.
        registry.register(
            "racedetect",
            lambda: (self._race_detector.stats()
                     if self._race_detector is not None else {}))
        registry.register(
            "profiler",
            lambda: (self._profiler.stats()
                     if self._profiler is not None else {}))
        return registry

    def attach_tracer(self, tracer) -> None:
        """Record every warp memory access into an
        :class:`~repro.analysis.trace.MemoryTracer`."""
        for core in self.cores:
            core.tracer = tracer

    def detach_tracer(self) -> None:
        """Drop any attached tracer (harness hygiene: a device returned
        to the warm pool must never keep feeding a caller's trace)."""
        self.attach_tracer(None)

    def attach_race_detector(self, detector) -> None:
        """Shadow every committed access into a
        :class:`~repro.racedetect.detector.RaceDetector`."""
        self._race_detector = detector
        for core in self.cores:
            core.pipeline.race_detector = detector

    def detach_race_detector(self) -> None:
        """Drop any attached race detector (same pool-hygiene contract
        as :meth:`detach_tracer`: shadow state and race records must
        never survive into another tenant's acquisition)."""
        self.attach_race_detector(None)

    def attach_profiler(self, profiler) -> None:
        """Attribute every warp memory access into a
        :class:`~repro.profiler.profile.Profiler`; the fast engine
        delegates hooked accesses to the reference pipeline."""
        self._profiler = profiler
        for core in self.cores:
            core.pipeline.profiler = profiler
        if profiler is not None and not profiler.engine:
            profiler.engine = self.engine

    def detach_profiler(self) -> None:
        """Drop any attached profiler (same pool-hygiene contract as
        :meth:`detach_tracer`: a pooled device must never keep feeding
        a previous tenant's profile)."""
        self.attach_profiler(None)

    def reset(self) -> None:
        """Scrub every micro-architectural structure back to cold state.

        Flushes the shared L2/L2TLB, resets DRAM channel timing, resets
        each core's private pipeline state and BCU (RCache banks, memo
        tables), re-attaches the default checker (harness tools may have
        swapped it), detaches tracers, and zeroes every registered
        statistic in place — the registry keeps its registrations so
        references bound at construction (fast engine) stay live.
        """
        self.l2cache.flush()
        self.l2tlb.flush()
        self.dram.reset()
        for core in self.cores:
            core.pipeline.reset()
            if core.bcu is not None:
                core.bcu.reset()
                core.pipeline.checker = core.bcu.as_checker()
            else:
                core.pipeline.checker = None
            core.tracer = None
            core.pipeline.race_detector = None
            core.pipeline.profiler = None
        self._race_detector = None
        self._profiler = None
        self.stats.reset()

    # -- dispatch ------------------------------------------------------------------

    def run(self, launches: Union[LaunchContext, Sequence[LaunchContext]],
            mode: str = "single") -> LaunchResult:
        """Execute prepared launches to completion."""
        if not isinstance(launches, (list, tuple)):
            launches = [launches]
        launches = list(launches)
        if not launches:
            raise LaunchError("nothing to run")
        if mode == "single" and len(launches) != 1:
            raise LaunchError("mode 'single' takes exactly one launch")
        if mode in ("inter_core", "intra_core") and len(launches) < 2:
            raise LaunchError(f"mode {mode!r} needs at least two launches")

        jobs = [self._make_job(launch) for launch in launches]
        assignments = self._assign(jobs, mode)

        # Core counters are cumulative across runs; read them for deltas.
        before = self.counters()
        aborted = False
        error = ""
        per_core: List[int] = []
        for core, work in zip(self.cores, assignments):
            if not work:
                per_core.append(0)
                continue
            try:
                per_core.append(core.run(work))
            except KernelAborted as err:
                aborted = True
                error = str(err)
                per_core.append(core.stats.cycles)
                break
            except BoundsViolation as err:
                # PRECISE reporting policy: the fault aborts the kernel
                # immediately (§5.5.2).
                aborted = True
                error = f"precise bounds fault: {err}"
                per_core.append(core.stats.cycles)
                break

        delta = self.counters() - before
        result = LaunchResult(
            cycles=max(per_core) if per_core else 0,
            instructions=delta.instructions,
            mem_instructions=delta.mem_instructions,
            transactions=delta.transactions,
            aborted=aborted,
            error=error,
            per_core_cycles=per_core,
            l1d_hit_rate=delta.l1d_hit_rate,
            l1_rcache_hit_rate=delta.l1_rcache_hit_rate,
            l2_rcache_hit_rate=delta.l2_rcache_hit_rate,
            check_reduction_percent=delta.check_reduction_percent,
            bcu_stall_cycles=delta.issue_bcu_stall_cycles,
            rbt_fills=delta.rbt_fills,
            violations=delta.violations,
            divergent_branches=sum(j.executor.divergent_branches
                                   for j in jobs),
        )
        if self._race_detector is not None:
            # Kernel boundaries are happens-before edges: a retired
            # launch's shadow can be dropped — nothing races with it.
            for launch in launches:
                self._race_detector.on_kernel_finish(launch.kernel_id)
        # Kernel termination flushes the RCaches (§5.5).  Partitioned
        # RCaches (§6.2) flush per terminating kernel so banks belonging
        # to kernels outside this dispatch survive.
        partitioned = (self.shield.enabled
                       and self.shield.config.bcu.partition_rcache)
        for core in self.cores:
            if core.bcu is not None:
                if partitioned:
                    for launch in launches:
                        core.bcu.flush(launch.kernel_id)
                else:
                    core.bcu.flush()
        return result

    def _make_job(self, launch: LaunchContext) -> CoreJob:
        if self.engine == "fast":
            from repro.gpu.fastpath import FastExecutor
            # A fused ALU run issues as one step; it is cycle-exact only
            # when greedy-then-oldest re-issues the warp every cycle.
            executor_cls = partial(
                FastExecutor,
                fuse_alu_runs=self.config.alu_latency <= 1)
        else:
            executor_cls = Executor
        executor = executor_cls(
            kernel=launch.kernel,
            workgroups=launch.workgroups,
            wg_size=launch.wg_size,
            warp_size=self.config.warp_size,
            initial_regs=launch.initial_registers(),
            heap=self.driver.heap,
            heap_tagger=launch.heap_pointer_tagger,
            launch_key=launch.kernel_id,
        )
        return CoreJob(executor=executor, launch=launch)

    def _assign(self, jobs: List[CoreJob],
                mode: str) -> List[List[Tuple[CoreJob, int]]]:
        ncores = len(self.cores)
        assignments: List[List[Tuple[CoreJob, int]]] = [[] for _ in range(ncores)]
        if mode == "single":
            job = jobs[0]
            for wg in range(job.launch.workgroups):
                assignments[wg % ncores].append((job, wg))
        elif mode == "inter_core":
            half = max(1, ncores // len(jobs))
            for j, job in enumerate(jobs):
                lo = j * half
                hi = ncores if j == len(jobs) - 1 else (j + 1) * half
                span = max(1, hi - lo)
                for wg in range(job.launch.workgroups):
                    assignments[lo + wg % span].append((job, wg))
        elif mode == "intra_core":
            interleaved: List[Tuple[CoreJob, int]] = []
            counters = [0] * len(jobs)
            remaining = sum(j.launch.workgroups for j in jobs)
            j = 0
            while remaining:
                job = jobs[j % len(jobs)]
                idx = counters[j % len(jobs)]
                if idx < job.launch.workgroups:
                    interleaved.append((job, idx))
                    counters[j % len(jobs)] += 1
                    remaining -= 1
                j += 1
            for i, item in enumerate(interleaved):
                assignments[i % ncores].append(item)
        else:
            raise LaunchError(f"unknown mode {mode!r}")
        return assignments

    # -- statistics ---------------------------------------------------------------------

    def counters(self) -> Counters:
        """Sum the reported per-core counters from the live stats objects.

        A handful of attribute reads per core: ``GPU.run`` takes one
        before and one after every launch, and the harness one per run,
        where a registry snapshot would flatten every registered source.
        """
        ins = mem = txs = stalls = l1h = l1m = 0
        r1h = r1m = r2h = r2m = bmem = skipped = fills = bstalls = 0
        for core in self.cores:
            issue = core.stats
            ins += issue.instructions
            mem += issue.mem_instructions
            txs += issue.transactions
            stalls += issue.bcu_stall_cycles
            l1d = core.pipeline.l1d.stats
            l1h += l1d.hits
            l1m += l1d.misses
            bcu = core.bcu
            if bcu is not None:
                # Read through the unit: its reset swaps the stats object.
                b = bcu.stats
                bmem += b.mem_instructions
                skipped += b.checks_skipped_static
                fills += b.rbt_fills
                bstalls += b.stall_cycles
                r1, r2 = bcu.l1.stats, bcu.l2.stats
                r1h += r1.hits
                r1m += r1.misses
                r2h += r2.hits
                r2m += r2.misses
        violations = len(self.shield.log) if self.shield.enabled else 0
        return Counters(ins, mem, txs, stalls, l1h, l1m, r1h, r1m, r2h, r2m,
                        bmem, skipped, fills, bstalls, violations)
