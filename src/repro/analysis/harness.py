"""The run harness: workload -> session -> launches -> RunRecord.

:class:`WorkloadRunner` allocates a workload's buffers, initialises their
contents (NumPy-generated, deterministic) and executes the kernel
sequence ``repeats`` times, accumulating cycles and GPUShield statistics
read from the GPU's unified stats registry.  Launch-granularity tools
(clArmor, GMOD) interpose real work around every kernel invocation
through a :class:`LaunchInterposer` — exactly where the real tools hook
the runtime; per-access tools instead implement the
:class:`~repro.core.checker.AccessChecker` protocol and ride the memory
pipeline.

A healthy benchmark run must not trigger violations: the harness raises
if any are reported, which doubles as a continuous no-false-positive
check on the whole GPUShield stack.
"""

from __future__ import annotations

from abc import ABC
from typing import Callable, Dict, Optional

import numpy as np

from repro.analysis.results import RunRecord
from repro.core.shield import ShieldConfig
from repro.device import acquire_device, release_device
from repro.device import memo as warm_memo
from repro.device.device import GpuDevice
from repro.driver.allocator import Buffer
from repro.gpu.config import GPUConfig, nvidia_config
from repro.gpu.gpu import LaunchResult
from repro.session import GpuSession
from repro.workloads.suite import BenchmarkDef
from repro.workloads.templates import BufferSpec, Workload

#: Cap on host-initialised bytes per buffer; the declared allocation can
#: be larger (Figure 11 footprints) but kernels only touch a prefix.
_INIT_CAP = 2 << 20

#: A launch hook sees the runner plus the just-finished launch's result —
#: ``None`` for pre-launch hooks (nothing has run yet) — and returns
#: extra cycles to charge.
LaunchHook = Callable[["WorkloadRunner", Optional[LaunchResult]], int]


class LaunchInterposer(ABC):
    """Kernel-launch-granularity instrumentation (clArmor, GMOD, ...).

    Tools that cannot see individual accesses hook the runtime around
    every kernel invocation instead: allocate padding, plant canaries,
    scan after completion.  Both hooks return the extra GPU cycles the
    interposition costs; the default implementations are free no-ops so
    subclasses override only the side they use.
    """

    def pre_launch(self, runner: "WorkloadRunner",
                   result: Optional[LaunchResult]) -> int:
        """Called before each launch; ``result`` is always ``None``."""
        return 0

    def post_launch(self, runner: "WorkloadRunner",
                    result: Optional[LaunchResult]) -> int:
        """Called after each launch with its :class:`LaunchResult`."""
        return 0


def _generate_init(init: str, n_words: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    if init == "randf":
        data = rng.random(n_words, dtype=np.float32)
    elif init == "iota":
        data = np.arange(n_words, dtype=np.int32)
    elif init.startswith("index:"):
        _tag, _target, limit = init.split(":")
        data = rng.integers(0, max(int(limit), 1), n_words, dtype=np.int32)
    elif init.startswith("csr_rows:"):
        degree = int(init.split(":")[1])
        data = (np.arange(n_words, dtype=np.int64) * degree).astype(np.int32)
    else:
        raise ValueError(f"unknown init {init!r}")
    return data.tobytes()


def _init_buffer(session: GpuSession, buf: Buffer, spec: BufferSpec,
                 seed: int) -> None:
    n_bytes = min(spec.nbytes, _INIT_CAP)
    n_words = n_bytes // 4
    if n_words == 0 or spec.init == "zero":
        return
    # Generation is content-addressed on the warm path; the write into
    # device memory happens every run (memory state is an observable).
    data = warm_memo.init_payload(
        spec.init, n_words, seed,
        lambda: _generate_init(spec.init, n_words, seed))
    session.driver.write(buf, data)


class WorkloadRunner:
    """One workload bound to one session, ready to execute."""

    def __init__(self, workload: Workload,
                 config: Optional[GPUConfig] = None,
                 shield: Optional[ShieldConfig] = None,
                 config_name: str = "", seed: int = 11,
                 allow_violations: bool = False, alloc_pad: int = 0,
                 launch_mutator: Optional[Callable] = None,
                 device: Optional[GpuDevice] = None):
        """``alloc_pad`` grows every allocation by that many tail bytes —
        how canary tools (clArmor/GMOD) intercept ``malloc`` to make room
        for their guard words.

        ``launch_mutator(runner, launch, launch_index)`` is called on the
        prepared launch context between ``driver.launch`` and ``gpu.run``
        — the boundary where pointer-capture attacks (forged IDs,
        stale-pointer replay) live, and where differential harnesses
        capture per-launch ground truth (assigned region IDs, ciphers).

        Without an explicit ``device`` the runner acquires one from the
        warm cache for ``(config, shield)`` — reset to ``seed``, so runs
        are bit-identical whether the device is fresh or reused — and
        :meth:`close` returns it.  A passed ``device`` stays with its
        owner and ``config``/``shield`` are taken from it.
        """
        self.workload = workload
        #: The seed this runner's device was (re)seeded with — threaded
        #: down so campaign seeds are never shadowed by the session
        #: default, and asserted by the fuzz determinism check.
        self.seed = seed
        # Everything inside the span is the provisioning path the warm
        # device layer owns: device acquisition (construct vs reset) and
        # buffer allocation + initialisation.  ``bench --compare-warm``
        # aggregates this clock per leg.
        with warm_memo.provision_span():
            if device is None:
                self.config = config or nvidia_config()
                device = acquire_device(self.config, shield, seed=seed)
                self._owns_device = True
            else:
                self.config = device.config
                self._owns_device = False
            self.device = device
            self.session = GpuSession(device=device)
            self.config_name = config_name or self.config.name
            self.allow_violations = allow_violations
            self.alloc_pad = alloc_pad
            self.launch_mutator = launch_mutator
            #: Violation records drained across the most recent ``run()``.
            self.last_violations: list = []
            self.buffers: Dict[str, Buffer] = {}
            try:
                for i, spec in enumerate(workload.buffers):
                    region = getattr(spec, "region", "global")
                    buf = self.session.driver.allocator.malloc(
                        spec.nbytes + alloc_pad, name=spec.name,
                        region=region,
                        # Page-level read-only is only guaranteed for the
                        # constant/texture regions (Table 1); global
                        # read-only buffers rely on GPUShield's RBT flag.
                        read_only=spec.read_only and region in ("constant",
                                                                "texture"))
                    _init_buffer(self.session, buf, spec,
                                 seed=seed * 1009 + i)
                    self.buffers[spec.name] = buf
            except Exception:
                self.close()
                raise

    def close(self) -> None:
        """Return an acquired device to the warm pool (idempotent).

        Callers must be done reading device memory (digests, buffer
        readbacks) first: a released device may be reset and reused by
        the next runner at any time.
        """
        if self._owns_device:
            self._owns_device = False
            release_device(self.device)

    def data_end(self, name: str) -> int:
        """First byte past the workload's own data in buffer ``name``."""
        return self.buffers[name].va + self.buffers[name].size - self.alloc_pad

    def run(self, pre_launch: Optional[LaunchHook] = None,
            post_launch: Optional[LaunchHook] = None,
            interposer: Optional[LaunchInterposer] = None) -> RunRecord:
        """Execute all launches; hooks return extra cycles to account.

        ``interposer`` bundles both hooks behind the
        :class:`LaunchInterposer` ABC; explicit ``pre_launch`` /
        ``post_launch`` callables may still be passed for one-off hooks
        (both may not name the same side twice).
        """
        if interposer is not None:
            if pre_launch is not None or post_launch is not None:
                raise ValueError(
                    "pass either an interposer or bare hooks, not both")
            pre_launch = interposer.pre_launch
            post_launch = interposer.post_launch
        workload = self.workload
        record = RunRecord(benchmark=workload.name, config=self.config_name)
        driver = self.session.driver
        gpu = self.session.gpu
        self.last_violations = []
        launch_index = 0
        for _rep in range(workload.repeats):
            for run in workload.runs:
                args = {}
                for pname, (kind, value) in run.args.items():
                    if kind == "buf":
                        args[pname] = self.buffers[value]
                    elif kind == "sizeof":
                        args[pname] = (self.buffers[value].size
                                       - self.alloc_pad)
                    elif kind == "delta":
                        src, dst, extra = value
                        args[pname] = (self.buffers[dst].va
                                       - self.buffers[src].va + extra)
                    elif kind == "heap_off":
                        args[pname] = driver.heap.limit + value
                    else:
                        args[pname] = value
                if pre_launch is not None:
                    # Pre-launch hooks have no result yet (the
                    # LaunchHook alias declares Optional[LaunchResult]).
                    record.cycles += pre_launch(self, None)
                launch = driver.launch(run.kernel, args,
                                       run.workgroups, run.wg_size)
                if self.launch_mutator is not None:
                    self.launch_mutator(self, launch, launch_index)
                launch_index += 1
                result = gpu.run(launch)
                violations = driver.finish(launch)
                self.last_violations.extend(violations)
                record.cycles += result.cycles
                record.instructions += result.instructions
                record.mem_instructions += result.mem_instructions
                record.transactions += result.transactions
                record.launches += 1
                record.aborted = record.aborted or result.aborted
                record.violations += len(violations)
                if violations and not self.allow_violations:
                    first = violations[0]
                    raise AssertionError(
                        f"benchmark {workload.name} triggered a bounds "
                        f"violation ({first.reason} on buffer "
                        f"{first.buffer_id}): the workload or the checker "
                        f"is wrong")
                if post_launch is not None:
                    record.cycles += post_launch(self, result)

        # Run totals since the device's last reset, read straight from
        # the per-core stats objects — the same read GPU.run takes
        # around every launch, equal to the registry snapshot's totals.
        totals = gpu.counters()
        if self.session.shield.enabled:
            record.l1_rcache_hit_rate = totals.l1_rcache_hit_rate
            record.l2_rcache_hit_rate = totals.l2_rcache_hit_rate
            record.check_reduction_percent = totals.check_reduction_percent
            record.bcu_stall_cycles = totals.bcu_stall_cycles
            record.rbt_fills = totals.rbt_fills
        record.l1d_hit_rate = totals.l1d_hit_rate
        return record


def run_workload(workload: Workload, config: Optional[GPUConfig] = None,
                 shield: Optional[ShieldConfig] = None,
                 config_name: str = "", seed: int = 11,
                 allow_violations: bool = False) -> RunRecord:
    """Execute one workload instance; returns the aggregated record.

    This hook-free path is cell-memoized on the warm device path: the
    artifact figures re-measure identical (workload, config, shield,
    seed) cells — Figure 17 and the Figure 19 matrix repeat Figure 14's
    base and default-shield cells — and determinism makes the repeats
    bit-identical, so a warm repeat replays the record.  Any harness
    with hooks, pads, mutators or tolerated violations bypasses this
    entirely.
    """

    def execute() -> RunRecord:
        runner = WorkloadRunner(workload, config=config, shield=shield,
                                config_name=config_name, seed=seed,
                                allow_violations=allow_violations)
        try:
            return runner.run()
        finally:
            runner.close()

    if allow_violations:
        return execute()
    return warm_memo.memoized_run(workload, config, shield,
                                  config_name or (config
                                                  or nvidia_config()).name,
                                  seed, execute)


def run_benchmark(bench: BenchmarkDef, config: Optional[GPUConfig] = None,
                  shield: Optional[ShieldConfig] = None,
                  config_name: str = "", seed: int = 11) -> RunRecord:
    """Build and run a registered benchmark."""
    return run_workload(bench.build(), config=config, shield=shield,
                        config_name=config_name, seed=seed)


# ---------------------------------------------------------------------------
# The protection-config matrix
# ---------------------------------------------------------------------------

#: The protection tools a benchmark can run under — one column of the
#: paper's tool-comparison matrix (Figure 19 derives overheads from it).
MATRIX_TOOLS = ("base", "gpushield", "cuda-memcheck", "clarmor", "gmod")

#: GPU configs the parallel matrix path can name in a job payload
#: (payloads are JSON; an arbitrary GPUConfig object cannot travel).
_NAMED_CONFIGS = {"nvidia": nvidia_config}


def default_shield(**kw) -> ShieldConfig:
    """The paper's default GPUShield configuration (L1:1,L2:3, static)."""
    from repro.core.bcu import BCUConfig
    return ShieldConfig(enabled=True, static_analysis=True,
                        bcu=BCUConfig(l1_latency=1, l2_latency=3,
                                      l1_entries=4), **kw)


def run_matrix_cell(bench_name: str, tool: str,
                    config: Optional[GPUConfig] = None,
                    seed: int = 11) -> RunRecord:
    """Run one (benchmark, protection tool) cell of the matrix.

    Every cell builds a fresh workload and takes a warm device for its
    (config, tool) fingerprint — reset to ``seed``, so cells are
    independent of each other, of execution order, and of which process
    runs them — the property that lets the matrix fan out over the
    parallel runner.  ``seed`` is threaded through every tool runner
    explicitly: the device layer re-seeds per cell, never falling back
    to the session default.
    """
    from repro.workloads.suite import get_benchmark
    config = config or nvidia_config()
    bench = get_benchmark(bench_name)
    if tool == "base":
        return run_workload(bench.build(), config, None, "base", seed=seed)
    if tool == "gpushield":
        return run_workload(bench.build(), config, default_shield(),
                            "gpushield", seed=seed)
    if tool == "cuda-memcheck":
        from repro.baselines.memcheck import MemcheckRunner
        tool_runner = MemcheckRunner(bench.build(), config, seed=seed)
    elif tool == "clarmor":
        from repro.baselines.canary import CanaryRunner
        tool_runner = CanaryRunner(bench.build(), config, seed=seed)
    elif tool == "gmod":
        from repro.baselines.gmod import GmodRunner
        tool_runner = GmodRunner(bench.build(), config, seed=seed)
    else:
        raise ValueError(f"unknown protection tool {tool!r} "
                         f"(have {list(MATRIX_TOOLS)})")
    try:
        return tool_runner.run()
    finally:
        tool_runner.runner.close()


def matrix_cell_job(payload: dict, ctx) -> dict:
    """Runner entrypoint (kind ``harness.matrix_cell``): one cell."""
    config = _NAMED_CONFIGS[payload.get("gpu", "nvidia")]()
    record = run_matrix_cell(payload["bench"], payload["tool"],
                             config=config, seed=int(payload["seed"]))
    ctx.stats.counters("matrix")["cells"] = 1
    return {"bench": payload["bench"], "tool": payload["tool"],
            "record": record.to_json()}


def run_protection_matrix(benchmarks, tools=MATRIX_TOOLS, *,
                          config: Optional[GPUConfig] = None,
                          seed: int = 11, jobs: int = 0,
                          reporter=None) -> Dict[str, Dict[str, RunRecord]]:
    """The full matrix: ``benchmark -> tool -> RunRecord``.

    ``jobs=0`` runs the cells serially in-process (accepting any
    ``config`` object); ``jobs>=1`` fans one job per cell out over the
    parallel runner (``config`` must then be the default — payloads
    carry config by *name*).  Cell results are identical either way.
    """
    names = list(benchmarks)
    if jobs <= 0:
        return {name: {tool: run_matrix_cell(name, tool, config=config,
                                             seed=seed)
                       for tool in tools}
                for name in names}
    if config is not None:
        raise ValueError("the parallel matrix runs the named default "
                         "config; pass jobs=0 for a custom GPUConfig")
    from repro.runner import JobSpec, run_jobs
    plan = [JobSpec(job_id=f"matrix-{name}-{tool}",
                    kind="harness.matrix_cell", seed=seed,
                    timeout=600.0, max_retries=1, retry_backoff=0.5,
                    payload={"bench": name, "tool": tool, "seed": seed,
                             "gpu": "nvidia"})
            for name in names for tool in tools]
    report = run_jobs(plan, jobs=jobs, run_name="protection-matrix",
                      reporter=reporter)
    if report.failures:
        detail = "; ".join(f"{r.job_id}: {r.status} ({r.error})"
                           for r in report.failures)
        raise RuntimeError(f"{len(report.failures)} matrix cell(s) "
                           f"failed: {detail}")
    out: Dict[str, Dict[str, RunRecord]] = {name: {} for name in names}
    for result in report.results.values():
        payload = result.payload
        out[payload["bench"]][payload["tool"]] = RunRecord(
            **payload["record"])
    return out
