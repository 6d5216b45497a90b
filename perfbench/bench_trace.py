"""Host-time instrumentation for the benchmark, applied from outside.

Nothing in ``src/`` is edited: every measurement point is a wrapper this
module installs over a public function of one simulator layer, and
removes again when the measured round ends.

Two levels:

* the **launch clock** — one clock pair around every ``GPU.run`` call,
  plus the simulated warp instructions it returns.  It is the only timer
  in an untraced run.
* **spans** — installed only for traced rounds.  A span records (id,
  parent, name, start, end, self time, item id) in memory; a layer's
  self time is its span time minus the time its child spans cover.  The
  per-access pipeline and per-instruction executor calls are far too
  many to keep one by one, so they are *aggregated leaves*: their time
  and call count are summed, and each enclosing span subtracts the leaf
  time spent inside it.

The launch clock also samples the host's speed: at most every
``PROBE_EVERY_S`` it runs ``host_probe``, a fixed piece of interpreter
work that no simulator code touches, outside the launch's clock pair.
The probes' mean time says how fast this shared host runs at the
moment; their own time is taken out of the round's wall time.

Runner workers are forked, so they inherit the wrappers.  The shard
entry ``run_service_shard`` is wrapped to clear the inherited state,
collect the worker's launch times, spans and counters, and ship them
back in its result payload; the parent-side ``run_jobs`` wrapper folds
them in, parenting the worker's root spans under its own span.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

clock = time.perf_counter

#: Key under which a worker ships its measurements in a shard payload.
WIRE_KEY = "_perfbench"

#: Simulated per-core counters harvested from the public stats snapshot
#: (the ``cores.<n>.`` prefix is dropped and cores are summed).
SIM_KEYS = (
    "issue.instructions", "issue.mem_instructions", "issue.transactions",
    "l1d.hits", "l1d.misses",
    "bcu.mem_instructions", "bcu.checks_skipped_static",
    "bcu.rbt_fills", "bcu.stall_cycles",
    "rcache.l1.hits", "rcache.l1.misses",
    "rcache.l2.hits", "rcache.l2.misses",
)

Span = Tuple[int, int, str, float, float, float, str]

#: Seconds of launches between two host-speed probes, at least.
PROBE_EVERY_S = 0.25

#: Loop trips of one host-speed probe (about 5 ms on a 2-vCPU VM).
PROBE_LOOPS = 10000


class _ProbeCell:
    __slots__ = ("acc",)


_PROBE_TABLE: Dict[int, int] = {}
_PROBE_CELL = _ProbeCell()


def _probe_step(a: int, b: int) -> int:
    return (a * b) % 13 if a & 1 else a + b


def host_probe() -> float:
    """Host seconds of one fixed piece of interpreter work.

    Dict, attribute, call and integer work like the simulator's, but it
    creates no object the garbage collector tracks, so its time depends
    on the host's speed only, not on the simulator's heap.
    """
    table, cell = _PROBE_TABLE, _PROBE_CELL
    table.clear()
    cell.acc = 0
    start = clock()
    for i in range(PROBE_LOOPS):
        key = (i * 7) & 255
        table[key] = (table.get(key, 0) + (i ^ key)) & 0xFFFF
        cell.acc = (cell.acc + _probe_step(i, key)) & 0xFFFF
    return clock() - start


class Recorder:
    """Per-process measurement state for one benchmark run."""

    def __init__(self):
        self.pipeline = [0.0, 0]    # aggregated leaf: seconds, calls
        self.executor = [0.0, 0]
        self.tracing = False
        #: The unwrapped ``StatsRegistry.snapshot``: harvesting must not
        #: count as a stats-layer call.
        self.snapshot: Callable = None
        self.clear()

    def clear(self) -> None:
        """Forget everything measured so far (leaf lists kept in place:
        the installed wrappers hold references to them)."""
        self.pipeline[:] = [0.0, 0]
        self.executor[:] = [0.0, 0]
        self.launch_s: List[float] = []
        self.instructions = 0
        self.spans: List[Span] = []
        self.stack: List[list] = []
        self.next_id = 0
        self.item = ""
        self.sim: Counter = Counter()
        self.shield_launches = 0
        self.runner_overhead_s = 0.0
        self.worker_cache: Counter = Counter()
        self.worker_memo: Counter = Counter()
        self.gpus: list = []
        self._base: Dict[int, Dict[str, float]] = {}
        self.probe_s: List[float] = []     # host-speed probe times
        self.probe_at: List[int] = []      # launches done before each
        self.probe_wall = 0.0               # time spent probing
        self.last_probe = clock()

    def probe(self) -> None:
        start = clock()
        self.probe_at.append(len(self.launch_s))
        self.probe_s.append(host_probe())
        self.last_probe = clock()
        self.probe_wall += self.last_probe - start

    # -- spans ----------------------------------------------------------------

    def _leaf_total(self) -> float:
        return self.pipeline[0] + self.executor[0]

    def enter(self, name: str) -> None:
        self.next_id += 1
        self.stack.append([self.next_id, name, clock(), self._leaf_total(),
                           0.0, 0.0])

    def exit(self) -> None:
        sid, name, start, leaf0, child, child_leaf = self.stack.pop()
        end = clock()
        leaf = self._leaf_total() - leaf0
        own = (end - start) - child - (leaf - child_leaf)
        parent = 0
        if self.stack:
            top = self.stack[-1]
            top[4] += end - start
            top[5] += leaf
            parent = top[0]
        self.spans.append((sid, parent, name, start, end, own, self.item))

    # -- simulated counters ---------------------------------------------------

    def harvest(self, gpu) -> None:
        """Fold ``gpu``'s counters since the last harvest into ``sim``."""
        base = self._base.get(id(gpu), {})
        now: Dict[str, float] = {}
        for key, value in self.snapshot(gpu.stats).as_dict().items():
            if key.startswith("cores."):
                short = key.split(".", 2)[2]
                if short in SIM_KEYS:
                    now[key] = value
                    self.sim[short] += value - base.get(key, 0)
        self._base[id(gpu)] = now

    def reset_base(self, gpu) -> None:
        """``gpu``'s counters were just zeroed by a reset."""
        self._base[id(gpu)] = {}

    def harvest_all(self) -> None:
        for gpu in self.gpus:
            self.harvest(gpu)
        self.gpus.clear()
        self._base.clear()

    # -- worker shipping ------------------------------------------------------

    def export(self) -> dict:
        return {"launch_s": self.launch_s,
                "instructions": self.instructions,
                "spans": self.spans,
                "pipeline": list(self.pipeline),
                "executor": list(self.executor),
                "sim": dict(self.sim),
                "shield_launches": self.shield_launches,
                "cache": dict(self.worker_cache),
                "memo": dict(self.worker_memo),
                "probe_s": self.probe_s,
                "probe_at": self.probe_at,
                "probe_wall": self.probe_wall}

    def absorb(self, data: dict) -> None:
        """Fold a worker's export in; its root spans become children of
        the innermost open span (the ``run_jobs`` span)."""
        self.probe_at.extend(len(self.launch_s) + at
                             for at in data["probe_at"])
        self.launch_s.extend(data["launch_s"])
        self.instructions += data["instructions"]
        self.probe_s.extend(data["probe_s"])
        self.probe_wall += data["probe_wall"]
        self.sim.update(data["sim"])
        self.shield_launches += data["shield_launches"]
        self.worker_cache.update(data["cache"])
        self.worker_memo.update(data["memo"])
        for acc, (secs, calls) in ((self.pipeline, data["pipeline"]),
                                   (self.executor, data["executor"])):
            acc[0] += secs
            acc[1] += calls
        top = self.stack[-1] if self.stack else None
        offset = self.next_id
        for sid, parent, name, start, end, own, item in data["spans"]:
            if parent == 0 and top is not None:
                top[4] += end - start
            self.spans.append((sid + offset,
                               parent + offset if parent else
                               (top[0] if top else 0),
                               name, start, end, own, item))
            self.next_id = max(self.next_id, sid + offset)
        if top is not None:
            top[5] += data["pipeline"][0] + data["executor"][0]

    # -- summaries ------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        out: Dict[str, float] = Counter()
        for span in self.spans:
            out[span[2]] += span[5]
        out["gpu.pipeline"] = self.pipeline[0]
        out["gpu.executor"] = self.executor[0]
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = Counter(span[2] for span in self.spans)
        out["gpu.pipeline"] = self.pipeline[1]
        out["gpu.executor"] = self.executor[1]
        return out


class Patches:
    """Installed wrappers, removable in reverse order."""

    def __init__(self):
        self._undo: List[Callable[[], None]] = []

    def set(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def on_undo(self, action: Callable[[], None]) -> None:
        self._undo.append(action)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _span(rec: Recorder, name: str):
    def make(fn):
        def wrapper(*args, **kwargs):
            rec.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit()
        return wrapper
    return make


def _leaf(acc: list):
    def make(fn):
        def wrapper(self, *args):
            t0 = clock()
            result = fn(self, *args)
            acc[0] += clock() - t0
            acc[1] += 1
            return result
        return wrapper
    return make


def install_launch_clock(rec: Recorder, patches: Patches) -> None:
    """The untraced run's only timer: host seconds per ``GPU.run``, and
    a host-speed probe after a launch now and then (not while tracing:
    the probe would count in a span)."""
    from repro.gpu.gpu import GPU

    def make(fn):
        def wrapper(self, *args, **kwargs):
            t0 = clock()
            result = fn(self, *args, **kwargs)
            t1 = clock()
            rec.launch_s.append(t1 - t0)
            rec.instructions += result.instructions
            if not rec.tracing and t1 - rec.last_probe >= PROBE_EVERY_S:
                rec.probe()
            return result
        return wrapper
    patches.set(GPU, "run", make)


def install_worker_bridge(rec: Recorder, patches: Patches) -> None:
    """Ship worker-side measurements of ``service.shard`` jobs back."""
    import repro.runner
    from repro.device import device_cache_stats, warm_memo_stats
    from repro.runner import kinds
    from repro.service import executor

    def make_shard(fn):
        def wrapper(payload, ctx):
            tracing = rec.tracing
            rec.clear()              # drop what fork copied from the parent
            rec.tracing = tracing
            cache0, memo0 = device_cache_stats(), warm_memo_stats()
            if tracing:
                rec.enter("service.shard")
            try:
                out = fn(payload, ctx)
            finally:
                if tracing:
                    rec.exit()
            if tracing:
                rec.harvest_all()
            cache1, memo1 = device_cache_stats(), warm_memo_stats()
            rec.worker_cache.update({k: cache1[k] - cache0[k]
                                     for k in ("hits", "misses")})
            rec.worker_memo.update({k: memo1[k] - memo0[k]
                                    for k in ("cell_hits", "init_hits",
                                              "init_misses")})
            out[WIRE_KEY] = rec.export()
            return out
        return wrapper

    def make_run_jobs(fn):
        def wrapper(*args, **kwargs):
            if rec.tracing:
                rec.enter("runner.run_jobs")
            try:
                report = fn(*args, **kwargs)
                for result in report.results.values():
                    data = result.payload.pop(WIRE_KEY, None)
                    if data is not None:
                        rec.absorb(data)
                rec.runner_overhead_s += report.wall_seconds - sum(
                    r.wall_seconds for r in report.results.values())
                return report
            finally:
                if rec.tracing:
                    rec.exit()
        return wrapper

    original_shard = executor.run_service_shard
    patches.set(executor, "run_service_shard", make_shard)
    kinds.register("service.shard", executor.run_service_shard)
    patches.on_undo(lambda: kinds.register("service.shard", original_shard))
    patches.set(repro.runner, "run_jobs", make_run_jobs)


def install_spans(rec: Recorder, patches: Patches) -> None:
    """Wrap each layer's public entry points for one traced round."""
    from repro.analysis import harness
    from repro.analysis.stats import StatsRegistry
    from repro.baselines.canary import CanaryRunner
    from repro.baselines.gmod import GmodRunner
    from repro.compiler.static_bounds import StaticBoundsChecker
    from repro.device.device import GpuDevice
    from repro.driver.driver import GpuDriver
    from repro.fuzz import campaign
    from repro.gpu.core import ShaderCore
    from repro.gpu.fastpath import FastExecutor, FastMemoryPipeline
    from repro.gpu.gpu import GPU
    from repro.service import executor, simulator

    rec.snapshot = StatsRegistry.snapshot
    for owner, attr, name in (
            (harness, "run_matrix_cell", "analysis.cell"),
            (harness.WorkloadRunner, "__init__", "device.provision"),
            (harness.WorkloadRunner, "run", "analysis.harness"),
            (executor, "acquire_device", "device.provision"),
            (GpuDevice, "__init__", "device.build"),
            (GpuDevice, "reset", "device.reset"),
            (StatsRegistry, "snapshot", "analysis.stats"),
            (StaticBoundsChecker, "analyze", "compiler.analyze"),
            (GpuDriver, "finish", "driver.finish"),
            (GPU, "run", "gpu.run"),
            (ShaderCore, "run", "gpu.core"),
            (CanaryRunner, "post_launch", "baselines.interpose"),
            (GmodRunner, "post_launch", "baselines.interpose"),
            (campaign, "run_campaign", "fuzz.campaign"),
            (simulator, "run_service", "service.run"),
            (simulator, "schedule", "service.schedule")):
        patches.set(owner, attr, _span(rec, name))
    patches.set(FastMemoryPipeline, "access", _leaf(rec.pipeline))
    patches.set(FastExecutor, "step", _leaf(rec.executor))

    def make_case(fn):
        def wrapper(spec, *args, **kwargs):
            rec.item = spec.case_id
            rec.enter("fuzz.case")
            try:
                return fn(spec, *args, **kwargs)
            finally:
                rec.exit()
        return wrapper
    patches.set(campaign, "run_case", make_case)

    def make_placement(fn):
        span = _span(rec, "service.placement")(fn)

        def wrapper(placement, *args, **kwargs):
            rec.item = (f"placement-{placement['index']}"
                        if isinstance(placement, dict)
                        else f"placement-{placement.index}")
            return span(placement, *args, **kwargs)
        return wrapper
    patches.set(simulator, "execute_placement", make_placement)
    patches.set(executor, "execute_placement", make_placement)

    def make_launch(fn):
        span = _span(rec, "driver.launch")(fn)

        def wrapper(self, *args, **kwargs):
            if self.shield.enabled:
                rec.shield_launches += 1
            return span(self, *args, **kwargs)
        return wrapper
    patches.set(GpuDriver, "launch", make_launch)

    def make_gpu_init(fn):
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            rec.gpus.append(self)
        return wrapper
    patches.set(GPU, "__init__", make_gpu_init)

    def make_gpu_reset(fn):
        def wrapper(self):
            rec.enter("trace.harvest")
            try:
                rec.harvest(self)
            finally:
                rec.exit()
            fn(self)
            rec.reset_base(self)
        return wrapper
    patches.set(GPU, "reset", make_gpu_reset)
