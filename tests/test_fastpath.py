"""The fast lane's bit-identity contract (see DESIGN.md §9).

Two layers of evidence that ``repro.gpu.fastpath`` is observationally
identical to the reference engine:

* **Property tests** drive the array-backed probe structures
  (:class:`FastCache`, :class:`FastTlb`, the fast RCaches) and an
  OrderedDict reference with the same random operation sequences and
  compare every observable after every operation — return values,
  stats counters, residency probes, occupancy.
* **Differential tests** run whole campaigns/workloads under each
  engine and compare digests: the PR-2 fuzz corpus (per-case outcomes,
  detection matrix, and per-config cycles all feed
  :func:`campaign_digest`) and a real benchmark's full
  :class:`RunRecord`.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import Bounds
from repro.core.rcache import L1RCache, L2RCache, RCacheEntry
from repro.engine import ENGINES, current_engine, engine, resolve, set_engine
from repro.gpu.cache import Cache
from repro.gpu.fastpath import (
    FastCache,
    FastL1RCache,
    FastL2RCache,
    FastTlb,
)
from repro.gpu.tlb import Tlb
from tests.conftest import build_vecadd


# ---------------------------------------------------------------------------
# Engine selection plumbing
# ---------------------------------------------------------------------------


class TestEngineSelection:
    def test_default_is_fast(self):
        assert resolve("") == current_engine()
        assert current_engine() in ENGINES

    def test_context_manager_restores(self):
        before = current_engine()
        with engine("slow"):
            assert current_engine() == "slow"
        assert current_engine() == before

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            set_engine("turbo")
        with pytest.raises(ValueError):
            resolve("turbo")

    def test_config_pin_beats_global(self):
        from repro.gpu.config import nvidia_config
        assert resolve(nvidia_config(engine="slow").engine) == "slow"

    def test_gpu_picks_engine_classes(self):
        from repro import GpuSession, ShieldConfig
        from repro.gpu.config import nvidia_config
        from repro.gpu.fastpath import (FastBoundsCheckingUnit,
                                        FastMemoryPipeline)
        from repro.gpu.pipeline import MemoryPipeline

        fast = GpuSession(nvidia_config(num_cores=1, engine="fast"),
                          shield=ShieldConfig(enabled=True))
        assert type(fast.gpu.cores[0].pipeline) is FastMemoryPipeline
        assert type(fast.gpu.cores[0].bcu) is FastBoundsCheckingUnit
        slow = GpuSession(nvidia_config(num_cores=1, engine="slow"),
                          shield=ShieldConfig(enabled=True))
        assert type(slow.gpu.cores[0].pipeline) is MemoryPipeline


# ---------------------------------------------------------------------------
# FastCache / FastTlb vs the OrderedDict reference
# ---------------------------------------------------------------------------

#: Small address pool so sequences actually collide in sets and evict.
_ADDR = st.integers(0, 1 << 14)
_OPS = st.lists(st.tuples(st.sampled_from(["access", "probe", "flush"]),
                          _ADDR),
                min_size=1, max_size=200)

#: (size_bytes, assoc, line_size) — pow2 sets, a single set, and the
#: texture cache's non-pow2 24-set geometry (12 KiB / 128B / 4-way).
_CACHE_GEOMETRIES = [
    (16384, 4, 128),
    (512, 4, 128),       # one set: pure associativity
    (12288, 4, 128),     # 24 sets: the non-pow2 '% num_sets' path
    (4096, 1, 64),       # direct-mapped
]


class TestFastCacheEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS, geometry=st.sampled_from(_CACHE_GEOMETRIES))
    def test_matches_reference(self, ops, geometry):
        size_bytes, assoc, line = geometry
        ref = Cache(size_bytes, assoc, line, name="ref")
        fast = FastCache(size_bytes, assoc, line, name="fast")
        for op, addr in ops:
            if op == "access":
                assert ref.access(addr) == fast.access(addr)
            elif op == "probe":
                assert ref.probe(addr) == fast.probe(addr)
            else:
                ref.flush()
                fast.flush()
            assert (ref.stats.hits, ref.stats.misses) == \
                (fast.stats.hits, fast.stats.misses)

    def test_reset_stats(self):
        fast = FastCache(16384, 4, 128)
        fast.access(0)
        fast.reset_stats()
        assert fast.stats.accesses == 0
        assert fast.probe(0)          # residency survives a stats reset


_TLB_GEOMETRIES = [(32, 4), (32, 0), (8, 8), (48, 4)]  # 0 = fully assoc
_PAGES = st.integers(0, 255)
_TLB_OPS = st.lists(st.tuples(st.sampled_from(["access", "flush"]), _PAGES),
                    min_size=1, max_size=200)


class TestFastTlbEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=_TLB_OPS, geometry=st.sampled_from(_TLB_GEOMETRIES))
    def test_matches_reference(self, ops, geometry):
        entries, assoc = geometry
        ref = Tlb(entries, assoc, name="ref")
        fast = FastTlb(entries, assoc, name="fast")
        for op, vpage in ops:
            if op == "access":
                assert ref.access(vpage) == fast.access(vpage)
            else:
                ref.flush()
                fast.flush()
            assert (ref.stats.hits, ref.stats.misses) == \
                (fast.stats.hits, fast.stats.misses)


# ---------------------------------------------------------------------------
# Fast RCaches vs the reference
# ---------------------------------------------------------------------------

_TAGS = st.tuples(st.integers(1, 3), st.integers(0, 7))  # (kernel, buffer)
_RC_OPS = st.lists(
    st.tuples(st.sampled_from(["lookup", "fill", "flush", "flush_kernel"]),
              _TAGS),
    min_size=1, max_size=150)


def _rc_entry(kernel_id, buffer_id):
    return RCacheEntry(buffer_id=buffer_id, kernel_id=kernel_id,
                       bounds=Bounds(base_addr=0x1000 * (buffer_id + 1),
                                     size=64))


def _same_entry(a, b):
    if a is None or b is None:
        return a is b
    return (a.buffer_id, a.kernel_id, a.bounds) == \
        (b.buffer_id, b.kernel_id, b.bounds)


@pytest.mark.parametrize("ref_cls,fast_cls,policy,partitioned", [
    (L1RCache, FastL1RCache, "fifo", False),
    (L1RCache, FastL1RCache, "lru", False),
    (L2RCache, FastL2RCache, "lru", False),
    (L2RCache, FastL2RCache, "lru", True),
    (L2RCache, FastL2RCache, "fifo", True),
])
class TestFastRCacheEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ops=_RC_OPS)
    def test_matches_reference(self, ref_cls, fast_cls, policy,
                               partitioned, ops):
        ref = ref_cls(entries=4, policy=policy, partitioned=partitioned)
        fast = fast_cls(entries=4, policy=policy, partitioned=partitioned)
        for op, (kernel_id, buffer_id) in ops:
            if op == "lookup":
                assert _same_entry(ref.lookup(kernel_id, buffer_id),
                                   fast.lookup(kernel_id, buffer_id))
            elif op == "fill":
                ref.fill(_rc_entry(kernel_id, buffer_id))
                fast.fill(_rc_entry(kernel_id, buffer_id))
            elif op == "flush":
                ref.flush()
                fast.flush()
            else:
                ref.flush(kernel_id)
                fast.flush(kernel_id)
            assert len(ref) == len(fast)
            assert ((kernel_id, buffer_id) in ref) == \
                ((kernel_id, buffer_id) in fast)
            assert (ref.stats.hits, ref.stats.misses) == \
                (fast.stats.hits, fast.stats.misses)


# ---------------------------------------------------------------------------
# Differential: the fuzz corpus, digest-for-digest
# ---------------------------------------------------------------------------


def _campaign_digest(seed, cases, engine_name, config=None):
    from repro.fuzz.campaign import run_campaign
    from repro.fuzz.generator import CaseGenerator
    from repro.fuzz.parallel import campaign_digest
    from repro.gpu.config import nvidia_config

    specs = CaseGenerator(seed).draw_many(cases)
    with engine(engine_name):
        result = run_campaign(specs, seed=seed,
                              config=config or nvidia_config(num_cores=1))
    assert not result.failures
    return campaign_digest(result)


class TestFuzzCorpusDigests:
    """The campaign digest covers the detection matrix, every per-case
    outcome (violations, aborts) and — since the ``cycles`` field landed
    on :class:`CaseOutcome` — per-config simulated cycle counts.  Equal
    digests therefore mean cycle-identical engines over the corpus."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_slow_and_fast_digests_match(self, seed):
        assert _campaign_digest(seed, 12, "slow") == \
            _campaign_digest(seed, 12, "fast")

    def test_digest_covers_cycles(self):
        from repro.fuzz.campaign import run_campaign
        from repro.fuzz.generator import CaseGenerator
        from repro.fuzz.parallel import campaign_digest
        from repro.gpu.config import nvidia_config

        specs = CaseGenerator(1).draw_many(3)
        result = run_campaign(specs, seed=1,
                              config=nvidia_config(num_cores=1))
        outcome = result.outcomes[0]
        assert outcome.cycles            # per-config cycles recorded
        before = campaign_digest(result)
        key = next(iter(outcome.cycles))
        outcome.cycles[key] += 1
        assert campaign_digest(result) != before


# ---------------------------------------------------------------------------
# Differential: a real workload, record-for-record
# ---------------------------------------------------------------------------


class TestWorkloadEquivalence:
    def _record(self, engine_name, shield):
        from repro.analysis.harness import default_shield, run_workload
        from repro.gpu.config import nvidia_config
        from repro.workloads.suite import get_benchmark

        with engine(engine_name):
            return run_workload(
                get_benchmark("mm").build(),
                config=nvidia_config(num_cores=2),
                shield=default_shield() if shield else None,
                config_name="eq", seed=11)

    @pytest.mark.parametrize("shield", [True, False],
                             ids=["shield", "base"])
    def test_full_record_identical(self, shield):
        slow = self._record("slow", shield)
        fast = self._record("fast", shield)
        assert asdict(slow) == asdict(fast)
        assert fast.cycles > 0


# ---------------------------------------------------------------------------
# Differential: stage-level tracer streams, field-for-field
# ---------------------------------------------------------------------------


class TestTracerParity:
    """With stage-level tracing on, the fast engine delegates traced
    accesses to the reference pipeline bound over its own structures —
    so both engines must emit *identical* event streams, not merely
    identical end-of-run digests.  Held here over 20 fuzz seeds plus a
    template workload, field for field on the wire form."""

    SEEDS = list(range(1, 21))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzz_stage_streams_identical(self, seed):
        from repro.oracle import capture
        slow = capture(f"fuzz:{seed}", engine="slow", stage_level=True)
        fast = capture(f"fuzz:{seed}", engine="fast", stage_level=True)
        assert slow.wire_events() == fast.wire_events()
        assert slow.violations == fast.violations
        assert slow.stats == fast.stats
        assert slow.cycles == fast.cycles
        assert slow.content_hash() == fast.content_hash()

    def test_template_stage_streams_identical(self):
        from repro.oracle import capture
        slow = capture("tpl:stencil", engine="slow", stage_level=True)
        fast = capture("tpl:stencil", engine="fast", stage_level=True)
        assert slow.wire_events() == fast.wire_events()

    def test_access_only_streams_identical(self):
        # stage_level=False keeps the fast lane on its inlined path; the
        # access-event stream must still match the reference exactly.
        from repro.oracle import capture
        slow = capture("fuzz:9", engine="slow", stage_level=False)
        fast = capture("fuzz:9", engine="fast", stage_level=False)
        assert slow.wire_events() == fast.wire_events()
        assert slow.content_hash() == fast.content_hash()


# ---------------------------------------------------------------------------
# Compile once: the fast executor's per-kernel program cache
# ---------------------------------------------------------------------------


def _vecadd_run(kernel, workgroups=2, wg_size=64):
    """One fast-engine launch on a fresh device: (cycles, stats, memory)."""
    import struct

    from repro import GpuSession, ShieldConfig
    from repro.gpu.config import nvidia_config

    session = GpuSession(nvidia_config(num_cores=2, engine="fast"),
                         shield=ShieldConfig(enabled=True), seed=5)
    n = workgroups * wg_size
    bufs = {name: session.driver.malloc(n * 4) for name in "abc"}
    for name in "ab":
        session.driver.write(bufs[name],
                             struct.pack(f"<{n}i", *range(n)))
    result, violations = session.run(kernel, dict(bufs, n=n - 3),
                                     workgroups, wg_size)
    assert result.ok and not violations
    return (result.cycles, session.stats.snapshot().as_dict(),
            session.driver.read(bufs["c"], n * 4))


def _programs(kernel):
    return vars(kernel).get("_fast_programs", {})


class TestCompileOnce:
    def test_reused_program_is_bit_identical_to_a_cold_compile(
            self, monkeypatch):
        from repro.gpu.fastpath import FastExecutor

        compiles = []
        original = FastExecutor._compile

        def counting(self, instr):
            compiles.append(instr)
            return original(self, instr)

        monkeypatch.setattr(FastExecutor, "_compile", counting)
        kernel = build_vecadd()
        cold = _vecadd_run(kernel)
        compiled = len(compiles)
        assert compiled == len(kernel.instructions)
        (program, _memo), = _programs(kernel).values()
        warm = _vecadd_run(kernel)
        assert len(compiles) == compiled            # nothing recompiled
        assert [p for p, _memo in _programs(kernel).values()] == [program]
        assert warm == cold
        assert _vecadd_run(build_vecadd()) == cold  # a fresh kernel too

    def test_each_launch_shape_gets_its_own_entry(self):
        kernel = build_vecadd()
        for workgroups, wg_size in ((2, 64), (4, 64), (2, 32), (2, 64)):
            _vecadd_run(kernel, workgroups, wg_size)
        # (warp size, workgroup size, workgroups, ALU runs fused)
        assert sorted(_programs(kernel)) == [(32, 32, 2, True),
                                             (32, 64, 2, True),
                                             (32, 64, 4, True)]
        # A shape-specific entry reproduces the cold result of its shape.
        assert _vecadd_run(kernel, 4, 64) == _vecadd_run(build_vecadd(),
                                                         4, 64)

    def test_cache_dies_with_its_kernel(self):
        import gc
        import weakref

        from repro.gpu.fastpath import FastExecutor

        kernel = build_vecadd()
        executor = FastExecutor(kernel=kernel, workgroups=1, wg_size=32,
                                warp_size=32, initial_regs={},
                                fuse_alu_runs=True)
        # Entries are (closure, payload, count); take a fused run's.
        closure = next(entry[0] for entry in executor._program
                       if entry is not None and entry[2] > 1)
        kernel_ref = weakref.ref(kernel)
        closure_ref = weakref.ref(closure)
        del kernel, executor, closure
        gc.collect()
        assert kernel_ref() is None
        assert closure_ref() is None

    def test_kernel_equality_is_unaffected(self):
        from dataclasses import fields

        cached, plain = build_vecadd(), build_vecadd()
        _vecadd_run(cached)
        assert _programs(cached) and not _programs(plain)
        assert cached == plain
        assert repr(cached) == repr(plain)
        assert "_fast_programs" not in {f.name for f in fields(cached)}

    def test_flush_clears_sets_in_place(self):
        fast = FastCache(16384, 4, 128)
        sets = list(fast._lines)
        for addr in range(0, 1 << 14, 128):
            fast.access(addr)
        fast.flush()
        assert all(a is b for a, b in zip(fast._lines, sets))
        assert not any(fast._lines)


# ---------------------------------------------------------------------------
# Differential: the batched pipeline, access for access
# ---------------------------------------------------------------------------

#: Two mapped 2 MiB pages.  Of the 64 KiB memory chunks the lanes reach,
#: the odd ones hold data and the even ones are absent.
_REGION = 0x4000_0000
_CHUNK = 1 << 16
_LANES = 32


def _pipeline_pair():
    """A reference and a fast pipeline over separate, equal devices."""
    import random

    from repro.gpu.config import nvidia_config
    from repro.gpu.dram import Dram
    from repro.gpu.fastpath import FastMemoryPipeline
    from repro.gpu.memory import AddressSpace, PhysicalMemory
    from repro.gpu.pipeline import MemoryPipeline

    cfg = nvidia_config(num_cores=1)
    data = random.Random(0).randbytes(_CHUNK)
    pair = []
    for pipeline_cls, cache_cls, tlb_cls in (
            (MemoryPipeline, Cache, Tlb),
            (FastMemoryPipeline, FastCache, FastTlb)):
        memory = PhysicalMemory()
        for chunk in (1, 3):
            memory.write(_REGION + chunk * _CHUNK, data)
        space = AddressSpace(memory, cfg.page_size)
        space.map_range(_REGION, 2 * cfg.page_size)
        dram = Dram(channels=cfg.dram_channels, row_bytes=cfg.dram_row_bytes,
                    line_size=cfg.line_size)
        pair.append(pipeline_cls(
            0, cfg, memory, space,
            cache_cls(cfg.l2_bytes, cfg.l2_assoc, cfg.line_size, name="l2"),
            tlb_cls(cfg.l2tlb_entries, cfg.l2tlb_assoc, name="l2tlb"), dram))
    return pair


def _job():
    from functools import partial
    from types import SimpleNamespace

    from repro.gpu.executor import Executor

    return SimpleNamespace(
        launch=SimpleNamespace(security=None),
        executor=SimpleNamespace(
            deliver_load=partial(Executor.deliver_load, None)))


def _canon(value):
    """Register values compared by type and repr (so NaN equals NaN)."""
    return type(value).__name__, repr(value)


_RESULT_FIELDS = ("space", "is_store", "latency", "stall", "allowed",
                  "transactions", "min_addr", "max_addr", "tlb_l1_hits",
                  "tlb_l2_hits", "page_walks", "l1_hits", "l2_hits",
                  "dram_accesses")


def _access(pipeline, warp, request):
    """One access; every observable of its outcome and the device."""
    try:
        result = pipeline.access(warp, _job(), request, cycle=1000)
        outcome = tuple(getattr(result, f) for f in _RESULT_FIELDS)
    except Exception as err:                      # compared by type
        outcome = ("raised", type(err))
    memory = pipeline.memory
    probes = (pipeline.l1d, pipeline.const_cache, pipeline.tex_cache,
              pipeline.l1tlb, pipeline.l2cache, pipeline.l2tlb,
              pipeline.dram)
    return (outcome,
            {index: bytes(chunk) for index, chunk in memory._chunks.items()},
            memory.bytes_read, memory.bytes_written,
            [_canon(v) for v in warp.regs[1]],
            [(p.stats.hits, p.stats.misses) if hasattr(p.stats, "hits")
             else vars(p.stats) for p in probes])


def _request(space, dtype, is_store, addrs, lanes, values):
    from repro.gpu.executor import MemRequest

    lane_addrs = [None] * _LANES
    for lane in lanes:
        lane_addrs[lane] = addrs[lane]
    return MemRequest(instr=None, space=space, dtype=dtype,
                      is_store=is_store, lane_addrs=lane_addrs,
                      base_pointer=0,
                      store_values=list(values) if is_store else None,
                      dst=1, active_lanes=list(lanes))


def _warp():
    from repro.gpu.executor import WarpState

    warp = WarpState(warp_id=0, wg=0, warp_in_wg=0, num_regs=2,
                     warp_size=_LANES)
    warp.regs[1] = [-7] * _LANES      # marks the lanes a load leaves alone
    return warp


_DTYPES = ("i32", "u32", "f32", "i64", "u64")

_STORE_VALUES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1, 2 ** 31, 2 ** 64 - 1, 3.5e38, -1e300]))


@st.composite
def _accesses(draw):
    dtype = draw(st.sampled_from(_DTYPES))
    size = int(dtype[1:]) // 8
    # Start in chunk 2 (absent), at a line boundary, unaligned, just
    # before a line boundary or just before the next chunk (present).
    start = _REGION + 2 * _CHUNK + draw(st.sampled_from(
        [0, 1, 3, 60, 128 - 2, 128 - size, _CHUNK - 6, _CHUNK - 64]))
    kind = draw(st.sampled_from(["affine", "random"]))
    if kind == "affine":
        stride = draw(st.sampled_from(
            [0, size, -size, 8, 128, 128 + 4, 4096]))
        addrs = [start + lane * stride for lane in range(_LANES)]
    else:
        addrs = [start + draw(st.integers(-2048, 2048))
                 for _ in range(_LANES)]
        if draw(st.booleans()):           # duplicated lanes
            addrs[draw(st.integers(1, _LANES - 1))] = addrs[0]
    mask = draw(st.sampled_from(["full", "partial", "single"]))
    if mask == "full":
        lanes = list(range(_LANES))
    elif mask == "single":
        lanes = [draw(st.integers(0, _LANES - 1))]
    else:
        lanes = sorted(draw(st.sets(st.integers(0, _LANES - 1),
                                    min_size=1, max_size=_LANES - 1)))
    is_store = draw(st.booleans())
    values = draw(st.lists(_STORE_VALUES, min_size=_LANES,
                           max_size=_LANES))
    space = draw(st.sampled_from(["global", "global", "const"]))
    return space, dtype, is_store, addrs, lanes, values


class TestBatchedPipelineEquivalence:
    """``FastMemoryPipeline.access`` coalesces and moves a warp's data in
    C-level calls; driven beside the reference ``MemoryPipeline.access``
    with the same lane vectors, every result field, cache/TLB/DRAM stat,
    memory byte, byte counter and destination register must agree."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_accesses(), min_size=1, max_size=3))
    def test_matches_reference(self, accesses):
        ref, fast = _pipeline_pair()
        ref_warp, fast_warp = _warp(), _warp()
        for access in accesses:
            assert _access(ref, ref_warp, _request(*access)) == \
                _access(fast, fast_warp, _request(*access))

    # A store whose lane 5 (or lane 0) cannot be converted or packed: the
    # fast lane must leave memory, the chunk map and bytes_written as
    # the reference's lane loop does — earlier lanes written and counted,
    # the failing lane untouched — and raise the same error.
    @pytest.mark.parametrize("bad_lane", [0, 5])
    @pytest.mark.parametrize("dtype,bad", [
        ("f32", 3e20 * 3e20),          # past the f32 range
        ("i32", float("nan")),         # int() refuses
        ("i64", float("inf")),
    ], ids=["f32-overflow", "i32-nan", "i64-inf"])
    @pytest.mark.parametrize("path,start,stride", [
        ("contiguous", 3 * _CHUNK, None),
        ("irregular", 2 * _CHUNK, 8),             # into an absent chunk
        ("straddle", 2 * _CHUNK - 12, None),
    ], ids=["contiguous", "irregular", "straddle"])
    def test_failed_store_matches_reference(self, path, start, stride,
                                            dtype, bad, bad_lane):
        size = int(dtype[1:]) // 8
        stride = stride or size
        addrs = [_REGION + start + lane * stride for lane in range(_LANES)]
        values = [1.5 * lane for lane in range(_LANES)]
        values[bad_lane] = bad
        observed = []
        for pipeline in _pipeline_pair():
            pipeline.memory.write(_REGION + start, b"\xab" * 128)
            observed.append(_access(pipeline, _warp(), _request(
                "global", dtype, True, addrs, range(_LANES), values)))
        ref, fast = observed
        assert ref[0][0] == "raised"
        assert fast == ref

    def test_failed_f32_store_end_to_end(self):
        """The kernel stores ``x * x`` as f32 and lane 5 holds 3e20."""
        import struct

        from repro import GpuSession, KernelBuilder
        from repro.gpu.config import nvidia_config

        b = KernelBuilder("square")
        src, dst = b.arg_ptr("src"), b.arg_ptr("dst")
        x = b.ld_idx(src, b.gtid(), dtype="f32")
        b.st_idx(dst, b.gtid(), b.fmul(x, x), dtype="f32")
        kernel = b.build()
        inputs = [float(i) for i in range(32)]
        inputs[5] = 3e20
        seen = []
        for engine_name in ENGINES:
            session = GpuSession(nvidia_config(num_cores=1,
                                               engine=engine_name))
            bufs = {name: session.driver.malloc(128)
                    for name in ("src", "dst")}
            session.driver.write(bufs["src"], struct.pack("<32f", *inputs))
            session.driver.write(bufs["dst"], b"\xab" * 128)
            memory = session.driver.memory
            written = memory.bytes_written
            with pytest.raises(OverflowError):
                session.run(kernel, bufs, 1, 32)
            seen.append((session.driver.read(bufs["dst"], 128),
                         sorted(memory._chunks),
                         memory.bytes_written - written))
        assert seen[0] == seen[1]
        assert seen[0][2] == 5 * 4          # lanes 0-4 written, then raise


# ---------------------------------------------------------------------------
# ALU-run fusion: one step per straight-line ALU run
# ---------------------------------------------------------------------------


def _runs_kernel():
    """ALU runs at a loop back-edge target, with an SFU op mid-run, and
    at both sides of a divergent if/else."""
    from repro import KernelBuilder

    b = KernelBuilder("runs")
    out = b.arg_ptr("out")
    g = b.gtid()
    x = b.mov(g)
    with b.loop(3) as i:
        b.add(x, i, out=x)
        y = b.mul(x, 3)
        z = b.fsqrt(y)                       # SFU: ends the run
        b.fmad(z, 0.5, y, out=x)
        b.add(x, 1, out=x)
    p = b.setp("lt", b.lane(), 11)
    v = b.mov(0.0)
    with b.if_(p):
        b.fadd(x, 2.0, out=v)
        b.fmul(v, v, out=v)
        b.else_mark()
        b.fsub(x, 1.0, out=v)
        b.fdiv(v, 3.0, out=v)                # SFU at the end of a run
    b.st_idx(out, g, v, dtype="f32")
    return b.build()


def _session_run(kernel, config, workgroups=2, wg_size=64):
    """Cycles, stats and memory of one launch on a fresh device."""
    from repro import GpuSession, ShieldConfig

    session = GpuSession(config, shield=ShieldConfig(enabled=True), seed=5)
    out = session.driver.malloc(workgroups * wg_size * 4)
    result, violations = session.run(kernel, {"out": out},
                                     workgroups, wg_size)
    assert result.ok and not violations
    return (result.cycles, result.instructions,
            session.stats.snapshot().as_dict(),
            session.driver.read(out, workgroups * wg_size * 4))


_FUSION_CONFIGS = {"default": {}, "alu2": {"alu_latency": 2},
                   "sfu1": {"sfu_latency": 1}}


def _config(changes, engine_name="", num_cores=2):
    from dataclasses import replace

    from repro.gpu.config import nvidia_config

    return replace(nvidia_config(num_cores=num_cores, engine=engine_name),
                   **changes)


class TestAluRunFusion:
    def _kinds(self, executor_cls, **kwargs):
        from repro.gpu.executor import WarpState

        executor = executor_cls(kernel=_runs_kernel(), workgroups=1,
                                wg_size=32, warp_size=32,
                                initial_regs={}, **kwargs)
        warp = WarpState(0, 0, 0, executor.kernel.num_regs, 32)
        kinds = []
        while True:
            kind, payload = executor.step(warp)
            if kind == "mem":
                payload = (payload.lane_addrs, payload.store_values)
            kinds.append((kind, payload))
            if kind == "exit":
                return kinds, executor.instructions_executed

    def test_reference_executor_never_runs(self):
        from repro.gpu.executor import Executor
        from repro.gpu.fastpath import FastExecutor

        ref, ref_count = self._kinds(Executor)
        assert all(kind != "run" for kind, _payload in ref)
        fused, fused_count = self._kinds(FastExecutor, fuse_alu_runs=True)
        runs = [payload for kind, payload in fused if kind == "run"]
        assert runs and ("sfu" in {last for _k, last in runs})
        assert fused_count == ref_count
        assert sum(k for k, _last in runs) + len(fused) - len(runs) == \
            len(ref)
        unfused, _count = self._kinds(FastExecutor)
        assert unfused == ref

    @pytest.mark.parametrize("changes", list(_FUSION_CONFIGS.values()),
                             ids=list(_FUSION_CONFIGS))
    def test_kernel_identical_across_engines(self, changes):
        kernel = _runs_kernel()
        slow = _session_run(kernel, _config(changes, "slow"))
        fast = _session_run(kernel, _config(changes, "fast"))
        assert slow == fast
        # Divergent branches: both if and else ran on every warp.
        assert len(set(slow[3])) > 2

    @pytest.mark.parametrize("changes", [{"alu_latency": 2},
                                         {"sfu_latency": 1}],
                             ids=["alu2", "sfu1"])
    def test_rodinia_record_identical(self, changes):
        from repro.analysis.harness import default_shield, run_workload
        from repro.workloads.suite import get_benchmark

        records = []
        for engine_name in ENGINES:
            with engine(engine_name):
                records.append(asdict(run_workload(
                    get_benchmark("nn").build(), config=_config(changes),
                    shield=default_shield(), config_name="fusion",
                    seed=11)))
        assert records[0] == records[1]

    @pytest.mark.parametrize("changes", [{"alu_latency": 2},
                                         {"sfu_latency": 1}],
                             ids=["alu2", "sfu1"])
    def test_fuzz_slice_identical(self, changes):
        config = _config(changes, num_cores=1)
        assert _campaign_digest(4, 20, "slow", config) == \
            _campaign_digest(4, 20, "fast", config)

    def test_legality_is_part_of_the_cache_key(self):
        kernel = _runs_kernel()
        _session_run(kernel, _config({}, "fast"))
        _session_run(kernel, _config({"alu_latency": 2}, "fast"))
        assert sorted(shape.fuse_runs for shape in _programs(kernel)) == \
            [False, True]
