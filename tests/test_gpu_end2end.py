"""End-to-end functional tests: kernels produce correct results on the
simulator, with and without GPUShield, deterministically."""

import struct

import numpy as np
import pytest

from repro import GpuSession, KernelBuilder, ShieldConfig, nvidia_config
from repro.gpu.config import intel_config


def write_i32s(session, buf, values):
    session.driver.write(buf, struct.pack(f"<{len(values)}i", *values))


def read_i32s(session, buf, count):
    return list(struct.unpack(f"<{count}i", session.driver.read(buf,
                                                                count * 4)))


def write_f32s(session, buf, values):
    session.driver.write(buf, np.asarray(values, dtype=np.float32).tobytes())


def read_f32s(session, buf, count):
    return np.frombuffer(session.driver.read(buf, count * 4),
                         dtype=np.float32)


class TestVecAdd:
    @pytest.mark.parametrize("shield", [False, True])
    def test_correct(self, shield, vecadd_kernel):
        session = GpuSession(nvidia_config(num_cores=2),
                             shield=ShieldConfig(enabled=True) if shield
                             else None)
        n = 256
        a = session.driver.malloc(n * 4)
        b = session.driver.malloc(n * 4)
        c = session.driver.malloc(n * 4)
        write_i32s(session, a, list(range(n)))
        write_i32s(session, b, [3 * i for i in range(n)])
        result, viol = session.run(vecadd_kernel,
                                   {"a": a, "b": b, "c": c, "n": n}, 4, 64)
        assert result.ok
        assert viol == []
        assert read_i32s(session, c, n) == [4 * i for i in range(n)]

    def test_guard_handles_partial_workgroup(self, vecadd_kernel):
        session = GpuSession(nvidia_config(num_cores=2))
        n = 100   # last workgroup mostly masked by the guard
        a = session.driver.malloc(512)
        b = session.driver.malloc(512)
        c = session.driver.malloc(512)
        write_i32s(session, a, list(range(128)))
        write_i32s(session, b, [1] * 128)
        session.run(vecadd_kernel, {"a": a, "b": b, "c": c, "n": n}, 2, 64)
        out = read_i32s(session, c, 128)
        assert out[:100] == [i + 1 for i in range(100)]
        assert out[100:] == [0] * 28   # guarded lanes never stored


class TestDeterminism:
    def test_same_cycles_same_results(self, vecadd_kernel):
        def run_once():
            session = GpuSession(nvidia_config(num_cores=2),
                                 shield=ShieldConfig(enabled=True), seed=5)
            n = 128
            a = session.driver.malloc(n * 4)
            b = session.driver.malloc(n * 4)
            c = session.driver.malloc(n * 4)
            write_i32s(session, a, list(range(n)))
            write_i32s(session, b, list(range(n)))
            result, _ = session.run(vecadd_kernel,
                                    {"a": a, "b": b, "c": c, "n": n}, 2, 64)
            return result.cycles, read_i32s(session, c, n)

        assert run_once() == run_once()

    def test_shield_does_not_change_results(self, vecadd_kernel):
        outs = []
        for shield in (None, ShieldConfig(enabled=True)):
            session = GpuSession(nvidia_config(num_cores=2), shield=shield)
            n = 128
            a = session.driver.malloc(n * 4)
            b = session.driver.malloc(n * 4)
            c = session.driver.malloc(n * 4)
            write_i32s(session, a, list(range(n)))
            write_i32s(session, b, list(range(n)))
            session.run(vecadd_kernel, {"a": a, "b": b, "c": c, "n": n},
                        2, 64)
            outs.append(read_i32s(session, c, n))
        assert outs[0] == outs[1]


class TestReduction:
    def build(self, wg_size):
        b = KernelBuilder("reduce")
        src = b.arg_ptr("src", read_only=True)
        dst = b.arg_ptr("dst")
        n = b.arg_scalar("n")
        tid = b.tid()
        gtid = b.gtid()
        b.shared_mem(wg_size * 4)
        p = b.setp("lt", gtid, n)
        v = b.ld_idx(src, gtid, dtype="f32", pred=p)
        v = b.sel(p, v, 0.0)
        b.st_shared(b.mul(tid, 4), v, dtype="f32")
        b.bar()
        stride = wg_size // 2
        while stride >= 1:
            q = b.setp("lt", tid, stride)
            with b.if_(q):
                other = b.ld_shared(b.mul(b.add(tid, stride), 4), dtype="f32")
                mine = b.ld_shared(b.mul(tid, 4), dtype="f32")
                b.st_shared(b.mul(tid, 4), b.fadd(mine, other), dtype="f32")
            b.bar()
            stride //= 2
        q0 = b.setp("eq", tid, 0)
        with b.if_(q0):
            b.st_idx(dst, b.ctaid(), b.ld_shared(0, dtype="f32"),
                     dtype="f32")
        return b.build()

    @pytest.mark.parametrize("shield", [False, True])
    def test_tree_reduction_correct(self, shield):
        session = GpuSession(nvidia_config(num_cores=2),
                             shield=ShieldConfig(enabled=True) if shield
                             else None)
        n, wg = 256, 64
        values = [float(i % 7) for i in range(n)]
        src = session.driver.malloc(n * 4)
        dst = session.driver.malloc((n // wg) * 4)
        write_f32s(session, src, values)
        _res, viol = session.run(self.build(wg),
                                 {"src": src, "dst": dst, "n": n},
                                 n // wg, wg)
        assert viol == []
        partials = read_f32s(session, dst, n // wg)
        for wg_index, partial in enumerate(partials):
            expected = sum(values[wg_index * wg:(wg_index + 1) * wg])
            assert partial == pytest.approx(expected)


class TestGather:
    def test_indirect_gather_correct(self):
        b = KernelBuilder("gather")
        idx = b.arg_ptr("idx", read_only=True)
        data = b.arg_ptr("data", read_only=True)
        out = b.arg_ptr("out")
        n = b.arg_scalar("n")
        gtid = b.gtid()
        p = b.setp("lt", gtid, n)
        with b.if_(p):
            j = b.ld_idx(idx, gtid, dtype="i32")
            b.st_idx(out, gtid, b.ld_idx(data, j, dtype="i32"), dtype="i32")
        kernel = b.build()

        session = GpuSession(nvidia_config(num_cores=2),
                             shield=ShieldConfig(enabled=True))
        n_elems = 128
        rng = np.random.default_rng(3)
        indices = rng.integers(0, n_elems, n_elems).tolist()
        table = rng.integers(0, 1000, n_elems).tolist()
        idx_b = session.driver.malloc(n_elems * 4)
        data_b = session.driver.malloc(n_elems * 4)
        out_b = session.driver.malloc(n_elems * 4)
        write_i32s(session, idx_b, indices)
        write_i32s(session, data_b, table)
        _res, viol = session.run(
            kernel, {"idx": idx_b, "data": data_b, "out": out_b,
                     "n": n_elems}, 2, 64)
        assert viol == []
        assert read_i32s(session, out_b, n_elems) == \
            [table[j] for j in indices]


class TestIntelConfig:
    def test_vecadd_on_intel(self, vecadd_kernel):
        session = GpuSession(intel_config(num_cores=2),
                             shield=ShieldConfig(enabled=True))
        n = 64
        a = session.driver.malloc(n * 4)
        b = session.driver.malloc(n * 4)
        c = session.driver.malloc(n * 4)
        write_i32s(session, a, list(range(n)))
        write_i32s(session, b, list(range(n)))
        result, viol = session.run(vecadd_kernel,
                                   {"a": a, "b": b, "c": c, "n": n}, 2, 32)
        assert result.ok and viol == []
        assert read_i32s(session, c, n) == [2 * i for i in range(n)]


class TestCycleAccounting:
    def test_more_work_more_cycles(self, vecadd_kernel):
        def cycles(workgroups):
            session = GpuSession(nvidia_config(num_cores=1))
            n = workgroups * 64
            a = session.driver.malloc(n * 4)
            b = session.driver.malloc(n * 4)
            c = session.driver.malloc(n * 4)
            result, _ = session.run(vecadd_kernel,
                                    {"a": a, "b": b, "c": c, "n": n},
                                    workgroups, 64)
            return result.cycles

        # Note: a few extra workgroups can *reduce* cycles by adding TLP;
        # compare points far enough apart that issue bandwidth dominates.
        assert cycles(64) > cycles(2)

    def test_stats_populated(self, vecadd_kernel):
        session = GpuSession(nvidia_config(num_cores=2),
                             shield=ShieldConfig(enabled=True))
        n = 128
        a = session.driver.malloc(n * 4)
        b = session.driver.malloc(n * 4)
        c = session.driver.malloc(n * 4)
        result, _ = session.run(vecadd_kernel,
                                {"a": a, "b": b, "c": c, "n": n}, 2, 64)
        assert result.instructions > 0
        assert result.mem_instructions > 0
        assert result.transactions >= result.mem_instructions
        assert 0.0 <= result.l1d_hit_rate <= 1.0


# ---------------------------------------------------------------------------
# LaunchResult: per-launch deltas read without a registry snapshot
# ---------------------------------------------------------------------------


def _registry_delta(before, after):
    """The registry's view of only the launches between two snapshots."""
    from repro.analysis.stats import StatsSnapshot
    base = before.as_dict()
    return StatsSnapshot({path: value - base.get(path, 0)
                          for path, value in after.as_dict().items()})


def _launch_fields(result):
    return dict(
        instructions=result.instructions,
        mem_instructions=result.mem_instructions,
        transactions=result.transactions,
        l1d_hit_rate=result.l1d_hit_rate,
        l1_rcache_hit_rate=result.l1_rcache_hit_rate,
        l2_rcache_hit_rate=result.l2_rcache_hit_rate,
        check_reduction_percent=result.check_reduction_percent,
        bcu_stall_cycles=result.bcu_stall_cycles,
        rbt_fills=result.rbt_fills,
        violations=result.violations)


def _snapshot_fields(delta):
    return dict(
        instructions=delta.total("cores.*.issue.instructions"),
        mem_instructions=delta.total("cores.*.issue.mem_instructions"),
        transactions=delta.total("cores.*.issue.transactions"),
        l1d_hit_rate=delta.hit_rate("cores.*.l1d"),
        l1_rcache_hit_rate=delta.hit_rate("cores.*.rcache.l1"),
        l2_rcache_hit_rate=delta.hit_rate("cores.*.rcache.l2"),
        check_reduction_percent=delta.ratio_percent(
            "cores.*.bcu.checks_skipped_static",
            "cores.*.bcu.mem_instructions"),
        bcu_stall_cycles=delta.total("cores.*.issue.bcu_stall_cycles"),
        rbt_fills=delta.total("cores.*.bcu.rbt_fills"),
        violations=delta.get("shield.log.violations", 0))


def _overflowing_vecadd_session(engine_name, shield_on=True):
    """A 2-core session plus vecadd args whose 64-element buffers the
    128-thread launch overruns: every launch checks, fills and logs."""
    session = GpuSession(nvidia_config(num_cores=2, engine=engine_name),
                         shield=ShieldConfig(enabled=shield_on))
    bufs = {name: session.driver.malloc(64 * 4) for name in "abc"}
    write_i32s(session, bufs["a"], list(range(64)))
    write_i32s(session, bufs["b"], list(range(64)))
    return session, dict(bufs, n=128)


class TestLaunchResultPerLaunch:
    """``GPU.run`` reads the few counters it reports straight off the
    per-core stats objects: no registry snapshot, and every field a
    delta over the launch itself."""

    def test_run_takes_no_registry_snapshot(self, monkeypatch,
                                            vecadd_kernel):
        from repro.analysis.stats import StatsRegistry
        session, args = _overflowing_vecadd_session("fast")
        launch = session.driver.launch(vecadd_kernel, args, 2, 64)
        calls = []
        original = StatsRegistry.snapshot

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(StatsRegistry, "snapshot", counting)
        result = session.gpu.run(launch)
        assert result.instructions > 0
        assert calls == []

    @pytest.mark.parametrize("engine_name", ["slow", "fast"])
    def test_back_to_back_launches_report_their_own_deltas(
            self, engine_name, vecadd_kernel):
        session, args = _overflowing_vecadd_session(engine_name)
        gpu, driver = session.gpu, session.driver
        results = []
        for _ in range(2):
            # No finish in between: the shield log keeps the first
            # launch's records while the second one runs.
            launch = driver.launch(vecadd_kernel, args, 2, 64)
            before = session.stats.snapshot()
            result = gpu.run(launch)
            after = session.stats.snapshot()
            assert _launch_fields(result) == _snapshot_fields(
                _registry_delta(before, after))
            results.append(result)
        first, second = results
        assert second.rbt_fills > 0 and second.violations > 0
        # Cumulative counters would report the sum for the second launch.
        assert second.rbt_fills < after.total("cores.*.bcu.rbt_fills")
        assert second.violations < after.get("shield.log.violations")
        # The first launch warmed the L1D; the second hits more.
        assert second.l1d_hit_rate > first.l1d_hit_rate
        assert second.l1d_hit_rate != after.hit_rate("cores.*.l1d")

    @pytest.mark.parametrize("engine_name", ["slow", "fast"])
    def test_intra_core_pair_reports_its_own_deltas(self, engine_name,
                                                    vecadd_kernel):
        session, args = _overflowing_vecadd_session(engine_name)
        gpu, driver = session.gpu, session.driver
        session.run(vecadd_kernel, args, 2, 64)      # warm, then measure
        pair = [driver.launch(vecadd_kernel, args, 2, 64)
                for _ in range(2)]
        before = session.stats.snapshot()
        result = gpu.run(pair, mode="intra_core")
        after = session.stats.snapshot()
        assert _launch_fields(result) == _snapshot_fields(
            _registry_delta(before, after))
        assert result.rbt_fills > 0 and result.violations > 0


class TestHarnessCounters:
    """``WorkloadRunner.run`` fills its record from the same direct
    counter read: the values must equal the registry snapshot's."""

    @pytest.mark.parametrize("engine_name", ["slow", "fast"])
    @pytest.mark.parametrize("shielded", [True, False],
                             ids=["shield", "base"])
    def test_record_matches_registry_snapshot(self, engine_name,
                                              shielded):
        from repro.analysis.harness import WorkloadRunner, default_shield
        from repro.fuzz.generator import CaseGenerator, build_workload

        spec = CaseGenerator(9).draw_kind("safe", 0)
        runner = WorkloadRunner(
            build_workload(spec),
            config=nvidia_config(num_cores=2, engine=engine_name),
            shield=default_shield() if shielded else None, seed=3)
        try:
            record = runner.run()
            snap = runner.session.stats.snapshot()
        finally:
            runner.close()
        assert record.instructions > 0
        assert record.l1d_hit_rate == snap.hit_rate("cores.*.l1d")
        if not shielded:
            assert not snap.select("cores.*.bcu.rbt_fills")
            return
        assert record.rbt_fills > 0
        assert (record.l1_rcache_hit_rate, record.l2_rcache_hit_rate,
                record.check_reduction_percent, record.bcu_stall_cycles,
                record.rbt_fills) == (
            snap.hit_rate("cores.*.rcache.l1"),
            snap.hit_rate("cores.*.rcache.l2"),
            snap.ratio_percent("cores.*.bcu.checks_skipped_static",
                               "cores.*.bcu.mem_instructions"),
            snap.total("cores.*.bcu.stall_cycles"),
            snap.total("cores.*.bcu.rbt_fills"))
