"""The serving simulator: traffic -> plan -> devices -> audit + metrics.

Three deterministic phases.  **Generate**: the seeded open-loop trace
(:mod:`repro.service.traffic`).  **Schedule**: admission + fair-share
placement on the planning cost model (:mod:`repro.service.scheduler`) —
serial, cheap, and independent of execution.  **Execute**: placements
run on warm devices, either inline or fanned out over the parallel
runner as ``service.shard`` jobs — placements are mutually independent,
so the fan-out changes wall-clock only.

Everything observable — the audit-event stream and its digest, per-
tenant latency histograms (in simulated cycles: queueing wait from the
schedule clock plus measured device cycles), shed/expired counts —
is a pure function of (config, seed).  Runner/pool telemetry
(``device.cache.*``, ``device.pool.*``) is deliberately excluded from
the merged stats, mirroring the fuzz campaign's serial-vs-parallel
equivalence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import StatsRegistry
from repro.runner.job import OK, TIMEOUT
from repro.service.audit import AuditEvent, audit_digest, order_events
from repro.runner.shard import merge_slices, plan_slice_jobs
from repro.service.executor import (DEFAULT_SHARD_TIMEOUT, SERVICE_KIND,
                                    SERVICE_NUM_CORES, execute_placement)
from repro.service.scheduler import (SHED, SchedulerConfig, ServicePlan,
                                     schedule)
from repro.service.tenant import TenantSpec, default_tenants
from repro.service.traffic import ServiceRequest, TrafficGenerator

_EXCLUDED_STATS_PREFIXES = ("device.cache.", "device.pool.")


@dataclass(frozen=True)
class ServiceConfig:
    """One serving run, fully specified.  Pure data, JSON-trippable."""

    tenants: Tuple[TenantSpec, ...]
    requests_per_tenant: int = 10
    seed: int = 1
    num_devices: int = 2
    coresidency: bool = True
    num_cores: int = SERVICE_NUM_CORES
    fail_every: int = 0        # inject a device failure every Nth placement

    def validate(self) -> None:
        if not self.tenants:
            raise ValueError("need at least one tenant")
        for tenant in self.tenants:
            tenant.validate()
        self.scheduler_config().validate()
        if self.requests_per_tenant < 0 or self.fail_every < 0:
            raise ValueError("volumes must be non-negative")
        if self.num_cores < 2 and self.coresidency:
            raise ValueError("co-residency needs >= 2 cores to split")

    def scheduler_config(self) -> SchedulerConfig:
        return SchedulerConfig(num_devices=self.num_devices,
                               coresidency=self.coresidency)

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenants": [t.to_dict() for t in self.tenants],
            "requests_per_tenant": self.requests_per_tenant,
            "seed": self.seed,
            "num_devices": self.num_devices,
            "coresidency": self.coresidency,
            "num_cores": self.num_cores,
            "fail_every": self.fail_every,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ServiceConfig":
        data = dict(data)
        data["tenants"] = tuple(TenantSpec.from_dict(t)
                                for t in data["tenants"])
        cfg = cls(**data)   # type: ignore[arg-type]
        cfg.validate()
        return cfg


def default_service_config(tenants: int = 2, *, attackers: int = 0,
                           **overrides) -> ServiceConfig:
    cfg = ServiceConfig(tenants=tuple(default_tenants(
        tenants, attackers=attackers)), **overrides)
    cfg.validate()
    return cfg


def _percentile(sorted_values: List[int], q: int) -> int:
    """Nearest-rank percentile over a pre-sorted list (0 when empty)."""
    if not sorted_values:
        return 0
    rank = max(1, -(-(q * len(sorted_values)) // 100))   # ceil, integer
    return sorted_values[min(len(sorted_values), rank) - 1]


@dataclass
class ServiceReport:
    """Everything one serving run produced."""

    config: ServiceConfig
    requests: int
    plan: ServicePlan
    events: List[AuditEvent]
    digest: str
    tenants: Dict[str, dict]
    latencies: Dict[str, List[int]]     # per tenant, sorted (histogram)
    makespan: int
    resets: int
    executed: List[dict] = field(default_factory=list)
    stats: Optional[StatsRegistry] = None
    wall_seconds: float = 0.0

    @property
    def violations(self) -> int:
        return sum(1 for e in self.events if e.kind == "violation")

    def counts(self) -> Dict[str, int]:
        return self.plan.counts()

    def to_dict(self) -> Dict[str, object]:
        counts = self.counts()
        return {
            "config": self.config.to_dict(),
            "requests": self.requests,
            "placements": len(self.plan.placements),
            "served": counts[OK],
            "shed": counts[SHED],
            "expired": counts[TIMEOUT],
            "violations": self.violations,
            "resets": self.resets,
            "makespan_cycles": self.makespan,
            "audit_digest": self.digest,
            "tenants": self.tenants,
            "latency_histograms": self.latencies,
            "queue_peaks": self.plan.queue_peaks,
            "wall_seconds": round(self.wall_seconds, 3),
        }

    def summary_text(self) -> str:
        counts = self.counts()
        lines = [
            f"service run: {self.requests} requests from "
            f"{len(self.config.tenants)} tenant(s), seed "
            f"{self.config.seed}, {self.config.num_devices} device(s), "
            f"co-residency {'on' if self.config.coresidency else 'off'}",
            f"  served {counts[OK]}, shed {counts[SHED]}, expired "
            f"{counts[TIMEOUT]}; {len(self.plan.placements)} placement(s) "
            f"({sum(1 for p in self.plan.placements if len(p.requests) > 1)}"
            f" co-resident), makespan {self.makespan} cycles",
            f"  violations audited: {self.violations}; device resets: "
            f"{self.resets}; audit digest {self.digest[:16]}",
            "",
            f"  {'tenant':<10} {'req':>4} {'ok':>4} {'shed':>4} "
            f"{'exp':>4} {'viol':>5} {'p50':>7} {'p99':>7} {'peakq':>5}",
        ]
        for tid in sorted(self.tenants):
            info = self.tenants[tid]
            lines.append(
                f"  {tid:<10} {info['requests']:>4} {info['served']:>4} "
                f"{info['shed']:>4} {info['expired']:>4} "
                f"{info['violations']:>5} {info['p50_latency']:>7} "
                f"{info['p99_latency']:>7} {info['queue_peak']:>5}")
        return "\n".join(lines)


def _execute_plan(cfg: ServiceConfig, plan: ServicePlan, *, jobs: int,
                  stats: StatsRegistry, reporter=None) -> List[dict]:
    """Phase 3: run every placement, serially or on the runner."""
    if jobs <= 0 or not plan.placements:
        results = [execute_placement(p, seed=cfg.seed,
                                     num_cores=cfg.num_cores,
                                     fail_every=cfg.fail_every)
                   for p in plan.placements]
        counters = stats.counters("service.exec")
        counters["placements"] = len(results)
        counters["resets"] = sum(r["resets"] for r in results)
        counters["violations"] = sum(len(e["violations"])
                                     for r in results
                                     for e in r["entries"])
        return results
    from repro.runner import run_jobs
    shard_plan = plan_slice_jobs(
        SERVICE_KIND, [p.to_dict() for p in plan.placements],
        seed=cfg.seed, jobs=jobs, timeout=DEFAULT_SHARD_TIMEOUT,
        num_cores=cfg.num_cores, fail_every=cfg.fail_every)
    report = run_jobs(shard_plan, jobs=jobs,
                      run_name=f"service-seed{cfg.seed}",
                      reporter=reporter)
    shard_results = [report.results[s.job_id] for s in shard_plan]
    results: List[dict] = []
    for payload in merge_slices(shard_results, "service"):
        results.extend(payload["placements"])
    for result in shard_results:
        stats.merge({k: v for k, v in result.stats.items()
                     if not k.startswith(_EXCLUDED_STATS_PREFIXES)})
    return results


def run_service(cfg: ServiceConfig, *, jobs: int = 0,
                stats: Optional[StatsRegistry] = None,
                reporter=None) -> ServiceReport:
    """One full serving run; see the module docstring."""
    cfg.validate()
    stats = stats or StatsRegistry()
    started = time.monotonic()

    trace = TrafficGenerator(cfg.tenants, cfg.seed).generate(
        cfg.requests_per_tenant)
    plan = schedule(trace, cfg.tenants, cfg.scheduler_config())
    executed = _execute_plan(cfg, plan, jobs=jobs, stats=stats,
                             reporter=reporter)

    by_id: Dict[str, ServiceRequest] = {r.request_id: r for r in trace}
    events: List[AuditEvent] = []
    for request_id, disp in plan.dispositions.items():
        if disp.status == SHED:
            events.append(AuditEvent(
                seq=0, cycle=disp.cycle, kind="shed",
                tenant=by_id[request_id].tenant_id,
                request_id=request_id, reason="queue-full"))
        elif disp.status == TIMEOUT:
            events.append(AuditEvent(
                seq=0, cycle=disp.cycle, kind="expired",
                tenant=by_id[request_id].tenant_id,
                request_id=request_id, reason="deadline"))

    placements = {p.index: p for p in plan.placements}
    resets = 0
    measured: Dict[str, dict] = {}
    for result in executed:
        placement = placements[int(result["index"])]
        resets += int(result["resets"])
        for _ in range(int(result["resets"])):
            events.append(AuditEvent(
                seq=0, cycle=placement.start_cycle, kind="device_reset",
                tenant="", request_id=f"placement-{placement.index:04d}",
                reason="device-failure"))
        for entry in result["entries"]:
            measured[entry["request_id"]] = entry
            for violation in entry["violations"]:
                events.append(AuditEvent(
                    seq=0,
                    cycle=placement.start_cycle + int(violation["cycle"]),
                    kind="violation",
                    tenant=violation["tenant"],
                    request_id=violation["request_id"],
                    buffer=violation["buffer"],
                    kernel_id=int(violation["kernel_id"]),
                    lo=int(violation["lo"]),
                    hi=int(violation["hi"]),
                    is_store=bool(violation["is_store"]),
                    reason=violation["reason"]))
    events = order_events(events)

    latencies: Dict[str, List[int]] = {t.tenant_id: []
                                       for t in cfg.tenants}
    for request in trace:
        disp = plan.dispositions.get(request.request_id)
        entry = measured.get(request.request_id)
        if disp is None or disp.status != OK or entry is None:
            continue
        latencies[request.tenant_id].append(
            disp.wait_cycles + int(entry["cycles"]))
    for values in latencies.values():
        values.sort()

    tenants_out: Dict[str, dict] = {}
    violations_by_tenant: Dict[str, int] = {}
    for event in events:
        if event.kind == "violation":
            violations_by_tenant[event.tenant] = \
                violations_by_tenant.get(event.tenant, 0) + 1
    for tenant in cfg.tenants:
        tid = tenant.tenant_id
        mine = [r.request_id for r in trace if r.tenant_id == tid]
        disps = [plan.dispositions.get(rid) for rid in mine]
        info = {
            "requests": len(mine),
            "served": sum(1 for d in disps if d and d.status == OK),
            "shed": sum(1 for d in disps if d and d.status == SHED),
            "expired": sum(1 for d in disps if d and d.status == TIMEOUT),
            "violations": violations_by_tenant.get(tid, 0),
            "queue_peak": plan.queue_peaks.get(tid, 0),
            "p50_latency": _percentile(latencies[tid], 50),
            "p99_latency": _percentile(latencies[tid], 99),
        }
        tenants_out[tid] = info
        counters = stats.counters(f"service.tenants.{tid}")
        for key in ("requests", "served", "shed", "expired", "violations"):
            counters[key] = info[key]

    counts = plan.counts()
    sched_counters = stats.counters("service.scheduler")
    sched_counters.update({
        "served": counts[OK], "shed": counts[SHED],
        "expired": counts[TIMEOUT],
        "pairs": sum(1 for p in plan.placements if len(p.requests) > 1),
        "singles": sum(1 for p in plan.placements
                       if len(p.requests) == 1),
    })

    return ServiceReport(
        config=cfg, requests=len(trace), plan=plan, events=events,
        digest=audit_digest(events), tenants=tenants_out,
        latencies=latencies, makespan=plan.makespan, resets=resets,
        executed=executed, stats=stats,
        wall_seconds=time.monotonic() - started)
