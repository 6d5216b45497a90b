"""Profiles on the parallel runner: the ``profile.workload`` worker.

A profile of N subjects (benchmark names and/or fuzz cases) becomes
``profile.workload`` jobs, each a contiguous slice of the subject order
(:func:`repro.subjects.run_engines` plans them with
:func:`~repro.runner.shard.plan_slice_jobs`).  Every slice is profiled
on its own warm device and ships back one merged
:class:`ProfileSnapshot` (as JSON) plus the per-subject rows; this
worker is the only per-subject profile loop.  Because snapshot merge is
commutative and associative with the empty snapshot as identity,
:func:`fold_profiles` is bit-identical to profiling every subject in
one loop, regardless of shard count or completion order — the property
the merge property tests pin down.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.fuzz.spec import CaseSpec
from repro.gpu.config import nvidia_config
from repro.profiler.collect import profile_benchmark, profile_case
from repro.profiler.profile import ProfileSnapshot
from repro.runner.job import JobContext

PROFILE_KIND = "profile.workload"


def profile_shard_job(payload: dict, ctx: JobContext) -> dict:
    """Worker entrypoint (kind ``profile.workload``)."""
    counters = ctx.stats.counters("profiler.shard")
    counters.update({"workloads": 0, "cases": 0, "mismatches": 0})
    config = nvidia_config(num_cores=1)
    merged = ProfileSnapshot.empty()
    rows: List[dict] = []
    for subject in payload["items"]:
        if "workload" in subject:
            report = profile_benchmark(subject["workload"], config=config,
                                       seed=ctx.spec.seed)
            counters["workloads"] += 1
        else:
            spec = CaseSpec.from_dict(dict(subject["case"]))
            report = profile_case(spec, config=config)
            counters["cases"] += 1
        counters["mismatches"] += len(report.mismatches)
        merged = merged.merge(report.snapshot)
        rows.append({"subject": report.subject,
                     "cycles": report.record.cycles,
                     "reconciled": report.reconciled,
                     "mismatches": report.mismatches})
    return {"index_base": payload["index_base"], "rows": rows,
            "profile": merged.to_dict()}


def fold_profiles(payloads: Sequence[dict],
                  ) -> Tuple[ProfileSnapshot, List[dict]]:
    """Slice payloads (in subject order) -> (merged snapshot, rows)."""
    merged = ProfileSnapshot.empty()
    rows: List[dict] = []
    for payload in payloads:
        merged = merged.merge(ProfileSnapshot.from_dict(payload["profile"]))
        rows.extend(payload["rows"])
    return merged, rows
