"""Race scans on the parallel runner: the ``race.scan`` worker.

A scan of N subjects (benchmark names and/or fuzz cases) becomes
``race.scan`` jobs, each a contiguous slice of the subject order
(:func:`repro.subjects.run_engines` plans them with
:func:`~repro.runner.shard.plan_slice_jobs`).  Slices are self-contained
— benchmark names travel verbatim, fuzz specs as JSON — and every
subject seeds its own warm device, so a slice's scans are independent
of which process runs them: the merged scan is identical for any shard
count, including the inline ``--jobs 0`` run.  This worker is the only
per-subject scan loop.
"""

from __future__ import annotations

from typing import List

from repro.fuzz.spec import CaseSpec
from repro.gpu.config import nvidia_config
from repro.racedetect.scan import scan_benchmark, scan_case
from repro.runner.job import JobContext

SCAN_KIND = "race.scan"


def race_scan_job(payload: dict, ctx: JobContext) -> dict:
    """Worker entrypoint (kind ``race.scan``): scan one subject slice."""
    counters = ctx.stats.counters("racedetect.scan")
    counters.update({"workloads": 0, "cases": 0, "races": 0,
                     "contract_failures": 0})
    config = nvidia_config(num_cores=1)
    full = bool(payload["full_report"])
    results: List[dict] = []
    for subject in payload["items"]:
        if "workload" in subject:
            scan = scan_benchmark(subject["workload"], config=config,
                                  seed=ctx.spec.seed, full_report=full)
            counters["workloads"] += 1
            ok = scan.ok and scan.dynamic_verdict == "race-free"
            results.append({"subject": subject["workload"],
                            "scan": scan.to_dict(), "ok": ok})
            counters["races"] += scan.races
            if not ok:
                counters["contract_failures"] += 1
        else:
            spec = CaseSpec.from_dict(dict(subject["case"]))
            case = scan_case(spec, config=config, full_report=full)
            counters["cases"] += 1
            counters["races"] += case.scan.races
            results.append({"subject": spec.case_id,
                            "case": case.to_dict(), "ok": case.ok})
            if not case.ok:
                counters["contract_failures"] += 1
    return {"index_base": payload["index_base"], "results": results}
